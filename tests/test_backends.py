"""Backend tests: mock chat rules, golden embedder vectors, remote protocol."""

import json
import pickle
import re
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import splitmix_components

from memaug import (
    AttributeMiner,
    BackendProfile,
    Granularity,
    HashEmbedder,
    ItemKind,
    MemoryItem,
    MockChatBackend,
    Perspective,
    RemoteChatBackend,
    RemoteEmbedder,
    TransportError,
    ZeroVectorError,
)
from memaug.errors import AugmentFailure, BackendRefusal
from memaug.templates import (
    ENTITY_BASIC,
    QUESTION_AUGMENTATION,
    RECOMMENDATION,
    TURN_BASIC,
)

# Frozen outputs of the token hash/mix chain (computed with an independent
# pure-python oracle before the embedder was written). Raw components are the
# direct chain output in [-1, 1); unit vectors are the normalized single-token
# embeddings.
GOLDEN_RAW = {
    "genre": [
        0.37515070412488205,
        0.25085570647207645,
        -0.44392864563788725,
        -0.30712249935920655,
        0.019354125280263368,
        -0.28939167381206654,
        0.5293153771790173,
        0.9811495539118524,
    ],
    "[a]<1>": [
        -0.6913119558722272,
        0.22732435640491677,
        0.20105418567741884,
        -0.7065605658263088,
        0.6337774825236542,
        0.4876160805392691,
        0.06894073266157097,
        0.782599676094546,
    ],
    "[b]<2>": [
        -0.5685381237533722,
        -0.06278548586859922,
        -0.5352046438619062,
        -0.24956822595843908,
        0.11584610625091707,
        -0.7250413725915161,
        0.42869794910714876,
        -0.5510144977227305,
    ],
}
GOLDEN_UNIT_GENRE = [
    0.27792640519628786,
    0.18584377946296168,
    -0.32887981093785595,
    -0.22752843394208128,
    0.014338297664694239,
    -0.2143927406025888,
    0.3921376619501441,
    0.7268742014352959,
]


class TestHashEmbedder:
    def test_golden_raw_components(self):
        embedder = HashEmbedder(8)
        for token, expected in GOLDEN_RAW.items():
            np.testing.assert_allclose(embedder.token_vector(token), expected, rtol=0, atol=0)

    def test_golden_unit_vector(self):
        embedder = HashEmbedder(8)
        np.testing.assert_allclose(embedder.embed("genre"), GOLDEN_UNIT_GENRE, atol=1e-15)

    def test_deterministic(self):
        embedder = HashEmbedder(8)
        first = embedder.embed("some text here")
        second = HashEmbedder(8).embed("some text here")
        np.testing.assert_array_equal(first, second)

    def test_self_cosine_is_one(self):
        embedder = HashEmbedder(8)
        vector = embedder.embed("hello world")
        assert float(vector @ vector) == pytest.approx(1.0, abs=1e-6)

    def test_case_folded_tokenization(self):
        embedder = HashEmbedder(8)
        np.testing.assert_array_equal(embedder.embed("GENRE"), embedder.embed("genre"))

    def test_average_of_token_vectors(self):
        embedder = HashEmbedder(8)
        mean = (embedder.token_vector("alpha") + embedder.token_vector("beta")) / 2
        expected = mean / np.linalg.norm(mean)
        np.testing.assert_allclose(embedder.embed("alpha BETA"), expected, atol=1e-15)

    def test_no_tokens_raises(self):
        with pytest.raises(ZeroVectorError):
            HashEmbedder(8).embed("   ")

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            HashEmbedder(0)
        assert HashEmbedder(64).embed("x").shape == (64,)

    def test_embed_many_rows_equal_embed(self):
        texts = ["genre", "alpha BETA", "[a]<1> [b]<2>", "alpha", "genre noir genre"]
        rows = HashEmbedder(8).embed_many(texts)
        assert rows.shape == (5, 8)
        for text, row in zip(texts, rows):
            assert row.tobytes() == HashEmbedder(8).embed(text).tobytes()

    def test_embed_many_empty_batch_and_blank_text(self):
        assert HashEmbedder(8).embed_many([]).shape == (0, 8)
        with pytest.raises(ZeroVectorError):
            HashEmbedder(8).embed_many(["fine", " "])

    @pytest.mark.parametrize("dimension", [True, False, 8.0, "8", None, np.int64(8)])
    def test_dimension_must_be_an_int(self, dimension):
        with pytest.raises(ValueError, match="^dimension must be a positive integer, got "):
            HashEmbedder(dimension)

    def test_no_state_changes_after_embedding(self):
        embedder = HashEmbedder(16)
        before = pickle.dumps(vars(embedder))
        embedder.embed_many([f"token{i} word{i % 97}" for i in range(10_000)])
        embedder.token_vector("one-more-token")
        assert pickle.dumps(vars(embedder)) == before

    def test_64kb_token_matches_scalar_oracle(self):
        # 1 + 2 + 3 + 4 UTF-8 bytes per repeat: 6,553 repeats and 6 bytes more.
        long = "aé€𝄞" * 6_553 + "abcdef"
        assert len(long.encode("utf-8")) == 65_536
        dimension = 64
        rows = HashEmbedder(dimension).embed_many([long, "x", f"{long} x"])
        components = [np.array(splitmix_components(token, dimension)) for token in (long, "x")]
        for component, row in zip(components, rows):
            assert row.tobytes() == (component / np.linalg.norm(component)).tobytes()
        mean = (components[0] + components[1]) / 2
        assert rows[2].tobytes() == (mean / np.linalg.norm(mean)).tobytes()


# Whitespace-free tokens that survive case folding as one token, multi-byte
# code points included.
_TOKENS = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=12
).map(str.casefold).filter(lambda token: token.split() == [token])


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(st.lists(_TOKENS, min_size=1, max_size=4), min_size=1, max_size=6),
    dimension=st.sampled_from([1, 8, 256]),
)
def test_embed_many_matches_scalar_oracle(texts, dimension):
    embedder = HashEmbedder(dimension)
    rows = embedder.embed_many([" ".join(tokens) for tokens in texts])
    for tokens, row in zip(texts, rows):
        total = np.zeros(dimension)
        for token in tokens:
            component = np.array(splitmix_components(token, dimension))
            assert embedder.token_vector(token).tobytes() == component.tobytes()
            total += component
        mean = total / len(tokens)
        assert row.tobytes() == (mean / np.linalg.norm(mean)).tobytes()


def _fit_200_bytes(token: str) -> str:
    while len(token.encode("utf-8")) > 200:
        token = token[:-1]
    return token


# Case-folded whitespace-free tokens of 50 to 200 UTF-8 bytes, up to four
# bytes per code point; _TOKENS supplies the short ones.
_LONG_TOKENS = (
    st.text(
        st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")),
        min_size=50,
        max_size=200,
    )
    .map(str.casefold)
    .map(_fit_200_bytes)
    .filter(lambda token: token.split() == [token] and token.casefold() == token)
)


@settings(max_examples=40, deadline=None)
@given(
    short=st.lists(_TOKENS, min_size=1, max_size=60),
    long=st.lists(_LONG_TOKENS, min_size=1, max_size=60),
    seed=st.randoms(use_true_random=False),
)
def test_numpy_fnv_matches_scalar_oracle(short, long, seed):
    # At dimension 1024 a block holds 64 texts, so batches of more than 64
    # tokens cross a block boundary.
    dimension = 1024
    tokens = short + long
    seed.shuffle(tokens)
    embedder = HashEmbedder(dimension)
    rows = embedder.embed_many(tokens + [" ".join(tokens)])
    expected = {token: np.array(splitmix_components(token, dimension)) for token in tokens}
    fresh = HashEmbedder(dimension)
    for token, row in zip(tokens, rows):
        component = expected[token]
        assert embedder.token_vector(token).tobytes() == component.tobytes()
        assert fresh.token_vector(token).tobytes() == component.tobytes()
        assert row.tobytes() == (component / np.linalg.norm(component)).tobytes()
    total = np.zeros(dimension)
    for token in tokens:
        total += expected[token]
    mean = total / len(tokens)
    assert rows[-1].tobytes() == (mean / np.linalg.norm(mean)).tobytes()


class TestMockChatBackend:
    def test_rule_table_over_token_order(self):
        # hand-run of the default rules over "I loved the thriller Heat":
        # loved -> sentiment, thriller -> genre, Heat -> person capture
        backend = MockChatBackend()
        response = backend.complete(
            "ignored", template=ENTITY_BASIC, payload="I loved the thriller Heat"
        )
        assert response == "[sentiment]<positive> [genre]<thriller> [person]<Heat>"

    def test_pure_function_of_payload(self):
        backend = MockChatBackend()
        one = backend.complete("a", template=ENTITY_BASIC, payload="loved Heat")
        two = MockChatBackend().complete("b", template=ENTITY_BASIC, payload="loved Heat")
        assert one == two

    def test_punctuation_stripped_for_matching(self):
        backend = MockChatBackend()
        response = backend.complete("x", template=ENTITY_BASIC, payload="it was a comedy, truly.")
        assert "[genre]<comedy>" in response

    def test_no_rules_fire_yields_empty(self):
        backend = MockChatBackend()
        assert backend.complete("x", template=ENTITY_BASIC, payload="zzz qqq") == ""

    def test_turn_scoped_format(self):
        backend = MockChatBackend()
        response = backend.complete(
            "x", template=TURN_BASIC, payload="[D1] Ana: I loved this thriller"
        )
        assert response == "{Ana:[D1]:[sentiment]<positive> [genre]<thriller>}"

    def test_person_attributes_format(self):
        backend = MockChatBackend()
        response = backend.complete(
            "x", template=QUESTION_AUGMENTATION, payload="What thriller did Ana enjoy"
        )
        assert response == "Person:[Ana]Attributes:[genre]"

    def test_ranked_list_echoes_candidates(self):
        backend = MockChatBackend()
        payload = "Conversation:\nblah\nCandidates:\n- First Film\n  [genre]<noir>\n- Second Film"
        response = backend.complete("x", template=RECOMMENDATION, payload=payload)
        assert response.splitlines() == ["- First Film", "- Second Film"]

    def test_capture_persons_off(self):
        backend = MockChatBackend(capture_persons=False)
        assert backend.complete("x", template=ENTITY_BASIC, payload="Heat Rocky") == ""

    def test_custom_rules(self):
        backend = MockChatBackend({"noir": ("genre", "noir")}, capture_persons=False)
        response = backend.complete("x", template=ENTITY_BASIC, payload="something noir tonight")
        assert response == "[genre]<noir>"


class TestBackendProfile:
    def test_remote_requires_endpoint(self):
        for endpoint in (None, ""):
            with pytest.raises(ValueError, match="^remote backends require an endpoint$"):
                BackendProfile(endpoint=endpoint)

    @pytest.mark.parametrize("timeout", [float("inf"), -1.0, float("nan"), 0, True, "30"])
    def test_timeout_must_be_a_positive_finite_number(self, timeout):
        message = f"timeout must be a positive, finite number, got {timeout!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BackendProfile(endpoint="http://127.0.0.1:9/", timeout=timeout)


# The failing models of the stub: (HTTP status, body).
_STUB_FAILURES = {
    "boom": (500, b"server exploded"),
    "busy": (429, b"slow down"),
    "bad": (400, b"bad request"),
    "notjson": (200, b"not json"),
}


class _StubHandler(BaseHTTPRequestHandler):
    """OpenAI-shaped stub: echoes enough to verify the client protocol.

    Embedding requests are logged in ``requests``. Model ``emb`` embeds every
    input as ``[1, 2, 2]``; model ``drift`` as ones, as many as the request
    has inputs, so two requests of different sizes disagree on the dimension;
    any other model as ``[len(text), 1, 0]``. Rows come back in reverse order,
    each tagged with its input position. On either path, model ``boom`` gets
    HTTP 500, ``busy`` HTTP 429, ``bad`` HTTP 400 and ``notjson`` a non-JSON
    body. Every request is counted by model in ``posts``.
    """

    requests: list[dict] = []
    posts: Counter[str] = Counter()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        type(self).posts[request.get("model")] += 1
        failure = _STUB_FAILURES.get(request.get("model"))
        if failure is not None:
            status, body = failure
            self.send_response(status)
            self.end_headers()
            self.wfile.write(body)
            return
        if self.path.endswith("/chat/completions"):
            body = {
                "choices": [
                    {
                        "message": {
                            "content": f"echo: {request['messages'][0]['content']}"
                        },
                        "finish_reason": "stop",
                    }
                ]
            }
        elif self.path.endswith("/embeddings"):
            type(self).requests.append(request)
            embed = {
                "emb": lambda text: [1.0, 2.0, 2.0],
                "drift": lambda text: [1.0] * len(request["input"]),
            }.get(request["model"], lambda text: [len(text), 1.0, 0.0])
            rows = [
                {"index": i, "embedding": embed(text)}
                for i, text in enumerate(request["input"])
            ]
            body = {"data": rows[::-1]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        payload = json.dumps(body).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRemoteBackends:
    def test_chat_round_trip(self, stub_server):
        profile = BackendProfile(model_id="m1", endpoint=stub_server)
        backend = RemoteChatBackend(profile)
        assert backend.complete("hello") == "echo: hello"

    def test_chat_http_error(self, stub_server):
        profile = BackendProfile(model_id="boom", endpoint=stub_server)
        with pytest.raises(TransportError):
            RemoteChatBackend(profile).complete("hello")

    def test_chat_connection_refused(self):
        profile = BackendProfile(
            model_id="m1",
            endpoint="http://127.0.0.1:9",
            timeout=0.2,
        )
        with pytest.raises(TransportError) as exc_info:
            RemoteChatBackend(profile).complete("hello")
        assert exc_info.value.transient

    @pytest.mark.parametrize("what", ["chat", "embedding"])
    @pytest.mark.parametrize(
        "model, message",
        [
            ("boom", "^{what} request returned HTTP 500: server exploded$"),
            ("notjson", "^malformed {what} response: "),
        ],
    )
    def test_http_failures_name_the_request(self, stub_server, what, model, message):
        profile = BackendProfile(model_id=model, endpoint=stub_server)
        client = RemoteChatBackend(profile) if what == "chat" else RemoteEmbedder(profile)
        call = client.complete if what == "chat" else client.embed
        with pytest.raises(TransportError, match=message.format(what=what)):
            call("hello")

    @pytest.mark.parametrize("what", ["chat", "embedding"])
    @pytest.mark.parametrize(
        "model, transient", [("boom", True), ("busy", True), ("bad", False), ("notjson", False)]
    )
    def test_only_429_and_5xx_replies_are_transient(self, stub_server, what, model, transient):
        profile = BackendProfile(model_id=model, endpoint=stub_server)
        client = RemoteChatBackend(profile) if what == "chat" else RemoteEmbedder(profile)
        call = client.complete if what == "chat" else client.embed
        with pytest.raises(TransportError) as exc_info:
            call("hello")
        assert exc_info.value.transient is transient

    @pytest.mark.parametrize(
        "model, requests_made", [("boom", 3), ("busy", 3), ("bad", 1), ("notjson", 1)]
    )
    def test_mining_retries_only_transient_errors(self, stub_server, model, requests_made):
        profile = BackendProfile(model_id=model, endpoint=stub_server)
        miner = AttributeMiner(
            RemoteChatBackend(profile), perspective=Perspective.ENTITY_CENTRIC,
            granularity=Granularity.NOT_APPLICABLE, max_retries=2,
        )
        _StubHandler.posts.clear()
        with pytest.raises(AugmentFailure) as exc_info:
            miner.mine(MemoryItem("m1", ItemKind.ENTITY, "a noir thriller"))
        assert exc_info.value.reason == "transport"
        assert _StubHandler.posts == {model: requests_made}
        _StubHandler.posts.clear()
        with pytest.raises(AugmentFailure):
            miner.mine_question("what does Ana like?")
        assert _StubHandler.posts == {model: requests_made}

    def test_embeddings_round_trip(self, stub_server):
        profile = BackendProfile(model_id="emb", endpoint=stub_server)
        embedder = RemoteEmbedder(profile)
        np.testing.assert_array_equal(embedder.embed("text"), [1.0, 2.0, 2.0])
        assert embedder.dimension == 3

    def test_embeddings_dimension_unknown_before_first_call(self, stub_server):
        profile = BackendProfile(model_id="emb", endpoint=stub_server)
        with pytest.raises(TransportError):
            _ = RemoteEmbedder(profile).dimension


class _ReplySession:
    """A session whose every POST is answered with ``body`` (HTTP 200); the
    headers of the last request are kept in ``headers``."""

    def __init__(self, body):
        self.body = body
        self.headers = None

    def post(self, *args, **kwargs):
        self.headers = kwargs["headers"]
        reply = requests.Response()
        reply.status_code, reply._content = 200, json.dumps(self.body).encode()
        return reply


class _RaisingSession:
    """A session whose every POST raises ``error``."""

    def __init__(self, error):
        self.error = error

    def post(self, *args, **kwargs):
        raise self.error


@pytest.mark.parametrize(
    "error, transient",
    [
        (requests.ConnectionError("reset"), True),
        (requests.ConnectTimeout("connect timed out"), True),
        (requests.ReadTimeout("read timed out"), True),
        (requests.exceptions.InvalidURL("bad url"), False),
        (requests.TooManyRedirects("loop"), False),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_only_connection_errors_and_timeouts_are_transient(error, transient):
    profile = BackendProfile(model_id="m", endpoint="http://127.0.0.1:9")
    backend = RemoteChatBackend(profile, session=_RaisingSession(error))
    with pytest.raises(TransportError, match="^chat request failed: ") as exc_info:
        backend.complete("hello")
    assert exc_info.value.transient is transient


class TestRemoteChatReplies:
    @staticmethod
    def _complete(body, **profile):
        session = _ReplySession(body)
        profile = BackendProfile(model_id="m", endpoint="http://127.0.0.1:9", **profile)
        return RemoteChatBackend(profile, session=session).complete("hello"), session

    def test_content_filter_is_a_refusal(self):
        body = {"choices": [{"message": {"content": ""}, "finish_reason": "content_filter"}]}
        with pytest.raises(BackendRefusal, match="^backend declined the prompt$"):
            self._complete(body)

    @pytest.mark.parametrize("body", [{}, {"choices": []}, {"choices": [{"message": None}]}])
    def test_reply_without_a_choice_is_malformed(self, body):
        with pytest.raises(TransportError, match="^malformed chat response: ") as exc_info:
            self._complete(body)
        assert not exc_info.value.transient

    def test_bearer_key_is_read_from_api_key_env(self, monkeypatch):
        body = {"choices": [{"message": {"content": "hi"}, "finish_reason": "stop"}]}
        monkeypatch.setenv("MEMAUG_TEST_KEY", "s3cret")
        reply, session = self._complete(body, api_key_env="MEMAUG_TEST_KEY")
        assert reply == "hi"
        assert session.headers["Authorization"] == "Bearer s3cret"
        monkeypatch.delenv("MEMAUG_TEST_KEY")
        _, session = self._complete(body, api_key_env="MEMAUG_TEST_KEY")
        assert "Authorization" not in session.headers


class TestRemoteEmbeddingBatches:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rows_are_a_malformed_response(self, value):
        body = {"data": [{"index": 0, "embedding": [1.0, value, 0.0]}]}
        profile = BackendProfile(model_id="emb", endpoint="http://127.0.0.1:9")
        embedder = RemoteEmbedder(profile, session=_ReplySession(body))
        with pytest.raises(TransportError, match="^malformed embedding response: "):
            embedder.embed("text")


    def test_embed_many_chunks_and_reorders(self, stub_server):
        _StubHandler.requests.clear()
        profile = BackendProfile(model_id="emb-len", endpoint=stub_server)
        embedder = RemoteEmbedder(profile)
        texts = ["x" * (i % 7 + 1) for i in range(2 * RemoteEmbedder.BATCH_SIZE + 2)]
        rows = embedder.embed_many(texts)
        np.testing.assert_array_equal(rows[:, 0], [len(text) for text in texts])
        sizes = [len(r["input"]) for r in _StubHandler.requests]
        assert sizes == [RemoteEmbedder.BATCH_SIZE, RemoteEmbedder.BATCH_SIZE, 2]
        assert [t for r in _StubHandler.requests for t in r["input"]] == texts
        assert {r["model"] for r in _StubHandler.requests} == {"emb-len"}
        assert embedder.dimension == 3
        np.testing.assert_array_equal(embedder.embed("xy"), [2.0, 1.0, 0.0])

    def test_dimension_drift_between_chunks_rejected(self, stub_server):
        profile = BackendProfile(model_id="drift", endpoint=stub_server)
        embedder = RemoteEmbedder(profile)
        with pytest.raises(TransportError, match="do not match the dimension"):
            embedder.embed_many(["x"] * (RemoteEmbedder.BATCH_SIZE + 1))
        assert embedder.dimension == RemoteEmbedder.BATCH_SIZE
        with pytest.raises(TransportError, match="do not match the dimension"):
            embedder.embed("x")

    def test_cli_embed_model_separate_from_chat_model(self, stub_server, tmp_path, capsys):
        from memaug import ItemKind, MemoryItem, MemoryStore, VectorIndex
        from memaug.cli import build_parser, main

        store = MemoryStore()
        for i, content in enumerate(["x", "yy", "zzz"]):
            store.write(MemoryItem(id=f"m{i}", kind=ItemKind.ENTITY, content=content))
        store_path, index_path = tmp_path / "store.jsonl", tmp_path / "index.bin"
        store.save(store_path)
        _StubHandler.requests.clear()
        argv = [
            "index", "--store", str(store_path), "--out", str(index_path), "--strategy", "raw",
            "--backend", "remote", "--endpoint", stub_server, "--embed-model", "emb-len",
        ]
        assert main(argv) == 0
        assert {r["model"] for r in _StubHandler.requests} == {"emb-len"}
        index = VectorIndex.load(index_path)
        assert (index.embedder_kind, index.embedder_model) == ("remote", "emb-len")
        with pytest.raises(SystemExit) as refused:  # index makes no chat call
            main(argv + ["--model", "chat-m"])
        assert refused.value.code == 1
        assert "unrecognized arguments: --model chat-m" in capsys.readouterr().err
        assert build_parser().parse_args(argv[:5]).embed_model is None
        assert main(argv[:-2]) == 1
        assert "--embed-model" in capsys.readouterr().err
        query = ["retrieve", "x", "--store", str(store_path), "--index", str(index_path)]
        assert main(query) == 1
        assert "index was built by embedder ('remote', 'emb-len')" in capsys.readouterr().err
        # retrieve takes both models: the chat one mines the question, and
        # only the embedding one reaches /embeddings.
        _StubHandler.requests.clear()
        query += ["--backend", "remote", "--endpoint", stub_server,
                  "--model", "chat-m", "--embed-model", "emb-len"]
        assert main(query) == 0
        assert {r["model"] for r in _StubHandler.requests} == {"emb-len"}
        args = build_parser().parse_args(query)
        assert (args.model, args.embed_model) == ("chat-m", "emb-len")

    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "--out", "out.index", "--strategy", "raw", "--embed-model", "boom"],
            ["retrieve", "x", "--mode", "attribute", "--model", "boom", "--max-retries", "0"],
        ],
        ids=["index", "retrieve"],
    )
    def test_cli_backend_failure_exits_3(self, stub_server, tmp_path, monkeypatch, capsys, argv):
        from memaug import ItemKind, MemoryItem, MemoryStore
        from memaug.cli import main

        monkeypatch.chdir(tmp_path)
        store = MemoryStore()
        store.write(MemoryItem(id="m0", kind=ItemKind.ENTITY, content="x"))
        store.save("store.jsonl")
        remote = ["--store", "store.jsonl", "--backend", "remote", "--endpoint", stub_server]
        capsys.readouterr()
        assert main(argv + remote) == 3
        assert "request returned HTTP 500: server exploded" in capsys.readouterr().err
        assert not (tmp_path / "out.index").exists()
