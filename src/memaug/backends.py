"""Text-generation and embedding backends.

Two families live here:

* Chat backends answer prompts. ``MockChatBackend(rules)`` is a deterministic
  rule table for offline runs and tests; ``RemoteChatBackend(profile)`` speaks
  an OpenAI-compatible ``/chat/completions`` JSON protocol.
* Embedders map text to fixed-dimension vectors. ``HashEmbedder(dim)`` derives
  vectors from token hashes (deterministic across runs and platforms);
  ``RemoteEmbedder(profile)`` speaks an OpenAI-compatible ``/embeddings`` protocol.

Each is built directly; a :class:`BackendProfile` holds a remote one's settings.
Every backend is safe for concurrent calls.
"""

from __future__ import annotations

import math
import os
import string
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np
import requests

from .errors import BackendRefusal, TransportError, ZeroVectorError, check_count
from .templates import PromptTemplate, ResponseFormat


@dataclass(frozen=True)
class BackendProfile:
    """Settings of a remote client; ``endpoint`` is required, and ``timeout``
    is a positive, finite number of seconds.

    The API key is never stored here; it is read from the environment
    variable named by ``api_key_env`` at request time.
    """

    model_id: str = "mock"
    endpoint: str | None = None
    timeout: float = 30.0
    api_key_env: str = "MEMAUG_API_KEY"

    def __post_init__(self):
        if not self.endpoint:
            raise ValueError("remote backends require an endpoint")
        t = self.timeout
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0 < t < math.inf:
            raise ValueError(f"timeout must be a positive, finite number, got {t!r}")


class ChatBackend(Protocol):
    """Prompt in, response text out.

    ``template`` and ``payload`` describe how the prompt was built; remote
    backends ignore them, deterministic local backends may key off them.
    """

    def complete(
        self,
        prompt: str,
        *,
        template: PromptTemplate | None = None,
        payload: str | None = None,
    ) -> str: ...


# Keyword rules applied by the mock backend, in token order. Values for the
# genre entries are the token itself.
DEFAULT_MOCK_RULES: dict[str, tuple[str, str]] = {
    "love": ("sentiment", "positive"),
    "loved": ("sentiment", "positive"),
    "enjoyed": ("sentiment", "positive"),
    "liked": ("sentiment", "positive"),
    "great": ("sentiment", "positive"),
    "amazing": ("sentiment", "positive"),
    "hated": ("sentiment", "negative"),
    "boring": ("sentiment", "negative"),
    "awful": ("sentiment", "negative"),
    "terrible": ("sentiment", "negative"),
    "thriller": ("genre", "thriller"),
    "comedy": ("genre", "comedy"),
    "drama": ("genre", "drama"),
    "horror": ("genre", "horror"),
    "romance": ("genre", "romance"),
    "documentary": ("genre", "documentary"),
    "action": ("genre", "action"),
}

_PUNCT = string.punctuation

# Sentence-leading words the person capture must not mistake for names.
_CAP_STOPWORDS = frozenset(
    "what who whom where when why how is are was were do does did the an a i my".split()
)


def _is_proper_noun(token: str) -> bool:
    return (
        len(token) >= 2
        and token.isalpha()
        and token[0].isupper()
        and token.casefold() not in _CAP_STOPWORDS
    )


class MockChatBackend:
    """Deterministic stand-in for an LLM.

    Responses are a pure function of (template id, payload): a rule table
    maps case-folded payload tokens to attribute-value pairs, capitalized
    alphabetic tokens are captured as ``(person, token)``, and the response
    is rendered in whatever format the template expects. Identical inputs
    produce identical output on every run and platform.
    """

    def __init__(
        self,
        rules: dict[str, tuple[str, str]] | None = None,
        *,
        capture_persons: bool = True,
    ):
        self.rules = dict(DEFAULT_MOCK_RULES if rules is None else rules)
        self.capture_persons = capture_persons

    def _tokens(self, text: str):
        """Each token of ``text`` as its rule (looked up raw, then with
        punctuation stripped, both case-folded; None if neither matches)
        and its punctuation-stripped form."""
        rule_of = self.rules.get
        for raw in text.split():
            stripped = raw.strip(_PUNCT)
            rule = rule_of(raw.casefold())
            if rule is None and stripped and stripped != raw:
                rule = rule_of(stripped.casefold())
            yield rule, stripped

    def _mine(self, text: str) -> list[tuple[str, str]]:
        return [
            rule or ("person", stripped)
            for rule, stripped in self._tokens(text)
            if rule or (self.capture_persons and _is_proper_noun(stripped))
        ]

    @staticmethod
    def _render_pairs(pairs: Sequence[tuple[str, str]]) -> str:
        return " ".join(f"[{name}]<{value}>" for name, value in pairs)

    def _turn_scoped(self, payload: str) -> str:
        groups = []
        for line in payload.splitlines():
            line = line.strip()
            if not line.startswith("["):
                continue
            id_close = line.find("]")
            if id_close == -1:
                continue
            dialog_id = line[1:id_close].strip()
            speaker, sep, text = line[id_close + 1 :].partition(":")
            if not sep:
                continue
            rendered = self._render_pairs(self._mine(text))
            groups.append(f"{{{speaker.strip()}:[{dialog_id}]:{rendered}}}")
        return "".join(groups)

    def _person_attributes(self, payload: str) -> str:
        persons, attributes = {}, {}  # dicts keep the first of each, in order
        for rule, word in self._tokens(payload):
            if rule:
                attributes[rule[0]] = None
            elif _is_proper_noun(word):
                persons[word] = None
        return f"Person:[{', '.join(persons)}]Attributes:[{', '.join(attributes)}]"

    @staticmethod
    def _ranked_list(payload: str) -> str:
        lines = [line for line in payload.splitlines() if line.lstrip().startswith("- ")]
        return "\n".join(line.strip() for line in lines)

    def complete(
        self,
        prompt: str,
        *,
        template: PromptTemplate | None = None,
        payload: str | None = None,
    ) -> str:
        if payload is None:
            payload = prompt
        expected = template.expected_format if template else ResponseFormat.PAIR_LIST
        if expected is ResponseFormat.PAIR_LIST:
            return self._render_pairs(self._mine(payload))
        if expected is ResponseFormat.TURN_SCOPED_PAIR_LIST:
            return self._turn_scoped(payload)
        if expected is ResponseFormat.PERSON_ATTRIBUTES:
            return self._person_attributes(payload)
        if expected is ResponseFormat.RANKED_LIST:
            return self._ranked_list(payload)
        return payload


class _RemoteClient:
    """A remote profile and the one HTTP session its requests share."""

    def __init__(self, profile: BackendProfile, session: requests.Session | None = None):
        self.profile = profile
        self._session = session or requests.Session()

    def _post(self, path: str, body: dict, what: str):
        """POST ``body`` to the profile's endpoint + ``path``; return the decoded JSON.

        The bearer key is read from ``profile.api_key_env`` at call time. A
        failed request, a non-200 status or a non-JSON body raises
        :class:`TransportError` whose message names the ``what`` request; it
        is transient for a connection error, a timeout, HTTP 429 and 5xx.
        """
        profile = self.profile
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(profile.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = profile.endpoint.rstrip("/") + path
        try:
            response = self._session.post(url, json=body, headers=headers, timeout=profile.timeout)
        except requests.RequestException as exc:
            transient = isinstance(exc, (requests.ConnectionError, requests.Timeout))
            raise TransportError(f"{what} request failed: {exc}", transient=transient) from exc
        status = response.status_code
        if status != 200:
            raise TransportError(
                f"{what} request returned HTTP {status}: {response.text[:200]}",
                transient=status == 429 or status >= 500,
            )
        try:
            return response.json()
        except ValueError as exc:
            raise TransportError(f"malformed {what} response: {exc}") from exc


class RemoteChatBackend(_RemoteClient):
    """OpenAI-compatible chat-completions client."""

    def complete(self, prompt, *, template=None, payload=None) -> str:
        body = {
            "model": self.profile.model_id,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = self._post("/chat/completions", body, "chat")
        try:
            choice = data["choices"][0]
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {exc}") from exc
        if choice.get("finish_reason") == "content_filter":
            raise BackendRefusal("backend declined the prompt")
        return content


# 64-bit mixing chain used by the hash embedder. Fixed forever: golden test
# vectors are frozen against it.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MULT1 = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB


# Elements per numpy pass of the hash embedder: 256 texts at dimension 256,
# so each temporary (512 KB a token position) stays in CPU cache. Passes of
# 4,096 tokens (8 MB temporaries) made embed_many 1.4x slower.
_CHUNK_ELEMENTS = 1 << 16


def _fnv1a_seeds(tokens: Sequence[str]) -> np.ndarray:
    """The 64-bit FNV-1a hash of each token's UTF-8 bytes, in token order."""
    seeds = []
    for token in tokens:
        state = _FNV_OFFSET
        for byte in token.encode("utf-8"):
            state = ((state ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        seeds.append(state)
    return np.array(seeds, dtype=np.uint64)


def _components(seeds: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Expand ``uint64`` seeds into a ``(len(seeds), len(steps))`` array in [-1, 1).

    Each seed starts a SplitMix64 stream advanced by ``steps``; each 64-bit
    draw keeps its top 53 bits, scaled into [-1, 1). The streams advance
    together in wrapping ``uint64`` arithmetic: exact on every platform.
    """
    z = seeds[:, None] + steps
    z ^= z >> np.uint64(30)
    z *= np.uint64(_SM_MULT1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_SM_MULT2)
    z ^= z >> np.uint64(31)
    # x / 2**53 * 2 == x * 2**-52 exactly: each step scales by a power of two.
    out = (z >> np.uint64(11)) * 2.0**-52
    out -= 1.0
    return out


_ZERO_NORM = "cannot normalize a zero vector"
_MIN_NORM = 1e-12  # A vector with a smaller L2 norm counts as zero.


def _unit_means(out: np.ndarray, keys: Sequence[Sequence], gather: Callable) -> np.ndarray:
    """Set ``out[i]`` to the mean of the rows ``gather`` returns for ``keys[i]``,
    summed key by key in key order, then scaled to unit L2 norm.

    A mean whose norm is below ``_MIN_NORM`` cannot be normalized: its row
    is left unscaled and marked in the mask returned.
    """
    by_length: dict[int, list[int]] = {}
    for i, item in enumerate(keys):
        by_length.setdefault(len(item), []).append(i)
    for length, members in by_length.items():
        total = np.zeros((len(members), out.shape[1]), dtype=np.float64)
        for j in range(length):
            total += gather([keys[i][j] for i in members])
        out[members] = total / length
    norms = np.sqrt(np.matmul(out[:, None, :], out[:, :, None]).ravel())
    zero = norms < _MIN_NORM
    out /= np.where(zero, 1.0, norms)[:, None]
    return zero


class Embedder(Protocol):
    """Text to vectors; ``embed_many`` row ``i`` equals ``embed(texts[i])``.

    ``kind`` and ``model`` name the embedder in an index file's header.
    """

    kind: str
    model: str | None

    @property
    def dimension(self) -> int: ...

    def embed(self, text: str) -> np.ndarray: ...

    def embed_many(self, texts: Sequence[str]) -> np.ndarray: ...


class HashEmbedder:
    """Deterministic token-hash embedder used as the offline mock.

    Text is case-folded and split on whitespace; each token expands through
    the fixed hash/mix chain into a vector, token vectors are summed in token
    order and averaged, and the mean is L2-normalized. There is no semantic
    signal: two texts are similar exactly to the extent that they share
    tokens. The embedder keeps no state beyond its dimension: every call
    hashes its tokens afresh, so a vector depends only on the text.
    """

    kind = "hash"
    model = None

    def __init__(self, dimension: int = 8):
        self._dimension = check_count(dimension, "dimension")
        self._steps = np.arange(1, dimension + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)

    @property
    def dimension(self) -> int:
        return self._dimension

    def token_vector(self, token: str) -> np.ndarray:
        """Raw (pre-normalization) vector for one case-folded token."""
        return _components(_fnv1a_seeds([token]), self._steps)[0]

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        token_lists = [text.casefold().split() for text in texts]
        if not all(token_lists):
            raise ZeroVectorError("no tokens to embed")
        out = np.empty((len(texts), self._dimension), dtype=np.float64)
        block = max(1, _CHUNK_ELEMENTS // self._dimension)
        for start in range(0, len(texts), block):
            lists = token_lists[start : start + block]
            distinct = list(dict.fromkeys(token for tokens in lists for token in tokens))
            row_of = {token: row for row, token in enumerate(distinct)}
            rows = out[start : start + block]
            indexes = [[row_of[token] for token in tokens] for tokens in lists]
            components = _components(_fnv1a_seeds(distinct), self._steps)
            if _unit_means(rows, indexes, components.__getitem__).any():
                raise ZeroVectorError(_ZERO_NORM)
        return out


class RemoteEmbedder(_RemoteClient):
    """OpenAI-compatible embeddings client; dimension is backend-reported.

    ``embed_many`` sends up to ``BATCH_SIZE`` texts per request as an
    ``input`` list and orders the returned rows by their ``index`` field.
    """

    kind = "remote"
    BATCH_SIZE = 64
    _dimension: int | None = None  # set by the first response

    @property
    def model(self) -> str:
        return self.profile.model_id

    @property
    def dimension(self) -> int:
        if self._dimension is None:
            raise TransportError("dimension unknown before the first embed call")
        return self._dimension

    def embed(self, text: str) -> np.ndarray:
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        chunks = [
            self._request(list(texts[start : start + self.BATCH_SIZE]))
            for start in range(0, len(texts), self.BATCH_SIZE)
        ]
        if not chunks:
            return np.zeros((0, self._dimension or 0))
        return np.concatenate(chunks)

    def _request(self, texts: list[str]) -> np.ndarray:
        body = {"model": self.profile.model_id, "input": texts}
        data = self._post("/embeddings", body, "embedding")
        try:
            rows = sorted(data["data"], key=lambda row: row["index"])
            if [row["index"] for row in rows] != list(range(len(texts))):
                raise ValueError(f"expected rows 0..{len(texts) - 1}")
            vectors = np.array([row["embedding"] for row in rows], dtype=np.float64)
            if not np.isfinite(vectors).all():
                raise ValueError("embedding rows hold non-finite entries")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed embedding response: {exc}") from exc
        if vectors.ndim != 2 or self._dimension not in (None, vectors.shape[1]):
            raise TransportError(
                f"embedding rows of shape {vectors.shape} do not match the dimension"
            )
        self._dimension = vectors.shape[1]
        return vectors

