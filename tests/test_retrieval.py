"""Retrieval engine tests: embedding strategies, flat search, modes."""

import gc
import io
import json
import mmap
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import attribute_ranking, brute_force_topk, build_index_oracle, single_pass_search

from memaug import retrieval
from memaug import (
    Annotation,
    AttributePair,
    BackendProfile,
    DimensionMismatchError,
    EmbeddingStrategy,
    EmptyAnnotationError,
    EmptyQueryError,
    Granularity,
    HashEmbedder,
    ItemKind,
    MatchPolicy,
    MemaugError,
    MemoryItem,
    MemoryStore,
    Perspective,
    QueryContext,
    QueryPart,
    RemoteEmbedder,
    RetrievalMode,
    SchemaError,
    StrategyMismatchError,
    VectorIndex,
    ZeroVectorError,
    build_index,
    embed_annotation,
    embed_query,
    retrieve,
)


def entity_store(annotations: dict[str, Annotation], contents: dict[str, str] | None = None):
    store = MemoryStore()
    for item_id, annotation in annotations.items():
        content = (contents or {}).get(item_id, f"content of {item_id}")
        store.write(
            MemoryItem(id=item_id, kind=ItemKind.ENTITY, content=content), annotation
        )
    return store


def single_pair(name: str, value: str) -> Annotation:
    return Annotation(
        pairs=(AttributePair(name, value),),
        perspective=Perspective.ENTITY_CENTRIC,
        granularity=Granularity.NOT_APPLICABLE,
    )


class TestEmbedAnnotation:
    def test_single_pair_equals_pair_embedding(self):
        embedder = HashEmbedder(8)
        ann = single_pair("genre", "noir")
        averaged = embed_annotation(ann, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        direct = embedder.embed("[genre]<noir>")
        assert float(averaged @ direct) >= 1.0 - 1e-9

    def test_two_pairs_mean_then_normalize(self):
        embedder = HashEmbedder(8)
        ann = Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2")))
        expected = (embedder.embed("[a]<1>") + embedder.embed("[b]<2>")) / 2
        expected = expected / np.linalg.norm(expected)
        got = embed_annotation(ann, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_strategies_differ_on_multi_token_annotation(self):
        embedder = HashEmbedder(8)
        ann = Annotation(
            pairs=(
                AttributePair("genre", "noir"),
                AttributePair("setting", "los angeles"),
                AttributePair("plot", "a long heist gone wrong"),
            )
        )
        averaged = embed_annotation(ann, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        whole = embed_annotation(ann, EmbeddingStrategy.WHOLE_ANNOTATION, embedder)
        assert float(averaged @ whole) < 0.99

    def test_empty_annotation_rejected_for_averaging(self):
        with pytest.raises(EmptyAnnotationError):
            embed_annotation(Annotation(), EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(8))

    def test_whole_annotation_embeds_rendered_string(self):
        embedder = HashEmbedder(8)
        ann = Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2")))
        np.testing.assert_array_equal(
            embed_annotation(ann, EmbeddingStrategy.WHOLE_ANNOTATION, embedder),
            embedder.embed("[a]<1> [b]<2>"),
        )


class TestBuildIndex:
    def test_counts_and_dimension(self):
        store = entity_store({f"m{i}": single_pair("k", f"v{i}") for i in range(5)})
        index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(8))
        assert len(index) == 5
        assert index.dimension == 8
        assert skipped == []

    def test_unannotated_items_skipped_and_reported(self):
        store = entity_store({f"m{i}": single_pair("k", f"v{i}") for i in range(4)})
        store.write(MemoryItem(id="m9", kind=ItemKind.ENTITY, content="no annotation"))
        index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(8))
        assert len(index) == 4
        assert skipped == [("m9", "no annotation")]

    def test_raw_content_ignores_annotations(self):
        store = entity_store({f"m{i}": single_pair("k", f"v{i}") for i in range(4)})
        store.write(MemoryItem(id="m9", kind=ItemKind.ENTITY, content="plain text"))
        index, skipped = build_index(store, EmbeddingStrategy.RAW_CONTENT, HashEmbedder(8))
        assert len(index) == 5
        assert skipped == []


def per_item_index(store, strategy, embedder):
    """The index as built one item at a time through ``embed``/``embed_annotation``."""
    ids, rows, skipped = [], [], []
    for item, annotation in store.entries():
        try:
            if strategy is EmbeddingStrategy.RAW_CONTENT:
                vector = embedder.embed(item.content)
            elif annotation is None:
                skipped.append((item.id, "no annotation"))
                continue
            else:
                vector = embed_annotation(annotation, strategy, embedder)
        except (ZeroVectorError, EmptyAnnotationError) as exc:
            skipped.append((item.id, str(exc)))
            continue
        ids.append(item.id)
        rows.append(vector)
    return tuple(ids), np.array(rows), skipped


class TestBatchedBuildIndex:
    @pytest.fixture
    def store(self):
        rng = np.random.default_rng(11)
        words = ["noir", "Noir", "los angeles", "heist", "café", "映画", "a b c"]
        store = MemoryStore()
        for i in range(60):
            pairs = tuple(
                AttributePair(f"k{rng.integers(0, 4)}", str(rng.choice(words)))
                for _ in range(int(rng.integers(0, 4)))
            )
            annotation = None if i % 7 == 3 else Annotation(
                pairs=pairs,
                perspective=Perspective.ENTITY_CENTRIC,
                granularity=Granularity.NOT_APPLICABLE,
            )
            content = ["", "   ", "some plain text", f"text {i}"][i % 4]
            item = MemoryItem(id=f"m{i:02d}", kind=ItemKind.ENTITY, content=content)
            store.write(item, annotation)
        return store

    @pytest.mark.parametrize("strategy", list(EmbeddingStrategy))
    def test_matches_per_item_embedding_bitwise(self, store, strategy):
        index, skipped = build_index(store, strategy, HashEmbedder(16))
        ids, rows, expected_skipped = per_item_index(store, strategy, HashEmbedder(16))
        assert index.item_ids == ids
        assert index.vectors.tobytes() == rows.tobytes()
        assert skipped == expected_skipped
        assert {reason for _, reason in skipped} >= (
            {"no tokens to embed"} if strategy is not EmbeddingStrategy.AVERAGED_PAIRS
            else {"no annotation", "cannot average over zero pairs"}
        )

    def test_records_embedder(self, store):
        index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(16))
        assert (index.embedder_kind, index.embedder_model) == ("hash", None)


class TableEmbedder:
    """Embeds each text as its row in a fixed table."""

    kind = "table"
    model = None

    def __init__(self, rows: dict[str, list[float]]):
        self.rows = rows
        self.dimension = len(next(iter(rows.values())))

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        return np.array([self.rows[text] for text in texts], dtype=np.float64).reshape(
            len(texts), self.dimension
        )


def table_store(items: list[list[list[float]]]):
    """A store of one item per entry of ``items``, one pair per row, and the
    embedder that embeds each pair as its row."""
    rows, annotations = {}, {}
    for i, item_rows in enumerate(items):
        pairs = tuple(AttributePair("k", f"v{i}_{j}") for j in range(len(item_rows)))
        rows.update((pair.render(), row) for pair, row in zip(pairs, item_rows))
        annotations[f"m{i}"] = Annotation(
            pairs=pairs,
            perspective=Perspective.ENTITY_CENTRIC,
            granularity=Granularity.NOT_APPLICABLE,
        )
    return entity_store(annotations), TableEmbedder(rows)


class TestOneAveragingPath:
    """Queries and index builds average an item's pair rows the same way."""

    def test_rows_that_cancel_only_in_order_are_skipped_by_both(self):
        # Summed in order the rows cancel to 0; a pairwise sum leaves 6.
        store, embedder = table_store([[[1e16]] + [[1.0]] * 7 + [[-1e16]]])
        index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        assert (len(index), skipped) == (0, [("m0", "cannot normalize a zero vector")])
        with pytest.raises(ZeroVectorError, match="cannot normalize a zero vector"):
            embed_annotation(store.annotation_for("m0"), EmbeddingStrategy.AVERAGED_PAIRS, embedder)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dimension=st.sampled_from([1, 2, 8]))
    def test_build_index_rows_equal_embed_annotation(self, data, dimension):
        value = st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.0]) | st.floats(-1e3, 1e3)
        row = st.lists(value, min_size=dimension, max_size=dimension)
        items = [
            data.draw(st.lists(row, min_size=n_pairs, max_size=n_pairs))
            for n_pairs in data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
        ]
        store, embedder = table_store(items)
        index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        ids, rows, expected_skipped = per_item_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        assert index.item_ids == ids
        assert index.vectors.tobytes() == rows.tobytes()
        assert skipped == expected_skipped


class _UncalledSession:
    def post(self, *args, **kwargs):
        pytest.fail("the embedder sent a request")


def test_nothing_to_embed_with_a_remote_embedder(tmp_path):
    store = MemoryStore()
    store.write(MemoryItem(id="m0", kind=ItemKind.ENTITY, content="no annotation"))
    profile = BackendProfile(model_id="emb", endpoint="http://127.0.0.1:9")
    embedder = RemoteEmbedder(profile, session=_UncalledSession())
    index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
    assert (len(index), index.dimension, skipped) == (0, 0, [("m0", "no annotation")])
    index.save(tmp_path / "index.bin")
    loaded = VectorIndex.load(tmp_path / "index.bin")
    assert (loaded.item_ids, loaded.dimension, loaded.vectors.shape) == ((), 0, (0, 0))
    assert (loaded.embedder_kind, loaded.embedder_model) == ("remote", "emb")


class SwitchEmbedder:
    """A hash embedder with two switches, counting the texts it is sent.

    A batch holding a text with "fail" in it raises ``ZeroVectorError``
    naming that text, and a ``<-x>`` value embeds opposite to ``<x>``, so an
    item holding both pairs averages to the zero vector.
    """

    kind = "switch"
    model = None

    def __init__(self, dimension):
        self.inner = HashEmbedder(dimension)
        self.dimension = dimension
        self.sent = Counter()

    def embed(self, text):
        return self.embed_many([text])[0]

    def embed_many(self, texts):
        self.sent.update(texts)
        failing = [text for text in texts if "fail" in text]
        if failing:
            raise ZeroVectorError(f"cannot embed {failing[0]!r}")
        rows = self.inner.embed_many([text.replace("<-", "<") for text in texts])
        rows[[i for i, text in enumerate(texts) if "<-" in text]] *= -1
        return rows


_VALUES = ["noir", "-noir", "heist", "-heist", "fail", "fails too", "café", "映画", "a b"]
_CONTENTS = ["", "   ", "plain text", "a fail", "noir heist", "Noir  heist"]


@st.composite
def switch_stores(draw, max_items=24):
    store = MemoryStore()
    for i in range(draw(st.integers(0, max_items))):
        annotation = None
        if draw(st.booleans()):
            pairs = draw(st.lists(
                st.tuples(st.sampled_from(["k0", "k1"]), st.sampled_from(_VALUES)), max_size=4
            ))
            annotation = Annotation(
                pairs=tuple(AttributePair(name, value) for name, value in pairs),
                perspective=Perspective.ENTITY_CENTRIC,
                granularity=Granularity.NOT_APPLICABLE,
            )
        content = draw(st.sampled_from(_CONTENTS + [f"text {i}"]))
        store.write(MemoryItem(id=f"m{i:02d}", kind=ItemKind.ENTITY, content=content), annotation)
    return store


def assert_same_index(built, expected):
    (index, skipped), (oracle, oracle_skipped) = built, expected
    assert index.item_ids == oracle.item_ids
    assert (index.dimension, index.vectors.shape) == (oracle.dimension, oracle.vectors.shape)
    assert index.vectors.tobytes() == oracle.vectors.tobytes()
    assert skipped == oracle_skipped


class TestBlockBuild:
    @settings(max_examples=200, deadline=None)
    @given(
        store=switch_stores(),
        strategy=st.sampled_from(list(EmbeddingStrategy)),
        block=st.sampled_from([1, 2, 3, 7, 1024]),
    )
    def test_matches_the_one_batch_oracle(self, store, strategy, block):
        with patch.object(retrieval, "_BUILD_BLOCK", block):
            built = build_index(store, strategy, SwitchEmbedder(8))
        assert_same_index(built, build_index_oracle(store, strategy, SwitchEmbedder(8)))

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_every_skip_reason_in_one_block_and_across_blocks(self, block):
        def annotated(*values):
            return Annotation(
                pairs=tuple(AttributePair("k", value) for value in values),
                perspective=Perspective.ENTITY_CENTRIC,
                granularity=Granularity.NOT_APPLICABLE,
            )

        store = MemoryStore()
        rows = [
            ("noir", annotated("noir", "heist")),
            ("", None),
            ("fail", annotated("fails too", "fail")),
            ("   ", annotated()),
            ("noir", annotated("noir", "-noir")),
            ("heist", annotated("heist")),
        ]
        for i, (content, annotation) in enumerate(rows):
            store.write(MemoryItem(id=f"m{i}", kind=ItemKind.ENTITY, content=content), annotation)
        expected_reasons = {
            EmbeddingStrategy.AVERAGED_PAIRS: [
                ("m1", "no annotation"),
                ("m2", "cannot embed '[k]<fails too>'"),
                ("m3", "cannot average over zero pairs"),
                ("m4", "cannot normalize a zero vector"),
            ],
            EmbeddingStrategy.WHOLE_ANNOTATION: [
                ("m1", "no annotation"),
                ("m2", "cannot embed '[k]<fails too> [k]<fail>'"),
                ("m3", "no tokens to embed"),
            ],
            EmbeddingStrategy.RAW_CONTENT: [
                ("m1", "no tokens to embed"),
                ("m2", "cannot embed 'fail'"),
                ("m3", "no tokens to embed"),
            ],
        }
        for strategy, reasons in expected_reasons.items():
            with patch.object(retrieval, "_BUILD_BLOCK", block):
                built = build_index(store, strategy, SwitchEmbedder(8))
            assert_same_index(built, build_index_oracle(store, strategy, SwitchEmbedder(8)))
            assert built[1] == reasons

    @pytest.mark.parametrize("block", [1, 2, 1024])
    @pytest.mark.parametrize("strategy", list(EmbeddingStrategy))
    def test_a_zero_row_skips_its_item_under_every_strategy(self, strategy, block):
        class ZeroEmbedder(SwitchEmbedder):
            """Embeds every text holding "void" as the zero vector."""

            def embed_many(self, texts):
                rows = super().embed_many(texts)
                rows[[i for i, text in enumerate(texts) if "void" in text]] = 0.0
                return rows

        words = {"m0": "noir", "m1": "void", "m2": "heist", "m3": "void too", "m4": "café"}
        store = entity_store({i: single_pair("k", word) for i, word in words.items()}, words)
        kept = entity_store(
            {i: single_pair("k", word) for i, word in words.items() if "void" not in word}, words
        )
        with patch.object(retrieval, "_BUILD_BLOCK", block):
            index, skipped = build_index(store, strategy, ZeroEmbedder(8))
        expected, _ = build_index(kept, strategy, ZeroEmbedder(8))
        assert skipped == [("m1", "cannot normalize a zero vector"),
                           ("m3", "cannot normalize a zero vector")]
        assert index.item_ids == expected.item_ids == ("m0", "m2", "m4")
        assert index.vectors.tobytes() == expected.vectors.tobytes()
        if strategy is not EmbeddingStrategy.AVERAGED_PAIRS:  # stored exactly as embedded
            texts = [words[i] if strategy is EmbeddingStrategy.RAW_CONTENT
                     else f"[k]<{words[i]}>" for i in index.item_ids]
            assert index.vectors.tobytes() == ZeroEmbedder(8).embed_many(texts).tobytes()

    @pytest.mark.parametrize("strategy", list(EmbeddingStrategy))
    def test_each_distinct_text_embedded_once(self, strategy):
        store = entity_store(
            {
                f"m{i:02d}": Annotation(
                    pairs=(AttributePair("k", f"v{i % 5}"), AttributePair("j", f"w{i}")),
                    perspective=Perspective.ENTITY_CENTRIC,
                    granularity=Granularity.NOT_APPLICABLE,
                )
                for i in range(30)
            },
            {f"m{i:02d}": f"content {i % 7}" for i in range(30)},
        )
        embedder = SwitchEmbedder(8)
        with patch.object(retrieval, "_BUILD_BLOCK", 4):
            index, skipped = build_index(store, strategy, embedder)
        assert (len(index), skipped) == (30, [])
        texts = {
            text
            for item, annotation in store.entries()
            for text in (
                [item.content] if strategy is EmbeddingStrategy.RAW_CONTENT
                else retrieval._annotation_texts(annotation, strategy)
            )
        }
        assert embedder.sent == Counter(texts)

    def test_a_failing_text_is_found_by_halving_its_batch(self):
        class CountingEmbedder(HashEmbedder):
            calls = 0

            def embed_many(self, texts):
                self.calls += 1
                return super().embed_many(texts)

        contents = {f"m{i:04d}": f"text {i}" for i in range(1024)}
        contents["m0500"] = ""
        embedder = CountingEmbedder(8)
        index, skipped = build_index(
            entity_store(dict.fromkeys(contents), contents), EmbeddingStrategy.RAW_CONTENT, embedder
        )
        assert skipped == [("m0500", "no tokens to embed")] and len(index) == 1023
        # One call for the shared texts (none), one for the block, then two
        # for each of the ten halvings down to the empty text.
        assert embedder.calls == 1 + 1 + 2 * 10

    def test_peak_memory_stays_near_the_index(self):
        # 4,096 items of three distinct pairs: the build may hold, at its
        # peak, three times the index's own matrices and no more.
        store = entity_store({
            f"m{i:04d}": Annotation(
                pairs=tuple(AttributePair(f"k{j}", f"v{i}_{j}") for j in range(3)),
                perspective=Perspective.ENTITY_CENTRIC,
                granularity=Granularity.NOT_APPLICABLE,
            )
            for i in range(4096)
        })
        embedder = HashEmbedder(256)
        tracemalloc.start()
        try:
            index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == 4096
        assert peak <= 3 * (index.vectors.nbytes + index.unit32.nbytes)


class TestSearch:
    def make_index(self, vectors, ids=None):
        vectors = np.asarray(vectors, dtype=np.float64)
        ids = tuple(ids or (f"m{i:03d}" for i in range(len(vectors))))
        return VectorIndex(
            item_ids=ids,
            vectors=vectors,
            strategy=EmbeddingStrategy.RAW_CONTENT,
            dimension=vectors.shape[1],
        )

    def test_self_match_rank_one(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(20, 8))
        index = self.make_index(vectors)
        result = index.search(vectors[7], k=1)
        assert result.hits[0].item_id == "m007"
        assert result.hits[0].score == pytest.approx(1.0, abs=1e-6)
        assert result.hits[0].rank == 1

    def test_orthogonal_entries_score_zero(self):
        index = self.make_index([[1.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
        result = index.search(np.array([0.0, 3.0]), k=3)
        assert [hit.score for hit in result.hits] == [0.0, 0.0, 0.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        vectors = rng.normal(size=(200, 8))
        # duplicate rows force exact ties
        vectors[50] = vectors[10]
        vectors[51] = vectors[10]
        index = self.make_index(vectors)
        query = rng.normal(size=8)
        result = index.search(query, k=10)
        expected = brute_force_topk(index.item_ids, vectors.tolist(), query.tolist(), 10)
        assert list(result.ids()) == expected

    def test_exact_ties_broken_by_id(self):
        vector = [0.5, 0.5]
        index = self.make_index([vector, vector, vector], ids=("zz", "aa", "mm"))
        result = index.search(np.array(vector), k=3)
        assert result.ids() == ("aa", "mm", "zz")

    def test_monotone_k_prefix(self):
        rng = np.random.default_rng(23)
        vectors = rng.normal(size=(40, 8))
        index = self.make_index(vectors)
        query = rng.normal(size=8)
        previous: tuple[str, ...] = ()
        for k in range(1, 15):
            ids = index.search(query, k).ids()
            assert ids[: len(previous)] == previous
            previous = ids

    def test_returns_min_k_n(self):
        index = self.make_index(np.eye(3))
        assert len(index.search(np.array([1.0, 0.0, 0.0]), k=10)) == 3

    def test_scores_non_increasing_and_bounded(self):
        rng = np.random.default_rng(29)
        index = self.make_index(rng.normal(size=(50, 8)))
        result = index.search(rng.normal(size=8), k=50)
        scores = [hit.score for hit in result.hits]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert [hit.rank for hit in result.hits] == list(range(1, 51))

    def test_k_validation(self):
        index = self.make_index(np.eye(2))
        with pytest.raises(ValueError):
            index.search(np.array([1.0, 0.0]), k=0)

    def test_dimension_mismatch(self):
        index = self.make_index(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            index.search(np.array([1.0, 0.0]), k=1)

    def test_zero_query_rejected(self):
        index = self.make_index(np.eye(2))
        with pytest.raises(ZeroVectorError):
            index.search(np.zeros(2), k=1)

    def test_norm_overflow_rejected(self):
        # Finite entries whose squared norm overflows: such a row would get
        # the norm inf and never rank, though "big" has cosine 1.0 here.
        with pytest.raises(ValueError, match="norm"):
            self.make_index([[1e200, 1.0], [1.0, 0.0], [1.0, 1.0]], ids=("big", "small", "mid"))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_norms_equal_the_whole_matrix_norms(self, offset):
        rng = np.random.default_rng(offset + 2)
        vectors = rng.normal(size=(retrieval._NORM_BLOCK + offset, 5)) * 10.0 ** rng.integers(
            -150, 150, size=(retrieval._NORM_BLOCK + offset, 1)
        )
        index = self.make_index(vectors)
        assert index.norms.tobytes() == np.linalg.norm(vectors, axis=1).tobytes()

    def test_empty_index(self):
        index = VectorIndex(
            item_ids=(), vectors=np.zeros((0, 4)),
            strategy=EmbeddingStrategy.RAW_CONTENT, dimension=4,
        )
        assert len(index.search(np.ones(4), k=5)) == 0

    def test_zero_dimension_rows_refused(self):
        with pytest.raises(ZeroVectorError):
            VectorIndex(("p", "q"), np.zeros((2, 0)), EmbeddingStrategy.RAW_CONTENT, 0)

    @pytest.mark.parametrize("dimension", [0, 4])
    def test_empty_index_has_no_hits_for_any_query(self, dimension):
        index = VectorIndex((), np.zeros((0, dimension)), EmbeddingStrategy.AVERAGED_PAIRS, dimension)
        for query in (np.ones(1), np.ones(3), np.ones(4), np.zeros(5)):
            assert index.search(query, 5).hits == ()

    def test_equal_only_to_itself(self):
        a, b = self.make_index(np.eye(2)), self.make_index(np.eye(2))
        assert a == a
        assert (a == b) is False
        assert len({a, b, a}) == 2

    def test_strategy_mismatch_checked(self):
        from memaug.retrieval import QueryVector

        index = self.make_index(np.eye(2))
        tagged = QueryVector(np.array([1.0, 0.0]), EmbeddingStrategy.AVERAGED_PAIRS)
        with pytest.raises(StrategyMismatchError):
            index.search(tagged, k=1)

    @pytest.mark.parametrize(
        "query, message",
        [
            ([[1.0, 0.0]], r"expected a 1-D vector, got shape \(1, 2\)"),
            ([1.0, np.nan], "vector contains non-finite entries"),
            ([np.inf, 0.0], "vector contains non-finite entries"),
        ],
        ids=["2-d", "nan", "inf"],
    )
    def test_refuses_a_2d_or_non_finite_query(self, query, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            self.make_index(np.eye(2)).search(query, k=1)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        index = self.make_index(rng.normal(size=(10, 8)))
        path = tmp_path / "index.json"
        index.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.item_ids == index.item_ids
        assert loaded.strategy is index.strategy
        np.testing.assert_array_equal(loaded.vectors, index.vectors)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            VectorIndex.load(tmp_path / "nope.json")

    @pytest.mark.parametrize("dimension", [8, 64])
    def test_query_equal_to_duplicated_row(self, dimension):
        rng = np.random.default_rng(dimension)
        for size in (6, 40, 300):
            vectors = rng.normal(size=(size, dimension))
            source = int(rng.integers(0, size))
            for target in rng.integers(0, size, size=3):
                vectors[int(target)] = vectors[source]
            index = self.make_index(vectors, ids=[f"i{j:04d}" for j in rng.permutation(size)])
            expected = brute_force_topk(
                index.item_ids, vectors.tolist(), vectors[source].tolist(), size
            )
            for k in (1, 2, 4, 5, 10):
                assert list(index.search(vectors[source], k).ids()) == expected[:k]

    def test_k_at_least_n_ranks_everything(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(12, 8))
        vectors[3] = vectors[9]
        index = self.make_index(vectors)
        query = rng.normal(size=8)
        expected = brute_force_topk(index.item_ids, vectors.tolist(), query.tolist(), 12)
        for k in (12, 13, 100):
            assert list(index.search(query, k).ids()) == expected

    def test_binary_file_round_trip_with_provenance(self, tmp_path):
        rng = np.random.default_rng(41)
        vectors = rng.normal(size=(4, 8))
        index = VectorIndex(
            item_ids=("café", "映画", "😀 id", 'quote"\nline'),
            vectors=vectors,
            strategy=EmbeddingStrategy.WHOLE_ANNOTATION,
            dimension=8,
            embedder_kind="remote",
            embedder_model="emb-3",
        )
        path = tmp_path / "index.bin"
        index.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]
        loaded = VectorIndex.load(path)
        assert loaded.item_ids == index.item_ids
        assert loaded.vectors.tobytes() == index.vectors.tobytes()
        assert (loaded.strategy, loaded.dimension) == (index.strategy, 8)
        assert (loaded.embedder_kind, loaded.embedder_model) == ("remote", "emb-3")

    def test_float32_rows_agree_across_constructions(self, tmp_path):
        store = entity_store({f"m{i}": single_pair(f"key{i % 4}", f"word{i} extra") for i in range(12)})
        built, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(16))
        path = tmp_path / "index.bin"
        built.save(path)
        loaded = VectorIndex.load(path)
        direct = VectorIndex(
            item_ids=built.item_ids, vectors=built.vectors.tolist(),
            strategy=built.strategy, dimension=built.dimension,
        )
        unit = built.vectors / np.linalg.norm(built.vectors, axis=1)[:, None]
        expected = unit.astype(np.float32).tobytes()
        for index in (built, loaded, direct):
            assert index.unit32.dtype == np.float32
            assert index.unit32.tobytes() == expected
        # The file holds the header line and the float64 matrix, nothing else.
        header = {
            "format": "memaug-index", "version": 2, "strategy": "averaged_pairs",
            "dimension": 16, "embedder": {"kind": "hash", "model": None},
            "ids": list(built.item_ids),
        }
        matrix = io.BytesIO()
        np.save(matrix, built.vectors, allow_pickle=False)
        assert path.read_bytes() == json.dumps(header).encode() + b"\n" + matrix.getvalue()

    def test_empty_index_round_trip(self, tmp_path):
        index = VectorIndex(
            item_ids=(), vectors=np.zeros((0, 4)),
            strategy=EmbeddingStrategy.AVERAGED_PAIRS, dimension=4,
        )
        index.save(tmp_path / "empty.idx")
        loaded = VectorIndex.load(tmp_path / "empty.idx")
        assert (len(loaded), loaded.dimension, loaded.vectors.shape) == (0, 4, (0, 4))

    @pytest.mark.parametrize(
        "ids, columns, fields, message",
        [
            (("a", "b"), 2, {"dimension": 2.0},
             "dimension must be a non-negative integer, got 2.0"),
            (("a", "b"), 1, {"dimension": True},
             "dimension must be a non-negative integer, got True"),
            (("a", "b"), 2, {"embedder_kind": 5},
             "index embedder kind and model must be strings or None"),
            ((1, 2), 2, {}, "index ids must be strings"),
        ],
        ids=["dimension-float", "dimension-bool", "kind-int", "int-ids"],
    )
    def test_constructor_refuses_what_load_refuses(self, ids, columns, fields, message):
        fields = {"dimension": columns, **fields}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            VectorIndex(ids, np.ones((2, columns)), EmbeddingStrategy.RAW_CONTENT, **fields)

    def test_legacy_json_index_rejected(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(
            '{"strategy": "raw_content", "dimension": 2, '
            '"entries": [{"id": "a", "vector": [1.0, 0.0]}]}\n'
        )
        with pytest.raises(SchemaError, match="re-run `memaug index`"):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("item_ids", ("m0", "m0", "m2")),
            ("vectors", np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 1]])),
            ("vectors", np.array([[1.0, 0, 0], [0, np.nan, 0], [0, 0, 1]])),
            ("vectors", np.array([[1.0, 0, 0], [0, np.inf, 0], [0, 0, 1]])),
            ("vectors", np.array([[1.0, 0, 0], [0, 1, 0]])),
        ],
        ids=["duplicate-ids", "zero-row", "nan", "inf", "too-few-rows"],
    )
    def test_index_file_the_constructor_refuses_is_a_schema_error(self, tmp_path, field, value):
        index = self.make_index(np.eye(3))
        object.__setattr__(index, field, value)  # What a corrupt file would hold.
        path = tmp_path / "index.bin"
        index.save(path)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: malformed index: "):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("item_ids", ("m0", 1, "m2"), "malformed index: index ids must be strings"),
            ("vectors", np.eye(3, dtype=np.float32), "expected a float64 matrix, got float32"),
        ],
        ids=["int-id", "float32"],
    )
    def test_load_refuses_non_string_ids_or_a_non_float64_matrix(
        self, tmp_path, field, value, message
    ):
        index = self.make_index(np.eye(3))
        object.__setattr__(index, field, value)  # What a corrupt file would hold.
        path = tmp_path / "index.bin"
        index.save(path)
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
            VectorIndex.load(path)

    @pytest.mark.parametrize(
        "key, value, columns, message",
        [
            ("ids", "ab", 2, "index ids must be a list, got str"),
            ("ids", {"a": 1, "b": 2}, 2, "index ids must be a list, got dict"),
            ("dimension", 2.7, 2, "malformed index: dimension must be a non-negative integer, got 2.7"),
            ("dimension", 2.0, 2, "malformed index: dimension must be a non-negative integer, got 2.0"),
            ("dimension", "2", 2, "malformed index: dimension must be a non-negative integer, got '2'"),
            ("dimension", True, 1, "malformed index: dimension must be a non-negative integer, got True"),
            ("embedder", {"kind": 5, "model": None}, 2,
             "malformed index: index embedder kind and model must be strings or None"),
            ("embedder", {"kind": "hash", "model": ["m"]}, 2,
             "malformed index: index embedder kind and model must be strings or None"),
        ],
        ids=["ids-string", "ids-object", "dimension-fraction", "dimension-float",
             "dimension-string", "dimension-bool", "kind-int", "model-list"],
    )
    def test_load_refuses_a_header_field_of_the_wrong_type(
        self, tmp_path, key, value, columns, message
    ):
        # Each header would load next to its two-row matrix if its type went unchecked.
        path = tmp_path / "index.bin"
        self.make_index(np.eye(2)[:, :columns] + 1.0, ids=["a", "b"]).save(path)
        header, _, matrix = path.read_bytes().partition(b"\n")
        fields = json.loads(header)
        fields[key] = value
        path.write_bytes(json.dumps(fields).encode() + b"\n" + matrix)
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
            VectorIndex.load(path)

    def test_malformed_binary_index_rejected(self, tmp_path):
        index = self.make_index(np.eye(3))
        path = tmp_path / "index.bin"
        index.save(path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(SchemaError):
            VectorIndex.load(path)
        header, _, matrix = data.partition(b"\n")
        path.write_bytes(header.replace(b'"dimension": 3', b'"dimension": 4') + b"\n" + matrix)
        with pytest.raises(SchemaError):
            VectorIndex.load(path)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "index.bin"
        self.make_index(np.eye(3)).save(path)
        before = path.read_bytes()

        def broken_save(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", broken_save)
        with pytest.raises(OSError):
            self.make_index(np.eye(4)).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]

    @pytest.mark.parametrize("failure", ["mid-write", "replace"])
    def test_interrupted_save_leaves_the_old_index_alone(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "index.bin"
        self.make_index(np.eye(3)).save(path)
        before = path.read_bytes()
        real_save = np.save

        def save_half(fh, array, **kwargs):
            buffer = io.BytesIO()
            real_save(buffer, array, **kwargs)
            fh.write(buffer.getvalue()[: len(buffer.getvalue()) // 2])
            raise OSError("disk full")

        def no_replace(src, dst):
            raise OSError("rename failed")

        if failure == "mid-write":
            monkeypatch.setattr(np, "save", save_half)
        else:
            monkeypatch.setattr("memaug.fileio.os.replace", no_replace)
        with pytest.raises(OSError):
            self.make_index(np.eye(4)).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["index.bin"]
        assert np.array_equal(VectorIndex.load(path).vectors, np.eye(3))


def _duplicate_rows(rng, size, dimension):
    """Criterion 2's rows: normal draws, one of them copied to three others."""
    vectors = rng.normal(size=(size, dimension))
    if size >= 6:
        source = int(rng.integers(0, size))
        for target in rng.integers(0, size, size=3):
            vectors[int(target)] = vectors[source]
    return vectors


def _bits(result):
    return [(hit.item_id, hit.score.hex(), hit.rank) for hit in result.hits]


def _vm_rss() -> int:
    """This process's resident set size in bytes, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


class TestMappedLoad:
    """A loaded index reads its float64 rows from its file, and a search of
    it is bitwise the search of the index it was saved from."""

    @pytest.mark.parametrize("block", [None, 7], ids=["norm-block", "7-row-blocks"])
    @pytest.mark.parametrize("madvise", [True, False], ids=["mapped", "no-madvise"])
    @pytest.mark.parametrize(
        "size, dimension",
        [(0, 8), (40, 8), (3 * retrieval._NORM_BLOCK + 7, 8), (300, 64)],
        ids=["empty", "one-block", "several-blocks", "rows-across-pages"],
    )
    def test_loaded_index_searches_as_the_built_one(
        self, tmp_path, monkeypatch, size, dimension, madvise, block
    ):
        if madvise and not hasattr(mmap, "MADV_DONTNEED"):
            pytest.skip("the platform has no madvise")
        if block is not None:
            monkeypatch.setattr(retrieval, "_NORM_BLOCK", block)
        if not madvise:
            monkeypatch.delattr(mmap, "MADV_DONTNEED", raising=False)
        rng = np.random.default_rng(size + dimension)
        vectors = _duplicate_rows(rng, size, dimension)
        ids = tuple(f"item{i:04d}" for i in range(size))
        built = VectorIndex(ids, vectors, EmbeddingStrategy.RAW_CONTENT, dimension)
        built.save(tmp_path / "index.bin")
        loaded = VectorIndex.load(tmp_path / "index.bin")
        # Only rows read from the file are read-only; an empty matrix is read.
        assert loaded.vectors.flags.writeable is not (madvise and size > 0)
        assert loaded.vectors.tobytes() == vectors.tobytes()
        assert loaded.norms.tobytes() == built.norms.tobytes()
        assert loaded.unit32.tobytes() == built.unit32.tobytes()
        queries = [rng.normal(size=dimension)] + ([vectors[int(rng.integers(size))]] if size else [])
        for query in queries:
            expected = brute_force_topk(ids, vectors.tolist(), query.tolist(), 10)
            for k in (1, 5, 10):
                got = loaded.search(query, k)
                assert _bits(got) == _bits(built.search(query, k))
                assert list(got.ids()) == expected[:k]

    @pytest.mark.parametrize(
        "row, message",
        [([1.0, np.nan], "index vectors contain non-finite entries"),
         ([1e200, 1.0], "index vectors have a norm that overflows float64")],
        ids=["nan", "norm-overflow"],
    )
    def test_bad_row_in_the_last_block_is_a_schema_error(self, tmp_path, row, message):
        size = 2 * retrieval._NORM_BLOCK + 3
        index = VectorIndex(
            tuple(f"m{i}" for i in range(size)), np.ones((size, 2)), EmbeddingStrategy.RAW_CONTENT, 2
        )
        bad = np.ones((size, 2))
        bad[-1] = row
        object.__setattr__(index, "vectors", bad)  # What a corrupt file would hold.
        path = tmp_path / "index.bin"
        index.save(path)
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}: malformed index: {message}')}$"):
            VectorIndex.load(path)

    def test_fortran_ordered_matrix_saves_and_loads_back_equal(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = np.asfortranarray(_duplicate_rows(rng, 50, 8))
        ids = tuple(f"m{i:02d}" for i in range(50))
        built = VectorIndex(ids, vectors, EmbeddingStrategy.RAW_CONTENT, 8)
        built.save(tmp_path / "index.bin")
        loaded = VectorIndex.load(tmp_path / "index.bin")
        assert loaded.vectors.shape == (50, 8)
        assert np.array_equal(loaded.vectors, vectors)
        assert loaded.unit32.tobytes() == built.unit32.tobytes()
        query = rng.normal(size=8)
        assert _bits(loaded.search(query, 5)) == _bits(built.search(query, 5))

    def test_index_saved_over_its_own_file_keeps_searching(self, tmp_path):
        rng = np.random.default_rng(13)
        vectors = _duplicate_rows(rng, 2 * retrieval._NORM_BLOCK + 1, 8)
        ids = tuple(f"m{i:04d}" for i in range(len(vectors)))
        path = tmp_path / "index.bin"
        built = VectorIndex(ids, vectors, EmbeddingStrategy.RAW_CONTENT, 8)
        built.save(path)
        saved = path.read_bytes()
        loaded = VectorIndex.load(path)
        query = rng.normal(size=8)
        expected = _bits(built.search(query, 5))
        loaded.save(path)
        assert path.read_bytes() == saved
        assert _bits(loaded.search(query, 5)) == expected
        assert _bits(VectorIndex.load(path).search(query, 5)) == expected

    @pytest.mark.skipif(
        not (Path("/proc/self/status").exists() and hasattr(mmap, "MADV_DONTNEED")),
        reason="needs /proc/self/status and madvise",
    )
    def test_file_rows_stay_out_of_memory_across_searches(self, tmp_path):
        # 16k x 256: 32 MB of float64 rows in the file, 16 MB of unit32 rows.
        rng = np.random.default_rng(17)
        size, dimension = 16_384, 256
        path = tmp_path / "index.bin"
        VectorIndex(
            tuple(f"m{i}" for i in range(size)), rng.normal(size=(size, dimension)),
            EmbeddingStrategy.RAW_CONTENT, dimension,
        ).save(path)
        queries = rng.normal(size=(1000, dimension))
        gc.collect()
        before = _vm_rss()
        index = VectorIndex.load(path)
        # Derived rows and norms, plus at most a quarter of the file's rows.
        bound = index.unit32.nbytes + index.vectors.nbytes // 4
        assert _vm_rss() - before < bound
        for query in queries:
            index.search(query, 5)
        assert _vm_rss() - before < bound


class TestEmbedQuery:
    def test_annotation_query_uses_index_strategy(self):
        embedder = HashEmbedder(8)
        ann = single_pair("genre", "noir")
        query = QueryContext(annotation=ann)
        out = embed_query(query, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        np.testing.assert_array_equal(
            out.values, embed_annotation(ann, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        )

    def test_text_only_part(self):
        embedder = HashEmbedder(8)
        query = QueryContext(text="what about x", attribute_names=("genre",))
        out = embed_query(
            query, EmbeddingStrategy.AVERAGED_PAIRS, embedder, parts=(QueryPart.TEXT,)
        )
        np.testing.assert_array_equal(out.values, embedder.embed("what about x"))

    def test_text_and_attributes_averaged(self):
        embedder = HashEmbedder(8)
        query = QueryContext(text="what about x", attribute_names=("genre", "year"))
        out = embed_query(query, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        mean = (embedder.embed("what about x") + embedder.embed("genre year")) / 2
        np.testing.assert_allclose(out.values, mean / np.linalg.norm(mean), atol=1e-12)

    def test_raw_content_requires_text(self):
        with pytest.raises(EmptyQueryError):
            embed_query(QueryContext(), EmbeddingStrategy.RAW_CONTENT, HashEmbedder(8))

    def test_no_embeddable_content(self):
        with pytest.raises(EmptyQueryError):
            embed_query(QueryContext(), EmbeddingStrategy.AVERAGED_PAIRS, HashEmbedder(8))

    @pytest.mark.parametrize("blank", ["", " ", " \t\n "])
    def test_blank_text_is_absent(self, blank):
        embedder = HashEmbedder(8)
        with pytest.raises(EmptyQueryError, match="^raw-content queries need query text$"):
            embed_query(QueryContext(text=blank), EmbeddingStrategy.RAW_CONTENT, embedder)
        with pytest.raises(EmptyQueryError, match="^query has no embeddable content"):
            embed_query(QueryContext(text=blank), EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        # The text part is skipped, so the query embeds its attribute names alone.
        query = QueryContext(text=blank, attribute_names=("genre", "year"))
        out = embed_query(query, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        np.testing.assert_array_equal(out.values, embedder.embed("genre year"))


class TestRetrieve:
    @pytest.fixture
    def store(self):
        return entity_store(
            {
                "a": single_pair("genre", "Drama"),
                "b": single_pair("genre", "Action"),
            }
        )

    def test_comprehensive_returns_all_in_store_order(self):
        store = entity_store({f"m{i:03d}": single_pair("k", f"v{i}") for i in range(144)})
        result = retrieve(store, QueryContext(), RetrievalMode.COMPREHENSIVE)
        assert len(result) == 144
        assert result.ids()[:3] == ("m000", "m001", "m002")
        assert all(hit.score == 0.0 for hit in result.hits)

    def test_attribute_union(self, store):
        query = QueryContext(attribute_names=("genre",))
        result = retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED)
        assert set(result.ids()) == {"a", "b"}

    def test_attribute_ranking_by_matched_count_then_id(self):
        store = entity_store(
            {
                "x": Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2"))),
                "y": single_pair("a", "1"),
                "z": single_pair("b", "2"),
            }
        )
        query = QueryContext(attribute_names=("a", "b"))
        result = retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED)
        assert result.ids() == ("x", "y", "z")
        assert result.hits[0].score == pytest.approx(1.0)
        assert result.hits[1].score == pytest.approx(0.5)

    def test_attribute_intersection_first_with_values(self):
        store = entity_store(
            {
                "x": Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2"))),
                "y": single_pair("a", "1"),
            }
        )
        query = QueryContext(
            annotation=Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2")))
        )
        result = retrieve(
            store, query, RetrievalMode.ATTRIBUTE_BASED, policy=MatchPolicy.NAME_AND_VALUE
        )
        assert result.ids() == ("x",)

    def test_attribute_intersection_falls_back_to_union(self):
        store = entity_store(
            {"x": single_pair("a", "1"), "y": single_pair("b", "2")}
        )
        query = QueryContext(
            annotation=Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2")))
        )
        result = retrieve(
            store, query, RetrievalMode.ATTRIBUTE_BASED, policy=MatchPolicy.NAME_AND_VALUE
        )
        assert set(result.ids()) == {"x", "y"}

    @pytest.mark.parametrize("k", [0, -1])
    def test_attribute_k_below_one_rejected(self, store, k):
        query = QueryContext(attribute_names=("genre",))
        with pytest.raises(ValueError, match="k must be a positive integer"):
            retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=k)

    def test_empty_query_attributes(self, store):
        with pytest.raises(EmptyQueryError):
            retrieve(store, QueryContext(text="hello"), RetrievalMode.ATTRIBUTE_BASED)

    def test_embedding_unique_attribute_ranks_first(self):
        # every item carries a unique attribute; the query carries item 7's
        store = entity_store({f"m{i}": single_pair(f"key{i}", f"val{i}") for i in range(20)})
        embedder = HashEmbedder(8)
        index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        query = QueryContext(annotation=single_pair("key7", "val7"))
        result = retrieve(
            store, query, RetrievalMode.EMBEDDING_BASED, k=5, index=index, embedder=embedder
        )
        assert result.hits[0].item_id == "m7"
        assert result.hits[0].score == pytest.approx(1.0, abs=1e-9)
        expected = brute_force_topk(
            index.item_ids,
            index.vectors.tolist(),
            embed_annotation(single_pair("key7", "val7"), EmbeddingStrategy.AVERAGED_PAIRS, embedder).tolist(),
            5,
        )
        assert list(result.ids()) == expected

    def test_embedding_requires_index(self, store):
        with pytest.raises(ValueError):
            retrieve(store, QueryContext(text="x"), RetrievalMode.EMBEDDING_BASED)


_NAMES = ("genre", "mood", "era")
_VALUES = ("noir", "Noir", "drama", "1990s")
_QUERY_NAMES = _NAMES + (" GENRE", "unknown")


def _annotation(pairs) -> Annotation:
    return Annotation(pairs=tuple(AttributePair(name, value) for name, value in pairs))


_stores = st.dictionaries(
    keys=st.text(alphabet="abm01", min_size=1, max_size=3),
    values=st.none() | st.lists(
        st.tuples(st.sampled_from(_NAMES), st.sampled_from(_VALUES)), max_size=4
    ),
    max_size=25,
)
_queries = st.one_of(
    st.lists(st.sampled_from(_QUERY_NAMES), min_size=1, max_size=4).map(
        lambda names: QueryContext(attribute_names=tuple(names))
    ),
    st.lists(
        st.tuples(st.sampled_from(_QUERY_NAMES), st.sampled_from(_VALUES + ("absent",))),
        min_size=1,
        max_size=4,
    ).map(lambda pairs: QueryContext(annotation=_annotation(pairs))),
)
_BOTH = [("genre", "noir"), ("mood", "drama")]
_SPLIT = {"y": [("genre", "noir")], "x": [("mood", "drama")], "z": _BOTH, "w": None}


@settings(max_examples=300, deadline=None)
@given(
    items=_stores,
    query=_queries,
    policy=st.sampled_from(MatchPolicy),
    k=st.none() | st.integers(1, 30),
)
# An empty intersection falls back to the union.
@example(
    items={"y": [("genre", "noir")], "x": [("mood", "drama")]},
    query=QueryContext(annotation=_annotation(_BOTH)),
    policy=MatchPolicy.NAME_AND_VALUE,
    k=None,
)
# Duplicate query names count once per occurrence.
@example(
    items=_SPLIT,
    query=QueryContext(attribute_names=("genre", "genre", "mood")),
    policy=MatchPolicy.NAME_ONLY,
    k=1,
)
# Unknown names match nothing; k at and above the number of candidates.
@example(
    items=_SPLIT,
    query=QueryContext(attribute_names=("unknown", "genre")),
    policy=MatchPolicy.NAME_AND_VALUE,
    k=2,
)
@example(
    items=_SPLIT,
    query=QueryContext(attribute_names=("mood", "genre")),
    policy=MatchPolicy.NAME_ONLY,
    k=100,
)
# Annotation queries carry values, matched case-folded under NAME_AND_VALUE.
@example(
    items={"b": [("genre", "Noir")], "a": [("genre", "noir"), ("genre", "drama")]},
    query=QueryContext(annotation=_annotation([("genre", "NOIR"), ("genre", "drama")])),
    policy=MatchPolicy.NAME_AND_VALUE,
    k=None,
)
def test_attribute_ranking_matches_sorting_oracle(items, query, policy, k):
    store = entity_store(
        {item_id: None if pairs is None else _annotation(pairs) for item_id, pairs in items.items()}
    )
    got = retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=k, policy=policy)
    assert got == attribute_ranking(store, query, policy, k)


def test_deterministic_results_across_runs():
    store = entity_store({f"m{i}": single_pair(f"key{i}", f"word{i} extra") for i in range(30)})
    query = QueryContext(annotation=single_pair("key3", "word3 extra"))

    def run():
        embedder = HashEmbedder(8)
        index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        return retrieve(
            store, query, RetrievalMode.EMBEDDING_BASED, k=10, index=index, embedder=embedder
        )

    assert run() == run()


def _search_case(dimension, n, seed, near_tie_step, self_match, duplicates, exponents, query_exponent):
    """Rows, ids and a query with the structures a two-pass search must get right.

    A seeded generator draws the values. Near-tie rows are
    ``base + t * |base| * unit(query)`` for t = 0, step, 2*step, ...: their
    scores sit about a step apart, far above float64 rounding and inside the
    float32 band. Scaling a row by a power of two changes its norm exactly,
    so its score ties bit for bit with the unscaled row's.
    """
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dimension))
    query = rng.normal(size=dimension)
    if near_tie_step is not None and dimension > 1:
        base = vectors[0].copy()
        query = base + rng.normal(size=dimension)
        direction = query / np.linalg.norm(query) * np.linalg.norm(base)
        for t, row in enumerate(rng.permutation(n)[: max(2, n // 2)]):
            vectors[row] = base + t * near_tie_step * direction
    for _ in range(duplicates):
        vectors[rng.integers(n)] = vectors[rng.integers(n)]
    if self_match and near_tie_step is None:
        query = vectors[rng.integers(n)].copy()
    for row, exponent in zip(rng.permutation(n), exponents):
        vectors[row] *= 2.0**exponent
    ids = tuple(f"i{j:03d}" for j in rng.permutation(n))
    return ids, vectors, query * 2.0**query_exponent


@settings(max_examples=300, deadline=None)
@given(
    dimension=st.sampled_from([1, 8]),
    n=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    duplicates=st.integers(0, 6),
    data=st.data(),
)
def test_search_at_every_size_matches_the_oracle(dimension, n, seed, duplicates, data):
    """One ranking path for any k against n rows: k below, at and above n."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dimension))
    for _ in range(duplicates if n else 0):
        vectors[rng.integers(n)] = vectors[rng.integers(n)]
    ids = tuple(f"i{j:02d}" for j in rng.permutation(n))
    query = vectors[rng.integers(n)] if n and rng.integers(2) else rng.normal(size=dimension)
    k = data.draw(st.integers(1, n + 3), label="k")
    index = VectorIndex(ids, vectors, EmbeddingStrategy.RAW_CONTENT, dimension)
    hits = index.search(query, k).hits
    assert [hit.item_id for hit in hits] == brute_force_topk(ids, vectors.tolist(), query.tolist(), k)
    assert [hit.rank for hit in hits] == list(range(1, min(k, n) + 1))
    assert all(a.item_id < b.item_id for a, b in zip(hits, hits[1:]) if a.score == b.score)


@settings(max_examples=300, deadline=None)
@given(
    dimension=st.sampled_from([1, 2, 8, 256]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    near_tie_step=st.none() | st.sampled_from([1e-6, 1e-7, 1e-8, 1e-9]),
    self_match=st.booleans(),
    duplicates=st.integers(0, 3),
    exponents=st.lists(st.integers(-400, 400), max_size=4),
    query_exponent=st.integers(-16, 100),
    k=st.integers(1, 45),
)
# Near-ties at the top, closer than the float32 band.
@example(dimension=256, n=40, seed=1, near_tie_step=1e-9, self_match=False,
         duplicates=0, exponents=[], query_exponent=0, k=5)
@example(dimension=8, n=30, seed=2, near_tie_step=1e-7, self_match=False,
         duplicates=2, exponents=[3], query_exponent=0, k=3)
# A query equal to a row, duplicated, with very large and very small norms.
@example(dimension=256, n=30, seed=3, near_tie_step=None, self_match=True,
         duplicates=3, exponents=[400, -400, 400], query_exponent=-16, k=4)
# Dimension 1: every score is +1 or -1, so ids alone order the ties.
@example(dimension=1, n=12, seed=4, near_tie_step=None, self_match=False,
         duplicates=2, exponents=[300, -300], query_exponent=100, k=3)
# k at and above the number of rows.
@example(dimension=8, n=6, seed=5, near_tie_step=1e-6, self_match=False,
         duplicates=1, exponents=[], query_exponent=0, k=6)
@example(dimension=2, n=6, seed=6, near_tie_step=None, self_match=True,
         duplicates=1, exponents=[], query_exponent=0, k=45)
def test_two_pass_search_matches_oracles(
    dimension, n, seed, near_tie_step, self_match, duplicates, exponents, query_exponent, k
):
    ids, vectors, query = _search_case(
        dimension, n, seed, near_tie_step, self_match, duplicates, exponents, query_exponent
    )
    index = VectorIndex(
        item_ids=ids, vectors=vectors, strategy=EmbeddingStrategy.RAW_CONTENT, dimension=dimension
    )
    got = index.search(query, k)
    assert list(got.ids()) == brute_force_topk(ids, vectors.tolist(), query.tolist(), k)

    def bits(result):
        return [(hit.item_id, hit.score.hex(), hit.rank) for hit in result.hits]

    assert bits(got) == bits(single_pass_search(index, query, k))


_NAMES = st.one_of(st.none(), st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.text(max_size=6), unique=True, max_size=6),
    strategy=st.sampled_from(EmbeddingStrategy),
    kind=_NAMES,
    model=_NAMES,
    defect=st.sampled_from([None, "id", "dimension", "embedder"]),
    data=st.data(),
)
def test_every_index_that_constructs_loads_back(ids, strategy, kind, model, defect, data):
    columns = data.draw(st.integers(1 if ids else 0, 4), label="columns")
    elements = st.floats(-1e100, 1e100).filter(bool)  # no zero row, no norm that overflows
    rows = arrays(np.float64, (len(ids), columns), elements=elements, fill=st.nothing())
    vectors = data.draw(rows, label="vectors")
    fields = {"item_ids": tuple(ids), "dimension": columns,
              "embedder_kind": kind, "embedder_model": model}
    # At most one field of a type that a save can write but a load refuses.
    if defect == "id" and ids:
        fields["item_ids"] = (len(ids), *ids[1:])
    elif defect == "dimension":
        fields["dimension"] = data.draw(st.sampled_from([float, bool]), label="type")(columns)
    elif defect == "embedder":
        fields[data.draw(st.sampled_from(["embedder_kind", "embedder_model"]))] = 5
    try:
        index = VectorIndex(vectors=vectors, strategy=strategy, **fields)
    except (ValueError, MemaugError):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.bin"
        index.save(path)
        loaded = VectorIndex.load(path)
    assert loaded.item_ids == index.item_ids
    assert loaded.strategy is index.strategy
    assert loaded.dimension == index.dimension and type(loaded.dimension) is int
    assert (loaded.embedder_kind, loaded.embedder_model) == (kind, model)
    assert loaded.vectors.shape == index.vectors.shape
    assert loaded.vectors.tobytes() == index.vectors.tobytes()
