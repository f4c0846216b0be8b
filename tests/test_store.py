"""Memory store tests: writes, index, stats, persistence."""

import gc
import hashlib
import json
import os
import random
import re
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    attribute_ranking,
    eager_postings,
    load_store_oracle,
    lookup_oracle,
    store_line_oracle,
)
from synthetic import build_mixed_store

from memaug import (
    Annotation,
    AttributePair,
    DuplicateIdError,
    Granularity,
    GranularityMismatchError,
    ItemKind,
    MatchPolicy,
    MemoryItem,
    MemoryStore,
    Perspective,
    Prioritization,
    QueryContext,
    RetrievalMode,
    SchemaError,
    retrieve,
)
from memaug.mining import AugmentationReport, fan_out
import memaug.store as store_module


def entity(i: int) -> MemoryItem:
    return MemoryItem(id=f"m{i}", kind=ItemKind.ENTITY, content=f"item {i}")


def entity_annotation(*pairs: tuple[str, str]) -> Annotation:
    return Annotation(
        pairs=tuple(AttributePair(n, v) for n, v in pairs),
        perspective=Perspective.ENTITY_CENTRIC,
        granularity=Granularity.NOT_APPLICABLE,
    )


class TestWrite:
    def test_write_indexes_names(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama"), ("director", "X")))
        assert len(store) == 1
        assert store.lookup_by_attribute("genre") == {"m1"}
        assert store.lookup_by_attribute("director") == {"m1"}

    def test_duplicate_id(self):
        store = MemoryStore()
        store.write(entity(1))
        with pytest.raises(DuplicateIdError):
            store.write(entity(1))

    def test_overwrite_reindexes(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama")))
        store.write(entity(1), entity_annotation(("director", "X")), overwrite=True)
        assert store.lookup_by_attribute("genre") == set()
        assert store.lookup_by_attribute("director") == {"m1"}

    def test_granularity_mismatch(self):
        store = MemoryStore()
        turn = MemoryItem(
            id="t1", kind=ItemKind.DIALOGUE_TURN, content="x",
            session_id="s1", turn_id="t1",
        )
        session_level = Annotation(
            pairs=(AttributePair("a", "1"),), granularity=Granularity.SESSION_LEVEL
        )
        with pytest.raises(GranularityMismatchError):
            store.write(turn, session_level)

    def test_item_invariants(self):
        with pytest.raises(ValueError):
            MemoryItem(id="t", kind=ItemKind.DIALOGUE_TURN, content="x")
        with pytest.raises(ValueError):
            MemoryItem(id="s", kind=ItemKind.SESSION, content="x")

    def test_entries_are_item_annotation_pairs_in_store_order(self):
        store = MemoryStore()
        for i in (3, 1, 2, 0):
            store.write(entity(i), entity_annotation(("genre", f"g{i}")) if i % 2 else None)
        store.attach_annotation("m0", entity_annotation(("mood", "calm")))
        store.write(entity(1), None, overwrite=True)
        assert list(store.entries()) == [
            (entity(3), entity_annotation(("genre", "g3"))),
            (entity(1), None),
            (entity(2), None),
            (entity(0), entity_annotation(("mood", "calm"))),
        ]


class TestLookup:
    @pytest.fixture
    def store(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama")))
        store.write(entity(2), entity_annotation(("genre", "Action")))
        return store

    def test_name_only(self, store):
        assert store.lookup_by_attribute("genre") == {"m1", "m2"}

    def test_name_and_value_case_folded(self, store):
        assert store.lookup_by_attribute("genre", "drama", MatchPolicy.NAME_AND_VALUE) == {"m1"}

    def test_absent_name(self, store):
        assert store.lookup_by_attribute("director") == set()

    def test_name_and_value_without_value_degrades_to_name(self, store):
        assert store.lookup_by_attribute("genre", None, MatchPolicy.NAME_AND_VALUE) == {"m1", "m2"}

    def test_unnormalized_query_name_accepted(self, store):
        assert store.lookup_by_attribute("  GENRE ") == {"m1", "m2"}

    def test_lookup_returns_a_fresh_set(self, store):
        found = store.lookup_by_attribute("genre")
        found.clear()
        drama = store.lookup_by_attribute("genre", "drama", MatchPolicy.NAME_AND_VALUE)
        drama.add("m9")
        assert store.lookup_by_attribute("genre") == {"m1", "m2"}
        assert store.lookup_by_attribute("genre", "Drama", MatchPolicy.NAME_AND_VALUE) == {"m1"}
        query = QueryContext(attribute_names=("genre",))
        hits = retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=None)
        assert hits.ids() == ("m1", "m2")


class TestStats:
    def test_avg_attributes(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("a", "1"), ("b", "2")))
        store.write(entity(2), entity_annotation(("a", "1"), ("b", "2"), ("c", "3")))
        store.write(
            entity(3), entity_annotation(("a", "1"), ("b", "2"), ("c", "3"), ("d", "4"))
        )
        stats = store.compute_stats()
        assert stats.avg_attributes == pytest.approx(3.0)

    def test_top_attributes_counts_items_once_per_name(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "a"), ("genre", "b")))
        store.write(entity(2), entity_annotation(("genre", "c")))
        stats = store.compute_stats()
        assert stats.top_attributes[0] == ("genre", 2)

    def test_ties_broken_by_name(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("zeta", "1"), ("alpha", "2")))
        stats = store.compute_stats()
        assert stats.top_attributes == (("alpha", 1), ("zeta", 1))

    def test_empty_store(self):
        stats = MemoryStore().compute_stats()
        assert stats.total_items == 0
        assert stats.avg_attributes == 0.0
        assert stats.top_attributes == ()

    def test_failure_rate_from_report(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("a", "1")))
        store.augmentation_report = AugmentationReport(
            total=10, succeeded=9, failed=1, failures=[("x", "unparseable")]
        )
        assert store.compute_stats().failure_rate == pytest.approx(0.1)

    def test_agrees_with_brute_force_recount_on_random_stores(self):
        rng = random.Random(23)
        names = [f"n{i}" for i in range(5)]
        for _ in range(25):
            store = MemoryStore()
            annotations = {}
            for i in range(rng.randint(1, 40)):
                if rng.random() < 0.25:
                    store.write(entity(i))
                    continue
                pairs = tuple(
                    (rng.choice(names), f"v{rng.randint(0, 20)}")
                    for _ in range(rng.randint(1, 6))
                )
                annotation = entity_annotation(*pairs)
                store.write(entity(i), annotation)
                annotations[f"m{i}"] = annotation
            stats = store.compute_stats()
            pair_total = sum(len(a) for a in annotations.values())
            assert stats.annotated_items == len(annotations)
            if annotations:
                assert stats.avg_attributes == pytest.approx(pair_total / len(annotations))
            counts: dict[str, int] = {}
            for annotation in annotations.values():
                for name in set(annotation.names):
                    counts[name] = counts.get(name, 0) + 1
            assert stats.top_attributes == tuple(
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            )


def assert_postings_rebuilt(store):
    """Each posting is strictly ascending. The name postings, and the value
    postings once a value query has built them, equal the eager build from
    the store's entries, leaving out postings that writes emptied."""
    built = dict(store._postings)
    assert all(isinstance(key, str) for key in built)
    if store._values is not None:
        assert all(isinstance(key, tuple) for key in store._values)
        built.update(store._values)
    for ids in built.values():
        assert all(a < b for a, b in zip(ids, ids[1:]))
    expected = eager_postings(store)
    assert {key: ids for key, ids in built.items() if ids} == {
        key: ids for key, ids in expected.items()
        if store._values is not None or isinstance(key, str)
    }


def reads_values(query, policy):
    """Whether retrieving ``query`` under ``policy`` reads a value posting."""
    return policy is MatchPolicy.NAME_AND_VALUE and any(
        value is not None for _, value in query.attribute_queries()
    )


class TestRankedViews:
    """Ranked queries read the id-sorted postings in place."""

    def _rank(self, store, names, policy=MatchPolicy.NAME_AND_VALUE, k=5):
        query = QueryContext(attribute_names=tuple(names))
        return retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=k, policy=policy)

    def _rank_values(self, store, pairs, k=5):
        query = QueryContext(annotation=entity_annotation(*pairs))
        return retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=k, policy=MatchPolicy.NAME_AND_VALUE)

    def test_unknown_names_cache_no_view(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama")))
        for policy in MatchPolicy:
            for i in range(50):
                assert self._rank(store, [f"unknown {i}"], policy).hits == ()
            assert self._rank(store, ["unknown", "genre"], policy).ids() == ("m1",)
        assert store._postings == {"genre": ["m1"]}
        # Name queries build no value postings, under either policy.
        assert store._values is None
        for i in range(50):
            assert self._rank_values(store, [(f"unknown {i}", "drama")]).hits == ()
            assert self._rank_values(store, [("genre", f"unknown {i}")]).hits == ()
            assert store.lookup_by_attribute("genre", f"x{i}", MatchPolicy.NAME_AND_VALUE) == set()
        assert self._rank_values(store, [("unknown", "x"), ("genre", "DRAMA")]).ids() == ("m1",)
        assert store._postings == {"genre": ["m1"]}
        assert store._values == {("genre", "drama"): ["m1"]}

    def test_emptied_posting_caches_no_view(self):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama")))
        assert store.lookup_by_attribute("genre", "drama", MatchPolicy.NAME_AND_VALUE) == {"m1"}
        store.attach_annotation("m1", entity_annotation(("mood", "calm")))
        assert self._rank(store, ["genre"]).hits == ()
        assert self._rank_values(store, [("genre", "drama")]).hits == ()
        assert store._postings["genre"] == []
        assert store._values[("genre", "drama")] == []
        assert store._values[("mood", "calm")] == ["m1"]
        assert_postings_rebuilt(store)

    def test_view_follows_writes_after_it_is_built(self):
        store = MemoryStore()
        store.write(entity(2), entity_annotation(("genre", "Drama")))
        assert self._rank(store, ["genre"]).ids() == ("m2",)
        assert self._rank_values(store, [("genre", "drama")]).ids() == ("m2",)
        # A repeated name, and a value repeated in another case, add the id
        # to their postings once.
        store.write(entity(1), entity_annotation(("genre", "Drama"), ("genre", "drama")))
        assert self._rank(store, ["genre"], k=None).ids() == ("m1", "m2")
        assert store._postings["genre"] == ["m1", "m2"]
        assert store._values[("genre", "drama")] == ["m1", "m2"]
        store.attach_annotation("m2", entity_annotation(("mood", "calm")))
        store.write(entity(3), None)
        store.write(entity(3), entity_annotation(("genre", "noir")), overwrite=True)
        assert self._rank(store, ["genre"], k=None).ids() == ("m1", "m3")
        assert store._postings["genre"] == ["m1", "m3"]
        assert store._values[("genre", "drama")] == ["m1"]
        assert store._values[("genre", "noir")] == ["m3"]
        assert self._rank_values(store, [("genre", "NOIR")], k=None).ids() == ("m3",)
        assert_postings_rebuilt(store)


_RANK_NAMES = ("genre", "mood", "era")
_RANK_VALUES = ("noir", "Noir", "drama", "1990s")
_RANK_QUERY_NAMES = _RANK_NAMES + (" GENRE", "unknown")
_RANK_IDS = tuple(f"m{i}" for i in range(4))
_rank_pairs = st.lists(
    st.tuples(st.sampled_from(_RANK_NAMES), st.sampled_from(_RANK_VALUES)), max_size=4
)
_rank_queries = st.one_of(
    st.lists(st.sampled_from(_RANK_QUERY_NAMES), min_size=1, max_size=3).map(
        lambda names: QueryContext(attribute_names=tuple(names))
    ),
    st.lists(
        st.tuples(st.sampled_from(_RANK_QUERY_NAMES), st.sampled_from(_RANK_VALUES + ("NOIR", "absent"))),
        min_size=1,
        max_size=3,
    ).map(lambda pairs: QueryContext(annotation=entity_annotation(*pairs))),
)
_rank_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("query"), _rank_queries, st.sampled_from(MatchPolicy), st.none() | st.integers(1, 30)
        ),
        st.tuples(st.sampled_from(("write", "overwrite")), st.sampled_from(_RANK_IDS), st.none() | _rank_pairs),
        st.tuples(st.just("attach"), st.sampled_from(_RANK_IDS), _rank_pairs),
        st.tuples(st.just("reload")),
        st.tuples(
            st.just("lookup"),
            st.sampled_from(_RANK_QUERY_NAMES),
            st.none() | st.sampled_from(_RANK_VALUES + ("NOIR", " noir ", "absent")),
            st.sampled_from(MatchPolicy),
        ),
    ),
    min_size=10,
    max_size=40,
)
_GENRE = QueryContext(attribute_names=("genre",))
_GENRE_MOOD = QueryContext(attribute_names=("genre", "mood"))


@settings(max_examples=200, deadline=None)
@given(steps=_rank_steps)
# Views built before a write: an id added twice by a repeated name, then
# removed by an overwrite and by attach_annotation.
@example(steps=[
    ("write", "m1", [("genre", "noir")]),
    ("write", "m2", [("genre", "drama"), ("mood", "noir")]),
    ("query", _GENRE, MatchPolicy.NAME_AND_VALUE, None),
    ("query", _GENRE_MOOD, MatchPolicy.NAME_AND_VALUE, 1),
    ("write", "m0", [("genre", "noir"), ("genre", "drama"), ("mood", "Noir"), ("mood", "noir")]),
    ("overwrite", "m1", [("mood", "drama")]),
    ("attach", "m2", [("era", "1990s")]),
    ("attach", "m0", [("mood", "noir"), ("genre", "Noir"), ("genre", "noir")]),
    ("overwrite", "m0", None),
])
# A file whose ids are out of order, reloaded and then written to.
@example(steps=[
    ("write", "m3", [("genre", "noir")]),
    ("write", "m1", [("genre", "Noir"), ("mood", "drama")]),
    ("write", "m2", [("genre", "drama"), ("genre", "noir")]),
    ("query", _GENRE, MatchPolicy.NAME_AND_VALUE, None),
    ("reload",),
    ("write", "m0", [("genre", "noir"), ("mood", "drama")]),
    ("query", _GENRE_MOOD, MatchPolicy.NAME_AND_VALUE, 1),
    ("overwrite", "m1", None),
    ("reload",),
])
# Value postings built by a lookup, kept by writes, dropped by a reload and
# built again by the next value lookup.
@example(steps=[
    ("write", "m2", [("genre", "Noir"), ("mood", "drama")]),
    ("lookup", "genre", "NOIR", MatchPolicy.NAME_ONLY),
    ("lookup", " GENRE", " noir ", MatchPolicy.NAME_AND_VALUE),
    ("write", "m1", [("genre", "noir"), ("genre", "Noir")]),
    ("overwrite", "m2", [("genre", "drama")]),
    ("attach", "m1", [("mood", "noir")]),
    ("reload",),
    ("write", "m0", [("mood", "Noir")]),
    ("lookup", "mood", "noir", MatchPolicy.NAME_AND_VALUE),
    ("overwrite", "m0", None),
])
def test_ranked_views_match_the_sorting_oracle_across_writes(steps):
    """After every step, every query asked so far ranks as the linear-scan
    oracle does, and each lookup matches it too. A store holds no value
    postings before its first value query; from then on they, like the name
    postings, equal the eager build from the store's entries."""
    store = MemoryStore()
    asked = []
    values_read = False
    for kind, *args in steps:
        if kind == "query":
            asked.append(tuple(args))
        elif kind == "lookup":
            name, value, policy = args
            assert store.lookup_by_attribute(name, value, policy) == lookup_oracle(
                store, name, value, policy
            )
            values_read |= policy is MatchPolicy.NAME_AND_VALUE and value is not None
        elif kind == "reload":
            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory) / "store.jsonl"
                store.save(path)
                store = MemoryStore.load(path)
            values_read = False
        elif kind == "attach":
            item_id, pairs = args
            if item_id in store:
                store.attach_annotation(item_id, entity_annotation(*pairs))
            else:
                with pytest.raises(KeyError):
                    store.attach_annotation(item_id, entity_annotation(*pairs))
        else:
            item_id, pairs = args
            item = MemoryItem(id=item_id, kind=ItemKind.ENTITY, content=item_id)
            annotation = None if pairs is None else entity_annotation(*pairs)
            if kind == "write" and item_id in store:
                with pytest.raises(DuplicateIdError):
                    store.write(item, annotation)
            else:
                store.write(item, annotation, overwrite=kind == "overwrite")
        assert (store._values is not None) is values_read
        for query, policy, k in asked:
            got = retrieve(store, query, RetrievalMode.ATTRIBUTE_BASED, k=k, policy=policy)
            assert got == attribute_ranking(store, query, policy, k)
            values_read |= reads_values(query, policy)
        assert (store._values is not None) is values_read
        assert_postings_rebuilt(store)


class TestIndexSoundness:
    def test_matches_linear_scan_on_random_stores(self):
        rng = random.Random(11)
        names = [f"n{i}" for i in range(6)]
        values = ["Alpha", "beta", "GAMMA", "delta"]
        for _ in range(20):
            store = MemoryStore()
            expected_items = {}
            for i in range(rng.randint(1, 60)):
                pairs = tuple(
                    (rng.choice(names), rng.choice(values))
                    for _ in range(rng.randint(0, 4))
                )
                annotation = entity_annotation(*pairs) if pairs else None
                store.write(entity(i), annotation)
                expected_items[f"m{i}"] = annotation
            for name in names:
                by_scan = {
                    item_id
                    for item_id, ann in expected_items.items()
                    if ann and name in ann.names
                }
                assert store.lookup_by_attribute(name) == by_scan
                for value in values:
                    by_scan_value = {
                        item_id
                        for item_id, ann in expected_items.items()
                        if ann
                        and any(
                            p.name == name and p.value.casefold() == value.casefold()
                            for p in ann.pairs
                        )
                    }
                    got = store.lookup_by_attribute(name, value, MatchPolicy.NAME_AND_VALUE)
                    assert got == by_scan_value


class TestPersistence:
    def make_store(self, n: int = 100) -> MemoryStore:
        rng = random.Random(5)
        store = MemoryStore()
        for i in range(n):
            if i % 3 == 0:
                store.write(entity(i))
            else:
                pairs = tuple(
                    (f"name{rng.randint(0, 5)}", f"value {rng.randint(0, 9)}")
                    for _ in range(rng.randint(1, 5))
                )
                store.write(entity(i), entity_annotation(*pairs))
        return store

    def test_round_trip_preserves_everything(self, tmp_path):
        store = self.make_store()
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path)
        assert loaded.ids() == store.ids()
        for item_id in store.ids():
            assert loaded.get(item_id) == store.get(item_id)
            assert loaded.annotation_for(item_id) == store.annotation_for(item_id)

    def test_save_load_save_byte_identical(self, tmp_path):
        store = self.make_store()
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        store.save(first)
        MemoryStore.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_report_round_trip(self, tmp_path):
        store = self.make_store(5)
        store.augmentation_report = AugmentationReport(total=5, succeeded=4, failed=1, failures=[("m0", "transport")])
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path)
        assert loaded.augmentation_report == store.augmentation_report

    def test_malformed_line_strict(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"id": "a", "kind": "entity", "content": "x"}\nnot json\n')
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert exc_info.value.line == 2

    def test_malformed_line_lenient(self, tmp_path):
        path = tmp_path / "store.jsonl"
        lines = [f'{{"id": "m{i}", "kind": "entity", "content": "x"}}' for i in range(99)]
        lines.insert(40, "{broken")
        path.write_text("\n".join(lines) + "\n")
        warnings: list[str] = []
        store = MemoryStore.load(path, strict=False, warnings=warnings)
        assert len(store) == 99
        assert len(warnings) == 1
        assert "41" in warnings[0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MemoryStore.load(tmp_path / "missing.jsonl")

    def test_rebuilds_index_on_load(self, tmp_path):
        store = MemoryStore()
        store.write(entity(1), entity_annotation(("genre", "Drama")))
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path)
        assert loaded.lookup_by_attribute("genre", "drama", MatchPolicy.NAME_AND_VALUE) == {"m1"}


class TestAtomicSave:
    def test_failed_save_keeps_old_files(self, tmp_path, monkeypatch):
        store = TestPersistence().make_store(10)
        store.augmentation_report = AugmentationReport(total=10, succeeded=10, failed=0)
        path = tmp_path / "store.jsonl"
        store.save(path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        store.write(entity(99))
        calls = []

        def failing_record(item, annotation):
            calls.append(item.id)
            if len(calls) == 5:
                raise OSError("disk full")
            return original(item, annotation)

        original = MemoryStore._record
        monkeypatch.setattr(MemoryStore, "_record", staticmethod(failing_record))
        with pytest.raises(OSError):
            store.save(path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_save_without_report_removes_stale_sidecar(self, tmp_path):
        store = TestPersistence().make_store(5)
        store.augmentation_report = AugmentationReport(total=5, succeeded=5, failed=0)
        path = tmp_path / "store.jsonl"
        store.save(path)
        sidecar = tmp_path / "store.jsonl.report.json"
        assert sidecar.exists()
        store.augmentation_report = None
        store.save(path)
        assert not sidecar.exists()
        assert MemoryStore.load(path).augmentation_report is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.jsonl"]

    # The report goes first. With a report, it is replaced and then the store
    # fails; without one, the store replacement fails and the stale report
    # must survive it.
    @pytest.mark.parametrize("with_report, failing_call", [(True, 2), (False, 1)])
    def test_store_and_report_replaced_as_one_set(
        self, tmp_path, monkeypatch, with_report, failing_call
    ):
        old = TestPersistence().make_store(5)
        old.augmentation_report = AugmentationReport(total=5, succeeded=5, failed=0)
        path = tmp_path / "store.jsonl"
        old.save(path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        new = TestPersistence().make_store(8)
        if with_report:
            new.augmentation_report = AugmentationReport(
                total=8, succeeded=7, failed=1, failures=[("m1", "refusal")]
            )
        real_replace = os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == failing_call:
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr("memaug.fileio.os.replace", failing_replace)
        with pytest.raises(OSError):
            new.save(path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_save_never_reads_the_old_store(self, tmp_path, monkeypatch):
        store = TestPersistence().make_store(10)
        store.augmentation_report = AugmentationReport(total=10, succeeded=10, failed=0)
        path = tmp_path / "store.jsonl"
        store.save(path)
        real_read_bytes = Path.read_bytes
        read = []

        def recording_read_bytes(self):
            read.append(self)
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
        store.save(path)  # over a store and its report
        store.augmentation_report = None
        store.save(path)  # over a store and a stale report, which it removes
        store.save(path)  # over a store alone
        # Only the sidecar's earlier bytes are kept, to restore it if the store fails.
        assert read == [tmp_path / "store.jsonl.report.json"] * 2

    @pytest.mark.parametrize("with_report", [True, False], ids=["report-written", "stale-report-removed"])
    def test_failed_store_replace_restores_the_sidecar(self, tmp_path, monkeypatch, with_report):
        old = TestPersistence().make_store(5)
        old.augmentation_report = AugmentationReport(total=5, succeeded=5, failed=0)
        path = tmp_path / "store.jsonl"
        old.save(path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        new = TestPersistence().make_store(8)
        if with_report:
            new.augmentation_report = AugmentationReport(total=8, succeeded=8, failed=0)
        real_replace = os.replace
        replaced = []

        def failing_store_replace(src, dst):
            if Path(dst) == path:
                raise OSError("disk full")
            replaced.append(Path(dst).name)
            return real_replace(src, dst)

        monkeypatch.setattr("memaug.fileio.os.replace", failing_store_replace)
        with pytest.raises(OSError, match="^disk full$"):
            new.save(path)
        assert replaced == (["store.jsonl.report.json"] if with_report else [])
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


# -- saved line bytes ---------------------------------------------------------

# The sha256 of the store file build_mixed_store() saves, recorded when each
# line was still json.dumps of a record dict.
_MIXED_STORE_SHA256 = "dccc4ef022fdd924c9471f1a34274700a08deff69ff674151ddc5d3f6dc15756"

# Text that a saved line escapes (quotes, backslashes, control characters) or
# leaves raw (non-ASCII, DEL, U+2028 and U+2029).
_LINE_TEXT = st.text(st.sampled_from(list('ab /"\\é中😀\u2028\u2029\x00\x01\x1f\x7f\n\t\r\b\f')), max_size=8)
_PAIR_NAME = _LINE_TEXT.filter(str.strip)
_PAIR_VALUE = _LINE_TEXT.map(str.strip).filter(lambda value: value and value.casefold() != "none")


@st.composite
def _entry(draw):
    """An item, each optional text field present or absent, and its
    annotation or None."""
    kind = draw(st.sampled_from(list(ItemKind)))
    optional = {
        key: draw(st.none() | _LINE_TEXT) for key in ("speaker", "session_id", "turn_id", "timestamp")
    }
    if kind is not ItemKind.ENTITY:
        optional["session_id"] = "s" + (optional["session_id"] or "")
    if kind is ItemKind.DIALOGUE_TURN:
        optional["turn_id"] = "t" + (optional["turn_id"] or "")
    item = MemoryItem("m" + draw(_LINE_TEXT), kind, draw(_LINE_TEXT), **optional)
    if draw(st.booleans()):
        return item, None
    pairs = draw(st.lists(st.builds(AttributePair, _PAIR_NAME, _PAIR_VALUE), max_size=4))
    return item, Annotation(
        tuple(pairs),
        draw(st.sampled_from(list(Perspective))),
        draw(st.sampled_from(list(Granularity))),
        draw(st.sampled_from(list(Prioritization))),
    )


@settings(max_examples=1000, deadline=None)
@given(_entry())
def test_saved_lines_match_the_record_dict_oracle(entry):
    assert MemoryStore._record(*entry) == store_line_oracle(*entry)


def test_saved_store_bytes_are_pinned(tmp_path):
    path = tmp_path / "store.jsonl"
    build_mixed_store().save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _MIXED_STORE_SHA256


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _entity_line(**fields) -> str:
    record = {"id": "m1", "kind": "entity", "content": "x", **fields}
    return json.dumps(record)


def _annotated_line(name, value) -> str:
    return _entity_line(annotation={
        "pairs": [{"name": "genre", "value": "noir"}, {"name": name, "value": value}],
        "perspective": "entity_centric",
        "granularity": "not_applicable",
        "prioritization": "basic",
    })


class TestMalformedInput:
    """Fields of the wrong JSON type are schema errors at their line, in both modes."""

    CASES = {
        "pair-value-int": _annotated_line("g", 5),
        "pair-name-int": _annotated_line(5, "noir"),
        "pair-value-null": _annotated_line("g", None),
        "pair-name-list": _annotated_line(["g"], "noir"),
        "id-int": _entity_line(id=7),
        "id-list": _entity_line(id=["m1"]),
        "content-int": _entity_line(content=3),
        "content-null": _entity_line(content=None),
        "speaker-int": _entity_line(speaker=1),
        "session-id-object": _entity_line(session_id={"s": 1}),
        "turn-id-float": _entity_line(turn_id=2.5),
        "timestamp-int": _entity_line(timestamp=20240101),
    }

    @pytest.mark.parametrize("line", CASES.values(), ids=CASES.keys())
    def test_strict_raises_schema_error_at_line(self, tmp_path, line):
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line(id="m0"), line])
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert exc_info.value.line == 2
        assert "string" in str(exc_info.value)

    @pytest.mark.parametrize("line", CASES.values(), ids=CASES.keys())
    def test_lenient_skips_line_with_warning(self, tmp_path, line):
        path = _write_lines(tmp_path / "store.jsonl", [line, _entity_line(id="m2")])
        warnings: list[str] = []
        store = MemoryStore.load(path, strict=False, warnings=warnings)
        assert store.ids() == ("m2",)
        assert store.lookup_by_attribute("genre") == set()
        assert len(warnings) == 1 and warnings[0].startswith("line 1: skipped (")

    def test_null_optional_fields_accepted(self, tmp_path):
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line(speaker=None, timestamp=None)])
        assert MemoryStore.load(path).get("m1") == MemoryItem("m1", ItemKind.ENTITY, "x")

    @pytest.mark.parametrize("report", [
        {"total": 2, "failed": 0, "failures": []},
        {"total": 2, "succeeded": 2, "failed": 0, "failures": [{"item_id": "m1"}]},
        ["total", 2],
        "{not json",
    ], ids=["no-succeeded", "failure-without-reason", "not-an-object", "broken-json"])
    def test_malformed_report_sidecar(self, tmp_path, report):
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line()])
        sidecar = tmp_path / "store.jsonl.report.json"
        sidecar.write_text(report if isinstance(report, str) else json.dumps(report))
        for strict in (True, False):
            with pytest.raises(SchemaError, match="store.jsonl.report.json"):
                MemoryStore.load(path, strict=strict)


class TestRecordFields:
    """The exact bytes a saved item takes, and the exact refusal of a stored
    text field of the wrong type."""

    TEXT_FIELDS = ("id", "content", "speaker", "session_id", "turn_id", "timestamp")
    WRONG = {
        f"{field}-{name}": (field, value, type_name)
        for field in TEXT_FIELDS
        for name, value, type_name in [("int", 3, "int"), ("list", ["x"], "list")]
        + ([("null", None, "NoneType")] if field in ("id", "content") else [])
    }

    @pytest.mark.parametrize("field, value, type_name", WRONG.values(), ids=WRONG.keys())
    def test_wrong_type_message(self, tmp_path, field, value, type_name):
        expected = f"field {field!r} must be a string, got {type_name}"
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line(id="m0"), _entity_line(**{field: value})])
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert str(exc_info.value) == f"line 2: {expected}"
        warnings: list[str] = []
        assert MemoryStore.load(path, strict=False, warnings=warnings).ids() == ("m0",)
        assert warnings == [f"line 2: skipped ({expected})"]

    def test_first_wrong_field_in_field_order_is_named(self, tmp_path):
        # The line holds timestamp before content, but content comes first in
        # field order; the bad kind is only checked after the text fields.
        line = json.dumps({"kind": "bogus", "timestamp": 5, "id": "m1", "content": ["x"]})
        path = _write_lines(tmp_path / "store.jsonl", [line])
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert str(exc_info.value) == "line 1: field 'content' must be a string, got list"

    @pytest.mark.parametrize("field, value, type_name", WRONG.values(), ids=WRONG.keys())
    def test_item_constructor_refuses_what_a_load_refuses(self, field, value, type_name):
        fields = {"id": "m1", "kind": ItemKind.ENTITY, "content": "x", field: value}
        with pytest.raises(TypeError, match=f"^{re.escape(f'field {field!r} must be a string, got {type_name}')}$"):
            MemoryItem(**fields)

    def test_kind_given_as_its_value(self):
        assert MemoryItem("m1", "entity", "x") == MemoryItem("m1", ItemKind.ENTITY, "x")
        assert MemoryItem("m1", "entity", "x").kind is ItemKind.ENTITY
        with pytest.raises(ValueError, match="^'bogus' is not a valid ItemKind$"):
            MemoryItem("m1", "bogus", "x")

    def test_saved_line_bytes(self, tmp_path):
        store = MemoryStore()
        store.write(
            MemoryItem("t1", ItemKind.DIALOGUE_TURN, "héllo", speaker="ana", session_id="s1",
                       turn_id="7", timestamp="2024-01-01"),
            Annotation(pairs=(AttributePair("mood", "calm"),), granularity=Granularity.TURN_LEVEL),
        )
        store.write(MemoryItem("e1", ItemKind.ENTITY, ""))
        path = tmp_path / "store.jsonl"
        store.save(path)
        assert path.read_bytes() == (
            '{"id": "t1", "kind": "dialogue_turn", "content": "héllo", "speaker": "ana", '
            '"session_id": "s1", "turn_id": "7", "timestamp": "2024-01-01", "annotation": '
            '{"pairs": [{"name": "mood", "value": "calm"}], "perspective": "conversation_centric", '
            '"granularity": "turn_level", "prioritization": "basic"}}\n'
            '{"id": "e1", "kind": "entity", "content": ""}\n'
        ).encode("utf-8")

    def test_undecodable_line_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        lines = [_entity_line(id="m0").encode(), b'{"id": "m1", "kind": "entity", "content": "\xff"}',
                 _entity_line(id="m2").encode()]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert exc_info.value.line == 2
        assert "can't decode byte 0xff" in str(exc_info.value)
        warnings: list[str] = []
        assert MemoryStore.load(path, strict=False, warnings=warnings).ids() == ("m0", "m2")
        assert len(warnings) == 1 and warnings[0].startswith("line 2: skipped ('utf-8' codec can't decode")

    def test_crlf_lines_load(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"\r\n".join(_entity_line(id=f"m{i}").encode() for i in range(3)) + b"\r\n\r\n")
        assert MemoryStore.load(path).ids() == ("m0", "m1", "m2")
        path.write_bytes(_entity_line(id="m0").encode() + b"\r\n{broken\r\n")
        with pytest.raises(SchemaError) as exc_info:
            MemoryStore.load(path)
        assert exc_info.value.line == 2


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def gc_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class TestLoadPausesCollector:
    def test_state_restored_after_load(self, tmp_path, gc_state):
        path = tmp_path / "store.jsonl"
        TestPersistence().make_store(20).save(path)
        assert len(MemoryStore.load(path)) == 20
        assert gc.isenabled() is gc_state

    def test_state_restored_after_failed_load(self, tmp_path, gc_state):
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line(), "{broken"])
        with pytest.raises(SchemaError):
            MemoryStore.load(path)
        assert gc.isenabled() is gc_state


class TestValuePostingsOnDemand:
    """A loaded store builds its value postings at the first value query."""

    def _saved(self, tmp_path):
        path = tmp_path / "store.jsonl"
        TestPersistence().make_store(300).save(path)
        return path

    def test_first_value_queries_fanned_out_build_once(self, tmp_path, monkeypatch):
        path = self._saved(tmp_path)
        terms = [(f"name{i % 6}", f"VALUE {i % 10}") for i in range(40)]

        def asker(store):
            def ask(term):
                ranked = store.rank_by_attributes([term, ("name0", "value 1")], MatchPolicy.NAME_AND_VALUE, 3)
                return store.lookup_by_attribute(*term, MatchPolicy.NAME_AND_VALUE), ranked
            return ask

        serial = fan_out(asker(MemoryStore.load(path)), terms, 1)
        builds = []
        build = store_module._ascending_postings

        def slow_build(annotations, *, by_value):
            if by_value:
                builds.append(gc.isenabled())
                time.sleep(0.05)  # the other first readers reach the build meanwhile
            return build(annotations, by_value=by_value)

        monkeypatch.setattr(store_module, "_ascending_postings", slow_build)
        store = MemoryStore.load(path)
        assert store._values is None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert fan_out(asker(store), terms, 4) == serial
        finally:
            sys.setswitchinterval(interval)
        # One build, with the collector paused.
        assert builds == [False]
        assert_postings_rebuilt(store)

    def test_collector_state_restored_after_the_build(self, tmp_path, gc_state):
        store = MemoryStore.load(self._saved(tmp_path))
        assert gc.isenabled() is gc_state
        assert store.lookup_by_attribute("name1", "value 2", MatchPolicy.NAME_AND_VALUE)
        assert store._values is not None
        assert gc.isenabled() is gc_state

    def test_name_queries_and_writes_build_no_value_postings(self, tmp_path):
        store = MemoryStore.load(self._saved(tmp_path))
        store.write(entity(1000), entity_annotation(("name1", "value 2")))
        store.attach_annotation("m1000", entity_annotation(("name2", "value 3")))
        assert store.lookup_by_attribute("name2", "value 3") == lookup_oracle(
            store, "name2", "value 3", MatchPolicy.NAME_ONLY
        )
        assert store.rank_by_attributes([("name1", None)], MatchPolicy.NAME_AND_VALUE, 5)
        assert store._values is None


# -- the one-pass load against the per-line write it replaced -------------------

# Mostly valid values, with a few that the constructors reject.
_NAMES = ("genre", "Genre", "  release   YEAR ", "release year", "mood", "x[y]", "")
_VALUES = ("noir", " Noir ", "NOIR", "1990s\t", "café", "a<b", "")
_NON_STRINGS = (0, 7, 1.5, True, [], ["x"], {"a": 1})
_OPTIONAL_TEXT = ("speaker", "session_id", "turn_id", "timestamp")
_KIND_GRANULARITY = {
    "entity": "not_applicable", "dialogue_turn": "turn_level", "session": "session_level",
}


_IDS = tuple(f"{letter}{digit}" for letter in "abcdef" for digit in "01234")


@st.composite
def _annotation_record(draw, kind, rarely):
    valid = len(_NAMES) if rarely(3) else 5
    pairs = draw(st.lists(
        st.fixed_dictionaries({
            "name": st.sampled_from(_NAMES[:valid]),
            "value": st.sampled_from(_VALUES[:valid]),
        }),
        max_size=5,
    ))
    if pairs and draw(st.integers(0, 2)) == 0:
        pairs.append(dict(draw(st.sampled_from(pairs))))  # an exact duplicate pair
    granularity = _KIND_GRANULARITY.get(kind, "not_applicable")
    if rarely(8):
        granularity = draw(st.sampled_from(sorted(set(_KIND_GRANULARITY.values()))))
    record = {
        "pairs": pairs,
        "perspective": draw(st.sampled_from(["entity_centric", "conversation_centric"])),
        "granularity": granularity,
        "prioritization": draw(st.sampled_from(["basic", "priority"])),
    }
    if rarely(12):
        record["prioritization"] = "bogus"
    if rarely(12):
        del record[draw(st.sampled_from(sorted(record)))]
    return record


@st.composite
def _store_line(draw, noisy):
    """One JSONL line of a store file.

    A noisy line is mostly a valid record over few ids; otherwise it is a
    valid record (ids may still repeat) or a blank line.
    """

    def rarely(n: int) -> bool:
        return noisy and draw(st.integers(0, n - 1)) == 0

    if not noisy and draw(st.integers(0, 9)) == 0:
        return ""
    shape = "record"
    if noisy:
        shape = draw(st.sampled_from(["record"] * 12 + ["blank", "broken", "not_object"]))
    if shape == "blank":
        return draw(st.sampled_from(["", "  ", "\t "]))
    if shape == "broken":
        return draw(st.sampled_from(["{broken", "not json", '{"id": "a",', '{"id": "a"}}']))
    if shape == "not_object":
        return draw(st.sampled_from(["[1, 2]", "5", "null", '"text"']))
    kind = draw(st.sampled_from(["entity"] * 4 + ["dialogue_turn", "session"]))
    record = {"id": draw(st.sampled_from(_IDS[:6] if noisy else _IDS)), "kind": kind}
    if kind != "entity" or draw(st.integers(0, 7)) == 0:
        record["session_id"] = "s1"
    if kind == "dialogue_turn" or draw(st.integers(0, 7)) == 0:
        record["turn_id"] = draw(st.sampled_from(["t1", "t2"]))
    if draw(st.booleans()):
        record["content"] = draw(st.sampled_from(["a great thriller", "", " x "]))
    for key in ("speaker", "timestamp"):
        if draw(st.integers(0, 2)) == 0:
            record[key] = draw(st.sampled_from([None, "ana", "2024-01-01"]))
    if draw(st.integers(0, 3)):
        record["annotation"] = (
            None if draw(st.integers(0, 7)) == 0 else draw(_annotation_record(kind, rarely))
        )
    if rarely(10):
        record["kind"] = "bogus"
    if rarely(10):
        record["id"] = ""
    if rarely(10):
        record.pop(draw(st.sampled_from(["id", "kind", "session_id", "turn_id"])), None)
    if rarely(5):
        # One field of the wrong JSON type.
        wrong = draw(st.sampled_from(_NON_STRINGS))
        target = draw(st.sampled_from(["id", "content", *_OPTIONAL_TEXT, "pair"]))
        pairs = (record.get("annotation") or {}).get("pairs")
        if target == "pair" and pairs:
            draw(st.sampled_from(pairs))[draw(st.sampled_from(["name", "value"]))] = wrong
        elif target in ("id", "content"):
            record[target] = draw(st.sampled_from([None, wrong]))
        elif target != "pair":
            record[target] = wrong
    return json.dumps(record, ensure_ascii=False)


def _wrong_type(line: str) -> bool:
    """Whether a line holds a text field that is not a string.

    The optional fields may be null; pairs count only where the annotation
    is an object whose pairs are a list of objects.
    """
    try:
        record = json.loads(line)
    except ValueError:
        return False
    if not isinstance(record, dict):
        return False
    for key in ("id", "content"):
        if key in record and not isinstance(record[key], str):
            return True
    if any(record.get(key) is not None and not isinstance(record[key], str) for key in _OPTIONAL_TEXT):
        return True
    annotation = record.get("annotation")
    pairs = annotation.get("pairs") if isinstance(annotation, dict) else None
    return isinstance(pairs, list) and any(
        isinstance(pair, dict)
        and any(key in pair and not isinstance(pair[key], str) for key in ("name", "value"))
        for pair in pairs
    )


def _outcome(load, path, **kwargs):
    try:
        return load(path, **kwargs)
    except SchemaError as exc:
        return exc


def _assert_same_store(got: MemoryStore, expected: MemoryStore) -> None:
    assert list(got.entries()) == list(expected.entries())
    for name in _NAMES:
        assert got.lookup_by_attribute(name) == expected.lookup_by_attribute(name)
        for value in _VALUES:
            policy = MatchPolicy.NAME_AND_VALUE
            assert got.lookup_by_attribute(name, value, policy) == expected.lookup_by_attribute(
                name, value, policy
            )


_TURN = {"id": "t", "kind": "dialogue_turn", "session_id": "s1", "turn_id": "t1"}


@settings(max_examples=250, deadline=None)
@given(lines=st.booleans().flatmap(lambda noisy: st.lists(_store_line(noisy), max_size=12)))
# A pair name that is not a string crashed the per-line load.
@example(lines=[_entity_line(id="a"), _annotated_line(5, "noir")])
# Non-canonical names and edge whitespace in values, duplicates, a wrong granularity.
@example(lines=[
    _annotated_line("  Release   YEAR ", " 1990s "),
    "",
    _annotated_line("release year", "1990S"),
    json.dumps({**_TURN, "annotation": json.loads(_annotated_line("g", "x"))["annotation"]}),
])
def test_load_matches_per_line_oracle(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_lines(Path(tmp) / "store.jsonl", lines)
        # Lines with a field of the wrong type are rejected by the new load
        # and loaded (or crashed on) by the oracle; every other line must
        # behave exactly as before, so the oracle reads them blanked out.
        wrong = [n for n, line in enumerate(lines, start=1) if _wrong_type(line)]
        blanked = _write_lines(
            Path(tmp) / "blanked.jsonl", ["" if n in wrong else line for n, line in enumerate(lines, start=1)]
        )
        try:
            load_store_oracle(path)
        except SchemaError:
            pass
        except Exception:  # the oracle crashed: the new load must not
            assert isinstance(_outcome(MemoryStore.load, path), SchemaError)

        got = _outcome(MemoryStore.load, path)
        expected = _outcome(load_store_oracle, blanked)
        if wrong and (not isinstance(expected, SchemaError) or wrong[0] < expected.line):
            assert isinstance(got, SchemaError) and got.line == wrong[0]
        elif isinstance(expected, SchemaError):
            assert isinstance(got, SchemaError)
            assert (got.line, str(got)) == (expected.line, str(expected))
        else:
            _assert_same_store(got, expected)

        got_warnings: list[str] = []
        expected_warnings: list[str] = []
        got = MemoryStore.load(path, strict=False, warnings=got_warnings)
        expected = load_store_oracle(blanked, strict=False, warnings=expected_warnings)
        _assert_same_store(got, expected)
        skipped = sorted(
            [(int(w.split()[1].rstrip(":")), w) for w in expected_warnings]
            + [(n, None) for n in wrong]
        )
        assert len(got_warnings) == len(skipped)
        for warning, (line_no, text) in zip(got_warnings, skipped):
            if text is None:
                assert warning.startswith(f"line {line_no}: skipped (")
            else:
                assert warning == text


class TestAugmentationReport:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"total": 2.5, "succeeded": 1.5, "failed": 1},
             "total must be a non-negative integer, got 2.5"),
            ({"total": True, "succeeded": True, "failed": False},
             "total must be a non-negative integer, got True"),
            ({"total": 0, "succeeded": 1, "failed": -1},
             "failed must be a non-negative integer, got -1"),
            ({"total": 1, "succeeded": 0, "failed": 1, "failures": [(5, "transport")]},
             "failures must be (item id, reason) pairs of strings"),
            ({"total": 1, "succeeded": 0, "failed": 1, "failures": [["m1", "transport"]]},
             "failures must be (item id, reason) pairs of strings"),
            ({"total": 1, "succeeded": 0, "failed": 1, "failures": [("m1", "transport", "x")]},
             "failures must be (item id, reason) pairs of strings"),
        ],
        ids=["fraction", "bool", "negative", "int-id", "list", "triple"],
    )
    def test_constructor_refuses_what_a_load_cannot_give_back(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AugmentationReport(**fields)


    @pytest.mark.parametrize(
        "fields",
        [{"total": 2, "succeeded": 0, "failed": 2, "failures": []},
         {"total": 2, "succeeded": 2, "failed": 0, "failures": [("m1", "transport")]},
         {"total": 3, "succeeded": 1, "failed": 2, "failures": [("m1", "transport")]}],
        ids=["none-listed", "one-too-many", "one-too-few"],
    )
    def test_failures_list_every_failed_item(self, fields, tmp_path):
        message = f"failed must equal the number of failures, got {fields['failed']} and {len(fields['failures'])}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AugmentationReport(**fields)
        # A sidecar holding such a report is refused like any malformed one.
        path = _write_lines(tmp_path / "store.jsonl", [_entity_line()])
        sidecar = tmp_path / "store.jsonl.report.json"
        failures = [{"item_id": i, "reason": r} for i, r in fields["failures"]]
        sidecar.write_text(json.dumps(dict(fields, failures=failures)))
        for strict in (True, False):
            with pytest.raises(SchemaError, match=f"^store report {re.escape(str(sidecar))}: "):
                MemoryStore.load(path, strict=strict)


_TEXTS = st.text(max_size=4)
_COUNTS = st.one_of(st.integers(-1, 3), st.sampled_from([0.5, 1.0, True, False]))


@settings(max_examples=200, deadline=None)
@given(
    succeeded=_COUNTS,
    failed=_COUNTS,
    failures=st.lists(
        st.one_of(
            st.tuples(_TEXTS, _TEXTS),
            st.lists(_TEXTS, min_size=2, max_size=2),
            st.tuples(st.integers(0, 3), _TEXTS),
            st.tuples(_TEXTS, _TEXTS, _TEXTS),
            st.text(min_size=2, max_size=2),
        ),
        max_size=3,
    ),
)
def test_every_report_that_constructs_loads_back(succeeded, failed, failures):
    try:
        report = AugmentationReport(succeeded + failed, succeeded, failed, failures)
    except ValueError:
        return
    store = MemoryStore()
    store.augmentation_report = report
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path).augmentation_report
    assert loaded == report
    assert [type(count) for count in (loaded.total, loaded.succeeded, loaded.failed)] == [int] * 3


_FIELD_VALUES = st.one_of(st.none(), st.text(max_size=4), st.integers(0, 2), st.lists(st.text(max_size=1), max_size=1))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.one_of(st.sampled_from(ItemKind), st.sampled_from([k.value for k in ItemKind] + ["bogus"])),
    fields=st.fixed_dictionaries({
        key: _FIELD_VALUES
        for key in ("id", "content", "speaker", "session_id", "turn_id", "timestamp")
    }),
)
def test_every_item_that_constructs_loads_back(kind, fields):
    try:
        item = MemoryItem(kind=kind, **fields)
    except (TypeError, ValueError):
        return
    store = MemoryStore()
    store.write(item)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        store.save(path)
        loaded = MemoryStore.load(path)
    assert list(loaded) == [item]
