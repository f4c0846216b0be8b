"""Memory store tests: writes, index, stats, persistence."""

import random

import pytest

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
    SchemaError,
)
from memaug.mining import AugmentationReport


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
