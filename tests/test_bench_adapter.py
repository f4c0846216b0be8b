"""The benchmark's adapter must keep resolving against the package API.

``bench/adapter.py`` is the benchmark's only door into memaug, and its
``instrument`` wraps package names by attribute lookup. A rename or deletion
in the package shows up here instead of as a broken benchmark run.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from synthetic import build_qa_fixture

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def adapter():
    # Appended, not prepended: bench/ has modules named like tests/ ones.
    sys.path.append(str(BENCH))
    try:
        yield importlib.import_module("adapter")
    finally:
        sys.path.remove(str(BENCH))


class ResolvingProbe:
    """A tracer stand-in that only checks every wrapped name exists."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, hook=None):
        assert callable(getattr(owner, attr)), f"{owner!r}.{attr} is not callable"
        self.wrapped.append((owner, attr))

    def count(self, name, value=1):
        pass


def test_instrument_names_resolve(adapter):
    probe = ResolvingProbe()
    adapter.instrument(probe)
    assert len(probe.wrapped) == len(set(probe.wrapped)) > 0


@pytest.fixture(scope="module")
def qa_world(adapter, tmp_path_factory):
    data, rules = build_qa_fixture(n_turns=20, n_sessions=4)
    path = tmp_path_factory.mktemp("bench") / "qa.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    dataset = adapter.load_dataset(path)
    store = adapter.store_from_sessions(dataset)
    backend = adapter.mock(rules)
    miner = adapter.turn_miner(backend, 1)
    assert adapter.augment(store, miner) == []
    embed = adapter.embedder(16)
    index, skipped = adapter.build_index(store, embed)
    assert skipped == []
    return dataset, store, backend, miner, index, embed


@pytest.mark.parametrize("kind", ["embed", "attr"])
def test_ask(adapter, qa_world, kind):
    dataset, store, _, miner, index, embed = qa_world
    example = dataset.qa[3]
    attributes, hits = adapter.ask(store, miner, example.question, kind, index, embed, 5)
    assert attributes
    assert example.gold_turn_ids <= {item_id for item_id, _ in hits}
    if kind == "embed":
        vector = adapter.query_vector(example.question, attributes, index, embed)
        assert index.search(vector, 5).ids() == tuple(item_id for item_id, _ in hits)


def test_run_qa(adapter, qa_world):
    dataset, store, backend, miner, index, embed = qa_world
    recall, rows = adapter.run_qa(dataset, store, miner, backend, index, embed, 5)
    assert len(rows) == len(dataset.qa)
    assert all(error is None for _, _, error in rows)
    assert 0.0 < recall <= 1.0
