"""The benchmark's only door into memaug.

Every call the workloads make into the package goes through a function
here, and :func:`instrument` names every place a traced run takes spans. A
change to the public API therefore changes this file, not the workloads or
what they time.
"""

from __future__ import annotations

import threading
from pathlib import Path

import memaug
from memaug import datasets, mining, retrieval, tasks
from memaug import (
    AttributeMiner,
    EmbeddingStrategy,
    Granularity,
    HashEmbedder,
    ItemKind,
    MatchPolicy,
    MemaugError,
    MemoryItem,
    MemoryStore,
    MockChatBackend,
    Perspective,
    QueryContext,
    RetrievalMode,
    VectorIndex,
)
from memaug.tasks import RetrievalSetup

from latency import LatencyChatBackend

PACKAGE_DIR = Path(memaug.__file__).resolve().parent
STRATEGY = EmbeddingStrategy.AVERAGED_PAIRS
POLICY = MatchPolicy.NAME_AND_VALUE
MODES = {"embed": RetrievalMode.EMBEDDING_BASED, "attr": RetrievalMode.ATTRIBUTE_BASED}
# Errors an operation may raise that the benchmark counts instead of aborting on.
OP_ERRORS = (MemaugError, ValueError, KeyError)


# -- backends ----------------------------------------------------------------


def mock(rules) -> MockChatBackend:
    return MockChatBackend(rules)


def latency_backend(rules, delay_s: float) -> LatencyChatBackend:
    return LatencyChatBackend(MockChatBackend(rules), delay_s)


def embedder(dimension: int) -> HashEmbedder:
    return HashEmbedder(dimension)


# -- mining and the store ------------------------------------------------------


def entity_miner(backend, parallelism: int) -> AttributeMiner:
    return AttributeMiner(
        backend,
        perspective=Perspective.ENTITY_CENTRIC,
        granularity=Granularity.NOT_APPLICABLE,
        parallelism=parallelism,
    )


def turn_miner(backend, parallelism: int) -> AttributeMiner:
    return AttributeMiner(
        backend,
        perspective=Perspective.CONVERSATION_CENTRIC,
        granularity=Granularity.TURN_LEVEL,
        parallelism=parallelism,
    )


def augment(store: MemoryStore, miner: AttributeMiner):
    """What ``memaug augment`` does: mine every item, attach, keep the report."""
    results, report = miner.mine_corpus(list(store))
    for item_id, annotation in results:
        store.attach_annotation(item_id, annotation)
    store.augmentation_report = report
    return report.failures


def load_store(path: Path) -> MemoryStore:
    return MemoryStore.load(path)


def save_store(store: MemoryStore, path: Path) -> None:
    store.save(path)


def store_ids(store: MemoryStore) -> tuple[str, ...]:
    return store.ids()


def pairs_of(store: MemoryStore, item_id: str) -> list[tuple[str, str]] | None:
    annotation = store.annotation_for(item_id)
    if annotation is None:
        return None
    return [(pair.name, pair.value) for pair in annotation.pairs]


def same_entries(a: MemoryStore, b: MemoryStore) -> bool:
    return list(a.entries()) == list(b.entries())


def write_item(store: MemoryStore, miner: AttributeMiner, item_id: str, content: str):
    """Mine one new entity and append it; returns its pairs, or None if mining failed."""
    item = MemoryItem(id=item_id, kind=ItemKind.ENTITY, content=content)
    results, _ = miner.mine_corpus([item])
    if not results:
        return None
    annotation = results[0][1]
    store.write(item, annotation)
    return [(pair.name, pair.value) for pair in annotation.pairs]


# -- index and retrieval -------------------------------------------------------


def build_index(store: MemoryStore, embed: HashEmbedder):
    index, skipped = retrieval.build_index(store, STRATEGY, embed)
    return index, skipped


def save_index(index: VectorIndex, path: Path) -> None:
    index.save(path)


def load_index(path: Path) -> VectorIndex:
    return VectorIndex.load(path)


def index_rows(index: VectorIndex):
    """(item ids, vectors, strategy, dimension) of an index."""
    return index.item_ids, index.vectors, index.strategy.value, index.dimension


def ask(store, miner, question: str, kind: str, index, embed, k: int):
    """Mine a question, then retrieve: returns (attribute names, [(id, score)])."""
    mined = miner.mine_question(question)
    query = QueryContext(text=question, attribute_names=mined.attributes, persons=mined.persons)
    result = retrieval.retrieve(
        store, query, MODES[kind], k=k, policy=POLICY, index=index, embedder=embed
    )
    return mined.attributes, [(hit.item_id, hit.score) for hit in result.hits]


def query_vector(question: str, attributes, index: VectorIndex, embed):
    """The vector an embedding query searches with (for the top-k oracle)."""
    query = QueryContext(text=question, attribute_names=tuple(attributes))
    return retrieval.embed_query(query, index.strategy, embed).values


# -- QA task -------------------------------------------------------------------


def load_dataset(path: Path):
    return datasets.load_conversation_dataset(path)


def store_from_sessions(dataset) -> MemoryStore:
    return datasets.store_from_sessions(dataset)


def run_qa(dataset, store, miner, answer_backend, index, embed, k: int):
    """QA in embedding mode: returns (recall@k, [(question, retrieved ids, error)])."""
    setup = RetrievalSetup(
        mode=RetrievalMode.EMBEDDING_BASED, k=k, policy=POLICY, index=index, embedder=embed
    )
    result = tasks.run_qa_task(dataset, store, miner=miner, answer_backend=answer_backend, setup=setup)
    rows = [(row.question, row.retrieved_ids, row.error) for row in result.rows]
    return result.recall_report.overall, rows


# -- tracing -------------------------------------------------------------------


def instrument(tracer) -> None:
    """Take spans at every layer boundary the workloads cross.

    Each wrapper replaces the name the caller looks up: a class attribute for
    methods, the module global for functions a module calls by name.
    """
    seen_tokens: dict[int, set[str]] = {}
    lock = threading.Lock()

    def on_embed(args, kwargs, result, seconds):
        owner, text = args[0], args[1]
        tokens = text.casefold().split()
        with lock:
            seen = seen_tokens.setdefault(id(owner), set())
            misses = sum(1 for token in set(tokens) if token not in seen)
            seen.update(tokens)
        tracer.count("backends.embed_tokens", len(tokens))
        tracer.count("backends.embed_token_misses", misses)

    def on_mine_corpus(args, kwargs, result, seconds):
        miner, items = args[0], args[1]
        tracer.count("mining.items", len(items))
        tracer.count("mining.pool_capacity_s", min(miner.parallelism, len(items)) * seconds)
        for _, reason in result[1].failures:
            tracer.count(f"mining.items_failed.{reason}")

    def retrieve_name(args, kwargs):
        mode = args[2] if len(args) > 2 else kwargs["mode"]
        if mode is RetrievalMode.ATTRIBUTE_BASED:
            return "retrieval.attribute_retrieve"
        return "retrieval.embedding_retrieve"

    def on_retrieve(args, kwargs, result, seconds):
        if result.mode is RetrievalMode.ATTRIBUTE_BASED:
            tracer.count("retrieval.attribute_hits", len(result))

    def on_qa(args, kwargs, result, seconds):
        tracer.count("tasks.examples", len(result.rows))

    wraps = [
        (LatencyChatBackend, "complete", "backends.chat", None),
        (HashEmbedder, "embed", "backends.embed", on_embed),
        (AttributeMiner, "mine_corpus", "mining.mine_corpus", on_mine_corpus),
        (AttributeMiner, "mine", "mining.mine", None),
        (AttributeMiner, "mine_question", "mining.mine_question", None),
        (mining, "parse_annotation", "annotations.parse", None),
        (mining, "parse_turn_annotations", "annotations.parse", None),
        (MemoryStore, "load", "store.load", None),
        (MemoryStore, "save", "store.save", None),
        (MemoryStore, "write", "store.write", None),
        (MemoryStore, "attach_annotation", "store.attach", None),
        (MemoryStore, "lookup_by_attribute", "store.lookup",
         lambda a, k, r, s: tracer.count("store.ids_examined", len(r))),
        (retrieval, "build_index", "retrieval.build_index", None),
        (VectorIndex, "save", "retrieval.index_save", None),
        (VectorIndex, "load", "retrieval.index_load", None),
        (VectorIndex, "search", "retrieval.search",
         lambda a, k, r, s: tracer.count("retrieval.rows_scored", len(a[0]))),
        (retrieval, "embed_query", "retrieval.embed_query", None),
        (retrieval, "retrieve", retrieve_name, on_retrieve),
        (tasks, "retrieve", retrieve_name, on_retrieve),
        (tasks, "run_qa_task", "tasks.run_qa_task", on_qa),
        (tasks, "recall_at_k", "metrics.score", None),
        (tasks, "token_f1", "metrics.score", None),
        (datasets, "load_conversation_dataset", "datasets.load", None),
        (datasets, "store_from_sessions", "datasets.store_from_sessions", None),
    ]
    for owner, attr, name, hook in wraps:
        tracer.wrap(owner, attr, name, hook)
