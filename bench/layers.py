"""Per-layer metrics of a traced run, reduced from its spans and counters.

A metric named ``<layer>.<op>_s`` is the mean seconds per call of that span;
``<layer>.self_s`` is the layer's total self time over the traced
measurement: the time inside its spans not covered by their child spans.
A metric of an operation the workload never performs reads 0.
"""

from __future__ import annotations

from collections import Counter

LAYERS = ("backends", "mining", "annotations", "store", "retrieval", "tasks", "datasets", "metrics")
TEMPLATES = ("entity_basic", "turn_basic", "question_augmentation", "answer_generation")
FAILURE_REASONS = ("transport", "refusal", "unparseable")
# Span name behind each mean-per-call metric.
MEAN_SPANS = {
    "mining.mine_corpus_s": "mining.mine_corpus",
    "mining.mine_question_s": "mining.mine_question",
    "annotations.parse_s": "annotations.parse",
    "store.load_s": "store.load",
    "store.save_s": "store.save",
    "store.write_s": "store.write",
    "store.lookup_s": "store.lookup",
    "retrieval.build_index_s": "retrieval.build_index",
    "retrieval.index_save_s": "retrieval.index_save",
    "retrieval.index_load_s": "retrieval.index_load",
    "retrieval.embed_query_s": "retrieval.embed_query",
    "retrieval.search_s": "retrieval.search",
    "datasets.load_s": "datasets.load",
    "datasets.store_from_sessions_s": "datasets.store_from_sessions",
    "metrics.score_s": "metrics.score",
    "backends.embed_s": "backends.embed",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, measured: dict, untraced_throughput: float) -> dict[str, float]:
    table = tracer.summary()
    counts = tracer.counts

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    def field(name: str, key: str) -> float:
        return table[name][key] if name in table else 0.0

    chat: Counter = Counter()
    chars: Counter = Counter()
    wait = busy = 0.0
    for result in measured["results"]:
        backend = result["backend"]
        chat.update(backend.calls)
        chars.update(backend.prompt_chars)
        wait += backend.wait_s
        busy += backend.busy_s
    total_calls = sum(chat.values())
    per_item_base = {
        "entity_basic": counts["mining.items"],
        "turn_basic": counts["mining.items"],
        "question_augmentation": calls("mining.mine_question"),
        "answer_generation": counts["tasks.examples"],
    }
    out: dict[str, float] = {"backends.chat_calls": total_calls}
    for template in TEMPLATES:
        out[f"backends.chat_calls.{template}"] = chat[template]
        out[f"backends.chat_calls_per_item.{template}"] = _ratio(chat[template], per_item_base[template])
    out["backends.chat_wait_s"] = _ratio(wait, total_calls)
    out["backends.chat_busy_s"] = _ratio(busy, total_calls)
    out["backends.prompt_chars_per_call"] = _ratio(sum(chars.values()), total_calls)
    out["backends.embed_calls"] = calls("backends.embed")
    out["backends.embed_token_hit_ratio"] = 1.0 - _ratio(
        counts["backends.embed_token_misses"], counts["backends.embed_tokens"]
    )
    for metric, span in MEAN_SPANS.items():
        out[metric] = _ratio(field(span, "total_s"), calls(span))

    failed = {reason: counts[f"mining.items_failed.{reason}"] for reason in FAILURE_REASONS}
    out["mining.items_failed"] = sum(failed.values())
    for reason, n in failed.items():
        out[f"mining.items_failed.{reason}"] = n
    item_calls = chat["entity_basic"] + chat["turn_basic"]
    out["mining.retries"] = (item_calls - calls("mining.mine")) + (
        chat["question_augmentation"] - calls("mining.mine_question")
    )
    out["mining.pool_busy_ratio"] = _ratio(
        field("mining.mine", "total_s"), counts["mining.pool_capacity_s"]
    )

    out["store.bytes_per_item"] = measured["store_bytes_per_item"]
    out["store.ids_examined_per_hit"] = _ratio(
        counts["store.ids_examined"], counts["retrieval.attribute_hits"]
    )
    out["retrieval.rows_scored_per_search"] = _ratio(
        counts["retrieval.rows_scored"], calls("retrieval.search")
    )
    out["retrieval.attribute_rank_s"] = _ratio(
        field("retrieval.attribute_retrieve", "self_s"), calls("retrieval.attribute_retrieve")
    )
    out["tasks.qa_example_self_s"] = _ratio(
        field("tasks.run_qa_task", "self_s"), counts["tasks.examples"]
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in table.items() if name.startswith(layer + ".")
        )
    traced_throughput = measured["metrics"]["throughput_per_s"][0]
    out["trace.overhead_pct"] = 100.0 * (untraced_throughput / traced_throughput - 1.0)
    out["trace.spans"] = len(tracer.spans)
    return out
