"""Check one traced benchmark smoke run against CI's gates.

    python3 bench/run.py --workload serve-20k --seed 1 --seconds 1 --trace 1 | tee bench.out
    python3 tests/bench_gates.py serve-20k bench.out

``bench/run.py`` exits 0 even when an oracle fails, so CI reads its output
here. Prints one line per failed gate, naming the workload, the gate and the
value read, and exits 1; it also exits 1 for an unknown workload or an output
with no result line. Exits 0 when every gate of the workload holds.

A gate reads one value from one of four places in the output:

- ``result``: a top-level field of the last line, the JSON result line;
- ``check``: the ``checked=`` count of a ``check NAME`` line. An oracle that
  checked nothing prints no line, which reads as missing;
- ``metric``: a ``metric NAME VALUE UNIT`` line, which a traced run takes
  from its untraced measurement, as a plain run does;
- ``layer``: a per-layer metric of the result line, which only a traced run
  (``--trace 1``) reports.
"""

from __future__ import annotations

import json
import operator
import sys

OPS = {"is": operator.is_, "==": operator.eq, "<=": operator.le, ">=": operator.ge, ">": operator.gt}

COMMON = (
    ("result", "correct", "is", True),
    ("result", "failed", "==", 0),
    ("check", "chat_self_check", ">=", 1),
)

GATES = {
    "qa-pipeline": COMMON + (
        ("check", "embed_topk", ">=", 1),
        ("check", "mined_pairs", ">=", 1),
        ("metric", "qa_recall_at_5", "==", 0.519),
        # Retrieval reads what is mined, so each question is mined once and
        # answered once; turns are mined one session (20 turns) per call.
        ("layer", "backends.chat_calls_per_item.question_augmentation", "==", 1.0),
        ("layer", "backends.chat_calls_per_item.answer_generation", "==", 1.0),
        ("layer", "backends.chat_calls_per_item.turn_basic", "==", 0.05),
        # A span that reads 0 means a call moved out from under the
        # benchmark's wrappers, which would blind its metric.
        ("layer", "mining.mine_question_s", ">", 0),
        ("layer", "retrieval.embed_query_s", ">", 0),
        ("layer", "retrieval.search_s", ">", 0),
    ),
    "serve-20k": COMMON + (
        ("check", "attr_topk", ">=", 1),
        ("check", "embed_topk", ">=", 1),
        ("check", "mined_pairs", ">=", 1),
        ("check", "mined_question", ">=", 1),
        # Set by loading the store and its index: name postings only (the
        # serve mix asks no value query, so no value posting is built), one
        # name string per distinct pair name, and index rows read from the
        # file keep it near 205 MB.
        ("metric", "peak_rss_mb", "<=", 240),
        ("layer", "store.load_s", ">", 0),
        ("layer", "store.write_s", ">", 0),
        ("layer", "retrieval.index_load_s", ">", 0),
        ("layer", "retrieval.search_s", ">", 0),
        ("layer", "retrieval.attribute_rank_s", ">", 0),
    ),
    "ingest-20k": COMMON + (
        ("check", "mined_pairs", ">=", 1),
        ("check", "store_round_trip", ">=", 1),
        ("check", "index_round_trip", ">=", 1),
        # Set by the index build.
        ("metric", "peak_rss_mb", "<=", 400),
        # Each entity is mined from one call, none failing.
        ("layer", "backends.chat_calls_per_item.entity_basic", "==", 1.0),
        ("layer", "mining.items_failed", "==", 0),
        ("layer", "mining.mine_corpus_s", ">", 0),
        ("layer", "retrieval.build_index_s", ">", 0),
        ("layer", "store.save_s", ">", 0),
        ("layer", "retrieval.index_save_s", ">", 0),
    ),
}


def read_output(text: str) -> dict | None:
    """The values the gates read, by place and name; None without a result line."""
    lines = text.splitlines()
    try:
        result = json.loads(lines[-1])
        layers = {name: metric["value"] for name, metric in result["metrics"].items()}
        fields = {"correct": result["correct"], "failed": result["failed"]}
    except (IndexError, ValueError, TypeError, KeyError):
        return None
    checks, metrics = {}, {}
    for line in lines[:-1]:
        words = line.split()
        if len(words) >= 3 and words[0] == "check" and words[2].startswith("checked="):
            checks[words[1]] = int(words[2].removeprefix("checked="))
        elif len(words) == 4 and words[0] == "metric":
            metrics[words[1]] = float(words[2])
    return {"result": fields, "check": checks, "metric": metrics, "layer": layers}


def problems(workload: str, text: str) -> list[str]:
    """One message per gate of ``workload`` that the output ``text`` fails."""
    if workload not in GATES:
        return [f"unknown workload {workload!r}; known: {', '.join(GATES)}"]
    values = read_output(text)
    if values is None:
        return [f"{workload}: the output has no result line"]
    found = []
    for place, name, op, bound in GATES[workload]:
        value = values[place].get(name)
        if value is None or not OPS[op](value, bound):
            shown = "missing" if value is None else repr(value)
            found.append(f"{workload}: {place} {name} is {shown}, not {op} {bound!r}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tests/bench_gates.py WORKLOAD FILE", file=sys.stderr)
        return 2
    workload, path = argv
    with open(path, encoding="utf-8") as handle:
        found = problems(workload, handle.read())
    for message in found:
        print(message)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
