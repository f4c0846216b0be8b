"""CI's benchmark gates, held to the traced smoke runs recorded under
``golden/bench/`` (``bench/run.py --workload W --seed 1 --seconds 1
--trace 1``).

Each recorded run passes. Each doctored copy below makes one edit that breaks
one gate and must fail with one message naming that gate. The cases are
written out rather than derived from ``bench_gates.GATES``, so a gate dropped
from the table, or a threshold loosened, fails here.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bench_gates

GOLDEN = Path(__file__).parent / "golden" / "bench"
CHECKER = Path(__file__).with_name("bench_gates.py")
WORKLOADS = ("qa-pipeline", "serve-20k", "ingest-20k")


def golden(workload):
    return (GOLDEN / f"{workload}.out").read_text(encoding="utf-8")


def _sub_line(pattern, replacement):
    def edit(text):
        edited, count = re.subn(pattern, replacement, text, count=1, flags=re.M)
        assert count == 1, f"no line matches {pattern!r}"
        return edited
    return edit


def drop_check(name):
    return _sub_line(rf"^check {re.escape(name)} .*\n", "")


def set_check(name, checked):
    return _sub_line(rf"^check {re.escape(name)} checked=\d+", f"check {name} checked={checked}")


def set_metric(name, value):
    return _sub_line(rf"^metric {re.escape(name)} \S+", f"metric {name} {value}")


def _edit_result(change):
    def edit(text):
        lines = text.splitlines()
        result = json.loads(lines[-1])
        change(result)
        return "\n".join(lines[:-1] + [json.dumps(result)]) + "\n"
    return edit


def set_result(key, value):
    def change(result):
        assert key in result
        result[key] = value
    return _edit_result(change)


def set_layer(name, value):
    def change(result):
        assert name in result["metrics"]
        result["metrics"][name]["value"] = value
    return _edit_result(change)


def drop_result_line(text):
    return "".join(text.splitlines(keepends=True)[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_run_passes(workload):
    assert bench_gates.problems(workload, golden(workload)) == []


BROKEN = [
    *[
        case
        for workload in WORKLOADS
        for case in (
            (workload, set_result("correct", False), "result correct is False, not is True"),
            (workload, set_result("failed", 1), "result failed is 1, not == 0"),
            (workload, drop_check("chat_self_check"), "check chat_self_check is missing, not >= 1"),
            (workload, set_check("chat_self_check", 0), "check chat_self_check is 0, not >= 1"),
        )
    ],
    ("qa-pipeline", drop_check("embed_topk"), "check embed_topk is missing, not >= 1"),
    ("qa-pipeline", drop_check("mined_pairs"), "check mined_pairs is missing, not >= 1"),
    ("qa-pipeline", set_metric("qa_recall_at_5", "0.518"), "metric qa_recall_at_5 is 0.518, not == 0.519"),
    ("qa-pipeline", set_layer("backends.chat_calls_per_item.question_augmentation", 2.0),
     "layer backends.chat_calls_per_item.question_augmentation is 2.0, not == 1.0"),
    ("qa-pipeline", set_layer("backends.chat_calls_per_item.answer_generation", 0.5),
     "layer backends.chat_calls_per_item.answer_generation is 0.5, not == 1.0"),
    ("qa-pipeline", set_layer("backends.chat_calls_per_item.turn_basic", 1.0),
     "layer backends.chat_calls_per_item.turn_basic is 1.0, not == 0.05"),
    ("qa-pipeline", set_layer("mining.mine_question_s", 0), "layer mining.mine_question_s is 0, not > 0"),
    ("qa-pipeline", set_layer("retrieval.embed_query_s", 0), "layer retrieval.embed_query_s is 0, not > 0"),
    ("qa-pipeline", set_layer("retrieval.search_s", 0), "layer retrieval.search_s is 0, not > 0"),
    ("serve-20k", drop_check("attr_topk"), "check attr_topk is missing, not >= 1"),
    ("serve-20k", drop_check("embed_topk"), "check embed_topk is missing, not >= 1"),
    ("serve-20k", drop_check("mined_pairs"), "check mined_pairs is missing, not >= 1"),
    ("serve-20k", drop_check("mined_question"), "check mined_question is missing, not >= 1"),
    ("serve-20k", set_metric("peak_rss_mb", "240.5"), "metric peak_rss_mb is 240.5, not <= 240"),
    ("serve-20k", set_layer("store.load_s", 0), "layer store.load_s is 0, not > 0"),
    ("serve-20k", set_layer("store.write_s", 0), "layer store.write_s is 0, not > 0"),
    ("serve-20k", set_layer("retrieval.index_load_s", 0), "layer retrieval.index_load_s is 0, not > 0"),
    ("serve-20k", set_layer("retrieval.search_s", 0), "layer retrieval.search_s is 0, not > 0"),
    ("serve-20k", set_layer("retrieval.attribute_rank_s", 0),
     "layer retrieval.attribute_rank_s is 0, not > 0"),
    ("ingest-20k", drop_check("mined_pairs"), "check mined_pairs is missing, not >= 1"),
    ("ingest-20k", drop_check("store_round_trip"), "check store_round_trip is missing, not >= 1"),
    ("ingest-20k", drop_check("index_round_trip"), "check index_round_trip is missing, not >= 1"),
    ("ingest-20k", set_metric("peak_rss_mb", "400.5"), "metric peak_rss_mb is 400.5, not <= 400"),
    ("ingest-20k", set_layer("backends.chat_calls_per_item.entity_basic", 1.5),
     "layer backends.chat_calls_per_item.entity_basic is 1.5, not == 1.0"),
    ("ingest-20k", set_layer("mining.items_failed", 1), "layer mining.items_failed is 1, not == 0"),
    ("ingest-20k", set_layer("mining.mine_corpus_s", 0), "layer mining.mine_corpus_s is 0, not > 0"),
    ("ingest-20k", set_layer("retrieval.build_index_s", 0), "layer retrieval.build_index_s is 0, not > 0"),
    ("ingest-20k", set_layer("store.save_s", 0), "layer store.save_s is 0, not > 0"),
    ("ingest-20k", set_layer("retrieval.index_save_s", 0), "layer retrieval.index_save_s is 0, not > 0"),
    *[(workload, drop_result_line, "the output has no result line") for workload in WORKLOADS],
]


@pytest.mark.parametrize(
    "workload, edit, message", BROKEN, ids=[f"{case[0]}: {case[2]}" for case in BROKEN]
)
def test_doctored_run_fails_its_gate(workload, edit, message):
    assert bench_gates.problems(workload, edit(golden(workload))) == [f"{workload}: {message}"]


@pytest.mark.parametrize("workload, edit", [
    ("serve-20k", set_metric("peak_rss_mb", "240.0")),
    ("ingest-20k", set_metric("peak_rss_mb", "400.0")),
    ("serve-20k", set_check("mined_question", 1)),
    ("ingest-20k", set_layer("store.save_s", 1e-9)),
])
def test_bounds_are_inclusive_where_the_gate_says(workload, edit):
    assert bench_gates.problems(workload, edit(golden(workload))) == []


def test_a_plain_run_fails_every_layer_gate():
    text = set_result("metrics", {"throughput_per_s": {"value": 1.0, "unit": "1/s"}})(golden("ingest-20k"))
    assert bench_gates.problems("ingest-20k", text) == [
        f"ingest-20k: layer {name} is missing, not {op} {bound!r}"
        for place, name, op, bound in bench_gates.GATES["ingest-20k"]
        if place == "layer"
    ]


def run_checker(tmp_path, workload, text):
    path = tmp_path / "bench.out"
    path.write_text(text, encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(CHECKER), workload, str(path)],
        capture_output=True, text=True, timeout=60,
    )


def test_command_exits_0_on_a_recorded_run(tmp_path):
    done = run_checker(tmp_path, "serve-20k", golden("serve-20k"))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")


def test_command_prints_each_failed_gate_and_exits_1(tmp_path):
    text = set_metric("peak_rss_mb", "300.0")(drop_check("attr_topk")(golden("serve-20k")))
    done = run_checker(tmp_path, "serve-20k", text)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "serve-20k: check attr_topk is missing, not >= 1",
        "serve-20k: metric peak_rss_mb is 300.0, not <= 240",
    ]


@pytest.mark.parametrize("workload, text, message", [
    ("ingest-20k", "", "ingest-20k: the output has no result line"),
    ("ingest-20k", "# bench ingest-20k seed=1 seconds=1.0 trace=1\n",
     "ingest-20k: the output has no result line"),
    ("serve", golden("serve-20k"), "unknown workload 'serve'; known: qa-pipeline, serve-20k, ingest-20k"),
])
def test_command_exits_1_without_a_result_line_or_a_known_workload(tmp_path, workload, text, message):
    done = run_checker(tmp_path, workload, text)
    assert (done.returncode, done.stdout) == (1, message + "\n")
