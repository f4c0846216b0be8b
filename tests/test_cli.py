"""CLI tests: exit codes, outputs, and report determinism."""

import io
import json
import os
from collections import Counter

import numpy as np
import pytest
import requests

from memaug import cli
from memaug.backends import MockChatBackend, RemoteChatBackend
from memaug.cli import main
from memaug.datasets import load_conversation_dataset, store_from_sessions
from memaug.store import MemoryStore

from doubles import CountingChatBackend, StaticChatBackend
from synthetic import build_qa_fixture, build_rec_fixture


def write_items_jsonl(path, contents):
    lines = [
        json.dumps({"id": f"m{i}", "kind": "entity", "content": content})
        for i, content in enumerate(contents)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def chat_calls(monkeypatch):
    """The chat calls by template of every backend the CLI builds from here on."""
    backends = []
    build = cli._chat_backend

    def counting(args):
        backends.append(CountingChatBackend(build(args)))
        return backends[-1]

    monkeypatch.setattr(cli, "_chat_backend", counting)
    return lambda: sum((backend.calls for backend in backends), Counter())


def write_mock_rules(path, rules, capture_persons=False):
    payload = {
        "rules": {token: list(pair) for token, pair in rules.items()},
        "capture_persons": capture_persons,
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestAugmentCommand:
    def test_success_on_ten_item_fixture(self, tmp_path, capsys):
        contents = [f"number {i} was a great thriller" for i in range(10)]
        source = write_items_jsonl(tmp_path / "items.jsonl", contents)
        store = tmp_path / "store.jsonl"
        code = main([
            "augment", "--input", str(source), "--store", str(store),
            "--perspective", "entity", "--granularity", "na",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "augmented 10/10" in out
        assert store.exists()
        report = json.loads((tmp_path / "store.jsonl.report.json").read_text())
        assert report["total"] == 10

    def test_threshold_breach_exit_code(self, tmp_path):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "zzz qqq"])
        code = main([
            "augment", "--input", str(source), "--store", str(tmp_path / "out.jsonl"),
            "--perspective", "entity", "--granularity", "na",
            "--max-retries", "0", "--max-failure-rate", "0.0",
        ])
        assert code == 4

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-1", "1.5"])
    def test_failure_rate_outside_unit_interval_refused_before_mining(
        self, tmp_path, capsys, chat_calls, rate
    ):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "zzz qqq"])
        store = tmp_path / "out.jsonl"
        code = main([
            "augment", "--input", str(source), "--store", str(store),
            "--perspective", "entity", "--granularity", "na",
            "--max-retries", "0", f"--max-failure-rate={rate}",
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: max-failure-rate must be between 0 and 1, got {float(rate)}\n"
        )
        assert chat_calls() == Counter()
        assert not store.exists()

    @pytest.mark.parametrize("rate", ["0.5", "1"])
    def test_failure_rate_at_or_under_the_threshold_exits_0(self, tmp_path, rate):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "zzz qqq"])
        assert main([
            "augment", "--input", str(source), "--store", str(tmp_path / "out.jsonl"),
            "--perspective", "entity", "--granularity", "na",
            "--max-retries", "0", "--max-failure-rate", rate,
        ]) == 0

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = main([
            "augment", "--input", str(tmp_path / "missing.jsonl"),
            "--store", str(tmp_path / "out.jsonl"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["augment", "--input"])  # missing value
        assert exc_info.value.code == 1


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "a fine comedy"])
        store = tmp_path / "store.jsonl"
        main([
            "augment", "--input", str(source), "--store", str(store),
            "--perspective", "entity", "--granularity", "na",
        ])
        capsys.readouterr()
        code = main(["stats", "--store", str(store), "--json"])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["total_items"] == 2
        assert stats["failure_rate"] == 0.0
        names = [row["name"] for row in stats["top_attributes"]]
        assert "genre" in names


    def test_stats_reports_malformed_pair_without_traceback(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        annotation = {
            "pairs": [{"name": "g", "value": 5}], "perspective": "entity_centric",
            "granularity": "not_applicable", "prioritization": "basic",
        }
        record = {"id": "m1", "kind": "entity", "content": "x", "annotation": annotation}
        store.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", "--store", str(store)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_stats_reports_malformed_sidecar(self, tmp_path, capsys):
        store = write_items_jsonl(tmp_path / "store.jsonl", ["a great thriller"])
        (tmp_path / "store.jsonl.report.json").write_text('{"total": 1, "failed": 0}')
        assert main(["stats", "--store", str(store)]) == 2
        assert "store.jsonl.report.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report",
        [
            {"total": 2.5, "succeeded": 1.5, "failed": 1,
             "failures": [{"item_id": "m0", "reason": "transport"}]},
            {"total": True, "succeeded": True, "failed": False},
            {"total": 0, "succeeded": 1, "failed": -1},
            {"total": 1, "succeeded": 0, "failed": 1,
             "failures": [{"item_id": 5, "reason": "transport"}]},
            {"total": 1, "succeeded": 0, "failed": 1,
             "failures": [{"item_id": "m0", "reason": None}]},
        ],
        ids=["fraction", "bool", "negative", "int-id", "null-reason"],
    )
    def test_stats_exits_2_on_a_sidecar_of_the_wrong_type(self, tmp_path, capsys, report):
        store = write_items_jsonl(tmp_path / "store.jsonl", ["a great thriller"])
        sidecar = tmp_path / "store.jsonl.report.json"
        sidecar.write_text(json.dumps(report), encoding="utf-8")
        assert main(["stats", "--store", str(store), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: store report {sidecar}: ValueError(")

    def test_stats_exits_2_on_a_sidecar_that_names_no_failed_item(self, tmp_path, capsys):
        store = write_items_jsonl(tmp_path / "store.jsonl", ["a great thriller"])
        sidecar = tmp_path / "store.jsonl.report.json"
        sidecar.write_text(json.dumps({"total": 2, "succeeded": 0, "failed": 2, "failures": []}))
        assert main(["stats", "--store", str(store), "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: store report {sidecar}: ValueError(")


class TestIndexAndRetrieve:
    @pytest.fixture
    def store_path(self, tmp_path):
        source = write_items_jsonl(
            tmp_path / "items.jsonl",
            [
                "a great thriller",
                "a boring drama",
                "a fine comedy",
                "an action romp",
                "a horror night",
            ],
        )
        store = tmp_path / "store.jsonl"
        main([
            "augment", "--input", str(source), "--store", str(store),
            "--perspective", "entity", "--granularity", "na",
        ])
        return store

    def test_comprehensive_prints_all(self, store_path, capsys):
        capsys.readouterr()
        code = main([
            "retrieve", "whatever", "--store", str(store_path), "--mode", "comprehensive",
        ])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
        assert len(lines) == 5

    def test_embedding_mode(self, store_path, tmp_path, capsys):
        index_path = tmp_path / "index.json"
        code = main([
            "index", "--store", str(store_path), "--out", str(index_path),
            "--strategy", "averaged", "--dim", "8",
        ])
        assert code == 0
        capsys.readouterr()
        code = main([
            "retrieve", "looking for a thriller", "--store", str(store_path),
            "--mode", "embedding", "--index", str(index_path), "--k", "3", "--json",
        ])
        assert code == 0
        hits = json.loads(capsys.readouterr().out)
        assert len(hits) == 3
        scores = [hit["score"] for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_attribute_mode_empty_query_exit(self, store_path, capsys):
        capsys.readouterr()
        code = main([
            "retrieve", "nothing matches this", "--store", str(store_path),
            "--mode", "attribute",
        ])
        assert code == 1

    def test_attribute_mode_finds_genre(self, store_path, capsys):
        capsys.readouterr()
        code = main([
            "retrieve", "which comedy", "--store", str(store_path), "--mode", "attribute",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "m2" in out

    @pytest.mark.parametrize(
        "strategy,flags,mined",
        [
            ("averaged", ["--mode", "comprehensive"], 0),
            ("raw", [], 0),
            ("averaged", ["--query-parts", "text"], 0),
            ("averaged", ["--mode", "attribute"], 1),
            ("averaged", [], 1),
            ("whole", [], 1),
        ],
        ids=["comprehensive", "raw", "text", "attribute", "averaged", "whole"],
    )
    def test_question_mined_only_where_retrieval_reads_it(
        self, store_path, tmp_path, capsys, chat_calls, strategy, flags, mined
    ):
        index_path = tmp_path / f"{strategy}.index"
        assert main([
            "index", "--store", str(store_path), "--out", str(index_path), "--strategy", strategy,
        ]) == 0
        code = main([
            "retrieve", "which comedy", "--store", str(store_path),
            "--index", str(index_path), *flags,
        ])
        assert code == 0, capsys.readouterr().err
        assert chat_calls() == Counter(question_augmentation=mined)

    @pytest.mark.parametrize("mode", ["attribute", "embedding"])
    def test_blank_query_exits_1_before_any_call(
        self, store_path, tmp_path, capsys, chat_calls, mode
    ):
        index_path = tmp_path / "averaged.index"
        assert main(["index", "--store", str(store_path), "--out", str(index_path)]) == 0
        capsys.readouterr()
        code = main([
            "retrieve", " \t ", "--store", str(store_path), "--index", str(index_path),
            "--mode", mode,
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: question must be non-empty\n"
        assert chat_calls() == Counter()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_attribute_mode_k_below_one_exit(self, store_path, capsys, k):
        capsys.readouterr()
        code = main([
            "retrieve", "a great thriller", "--store", str(store_path),
            "--mode", "attribute", "--k", k,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k must be a positive integer" in captured.err


class TestEvalCommand:
    def _qa_paths(self, tmp_path):
        data, rules = build_qa_fixture(n_turns=20, n_sessions=4)
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        rules_path = write_mock_rules(tmp_path / "rules.json", rules)
        return dataset, rules_path

    def test_qa_embedding_recall_one(self, tmp_path, capsys):
        dataset, rules_path = self._qa_paths(tmp_path)
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--mode", "embedding", "--strategy", "averaged",
            "--dim", "64", "--query-parts", "text", "--k", "5",
            "--mock-rules", str(rules_path),
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0
        report = json.loads((out_dir / "qa.json").read_text())
        assert report["recall"]["overall"] == 1.0
        assert (out_dir / "qa_report.txt").exists()
        assert (out_dir / "config.json").exists()

    def test_qa_attribute_recall_one(self, tmp_path):
        dataset, rules_path = self._qa_paths(tmp_path)
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--mode", "attribute", "--k", "5",
            "--mock-rules", str(rules_path),
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0
        report = json.loads((out_dir / "qa.json").read_text())
        assert report["recall"]["overall"] == 1.0

    def test_deterministic_reports(self, tmp_path):
        dataset, rules_path = self._qa_paths(tmp_path)
        args_template = [
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--mode", "embedding", "--strategy", "averaged",
            "--dim", "64", "--query-parts", "text", "--seed", "0",
            "--mock-rules", str(rules_path), "--no-timestamp",
        ]
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert main(args_template + ["--out-dir", str(first)]) == 0
        assert main(args_template + ["--out-dir", str(second)]) == 0
        for name in ("qa.json", "qa_report.txt", "config.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_failed_report_write_keeps_previous_report(self, tmp_path, monkeypatch):
        dataset, rules_path = self._qa_paths(tmp_path)
        out_dir = tmp_path / "reports"
        args = [
            "eval", "--task", "qa", "--dataset", str(dataset), "--mode", "attribute",
            "--mock-rules", str(rules_path), "--out-dir", str(out_dir), "--no-timestamp",
        ]
        assert main(args + ["--k", "5"]) == 0
        before = (out_dir / "qa.json").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("memaug.fileio.os.replace", fail)
        assert main(args + ["--k", "3"]) == 2
        assert (out_dir / "qa.json").read_bytes() == before
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "config.json", "qa.json", "qa_report.txt"
        ]

    def test_failed_report_write_keeps_previous_set(self, tmp_path, monkeypatch):
        dataset, rules_path = self._qa_paths(tmp_path)

        def run(out_dir, k):
            return main([
                "eval", "--task", "qa", "--dataset", str(dataset), "--mode", "attribute",
                "--mock-rules", str(rules_path), "--out-dir", str(out_dir),
                "--no-timestamp", "--k", k,
            ])

        out_dir = tmp_path / "reports"
        assert run(out_dir, "5") == 0
        names = ["config.json", "qa.json", "qa_report.txt"]
        before = {name: (out_dir / name).read_bytes() for name in names}
        real_replace = os.replace
        calls = []

        def fail_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr("memaug.fileio.os.replace", fail_second)
        assert run(out_dir, "3") == 2
        assert {name: (out_dir / name).read_bytes() for name in names} == before
        assert sorted(path.name for path in out_dir.iterdir()) == names
        # A first run that fails leaves no report behind.
        calls.clear()
        assert run(tmp_path / "fresh", "3") == 2
        assert list((tmp_path / "fresh").iterdir()) == []

    def test_rec_eval(self, tmp_path):
        data, store, rules = build_rec_fixture(n_dialogues=12, n_items=10)
        dataset = tmp_path / "rec.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        store_path = tmp_path / "store.jsonl"
        store.save(store_path)
        rules_path = write_mock_rules(tmp_path / "rules.json", rules)
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "rec", "--dataset", str(dataset),
            "--store", str(store_path),
            "--mode", "embedding", "--strategy", "averaged", "--dim", "8",
            "--n", "8", "--seed", "0",
            "--mock-rules", str(rules_path),
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0
        report = json.loads((out_dir / "rec.json").read_text())
        assert report["metrics"]["recall@1"]["overall"] == 1.0
        assert report["avg_items_retrieved"] == 10.0

    def test_rec_reports_do_not_depend_on_parallelism(self, tmp_path):
        # Under name-value, attribute retrieval reads the value postings,
        # which the first queries of the fan-out build on the loaded store.
        data, store, rules = build_rec_fixture(n_dialogues=12, n_items=10)
        dataset = tmp_path / "rec.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        store_path = tmp_path / "store.jsonl"
        store.save(store_path)
        rules_path = write_mock_rules(tmp_path / "rules.json", rules)
        reports = {}
        for parallelism in ("1", "2"):
            out_dir = tmp_path / f"reports_{parallelism}"
            code = main([
                "eval", "--task", "rec", "--dataset", str(dataset), "--store", str(store_path),
                "--mode", "attribute", "--policy", "name-value", "--n", "12", "--seed", "0",
                "--parallelism", parallelism, "--mock-rules", str(rules_path),
                "--out-dir", str(out_dir), "--no-timestamp",
            ])
            assert code == 0
            reports[parallelism] = {
                name: (out_dir / name).read_bytes() for name in ("rec.json", "rec_report.txt")
            }
        assert reports["1"]["rec_report.txt"] == reports["2"]["rec_report.txt"]
        # The config snapshot records the parallelism itself; nothing else differs.
        one, two = (json.loads(reports[p]["rec.json"]) for p in ("1", "2"))
        assert (one["config"].pop("parallelism"), two["config"].pop("parallelism")) == (1, 2)
        assert one == two
        assert one["metrics"]["recall@1"]["overall"] == 1.0

    def test_rec_n_too_large_fails_before_work(self, tmp_path, capsys, monkeypatch):
        data, store, rules = build_rec_fixture(n_dialogues=4, n_items=5)
        dataset = tmp_path / "rec.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        augmented = []
        monkeypatch.setattr(cli, "_augment_store", lambda *args: augmented.append(args))
        code = main([
            "eval", "--task", "rec", "--dataset", str(dataset),
            "--mode", "comprehensive", "--n", "50",
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert not (tmp_path / "reports").exists()
        assert augmented == []

    # Each run's chat calls by template on the synthetic fixtures: 20 turns
    # and 20 questions for QA; for rec, 8 sampled dialogues and 10 items whose
    # titles mine no pair, so each takes all 3 attempts. A question or
    # dialogue is mined only where retrieval reads what is mined.
    @pytest.mark.parametrize(
        "task,flags,mined",
        [
            ("qa", ["--mode", "comprehensive"], 0),
            ("qa", ["--strategy", "raw"], 0),
            ("qa", ["--query-parts", "text"], 0),
            ("qa", ["--mode", "attribute"], 20),
            ("qa", [], 20),
            ("rec", ["--mode", "comprehensive"], 0),
            ("rec", ["--strategy", "raw"], 0),
            ("rec", ["--query-parts", "text"], 8),
            ("rec", ["--mode", "attribute"], 8),
            ("rec", [], 8),
        ],
        ids=[
            "qa-comprehensive", "qa-raw", "qa-text", "qa-attribute", "qa-embedding",
            "rec-comprehensive", "rec-raw", "rec-text", "rec-attribute", "rec-embedding",
        ],
    )
    def test_chat_calls_per_template(self, tmp_path, capsys, chat_calls, task, flags, mined):
        if task == "qa":
            dataset, rules_path = self._qa_paths(tmp_path)
            want = Counter(turn_basic=4, question_augmentation=mined, answer_generation=20)
        else:
            data, _, rules = build_rec_fixture(n_dialogues=12, n_items=10)
            dataset = tmp_path / "rec.json"
            dataset.write_text(json.dumps(data), encoding="utf-8")
            rules_path = write_mock_rules(tmp_path / "rules.json", rules)
            flags = [*flags, "--n", "8"]
            want = Counter(entity_basic=30, session_basic=mined, recommendation=8)
        code = main([
            "eval", "--task", task, "--dataset", str(dataset), "--mock-rules", str(rules_path),
            *flags, "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 0, capsys.readouterr().err
        assert chat_calls() == want

    @pytest.mark.parametrize("granularity", ["session", "na"])
    def test_qa_refuses_non_turn_granularity_before_mining(
        self, tmp_path, capsys, monkeypatch, granularity
    ):
        dataset, _ = self._qa_paths(tmp_path)
        backend = StaticChatBackend(["{Ana:[D1]:[topic]<jazz>}"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--mode", "attribute", "--granularity", granularity,
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        assert "--granularity turn" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("perspective", ["entity", "conversation"])
    def test_events_refuse_na_granularity_before_mining(
        self, tmp_path, capsys, monkeypatch, perspective
    ):
        dataset, _ = self._qa_paths(tmp_path)
        backend = StaticChatBackend(["[event]<moved house>"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "events", "--dataset", str(dataset),
            "--perspective", perspective, "--granularity", "na",
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        assert "--granularity" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def _session_store(self, tmp_path, dataset):
        path = tmp_path / "sessions.jsonl"
        store_from_sessions(load_conversation_dataset(dataset), level="session").save(path)
        return path

    @pytest.mark.parametrize("perspective", ["entity", "conversation"])
    def test_events_refuse_na_granularity_with_a_store(
        self, tmp_path, capsys, monkeypatch, perspective
    ):
        dataset, _ = self._qa_paths(tmp_path)
        store = self._session_store(tmp_path, dataset)
        backend = StaticChatBackend(["[event]<moved house>"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "events", "--dataset", str(dataset), "--store", str(store),
            "--perspective", perspective, "--granularity", "na",
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        err = capsys.readouterr().err
        assert "--granularity" in err
        assert "mining template" not in err
        assert not (tmp_path / "reports").exists()

    def test_events_with_a_store_build_no_miner(self, tmp_path, capsys):
        # Entity-centric session mining has no template, but a --store is
        # evaluated as it is, so the run never needs one.
        dataset, rules_path = self._qa_paths(tmp_path)
        mined = tmp_path / "mined.jsonl"
        assert main([
            "augment", "--input", str(self._session_store(tmp_path, dataset)),
            "--store", str(mined), "--granularity", "session", "--mock-rules", str(rules_path),
        ]) == 0
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "events", "--dataset", str(dataset), "--store", str(mined),
            "--perspective", "entity", "--granularity", "session",
            "--mock-rules", str(rules_path), "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0, capsys.readouterr().err
        report = json.loads((out_dir / "events.json").read_text())
        assert [row["session_id"] for row in report["sessions"]] == ["s0", "s1", "s2", "s3"]

    def _turn_store(self, tmp_path, dataset, rules_path):
        raw, mined = tmp_path / "turns_raw.jsonl", tmp_path / "turns.jsonl"
        store_from_sessions(load_conversation_dataset(dataset)).save(raw)
        assert main([
            "augment", "--input", str(raw), "--store", str(mined), "--mock-rules", str(rules_path),
        ]) == 0
        return mined

    def test_qa_with_a_store_takes_any_perspective(self, tmp_path, capsys):
        # With a --store, QA mines questions only, and the question template
        # ignores the mining modes: entity-centric turn mining, which has no
        # template, is never needed.
        dataset, rules_path = self._qa_paths(tmp_path)
        run = [
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--store", str(self._turn_store(tmp_path, dataset, rules_path)),
            "--mock-rules", str(rules_path), "--no-timestamp",
        ]
        assert main(run + ["--out-dir", str(tmp_path / "plain")]) == 0
        code = main(run + ["--perspective", "entity", "--out-dir", str(tmp_path / "entity")])
        assert code == 0, capsys.readouterr().err
        names = ("qa.json", "qa_report.txt", "config.json")
        plain, entity = (
            {name: (tmp_path / out / name).read_text() for name in names}
            for out in ("plain", "entity")
        )
        assert json.loads(plain["qa.json"])["recall"]["overall"] > 0
        for name in names:
            assert entity[name] == plain[name].replace(
                '"perspective": "conversation"', '"perspective": "entity"'
            )

    def test_qa_without_a_store_refuses_entity_turn_mining(self, tmp_path, capsys, monkeypatch):
        dataset, _ = self._qa_paths(tmp_path)
        backend = StaticChatBackend(["{Ana:[D1]:[topic]<jazz>}"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset), "--perspective", "entity",
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        assert capsys.readouterr().err == (
            "error: no mining template for (entity_centric, turn_level, basic)\n"
        )
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("task", ["qa", "rec"])
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--query-parts", "bogus"], "unknown query part 'bogus'"),
            (["--k", "0"], "k must be a positive integer, got 0"),
            (["--mode", "attribute", "--k", "-1"], "k must be a positive integer, got -1"),
            (["--dim", "0"], "dimension must be a positive integer, got 0"),
            (
                ["--backend", "remote", "--endpoint", "http://127.0.0.1:9/"],
                "remote embeddings need --embed-model",
            ),
        ],
        ids=["query-parts", "k", "attribute-k", "dim", "embed-model"],
    )
    def test_bad_retrieval_flags_refused_before_mining(
        self, tmp_path, capsys, monkeypatch, task, flags, message
    ):
        if task == "qa":
            dataset, _ = self._qa_paths(tmp_path)
        else:
            data, _, _ = build_rec_fixture(n_dialogues=12, n_items=10)
            dataset = tmp_path / "rec.json"
            dataset.write_text(json.dumps(data), encoding="utf-8")
        backend = StaticChatBackend(["[genre]<noir>"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", task, "--dataset", str(dataset), *flags,
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "reports").exists()

    def test_qa_comprehensive_refuses_k_below_one_before_mining(
        self, tmp_path, capsys, monkeypatch
    ):
        # Comprehensive retrieval ignores k, but QA scores recall@k in every mode.
        dataset, _ = self._qa_paths(tmp_path)
        backend = StaticChatBackend(["{Ana:[D1]:[topic]<jazz>}"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset), "--mode", "comprehensive",
            "--k", "0", "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 1
        assert backend.calls == 0
        assert capsys.readouterr().err == "error: k must be a positive integer, got 0\n"
        assert not (tmp_path / "reports").exists()

    def test_rec_comprehensive_takes_k_zero(self, tmp_path, capsys):
        data, _, rules = build_rec_fixture(n_dialogues=12, n_items=10)
        dataset = tmp_path / "rec.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        code = main([
            "eval", "--task", "rec", "--dataset", str(dataset), "--mode", "comprehensive",
            "--k", "0", "--n", "4", "--mock-rules",
            str(write_mock_rules(tmp_path / "rules.json", rules)),
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "reports" / "rec.json").exists()

    @pytest.mark.parametrize(
        "field,value",
        [("question", ""), ("gold_answer", "  "), ("question", " \t\n ")],
        ids=["question", "answer", "blank-question"],
    )
    def test_qa_refuses_unanswerable_record_before_mining(
        self, tmp_path, capsys, monkeypatch, field, value
    ):
        data, _ = build_qa_fixture(n_turns=20, n_sessions=4)
        data["qa"][5][field] = value
        dataset = tmp_path / "dataset.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        backend = StaticChatBackend(["{Ana:[D1]:[topic]<jazz>}"])
        monkeypatch.setattr(cli, "_chat_backend", lambda args: backend)
        code = main([
            "eval", "--task", "qa", "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 2
        assert backend.calls == 0
        assert capsys.readouterr().err.startswith("error: qa[5]: ")
        assert not (tmp_path / "reports").exists()

    def test_events_judge_reply_with_nan_keeps_the_report_valid_json(self, tmp_path):
        # The mock judge echoes its payload, which holds the reference summary.
        payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [{"turn_id": "t1", "speaker": "a", "text": "we moved house"}],
                }
            ],
            "events": [
                {
                    "session_id": "s1",
                    "speaker": "a",
                    "summary": "Relevance: nan\nCoherence: 4\nConsistency: inf",
                }
            ],
        }
        dataset = tmp_path / "d.json"
        dataset.write_text(json.dumps(payload), encoding="utf-8")
        rules_path = write_mock_rules(tmp_path / "rules.json", {"moved": ["life event", "move"]})
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "events", "--dataset", str(dataset), "--granularity", "session",
            "--judge", "--mock-rules", str(rules_path), "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out_dir / "events.json").read_text(), parse_constant=refuse)
        assert report["sessions"][0]["skipped_reason"] is None
        assert report["sessions"][0]["judge_scores"] is None

    def test_events_without_event_annotations_warns_but_succeeds(self, tmp_path, capsys):
        payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [{"turn_id": "t1", "speaker": "a", "text": "mood stuff"}],
                }
            ],
            "events": [],
        }
        dataset = tmp_path / "d.json"
        dataset.write_text(json.dumps(payload), encoding="utf-8")
        rules_path = write_mock_rules(tmp_path / "rules.json", {"mood": ["emotion", "calm"]})
        out_dir = tmp_path / "reports"
        code = main([
            "eval", "--task", "events", "--dataset", str(dataset),
            "--granularity", "session", "--mock-rules", str(rules_path),
            "--out-dir", str(out_dir), "--no-timestamp",
        ])
        assert code == 0
        report = json.loads((out_dir / "events.json").read_text())
        assert report["skipped"] == 1
        assert "skipped" in capsys.readouterr().err


class TestBackendChoice:
    """A remote run needs ``--endpoint``; the transcript pins that a mock
    run ignores one."""

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "a boring comedy"])
        entity = ["--perspective", "entity", "--granularity", "na"]
        assert main(["augment", "--input", "items.jsonl", "--store", "store.jsonl", *entity]) == 0
        assert main(["index", "--store", "store.jsonl", "--out", "store.index"]) == 0
        data, _ = build_qa_fixture(n_turns=20, n_sessions=4)
        (tmp_path / "qa.json").write_text(json.dumps(data), encoding="utf-8")
        return tmp_path

    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "--input", "items.jsonl", "--store", "remote.jsonl",
             "--perspective", "entity", "--granularity", "na"],
            ["index", "--store", "store.jsonl", "--out", "remote.index", "--embed-model", "e"],
            ["retrieve", "a thriller", "--store", "store.jsonl", "--index", "store.index"],
            ["retrieve", "a thriller", "--store", "store.jsonl", "--mode", "attribute"],
            ["eval", "--task", "qa", "--dataset", "qa.json", "--out-dir", "reports"],
        ],
        ids=["augment", "index", "retrieve-embedding", "retrieve-attribute", "eval"],
    )
    def test_remote_without_endpoint_refused_before_any_call_or_write(
        self, workdir, capsys, monkeypatch, argv
    ):
        def complete(*args, **kwargs):
            pytest.fail("a chat call was made")

        for backend in (MockChatBackend, RemoteChatBackend):
            monkeypatch.setattr(backend, "complete", complete)
        def files():
            return {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()}

        before = files()
        capsys.readouterr()
        assert main([*argv, "--backend", "remote"]) == 1
        assert capsys.readouterr().err == "error: remote backends require an endpoint\n"
        assert files() == before

    @pytest.mark.parametrize("timeout", ["inf", "-1", "nan", "0"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "--input", "items.jsonl", "--store", "remote.jsonl",
             "--perspective", "entity", "--granularity", "na"],
            ["index", "--store", "store.jsonl", "--out", "remote.index", "--embed-model", "e"],
        ],
        ids=["augment", "index"],
    )
    def test_timeout_not_positive_and_finite_refused_before_any_call_or_write(
        self, workdir, capsys, monkeypatch, argv, timeout
    ):
        def post(*args, **kwargs):
            pytest.fail("a request was sent")

        monkeypatch.setattr(requests.Session, "post", post)
        def files():
            return {path: path.read_bytes() for path in workdir.rglob("*") if path.is_file()}

        before = files()
        capsys.readouterr()
        remote = ["--backend", "remote", "--endpoint", "http://127.0.0.1:9/", "--timeout", timeout]
        assert main([*argv, *remote]) == 1
        expected = f"error: timeout must be a positive, finite number, got {float(timeout)!r}\n"
        assert capsys.readouterr().err == expected
        assert files() == before


class TestConfigSnapshot:
    """``config.json`` records the same 20 settings for every eval task,
    defaults included, as exact JSON."""

    DEFAULTS = {
        "command": "eval", "backend": "mock", "model": "mock", "embed_model": None,
        "endpoint": None, "api_key_env": "MEMAUG_API_KEY", "mode": "embedding",
        "strategy": "averaged", "perspective": "conversation", "granularity": "turn",
        "prioritization": "basic", "policy": "name", "query_parts": "text,attributes",
        "k": 5, "n": 10, "seed": 0, "dim": 8, "parallelism": 1, "max_retries": 2,
        "timeout": 30.0,
    }

    def _run(self, tmp_path, task, *extra):
        if task == "rec":
            data, _, rules = build_rec_fixture(n_dialogues=12, n_items=10)
        else:
            data, rules = build_qa_fixture(n_turns=20, n_sessions=4)
        dataset = tmp_path / f"{task}.json"
        dataset.write_text(json.dumps(data), encoding="utf-8")
        rules_path = write_mock_rules(tmp_path / "rules.json", rules)
        out_dir = tmp_path / "reports"
        code = main([
            *extra[:2], "eval", "--task", task, "--dataset", str(dataset),
            "--mock-rules", str(rules_path), "--out-dir", str(out_dir), "--no-timestamp",
            *extra[2:],
        ])
        assert code == 0
        return (out_dir / "config.json").read_text()

    @staticmethod
    def _expected(**changes):
        settings = dict(TestConfigSnapshot.DEFAULTS, **changes)
        return json.dumps(settings, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "task,changes",
        [("qa", {"policy": "name-value"}), ("rec", {"k": 10}), ("events", {})],
    )
    def test_default_run(self, tmp_path, task, changes):
        assert self._run(tmp_path, task) == self._expected(**changes)

    def test_config_file_sets_k_and_a_flag_overrides_it(self, tmp_path):
        config = tmp_path / "memaug.ini"
        config.write_text("[memaug]\nk = 3\nmode = attribute\ntimeout = 5\n")
        file_only = self._run(tmp_path, "qa", "--config", str(config))
        assert file_only == self._expected(policy="name-value", k=3, mode="attribute", timeout=5.0)
        flag = self._run(tmp_path, "qa", "--config", str(config), "--k", "4")
        assert flag == self._expected(policy="name-value", k=4, mode="attribute", timeout=5.0)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a fine comedy"])
        store = tmp_path / "store.jsonl"
        config = tmp_path / "memaug.ini"
        config.write_text("[memaug]\nperspective = entity\ngranularity = na\nmax_retries = 0\n")
        code = main([
            "--config", str(config),
            "augment", "--input", str(source), "--store", str(store),
        ])
        assert code == 0
        report = json.loads((tmp_path / "store.jsonl.report.json").read_text())
        assert report["failed"] == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = main([
            "--config", str(tmp_path / "none.ini"),
            "stats", "--store", str(tmp_path / "s.jsonl"),
        ])
        assert code == 2

    def test_bad_choice_exits_1_without_traceback(self, tmp_path, capsys):
        config = tmp_path / "memaug.ini"
        config.write_text("[memaug]\nmode = bogus\n")
        with pytest.raises(SystemExit) as exc_info:
            main([
                "--config", str(config),
                "retrieve", "a thriller", "--store", str(tmp_path / "s.jsonl"),
            ])
        assert exc_info.value.code == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "Traceback" not in err

    def test_strict_true_applies(self, tmp_path, capsys):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a fine comedy"])
        source.write_text(source.read_text() + "not json\n", encoding="utf-8")
        config = tmp_path / "memaug.ini"
        args = [
            "augment", "--input", str(source), "--store", str(tmp_path / "store.jsonl"),
            "--perspective", "entity", "--granularity", "na",
        ]
        config.write_text("[memaug]\nstrict = false\n")
        assert main(["--config", str(config)] + args) == 0
        config.write_text("[memaug]\nstrict = true\n")
        assert main(["--config", str(config)] + args) == 2

    def test_explicit_flag_overrides_file(self, tmp_path, capsys):
        source = write_items_jsonl(
            tmp_path / "items.jsonl", ["a great thriller", "a dark thriller", "a tense thriller"]
        )
        store = tmp_path / "store.jsonl"
        config = tmp_path / "memaug.ini"
        config.write_text(
            "[memaug]\nperspective = entity\ngranularity = na\nmode = attribute\n"
            "k = 1\njson = true\n"
        )
        assert main(["--config", str(config), "augment", "--input", str(source),
                     "--store", str(store)]) == 0
        query = ["--config", str(config), "retrieve", "which thriller", "--store", str(store)]
        capsys.readouterr()
        assert main(query) == 0
        assert [hit["id"] for hit in json.loads(capsys.readouterr().out)] == ["m0"]
        assert main(query + ["--k", "2"]) == 0
        assert [hit["id"] for hit in json.loads(capsys.readouterr().out)] == ["m0", "m1"]

    def test_flag_values_apply_to_eval(self, tmp_path):
        payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [{"turn_id": "t1", "speaker": "a", "text": "we moved house"}],
                }
            ],
            "events": [],
        }
        dataset = tmp_path / "d.json"
        dataset.write_text(json.dumps(payload), encoding="utf-8")
        rules_path = write_mock_rules(tmp_path / "rules.json", {"moved": ["life event", "move"]})
        config = tmp_path / "memaug.ini"
        config.write_text(
            "[memaug]\ninput_mode = annotations_plus_dialogues\nno_timestamp = true\n"
        )
        out_dir = tmp_path / "reports"
        code = main([
            "--config", str(config), "eval", "--task", "events", "--dataset", str(dataset),
            "--granularity", "session", "--mock-rules", str(rules_path),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        report = json.loads((out_dir / "events.json").read_text())
        assert "timestamp" not in report
        assert report["sessions"][0]["input_mode"] == "annotations_plus_dialogues"
        assert report["sessions"][0]["skipped_reason"] is None

    def test_keys_without_a_flag_are_skipped(self, tmp_path):
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a fine comedy"])
        config = tmp_path / "memaug.ini"
        config.write_text("[memaug]\ndim = 4\nunknown_key = 1\nperspective = entity\n"
                          "granularity = na\n")
        code = main([
            "--config", str(config),
            "augment", "--input", str(source), "--store", str(tmp_path / "store.jsonl"),
        ])
        assert code == 0

    def test_boolean_key_needs_a_boolean(self, tmp_path, capsys):
        config = tmp_path / "memaug.ini"
        config.write_text("[memaug]\njson = maybe\n")
        code = main(["--config", str(config), "stats", "--store", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert "Not a boolean: maybe" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        ["endpoint = http://x/\n", "[memaug]\nendpoint = http://x/%20\n"],
        ids=["no-section-header", "bad-interpolation"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "memaug.ini"
        config.write_text(text)
        code = main([
            "--config", str(config),
            "index", "--store", str(tmp_path / "s.jsonl"), "--out", str(tmp_path / "i.bin"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config}: ")
        assert "Traceback" not in err

    def test_undecodable_config_exits_2_naming_the_file(self, tmp_path, capsys):
        config = tmp_path / "memaug.ini"
        config.write_bytes(b"[memaug]\nperspective = \xff\n")
        code = main(["--config", str(config), "stats", "--store", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: config file {config}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_config_path_that_cannot_be_read_exits_2(self, tmp_path, capsys):
        config = tmp_path / "memaug.ini"
        config.mkdir()
        code = main(["--config", str(config), "stats", "--store", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert str(config) in capsys.readouterr().err


class TestUndecodableStoreLine:
    """A store line that is not UTF-8 is a malformed line, not a crash."""

    @pytest.fixture
    def source(self, tmp_path):
        path = write_items_jsonl(tmp_path / "items.jsonl", ["a thriller", "a comedy", "a drama"])
        path.write_bytes(path.read_bytes().replace(b"comedy", b"com\xffdy"))
        return path

    def augment(self, source, *flags):
        return main([
            "augment", "--input", str(source), "--store", str(source.with_name("out.jsonl")),
            "--perspective", "entity", "--granularity", "na", *flags,
        ])

    def test_lenient_augment_skips_it_with_a_warning(self, source, capsys):
        assert self.augment(source) == 0
        assert "warning: line 2: skipped ('utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert MemoryStore.load(source.with_name("out.jsonl")).ids() == ("m0", "m2")

    def test_strict_augment_exits_2_at_its_line(self, source, capsys):
        assert self.augment(source, "--strict") == 2
        assert capsys.readouterr().err.startswith("error: line 2: 'utf-8' codec can't decode")
        assert not source.with_name("out.jsonl").exists()

    def test_stats_exits_2_at_its_line(self, source, capsys):
        assert main(["stats", "--store", str(source)]) == 2
        assert capsys.readouterr().err.startswith("error: line 2: 'utf-8' codec can't decode")


class TestFlagGroups:
    """Each command takes only the flags it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "--input", "items.jsonl", "--store", "s.jsonl", "--seed", "0"],
            ["index", "--store", "s.jsonl", "--out", "i.index", "--seed", "0"],
            ["retrieve", "q", "--store", "s.jsonl", "--seed", "0"],
            ["index", "--store", "s.jsonl", "--out", "i.index", "--model", "m"],
            ["index", "--store", "s.jsonl", "--out", "i.index", "--max-retries", "1"],
            ["index", "--store", "s.jsonl", "--out", "i.index", "--mock-rules", "r.json"],
        ],
    )
    def test_unread_flags_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_shared_config_keys_without_a_flag_are_skipped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller", "a noir drama"])
        write_mock_rules(tmp_path / "rules.json", {"noir": ("genre", "noir")})
        (tmp_path / "memaug.ini").write_text(
            "[memaug]\nseed = 7\nmodel = mock\nmax_retries = 0\nmock_rules = rules.json\n"
            "perspective = entity\ngranularity = na\n"
        )
        config = ["--config", "memaug.ini"]
        assert main([*config, "augment", "--input", "items.jsonl", "--store", "s.jsonl"]) == 0
        assert main([*config, "index", "--store", "s.jsonl", "--out", "s.index"]) == 0
        capsys.readouterr()
        argv = [*config, "retrieve", "noir", "--store", "s.jsonl", "--mode", "attribute", "--json"]
        assert main(argv) == 0
        assert [hit["id"] for hit in json.loads(capsys.readouterr().out)] == ["m1"]
        assert cli._config_tokens("memaug.ini", cli.build_parser().commands["index"]) == []


class TestMalformedInputFiles:
    """Input files that are not JSON, or break their schema, exit 2 with a
    one-line error instead of a traceback or a silent misreading."""

    @pytest.mark.parametrize(
        "ids,rows",
        [
            (["m0", "m0"], [[1.0, 0.0], [0.0, 1.0]]),
            (["m0", "m1"], [[1.0, 0.0], [0.0, 0.0]]),
            (["m0", "m1"], [[1.0, 0.0], [float("nan"), 1.0]]),
        ],
        ids=["duplicate-ids", "zero-row", "nan"],
    )
    def test_corrupt_index_exits_2_naming_the_file(self, tmp_path, capsys, ids, rows):
        store = write_items_jsonl(tmp_path / "store.jsonl", ["a great thriller"])
        matrix = io.BytesIO()
        np.save(matrix, np.array(rows), allow_pickle=False)
        header = {
            "format": "memaug-index", "version": 2, "strategy": "averaged_pairs",
            "dimension": 2, "embedder": {"kind": "hash", "model": None}, "ids": ids,
        }
        index = tmp_path / "index.bin"
        index.write_bytes(json.dumps(header).encode() + b"\n" + matrix.getvalue())
        code = main(["retrieve", "a thriller", "--store", str(store), "--index", str(index)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {index}: malformed index: ")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("ids", "ab", "index ids must be a list, got str"),
            ("dimension", True, "malformed index: dimension must be a non-negative integer, got True"),
            ("embedder", {"kind": 5, "model": None},
             "malformed index: index embedder kind and model must be strings or None"),
        ],
        ids=["ids-string", "dimension-bool", "kind-int"],
    )
    def test_index_header_of_the_wrong_type_exits_2_naming_the_file(
        self, tmp_path, capsys, key, value, message
    ):
        store = write_items_jsonl(tmp_path / "store.jsonl", ["a great thriller"])
        matrix = io.BytesIO()
        np.save(matrix, np.ones((2, 1)), allow_pickle=False)
        header = {
            "format": "memaug-index", "version": 2, "strategy": "averaged_pairs",
            "dimension": 1, "embedder": {"kind": "hash", "model": None}, "ids": ["a", "b"],
        }
        header[key] = value
        index = tmp_path / "index.bin"
        index.write_bytes(json.dumps(header).encode() + b"\n" + matrix.getvalue())
        code = main(["retrieve", "a thriller", "--store", str(store), "--index", str(index)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {index}: {message}\n"

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            json.dumps({"rules": {"x": 5}}),
            json.dumps({"rules": {"x": "ab"}}),
            json.dumps({"rules": {"x": ["genre"]}}),
            json.dumps({"rules": {}, "capture_persons": "no"}),
            "{not json",
        ],
        ids=["top-level-list", "rule-not-a-pair", "rule-is-a-string", "rule-of-one", "capture-not-bool", "not-json"],
    )
    def test_malformed_mock_rules(self, tmp_path, capsys, text):
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        source = write_items_jsonl(tmp_path / "items.jsonl", ["a great thriller"])
        code = main([
            "augment", "--input", str(source), "--store", str(tmp_path / "out.jsonl"),
            "--perspective", "entity", "--granularity", "na", "--mock-rules", str(rules),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: mock rules file {rules}")
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize(
        "task,payload",
        [
            ("qa", []),
            ("qa", {"sessions": ["s1"]}),
            ("qa", {"sessions": [{"session_id": "s1", "turns": [{"turn_id": 1, "speaker": "a", "text": "x"}]}]}),
            ("rec", {"items": [{"id": "m1", "title": "Heat"}],
                     "dialogues": [{"dialogue_id": "d1", "turns": [{"speaker": "u", "text": "Heat"}],
                                    "gold_labels": "Heat"}]}),
            ("qa", "{not json"),
            ("qa", {"sessions": [
                {"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": "x"}]},
                {"session_id": "s1", "turns": [{"turn_id": "t2", "speaker": "b", "text": "y"}]},
            ]}),
        ],
        ids=["top-level-list", "session-not-object", "integer-turn-id", "labels-not-a-list", "not-json",
             "duplicate-session-id"],
    )
    def test_malformed_dataset(self, tmp_path, capsys, task, payload):
        dataset = tmp_path / "dataset.json"
        dataset.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
        code = main([
            "eval", "--task", task, "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "reports"), "--no-timestamp",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "reports").exists()
