"""The CLI transcript: every command in ``golden/cli_transcript.json``,
replayed in-process through ``cli.main`` and checked against its recording.

Each entry records a command's argv and, per ``--parallelism`` value, its
exit code and the sha256 of its stdout, its stderr and every file it wrote
or changed. The commands run in order from one temporary directory with
relative paths, on the inputs :func:`write_inputs` makes there, so a later
command reads what an earlier one wrote. An argv token ``{parallelism}`` is
replaced by the value of the replay; the whole transcript is replayed at
``--parallelism`` 1 and at 2.

Two kinds of output vary by machine and are pinned another way:

- A command that argparse ends (``--help`` or a usage error) records its
  exit code and the set of option strings it printed. The layout of that
  text changes with the Python version and the terminal width.
- Index files and ``retrieve --json`` output carry floats that went through
  BLAS dot products, which may round differently on another CPU. They are
  hashed with every float rounded to 12 significant digits.

To re-record entries after an intended change of output, run
``PYTHONPATH=src python tests/test_cli_transcript.py NAME...`` from the
repository root; with no NAME it re-records every entry. To add a command,
append ``{"name": ..., "argv": [...]}`` to the file and re-record it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import math
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from memaug import cli
from memaug.backends import MockChatBackend
from memaug.datasets import load_conversation_dataset, store_from_sessions

from doubles import FlakyChatBackend, flaky_outcome
from synthetic import build_qa_fixture, build_rec_fixture

TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.json"
PARALLELISMS = ("1", "2")
_INDEX_MAGIC = b'{"format": "memaug-index"'
_OPTION = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")

ENTITY_RULES = {
    "thriller": ["genre", "thriller"],
    "comedy": ["genre", "comedy"],
    "drama": ["genre", "drama"],
    "noir": ["genre", "noir"],
    "paris": ["place", "paris"],
    "rome": ["place", "rome"],
    "boat": ["setting", "boat"],
}
ENTITY_CONTENTS = [
    "a great thriller set in paris",
    "a fine comedy in rome",
    "a boring drama",
    "a noir thriller on a boat",
    "nothing to mine here",
    "a noir film",
    "another noir film",
    "a drama in rome about paris",
]
# Every item mines on a successful reply, so each failure is an injected one.
# The contents are distinct, so each payload's attempts run in one thread.
FLAKY_CONTENTS = [f"item {i} is a {genre}" for i, genre in enumerate(
    ["thriller", "comedy", "drama", "noir"] * 6
)]


def _jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _entities(contents) -> list[dict]:
    return [{"id": f"m{i}", "kind": "entity", "content": c} for i, c in enumerate(contents)]


def _index_file(path: Path, ids, vectors, dimension) -> None:
    header = {
        "format": "memaug-index", "version": 2, "strategy": "averaged_pairs",
        "dimension": dimension, "embedder": {"kind": "hash", "model": None}, "ids": ids,
    }
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(vectors, dtype=np.float64), allow_pickle=False)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + buffer.getvalue())


def write_inputs(root: Path) -> None:
    """The input files the transcript's commands read."""
    rules = {"rules": ENTITY_RULES, "capture_persons": False}
    (root / "rules.json").write_text(json.dumps(rules), encoding="utf-8")
    entities = _entities(ENTITY_CONTENTS)
    _jsonl(root / "items.jsonl", entities[:4] + [{"id": 5, "content": "bad id"}] + entities[4:])
    _jsonl(root / "edge.jsonl", _entities(["", "a comedy " * 12_000, "a thriller"]))
    _jsonl(root / "flaky.jsonl", _entities(FLAKY_CONTENTS))
    _jsonl(root / "one.jsonl", _entities(ENTITY_CONTENTS[:1]))
    (root / "augment.ini").write_text(
        "[memaug]\nperspective = entity\ngranularity = na\nmax_retries = 0\n"
        "mock_rules = rules.json\nk = 3\n",
        encoding="utf-8",
    )
    (root / "eval.ini").write_text("[memaug]\nmode = attribute\nk = 3\n", encoding="utf-8")
    # Files whose second line holds a byte that is not UTF-8.
    undecodable = [json.dumps(record).encode("utf-8") for record in _entities(ENTITY_CONTENTS[:3])]
    undecodable[1] = undecodable[1].replace(b"comedy", b"com\xffdy")
    (root / "undecodable.jsonl").write_bytes(b"\n".join(undecodable) + b"\n")
    (root / "undecodable.ini").write_bytes(b"[memaug]\nperspective = \xff\n")

    qa, qa_rules = build_qa_fixture(n_turns=20, n_sessions=4)
    (root / "qa.json").write_text(json.dumps(qa), encoding="utf-8")
    qa_rules = {"rules": {token: list(pair) for token, pair in qa_rules.items()}}
    (root / "qa_rules.json").write_text(json.dumps(qa_rules), encoding="utf-8")
    store_from_sessions(load_conversation_dataset(root / "qa.json")).save(root / "qa_turns.jsonl")
    qa["qa"][3]["gold_answer"] = ""
    (root / "qa_unanswerable.json").write_text(json.dumps(qa), encoding="utf-8")

    rec, _, rec_rules = build_rec_fixture(n_dialogues=12, n_items=10)
    (root / "rec.json").write_text(json.dumps(rec), encoding="utf-8")
    rec_rules = {"rules": {token: list(pair) for token, pair in rec_rules.items()}}
    (root / "rec_rules.json").write_text(json.dumps(rec_rules), encoding="utf-8")
    _jsonl(root / "rec_items.jsonl", [
        {"id": item["id"], "kind": "entity", "content": f"{item['title']} a {genre} film"}
        for item, genre in zip(rec["items"], ["noir", "western", "musical", "biopic", "heist",
                                              "satire", "sports", "war", "space", "fantasy"])
    ])

    events = {
        "sessions": [
            {"session_id": "s1", "turns": [
                {"turn_id": "t1", "speaker": "ana", "text": "we moved house in may"},
                {"turn_id": "t2", "speaker": "bob", "text": "and then the wedding"},
            ]},
            {"session_id": "s2", "turns": [
                {"turn_id": "t3", "speaker": "ana", "text": "a quiet week"},
            ]},
            {"session_id": "s3", "turns": [
                {"turn_id": "t4", "speaker": "bob", "text": "i got a new job"},
            ]},
        ],
        "events": [
            {"session_id": "s1", "speaker": "ana",
             "summary": "Ana moved.\nRelevance: 4\nCoherence: 5\nConsistency: 3"},
            {"session_id": "s3", "speaker": "bob", "summary": "Bob changed jobs."},
        ],
    }
    (root / "events.json").write_text(json.dumps(events), encoding="utf-8")
    repeated = {"session_id": "s1", "turns": [
        {"turn_id": "t5", "speaker": "bob", "text": "we moved again"},
    ]}
    duplicate = dict(events, sessions=[*events["sessions"], repeated])
    (root / "events_dup_session.json").write_text(json.dumps(duplicate), encoding="utf-8")
    store_from_sessions(load_conversation_dataset(root / "events.json")).save(
        root / "events_turns.jsonl"
    )
    event_rules = {"rules": {
        "moved": ["life event", "move"], "wedding": ["event", "wedding"],
        "job": ["career milestone", "new job"], "quiet": ["mood", "calm"],
    }}
    (root / "events_rules.json").write_text(json.dumps(event_rules), encoding="utf-8")

    ones = np.ones((2, 4))
    _index_file(root / "dup_ids.index", ["m0", "m0"], ones, 4)
    _index_file(root / "zero_row.index", ["m0", "m1"], [[1, 0, 0, 0], [0, 0, 0, 0]], 4)
    _index_file(root / "nan.index", ["m0", "m1"], [[1, 0, 0, 0], [0, math.nan, 0, 0]], 4)
    _index_file(root / "shape.index", ["m0", "m1"], ones, 8)
    (root / "old_json.index").write_text(
        '{"strategy": "averaged_pairs", "dimension": 2, '
        '"entries": [{"id": "a", "vector": [1.0, 0.0]}]}\n',
        encoding="utf-8",
    )


def _rounded(value):
    if isinstance(value, float):
        return f"{value:.11e}"
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def _digest(data: bytes, *, json_floats: bool = False) -> str:
    """sha256 of ``data``; floats rounded to 12 significant digits in an
    index file, and in JSON text when ``json_floats`` is set."""
    if data.startswith(_INDEX_MAGIC):
        header, _, matrix = data.partition(b"\n")
        vectors = np.load(io.BytesIO(matrix), allow_pickle=False)
        data = header + json.dumps(_rounded(vectors.tolist())).encode("utf-8")
    elif json_floats:
        data = json.dumps(_rounded(json.loads(data)), sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _flaky_backend(rules=None, *, capture_persons=True):
    return FlakyChatBackend(MockChatBackend(rules, capture_persons=capture_persons))


def run_command(root: Path, entry: dict, parallelism: str) -> dict:
    """Run one transcript entry in ``root``; its result in the recorded form."""
    argv = [token.replace("{parallelism}", parallelism) for token in entry["argv"]]
    before = _snapshot(root)
    stdout, stderr = io.StringIO(), io.StringIO()
    backend = contextlib.nullcontext()
    if entry.get("backend") == "flaky":
        backend = mock.patch.object(cli, "MockChatBackend", _flaky_backend)
    with backend, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help or a usage error
            text = stdout.getvalue() + stderr.getvalue()
            return {"exit": exc.code, "options": sorted(set(_OPTION.findall(text)))}
    after = _snapshot(root)
    return {
        "exit": code,
        "stdout": _digest(stdout.getvalue().encode("utf-8"),
                          json_floats=argv[0] == "retrieve" and "--json" in argv),
        "stderr": _digest(stderr.getvalue().encode("utf-8")),
        "files": {
            name: _digest(data) for name, data in after.items() if before.get(name) != data
        },
    }


def replay(entries: list[dict], parallelism: str) -> list[dict]:
    """Every entry's result, run in order in a fresh temporary directory."""
    memaug_logger = logging.getLogger("memaug")
    level = memaug_logger.level
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        memaug_logger.setLevel("ERROR")  # as under the test suite's conftest
        os.chdir(root)
        try:
            return [run_command(root, entry, parallelism) for entry in entries]
        finally:
            os.chdir(cwd)
            memaug_logger.setLevel(level)


def _entries() -> list[dict]:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))["entries"]


@pytest.mark.parametrize("parallelism", PARALLELISMS)
def test_cli_transcript(parallelism):
    entries = _entries()
    results = replay(entries, parallelism)
    changed = [
        f"{entry['name']}: recorded {entry['results'][parallelism]}, got {result}"
        for entry, result in zip(entries, results)
        if result != entry["results"][parallelism]
    ]
    assert not changed, "\n".join(changed)


@pytest.mark.parametrize("parallelism", PARALLELISMS)
def test_flaky_backend_failures_are_the_injected_ones(tmp_path, monkeypatch, parallelism):
    """The augmentation report counts, by reason, exactly the failures that
    :func:`flaky_outcome` injects under the miner's retry rule."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    entry = next(e for e in _entries() if e.get("backend") == "flaky")
    assert run_command(tmp_path, entry, parallelism)["exit"] == 0
    retries = int(entry["argv"][entry["argv"].index("--max-retries") + 1])
    injected = Counter()
    for content in FLAKY_CONTENTS:
        for attempt in range(retries + 1):
            outcome = flaky_outcome(content, attempt)
            if outcome in ("ok", "refusal"):
                break
        if outcome != "ok":
            injected[outcome] += 1
    report = json.loads((tmp_path / "flaky_store.jsonl.report.json").read_text())
    assert Counter(f["reason"] for f in report["failures"]) == injected
    assert set(injected) == {"transport", "refusal", "unparseable"}
    assert report["succeeded"] == len(FLAKY_CONTENTS) - sum(injected.values()) > 0


def record(names: list[str]) -> None:
    """Re-record the named entries (every entry when ``names`` is empty)."""
    data = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    entries = data["entries"]
    unknown = set(names) - {entry["name"] for entry in entries}
    if unknown:
        raise SystemExit(f"no transcript entry named {sorted(unknown)}")
    by_parallelism = {p: replay(entries, p) for p in PARALLELISMS}
    for i, entry in enumerate(entries):
        if not names or entry["name"] in names:
            entry["results"] = {p: by_parallelism[p][i] for p in PARALLELISMS}
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one line per entry
    TRANSCRIPT.write_text('{"entries": [\n' + lines + "\n]}\n", encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:])
