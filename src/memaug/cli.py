"""Command-line operator surface.

Subcommands: ``augment`` (mine attributes for a corpus), ``index`` (build
and save a vector index), ``retrieve`` (query a store), ``eval`` (run the
qa/rec/events pipelines and write reports), ``stats`` (corpus statistics).
Each takes only the flags it reads: its own, plus those of the shared
remote, chat, mining and indexing groups it needs.

Each setting's default sits on its flag. An optional INI config file
(section ``[memaug]``, keys named like the long flags) overrides those
defaults, and explicit flags override the file. Secrets are only ever read
from environment variables.

Exit codes: 0 success, 1 usage or query error, 2 IO/schema error, 3 backend
failure, 4 augmentation failure rate above threshold.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from .annotations import Granularity, Perspective, Prioritization, render_annotation
from .backends import (
    BackendProfile, HashEmbedder, MockChatBackend, RemoteChatBackend, RemoteEmbedder,
)
from .datasets import (
    load_conversation_dataset,
    load_recommendation_dataset,
    store_from_items,
    store_from_sessions,
)
from .errors import (
    AugmentFailure,
    BackendRefusal,
    EmptyQueryError,
    MemaugError,
    SchemaError,
    TransportError,
    check_count,
)
from .fileio import read_json_object, replace_together
from .mining import AttributeMiner
from .retrieval import (
    EmbeddingStrategy,
    QueryContext,
    QueryPart,
    RetrievalMode,
    VectorIndex,
    build_index,
)
from .store import MatchPolicy, MemoryStore
from .tasks import RetrievalSetup, run_event_summarization, run_qa_task, run_rec_task

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BACKEND = 3
EXIT_THRESHOLD = 4

_MODES = {
    "comprehensive": RetrievalMode.COMPREHENSIVE,
    "attribute": RetrievalMode.ATTRIBUTE_BASED,
    "embedding": RetrievalMode.EMBEDDING_BASED,
}
_STRATEGIES = {
    "averaged": EmbeddingStrategy.AVERAGED_PAIRS,
    "whole": EmbeddingStrategy.WHOLE_ANNOTATION,
    "raw": EmbeddingStrategy.RAW_CONTENT,
}
_PERSPECTIVES = {
    "entity": Perspective.ENTITY_CENTRIC,
    "conversation": Perspective.CONVERSATION_CENTRIC,
}
_GRANULARITIES = {
    "turn": Granularity.TURN_LEVEL,
    "session": Granularity.SESSION_LEVEL,
    "na": Granularity.NOT_APPLICABLE,
}
_PRIORITIZATIONS = {
    "basic": Prioritization.BASIC,
    "priority": Prioritization.PRIORITY,
}
_POLICIES = {
    "name": MatchPolicy.NAME_ONLY,
    "name-value": MatchPolicy.NAME_AND_VALUE,
}


class _Parser(argparse.ArgumentParser):
    commands: dict[str, "_Parser"]  # subcommand parsers, set by build_parser

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _config_tokens(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The ``[memaug]`` values of a config file as flags of ``command``.

    A value becomes ``--key=value``, or a bare ``--flag`` for a boolean
    flag set true, so argparse checks it like a typed flag. Keys the
    subcommand has no option for are skipped. The file is read as UTF-8; one
    that is not UTF-8 or that configparser cannot parse raises
    :class:`SchemaError`, and one that cannot be opened raises
    :class:`OSError`.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"config file not found: {source}")
    actions = {
        action.dest: action
        for action in command._actions
        if action.option_strings and action.dest != "help"
    }
    parser = configparser.ConfigParser()
    tokens = []
    try:
        with source.open(encoding="utf-8") as fh:
            parser.read_file(fh, source=source)
        section = parser["memaug"] if parser.has_section("memaug") else {}
        for key in section:
            action = actions.get(key.replace("-", "_"))
            if action is None:
                continue
            option = action.option_strings[0]
            if action.nargs != 0:
                tokens.append(f"{option}={section[key]}")
            elif section.getboolean(key):
                tokens.append(option)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"config file {source}: {exc}") from exc
    return tokens


def _with_config(argv: list[str], path: str, command: argparse.ArgumentParser) -> list[str]:
    """``argv`` with the config file's flags right after the subcommand, so
    that flags given on the command line come later and win."""
    at = 0
    while argv[at].startswith("-"):  # --config PATH or --config=PATH
        at += 1 if "=" in argv[at] else 2
    return argv[: at + 1] + _config_tokens(path, command) + argv[at + 1 :]


# The settings an eval run records in config.json.
_SNAPSHOT = (
    "command", "backend", "model", "embed_model", "endpoint", "api_key_env",
    "mode", "strategy", "perspective", "granularity", "prioritization", "policy",
    "query_parts", "k", "n", "seed", "dim", "parallelism", "max_retries", "timeout",
)


def _profile(args, model: str | None) -> BackendProfile:
    return BackendProfile(
        model_id=model, endpoint=args.endpoint, timeout=args.timeout, api_key_env=args.api_key_env
    )


def _embedder(args, dimension: int):
    """The hash embedder, or the remote ``--embed-model`` (never the chat ``--model``)."""
    if args.backend == "mock":
        return HashEmbedder(dimension)
    profile = _profile(args, args.embed_model)  # refuses a missing --endpoint first
    if not args.embed_model:
        raise ValueError("remote embeddings need --embed-model")
    return RemoteEmbedder(profile)


def _query_parts(args) -> tuple[QueryPart, ...]:
    mapping = {"text": QueryPart.TEXT, "attributes": QueryPart.ATTRIBUTES}
    names = [p.strip() for p in args.query_parts.split(",") if p.strip()]
    try:
        return tuple(mapping[name] for name in names)
    except KeyError as exc:
        raise ValueError(f"unknown query part {exc.args[0]!r}") from exc


def _load_mock_rules(path: str | None) -> tuple[dict | None, bool]:
    """Optional JSON rule table for the mock backend.

    Schema: {"rules": {"token": ["attribute", "value"], ...},
             "capture_persons": true}
    A file that breaks it raises :class:`SchemaError`.
    """
    if not path:
        return None, True
    data = read_json_object(path, "mock rules file")
    rules, capture = data.get("rules", {}), data.get("capture_persons", True)
    if not isinstance(rules, dict) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)
        for pair in rules.values()
    ):
        raise SchemaError(f"mock rules file {path}: rules must map tokens to [name, value] strings")
    if not isinstance(capture, bool):
        raise SchemaError(f"mock rules file {path}: capture_persons must be true or false")
    return {token: (pair[0], pair[1]) for token, pair in rules.items()}, capture


def _chat_backend(args):
    rules, capture = _load_mock_rules(args.mock_rules)
    if args.backend == "mock":
        return MockChatBackend(rules, capture_persons=capture)
    return RemoteChatBackend(_profile(args, args.model))


def _miner(args, backend, *, perspective=None, granularity=None) -> AttributeMiner:
    """The run's miner; ``perspective`` and ``granularity`` replace the
    flags for a task that fixes what it mines."""
    return AttributeMiner(
        backend,
        perspective=_PERSPECTIVES[perspective or args.perspective],
        granularity=_GRANULARITIES[granularity or args.granularity],
        prioritization=_PRIORITIZATIONS[args.prioritization],
        max_retries=args.max_retries,
        parallelism=args.parallelism,
    )


def _augment_store(store: MemoryStore, miner: AttributeMiner):
    results, report = miner.mine_corpus(list(store))
    for item_id, annotation in results:
        store.attach_annotation(item_id, annotation)
    store.augmentation_report = report
    return report


def cmd_augment(args: argparse.Namespace) -> int:
    rate = args.max_failure_rate
    if rate is not None and not 0.0 <= rate <= 1.0:  # NaN fails both comparisons
        raise ValueError(f"max-failure-rate must be between 0 and 1, got {rate}")
    warnings: list[str] = []
    store = MemoryStore.load(args.input, strict=args.strict, warnings=warnings)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = _augment_store(store, _miner(args, _chat_backend(args)))
    store.save(args.store)
    print(
        f"augmented {report.succeeded}/{report.total} items "
        f"(failure rate {report.failure_rate:.4f}) -> {args.store}"
    )
    for item_id, reason in report.failures:
        print(f"  failed {item_id}: {reason}", file=sys.stderr)
    if args.max_failure_rate is not None and report.failure_rate > args.max_failure_rate:
        print(
            f"error: failure rate {report.failure_rate:.4f} exceeds threshold "
            f"{args.max_failure_rate}",
            file=sys.stderr,
        )
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_index(args: argparse.Namespace) -> int:
    store = MemoryStore.load(args.store)
    index, skipped = build_index(store, _STRATEGIES[args.strategy], _embedder(args, args.dim))
    index.save(args.out)
    print(f"indexed {len(index)} items ({len(skipped)} skipped) -> {args.out}")
    for item_id, reason in skipped:
        print(f"  skipped {item_id}: {reason}", file=sys.stderr)
    return EXIT_OK


def _retrieval_setup(args, index_path: str | None = None) -> RetrievalSetup:
    """Retrieval settings of a run, checked before anything is mined.
    Embedding mode loads the index at ``index_path`` and checks that the
    run's embedder built it; without a path the setup carries an embedder
    of ``--dim`` and no index, which :func:`_indexed` adds."""
    mode = _MODES[args.mode]
    index = None
    embedder = None
    if mode is RetrievalMode.EMBEDDING_BASED and index_path:
        index = VectorIndex.load(index_path)
        built_by = (index.embedder_kind, index.embedder_model)
        args.embed_model = args.embed_model or index.embedder_model
        embedder = _embedder(args, index.dimension)
        if index.embedder_kind is not None and (embedder.kind, embedder.model) != built_by:
            raise ValueError(
                f"index was built by embedder {built_by}, not {(embedder.kind, embedder.model)}"
            )
    elif mode is RetrievalMode.EMBEDDING_BASED:
        embedder = _embedder(args, args.dim)
    query_parts = _query_parts(args)
    if mode is not RetrievalMode.COMPREHENSIVE:  # comprehensive retrieval ignores k
        check_count(args.k, "k")
    return RetrievalSetup(
        mode=mode,
        k=args.k,
        policy=_POLICIES[args.policy],
        index=index,
        embedder=embedder,
        query_parts=query_parts,
    )


def _indexed(args, setup: RetrievalSetup, store: MemoryStore) -> RetrievalSetup:
    """``setup`` with an index of ``store`` by its embedder, if it has one."""
    if setup.embedder is None:
        return setup
    index, _ = build_index(store, _STRATEGIES[args.strategy], setup.embedder)
    return replace(setup, index=index)


def cmd_retrieve(args: argparse.Namespace) -> int:
    store = MemoryStore.load(args.store)
    if _MODES[args.mode] is RetrievalMode.EMBEDDING_BASED and not args.index:
        raise ValueError("embedding retrieval requires --index")
    setup = _retrieval_setup(args, args.index)
    miner = AttributeMiner(_chat_backend(args), max_retries=args.max_retries)
    names = miner.mine_question(args.query).attributes if setup.reads_mined(annotation=False) else ()
    query = QueryContext(text=args.query, attribute_names=names)
    rows = []
    for hit in setup.run(store, query).hits:
        annotation = store.annotation_for(hit.item_id)
        rendered = render_annotation(annotation) if annotation else None
        rows.append({"rank": hit.rank, "id": hit.item_id, "score": hit.score, "annotation": rendered})
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for row in rows:
            suffix = f"  {row['annotation']}" if row["annotation"] else ""
            print(f"{row['rank']:>3}. {row['id']}  score={row['score']:.4f}{suffix}")
    return EXIT_OK


def _write_reports(args, payload: dict, text: str) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = {name: getattr(args, name) for name in _SNAPSHOT}
    if not args.no_timestamp:
        payload = dict(payload, timestamp=datetime.now(timezone.utc).isoformat())
    payload = dict(payload, config=snapshot)
    replace_together({
        out_dir / f"{args.task}.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        out_dir / f"{args.task}_report.txt": text + "\n",
        out_dir / "config.json": json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
    })


def _store(args, build, backend, **modes) -> MemoryStore:
    """The ``--store`` to evaluate; without one, ``build()`` mined by
    ``_miner(args, backend, **modes)``."""
    if args.store:
        return MemoryStore.load(args.store)
    store = build()
    _augment_store(store, _miner(args, backend, **modes))
    return store


def _eval_qa(args, backend) -> tuple[dict, str]:
    if args.granularity != "turn":
        # QA retrieves dialogue turns, so their annotations must be turn level.
        raise ValueError(f"--task qa needs --granularity turn, got {args.granularity}")
    check_count(args.k, "k")  # recall@k is scored in every retrieval mode
    dataset = load_conversation_dataset(args.dataset)
    setup = _retrieval_setup(args)
    store = _store(args, lambda: store_from_sessions(dataset), backend)
    result = run_qa_task(
        dataset,
        store,
        # It mines questions only, and their template ignores the mining modes.
        miner=AttributeMiner(backend, max_retries=args.max_retries, parallelism=args.parallelism),
        answer_backend=backend,
        setup=_indexed(args, setup, store),
    )
    payload = {
        "task": "qa",
        "recall": result.recall_report.to_dict(),
        "token_f1": result.f1_report.to_dict(),
        "avg_items_retrieved": result.avg_items_retrieved,
        "examples": len(result.rows),
        "errors": sum(1 for row in result.rows if row.error),
        "retrieval_misses": result.retrieval_misses,
    }
    text = result.recall_report.as_table() + "\n\n" + result.f1_report.as_table()
    return payload, text


def _eval_rec(args, backend) -> tuple[dict, str]:
    check_count(args.n, "n")
    dataset = load_recommendation_dataset(args.dataset)
    if args.n > len(dataset.dialogues):
        raise ValueError(
            f"--n {args.n} exceeds the {len(dataset.dialogues)} dialogues in the dataset"
        )
    setup = _retrieval_setup(args)
    store = _store(
        args, lambda: store_from_items(dataset.items), backend,
        perspective="entity", granularity="na",
    )
    result = run_rec_task(
        dataset,
        store,
        miner=_miner(args, backend, perspective="conversation", granularity="session"),
        rec_backend=backend,
        setup=_indexed(args, setup, store),
        n=args.n,
        k=args.k,
        seed=args.seed,
    )
    payload = {
        "task": "rec",
        "metrics": {name: report.to_dict() for name, report in sorted(result.reports.items())},
        "avg_items_retrieved": result.avg_items_retrieved,
        "dialogues": len(result.rows),
        "skipped_masking": result.skipped_masking,
    }
    text = "\n\n".join(result.reports[name].as_table() for name in sorted(result.reports))
    return payload, text


def _eval_events(args, backend) -> tuple[dict, str]:
    if args.granularity == "na":
        # Events read turns or sessions, and neither takes na annotations;
        # --granularity also picks which of the two a --store holds.
        raise ValueError("--task events needs --granularity turn or session to mine a store")
    dataset = load_conversation_dataset(args.dataset)
    store = _store(args, lambda: store_from_sessions(dataset, level=args.granularity), backend)
    result = run_event_summarization(
        dataset,
        store,
        level=_GRANULARITIES[args.granularity],
        input_mode=args.input_mode,
        summarizer=backend,
        judge=backend if args.judge else None,
    )
    payload = {
        "task": "events",
        "sessions": [asdict(row) for row in result.rows],
        "skipped": result.skipped,
    }
    lines = []
    for row in result.rows:
        if row.skipped_reason:
            lines.append(f"{row.session_id}: SKIPPED ({row.skipped_reason})")
        else:
            lines.append(f"{row.session_id}: {row.summary}")
    return payload, "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    # Task-specific defaults: question answering matches attribute values
    # when it has them and retrieves 5 turns; recommendation filters by
    # attribute name and retrieves 10 items.
    if args.policy is None:
        args.policy = "name-value" if args.task == "qa" else "name"
    if args.k is None:
        args.k = 10 if args.task == "rec" else 5
    run = {"qa": _eval_qa, "rec": _eval_rec, "events": _eval_events}[args.task]
    payload, text = run(args, _chat_backend(args))
    _write_reports(args, payload, text)
    print(text)
    if payload.get("skipped") or payload.get("skipped_masking"):
        print("warning: some inputs were skipped; see the JSON report", file=sys.stderr)
    print(f"reports written to {Path(args.out_dir)}")
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    store = MemoryStore.load(args.store)
    stats = store.compute_stats()
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    print(f"total items:      {stats.total_items}")
    print(f"annotated items:  {stats.annotated_items}")
    print(f"avg attributes:   {stats.avg_attributes:.2f}")
    print(f"failure rate:     {stats.failure_rate:.4f}")
    print("top attributes:")
    for name, frequency in stats.top_attributes[:5]:
        print(f"  {name:<20} {frequency}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="memaug", description=__doc__)
    parser.add_argument("--config", help="INI config file with a [memaug] section")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    # Flag groups, each declared once; a command takes the groups it reads.
    remote = argparse.ArgumentParser(add_help=False)  # any server call
    remote.add_argument("--backend", choices=["mock", "remote"], default="mock")
    remote.add_argument("--endpoint")
    remote.add_argument("--api-key-env", dest="api_key_env", default="MEMAUG_API_KEY")
    remote.add_argument("--timeout", type=float, default=30.0)
    chat = argparse.ArgumentParser(add_help=False, parents=[remote])
    chat.add_argument("--model", default="mock")
    chat.add_argument("--max-retries", dest="max_retries", type=int, default=2)
    chat.add_argument("--mock-rules", help="JSON rule table for the mock backend")
    mining = argparse.ArgumentParser(add_help=False)
    mining.add_argument("--perspective", choices=list(_PERSPECTIVES), default="conversation")
    mining.add_argument("--granularity", choices=list(_GRANULARITIES), default="turn")
    mining.add_argument("--prioritization", choices=list(_PRIORITIZATIONS), default="basic")
    mining.add_argument("--parallelism", type=int, default=1)
    embed_help = "embedding model of the remote backend, separate from the chat model"
    indexing = argparse.ArgumentParser(add_help=False)
    indexing.add_argument("--strategy", choices=list(_STRATEGIES), default="averaged")
    indexing.add_argument("--dim", type=int, default=8)
    indexing.add_argument("--embed-model", dest="embed_model", help=embed_help)

    p_augment = sub.add_parser(
        "augment", parents=[chat, mining], help="mine attribute annotations for a corpus"
    )
    p_augment.add_argument("--input", required=True, help="input items JSONL")
    p_augment.add_argument("--store", required=True, help="output store JSONL")
    p_augment.add_argument("--max-failure-rate", dest="max_failure_rate", type=float)
    p_augment.add_argument("--strict", action="store_true", help="abort on malformed input lines")
    p_augment.set_defaults(func=cmd_augment)

    p_index = sub.add_parser(
        "index", parents=[remote, indexing], help="build and save a vector index"
    )
    p_index.add_argument("--store", required=True)
    p_index.add_argument("--out", required=True)
    p_index.set_defaults(func=cmd_index)

    p_retrieve = sub.add_parser("retrieve", parents=[chat], help="query a store")
    p_retrieve.add_argument("query", help="query text")
    p_retrieve.add_argument("--store", required=True)
    p_retrieve.add_argument("--mode", choices=list(_MODES), default="embedding")
    p_retrieve.add_argument("--index")
    p_retrieve.add_argument("--k", type=int, default=5)
    p_retrieve.add_argument("--policy", choices=list(_POLICIES), default="name")
    p_retrieve.add_argument("--query-parts", dest="query_parts", default="text,attributes")
    p_retrieve.add_argument("--json", action="store_true")
    p_retrieve.add_argument("--embed-model", dest="embed_model",
                            help=embed_help + " (default: the one the index records)")
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_eval = sub.add_parser(
        "eval", parents=[chat, mining, indexing], help="run an evaluation task and write reports"
    )
    p_eval.add_argument("--task", choices=["qa", "rec", "events"], required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--store", help="pre-augmented store (else built from the dataset)")
    p_eval.add_argument("--mode", choices=list(_MODES), default="embedding")
    p_eval.add_argument("--policy", choices=list(_POLICIES))  # per task: cmd_eval
    p_eval.add_argument("--query-parts", dest="query_parts", default="text,attributes")
    p_eval.add_argument("--k", type=int)  # per task: cmd_eval
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--n", type=int, default=10)
    p_eval.add_argument("--input-mode", dest="input_mode",
                        choices=["annotations_only", "annotations_plus_dialogues"],
                        default="annotations_only")
    p_eval.add_argument("--judge", action="store_true", help="score summaries with a judge backend")
    p_eval.add_argument("--out-dir", dest="out_dir", required=True)
    p_eval.add_argument("--no-timestamp", dest="no_timestamp", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="print corpus statistics")
    p_stats.add_argument("--store", required=True)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            argv = _with_config(argv, args.config, parser.commands[args.command])
            args = parser.parse_args(argv)
        return args.func(args)
    except (FileNotFoundError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TransportError, AugmentFailure, BackendRefusal) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (EmptyQueryError, ValueError, MemaugError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
