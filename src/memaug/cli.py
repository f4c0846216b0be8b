"""Command-line operator surface.

Subcommands: ``augment`` (mine attributes for a corpus), ``index`` (build
and save a vector index), ``retrieve`` (query a store), ``eval`` (run the
qa/rec/events pipelines and write reports), ``stats`` (corpus statistics).

Defaults come from an optional INI config file (section ``[memaug]``, keys
named like the long flags), which explicit flags override. Secrets are only
ever read from environment variables.

Exit codes: 0 success, 1 usage or query error, 2 IO/schema error, 3 backend
failure, 4 augmentation failure rate above threshold.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, asdict, replace
from datetime import datetime, timezone
from pathlib import Path

from .annotations import Granularity, Perspective, Prioritization, render_annotation
from .backends import BackendKind, BackendProfile, make_chat_backend, make_embedder
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
    subcommand has no option for are skipped. A file configparser cannot
    read raises :class:`SchemaError`.
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
        parser.read(source)
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
    except configparser.Error as exc:
        raise SchemaError(f"config file {source}: {exc}") from exc
    return tokens


def _with_config(argv: list[str], path: str, command: argparse.ArgumentParser) -> list[str]:
    """``argv`` with the config file's flags right after the subcommand, so
    that flags given on the command line come later and win."""
    at = 0
    while argv[at].startswith("-"):  # --config PATH or --config=PATH
        at += 1 if "=" in argv[at] else 2
    return argv[: at + 1] + _config_tokens(path, command) + argv[at + 1 :]


@dataclass
class RunConfig:
    """Resolved settings for a run; snapshotted next to eval reports."""

    command: str
    backend: str = "mock"
    model: str = "mock"
    embed_model: str | None = None
    endpoint: str | None = None
    api_key_env: str = "MEMAUG_API_KEY"
    mode: str = "embedding"
    strategy: str = "averaged"
    perspective: str = "conversation"
    granularity: str = "turn"
    prioritization: str = "basic"
    policy: str = "name"
    query_parts: str = "text,attributes"
    k: int = 5
    n: int = 10
    seed: int = 0
    dim: int = 8
    parallelism: int = 1
    max_retries: int = 2
    timeout: float = 30.0

    def profile(self) -> BackendProfile:
        kind = BackendKind.MOCK if self.backend == "mock" else BackendKind.REMOTE_CHAT
        return BackendProfile(
            kind=kind,
            model_id=self.model,
            endpoint=self.endpoint if kind is BackendKind.REMOTE_CHAT else None,
            timeout=self.timeout,
            api_key_env=self.api_key_env,
        )

    def embedder(self, dimension: int):
        """The embedder for this run: the hash embedder under the mock backend,
        else the remote ``embed_model``, which is never the chat ``model``."""
        profile = self.profile()
        if profile.kind is BackendKind.REMOTE_CHAT:
            if not self.embed_model:
                raise ValueError("remote embeddings need --embed-model")
            profile = replace(profile, model_id=self.embed_model)
        return make_embedder(profile, dimension=dimension)

    def parts(self) -> tuple[QueryPart, ...]:
        mapping = {"text": QueryPart.TEXT, "attributes": QueryPart.ATTRIBUTES}
        names = [p.strip() for p in self.query_parts.split(",") if p.strip()]
        try:
            return tuple(mapping[name] for name in names)
        except KeyError as exc:
            raise ValueError(f"unknown query part {exc.args[0]!r}") from exc


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    for key in vars(config):
        if hasattr(args, key) and getattr(args, key) is not None:
            setattr(config, key, getattr(args, key))
    return config


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


def _chat_backend(config: RunConfig, args: argparse.Namespace):
    rules, capture = _load_mock_rules(getattr(args, "mock_rules", None))
    return make_chat_backend(config.profile(), rules=rules, capture_persons=capture)


def _miner(config: RunConfig, backend) -> AttributeMiner:
    return AttributeMiner(
        backend,
        perspective=_PERSPECTIVES[config.perspective],
        granularity=_GRANULARITIES[config.granularity],
        prioritization=_PRIORITIZATIONS[config.prioritization],
        max_retries=config.max_retries,
        parallelism=config.parallelism,
    )


def _augment_store(store: MemoryStore, miner: AttributeMiner):
    items = list(store)
    results, report = miner.mine_corpus(items)
    for item_id, annotation in results:
        store.attach_annotation(item_id, annotation)
    store.augmentation_report = report
    return report


def cmd_augment(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    warnings: list[str] = []
    store = MemoryStore.load(args.input, strict=args.strict, warnings=warnings)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    report = _augment_store(store, _miner(config, _chat_backend(config, args)))
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
    config = _config_from_args(args)
    store = MemoryStore.load(args.store)
    embedder = config.embedder(config.dim)
    index, skipped = build_index(store, _STRATEGIES[config.strategy], embedder)
    index.save(args.out)
    print(f"indexed {len(index)} items ({len(skipped)} skipped) -> {args.out}")
    for item_id, reason in skipped:
        print(f"  skipped {item_id}: {reason}", file=sys.stderr)
    return EXIT_OK


def _retrieval_setup(
    config: RunConfig, store: MemoryStore, index_path: str | None = None
) -> RetrievalSetup:
    """Retrieval settings of a run. Embedding mode loads the index at
    ``index_path`` and checks that the run's embedder built it, or else
    builds an index of ``store``."""
    mode = _MODES[config.mode]
    index = None
    embedder = None
    if mode is RetrievalMode.EMBEDDING_BASED and index_path:
        index = VectorIndex.load(index_path)
        built_by = (index.embedder_kind, index.embedder_model)
        config.embed_model = config.embed_model or index.embedder_model
        embedder = config.embedder(index.dimension)
        if index.embedder_kind is not None and (embedder.kind, embedder.model) != built_by:
            raise ValueError(
                f"index was built by embedder {built_by}, not {(embedder.kind, embedder.model)}"
            )
    elif mode is RetrievalMode.EMBEDDING_BASED:
        embedder = config.embedder(config.dim)
        index, _ = build_index(store, _STRATEGIES[config.strategy], embedder)
    return RetrievalSetup(
        mode=mode,
        k=config.k,
        policy=_POLICIES[config.policy],
        index=index,
        embedder=embedder,
        query_parts=config.parts(),
    )


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    store = MemoryStore.load(args.store)
    if _MODES[config.mode] is RetrievalMode.EMBEDDING_BASED and not args.index:
        raise ValueError("embedding retrieval requires --index")
    setup = _retrieval_setup(config, store, args.index)
    query = QueryContext(text=args.query)
    if setup.mode is not RetrievalMode.COMPREHENSIVE:
        mined = _miner(config, _chat_backend(config, args)).mine_question(args.query)
        query = QueryContext(
            text=args.query, attribute_names=mined.attributes, persons=mined.persons
        )
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


def _write_reports(out_dir: Path, name: str, payload: dict, text: str, config: RunConfig, *, timestamp: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    snapshot = asdict(config)
    if timestamp:
        payload = dict(payload, timestamp=datetime.now(timezone.utc).isoformat())
    payload = dict(payload, config=snapshot)
    replace_together({
        out_dir / f"{name}.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        out_dir / f"{name}_report.txt": text + "\n",
        out_dir / "config.json": json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
    })


def _store(args, build, config: RunConfig, backend) -> MemoryStore:
    """The ``--store`` to evaluate; without one, ``build()`` mined by ``config``'s miner."""
    if args.store:
        return MemoryStore.load(args.store)
    store = build()
    _augment_store(store, _miner(config, backend))
    return store


def _eval_qa(args, config: RunConfig, backend) -> tuple[dict, str]:
    if config.granularity != "turn":
        # QA retrieves dialogue turns, so their annotations must be turn level.
        raise ValueError(f"--task qa needs --granularity turn, got {config.granularity}")
    dataset = load_conversation_dataset(args.dataset)
    miner = _miner(config, backend)
    store = _store(args, lambda: store_from_sessions(dataset), config, backend)
    result = run_qa_task(
        dataset,
        store,
        miner=miner,
        answer_backend=backend,
        setup=_retrieval_setup(config, store),
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


def _eval_rec(args, config: RunConfig, backend) -> tuple[dict, str]:
    dataset = load_recommendation_dataset(args.dataset)
    if config.n > len(dataset.dialogues):
        raise ValueError(
            f"--n {config.n} exceeds the {len(dataset.dialogues)} dialogues in the dataset"
        )
    item_config = replace(config, perspective="entity", granularity="na")
    store = _store(args, lambda: store_from_items(dataset.items), item_config, backend)
    dialogue_config = replace(config, perspective="conversation", granularity="session")
    result = run_rec_task(
        dataset,
        store,
        miner=_miner(dialogue_config, backend),
        rec_backend=backend,
        setup=_retrieval_setup(config, store),
        n=config.n,
        k=config.k,
        seed=config.seed,
    )
    payload = {
        "task": "rec",
        "metrics": {name: report.to_dict() for name, report in sorted(result.reports.items())},
        "avg_items_retrieved": result.avg_items_retrieved,
        "dialogues": len(result.rows),
        "skipped_masking": result.skipped_masking,
    }
    text = "\n\n".join(
        result.reports[name].as_table() for name in sorted(result.reports)
    )
    return payload, text


def _eval_events(args, config: RunConfig, backend) -> tuple[dict, str]:
    if config.granularity == "na":
        # Events read turns or sessions, and neither takes na annotations;
        # --granularity also picks which of the two a --store holds.
        raise ValueError("--task events needs --granularity turn or session to mine a store")
    dataset = load_conversation_dataset(args.dataset)
    store = _store(
        args, lambda: store_from_sessions(dataset, level=config.granularity), config, backend
    )
    result = run_event_summarization(
        dataset,
        store,
        level=_GRANULARITIES[config.granularity],
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
    if args.k is None and args.task == "rec":
        args.k = 10
    config = _config_from_args(args)
    run = {"qa": _eval_qa, "rec": _eval_rec, "events": _eval_events}[args.task]
    payload, text = run(args, config, _chat_backend(config, args))
    out_dir = Path(args.out_dir)
    _write_reports(
        out_dir, args.task, payload, text, config, timestamp=not args.no_timestamp
    )
    print(text)
    if payload.get("skipped") or payload.get("skipped_masking"):
        print("warning: some inputs were skipped; see the JSON report", file=sys.stderr)
    print(f"reports written to {out_dir}")
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

    def common(p: _Parser) -> None:
        p.add_argument("--backend", choices=["mock", "remote"], default=None)
        p.add_argument("--model", default=None)
        p.add_argument("--endpoint", default=None)
        p.add_argument("--api-key-env", dest="api_key_env", default=None)
        p.add_argument("--max-retries", dest="max_retries", type=int, default=None)
        p.add_argument("--timeout", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mock-rules", dest="mock_rules", default=None,
                       help="JSON rule table for the mock backend")

    embed_help = "embedding model of the remote backend, separate from the chat --model"

    p_augment = sub.add_parser("augment", help="mine attribute annotations for a corpus")
    common(p_augment)
    p_augment.add_argument("--input", required=True, help="input items JSONL")
    p_augment.add_argument("--store", required=True, help="output store JSONL")
    p_augment.add_argument("--perspective", choices=list(_PERSPECTIVES), default=None)
    p_augment.add_argument("--granularity", choices=list(_GRANULARITIES), default=None)
    p_augment.add_argument("--prioritization", choices=list(_PRIORITIZATIONS), default=None)
    p_augment.add_argument("--parallelism", type=int, default=None)
    p_augment.add_argument("--max-failure-rate", dest="max_failure_rate", type=float, default=None)
    p_augment.add_argument("--strict", action="store_true", help="abort on malformed input lines")
    p_augment.set_defaults(func=cmd_augment)

    p_index = sub.add_parser("index", help="build and save a vector index")
    common(p_index)
    p_index.add_argument("--store", required=True)
    p_index.add_argument("--out", required=True)
    p_index.add_argument("--strategy", choices=list(_STRATEGIES), default=None)
    p_index.add_argument("--dim", type=int, default=None)
    p_index.add_argument("--embed-model", dest="embed_model", default=None, help=embed_help)
    p_index.set_defaults(func=cmd_index)

    p_retrieve = sub.add_parser("retrieve", help="query a store")
    common(p_retrieve)
    p_retrieve.add_argument("query", help="query text")
    p_retrieve.add_argument("--store", required=True)
    p_retrieve.add_argument("--mode", choices=list(_MODES), default=None)
    p_retrieve.add_argument("--index", default=None)
    p_retrieve.add_argument("--k", type=int, default=None)
    p_retrieve.add_argument("--policy", choices=list(_POLICIES), default=None)
    p_retrieve.add_argument("--query-parts", dest="query_parts", default=None)
    p_retrieve.add_argument("--json", action="store_true")
    p_retrieve.add_argument("--embed-model", dest="embed_model", default=None,
                            help=embed_help + " (default: the one the index records)")
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_eval = sub.add_parser("eval", help="run an evaluation task and write reports")
    common(p_eval)
    p_eval.add_argument("--task", choices=["qa", "rec", "events"], required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--store", default=None, help="pre-augmented store (else built from the dataset)")
    p_eval.add_argument("--mode", choices=list(_MODES), default=None)
    p_eval.add_argument("--strategy", choices=list(_STRATEGIES), default=None)
    p_eval.add_argument("--policy", choices=list(_POLICIES), default=None)
    p_eval.add_argument("--query-parts", dest="query_parts", default=None)
    p_eval.add_argument("--perspective", choices=list(_PERSPECTIVES), default=None)
    p_eval.add_argument("--granularity", choices=list(_GRANULARITIES), default=None)
    p_eval.add_argument("--prioritization", choices=list(_PRIORITIZATIONS), default=None)
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.add_argument("--n", type=int, default=None)
    p_eval.add_argument("--dim", type=int, default=None)
    p_eval.add_argument("--embed-model", dest="embed_model", default=None, help=embed_help)
    p_eval.add_argument("--parallelism", type=int, default=None)
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
