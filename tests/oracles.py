"""Independent brute-force oracles used to check the fast implementations.

Everything here except :func:`single_pass_search`, :func:`load_store_oracle`,
:func:`store_line_oracle`, :func:`build_index_oracle`, the two parser oracles,
the per-turn mining oracle and the two task-runner oracles is deliberately
written in plain Python (explicit loops, ``math`` instead of numpy) so the
oracle shares no code path with the implementation it checks. The store-line
oracle is the record-dict ``json.dumps`` that assembled lines replaced. The
task-runner oracles are the serial,
hand-accumulated runners the fan-out replaced, and decide for themselves when
a query is mined; the per-turn mining oracle is the one-call-per-item corpus
miner that one call per session replaced; the index-build oracle is the
one-batch build that block-wise building replaced; the event-pair oracle is
the word-window matcher that the one-word test replaced. The three
frozen-dataclass oracles are the generated-``__init__`` bodies of
``AttributePair``, ``Annotation`` and ``MemoryItem`` that hand-written
constructors replaced.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from memaug import (
    Annotation,
    AttributePair,
    DuplicateIdError,
    EmptyQueryError,
    Granularity,
    GranularityMismatchError,
    ItemKind,
    MatchPolicy,
    MemoryItem,
    MemoryStore,
    ParseError,
    Perspective,
    Prioritization,
    RetrievalMode,
    SchemaError,
    TurnScopedAnnotation,
    normalize_name,
)
from memaug.datasets import mask_dialogue
from memaug.errors import (
    AugmentFailure,
    EmptyAnnotationError,
    LabelNotFoundError,
    LengthBudgetExceeded,
    MemaugError,
    ZeroVectorError,
)
from memaug.metrics import MetricReport, ndcg_at_k, normalize_title, recall_at_k, token_f1
from memaug.mining import AugmentationReport, fan_out
from memaug.retrieval import (
    EmbeddingStrategy,
    QueryContext,
    QueryPart,
    RankedHit,
    RetrievalResult,
    VectorIndex,
    _annotation_texts,
    _average,
)
from memaug.store import check_granularity
from memaug.tasks import (
    REC_CUTOFFS,
    QAResultRow,
    QATaskResult,
    RecResultRow,
    RecTaskResult,
    _answer_context,
    _candidate_block,
    parse_ranked_titles,
)
from memaug.templates import ANSWER_GENERATION, RECOMMENDATION, build_prompt

logger = logging.getLogger("memaug.tasks")


_MASK64 = (1 << 64) - 1


def splitmix_components(token, dimension):
    """Hash-embedder components of one token, one scalar step at a time.

    FNV-1a 64 over the token's UTF-8 bytes seeds a SplitMix64 stream; each
    draw keeps its top 53 bits, scaled into [-1, 1).
    """
    state = 0xCBF29CE484222325
    for byte in token.encode("utf-8"):
        state = ((state ^ byte) * 0x100000001B3) & _MASK64
    out = []
    for _ in range(dimension):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.append(((z >> 11) / float(1 << 53)) * 2.0 - 1.0)
    return out


def brute_force_topk(ids, vectors, query, k):
    """Full sort of all cosine scores, ties broken by ascending id."""
    query_norm = math.sqrt(sum(x * x for x in query))
    scored = []
    for item_id, vector in zip(ids, vectors):
        dot = sum(a * b for a, b in zip(vector, query))
        norm = math.sqrt(sum(a * a for a in vector))
        scored.append((-(dot / (norm * query_norm)), item_id))
    scored.sort()
    return [item_id for _, item_id in scored[:k]]


def single_pass_search(index, query, k):
    """The float64 single-pass search that the float32 first pass replaced.

    One float64 gemv ranks every row; rows within 1e-9 of its k-th score are
    re-scored row-wise, clipped and sorted on (-score, id). ``VectorIndex``
    must return these hits with bitwise-equal scores.
    """
    vector = np.asarray(query, dtype=np.float64)
    qnorm = float(np.linalg.norm(vector))
    n = len(index.item_ids)
    if k >= n:
        band = np.arange(n)
    else:
        approx = (index.vectors @ vector) / (index.norms * qnorm)
        kth = np.partition(approx, n - k)[n - k]
        band = np.flatnonzero(approx >= kth - 1e-9)
    scores = (index.vectors[band] * vector).sum(axis=1) / (index.norms[band] * qnorm)
    np.clip(scores, -1.0, 1.0, out=scores)
    ids = [index.item_ids[i] for i in band]
    order = sorted(range(len(band)), key=lambda j: (-scores[j], ids[j]))[:k]
    hits = tuple(
        RankedHit(item_id=ids[j], score=float(scores[j]), rank=rank)
        for rank, j in enumerate(order, start=1)
    )
    return RetrievalResult(hits=hits, mode=RetrievalMode.EMBEDDING_BASED)


def build_index_oracle(store, strategy, embedder):
    """The index build that embedded every distinct text in one batch.

    Each item's rows are looked up in that batch and averaged one item at a
    time through ``_average``; ``build_index`` must return the same ids,
    bitwise-equal vectors and the same skip report.
    """
    units = []  # (item id, texts or skip reason)
    for item, annotation in store.entries():
        if strategy is EmbeddingStrategy.RAW_CONTENT:
            units.append((item.id, [item.content]))
        elif annotation is None:
            units.append((item.id, "no annotation"))
        else:
            try:
                units.append((item.id, _annotation_texts(annotation, strategy)))
            except EmptyAnnotationError as exc:
                units.append((item.id, str(exc)))
    distinct = list(
        dict.fromkeys(t for _, texts in units if isinstance(texts, list) for t in texts)
    )
    errors = {}
    try:
        rows = embedder.embed_many(distinct)
    except ZeroVectorError:
        for text in distinct:
            try:
                embedder.embed_many([text])
            except ZeroVectorError as exc:
                errors[text] = str(exc)
        distinct = [text for text in distinct if text not in errors]
        rows = embedder.embed_many(distinct)
    position = {text: i for i, text in enumerate(distinct)}

    ids, vectors, skipped = [], [], []
    for item_id, texts in units:
        if isinstance(texts, str):
            skipped.append((item_id, texts))
            continue
        failed = [errors[text] for text in texts if text in errors]
        if failed:
            skipped.append((item_id, failed[0]))
            continue
        item_rows = rows[[position[text] for text in texts]]
        if strategy is EmbeddingStrategy.AVERAGED_PAIRS:
            try:
                vector = _average(item_rows)
            except ZeroVectorError as exc:
                skipped.append((item_id, str(exc)))
                continue
        else:
            vector = item_rows[0]
        ids.append(item_id)
        vectors.append(vector)
    dimension = rows.shape[1] if len(rows) else getattr(embedder, "dimension", 0) or 0
    index = VectorIndex(
        item_ids=tuple(ids),
        vectors=np.array(vectors) if vectors else np.zeros((0, dimension)),
        strategy=strategy,
        dimension=dimension,
        embedder_kind=getattr(embedder, "kind", None),
        embedder_model=getattr(embedder, "model", None),
    )
    return index, skipped


def attribute_ranking(store, query, policy, k):
    """Attribute retrieval by sorting every candidate on (-count, id).

    Every candidate gets a matched-term count and the whole candidate set is
    sorted before the first k are kept.
    """
    terms = query.attribute_queries()
    if not terms:
        raise EmptyQueryError("query has no attributes to match")
    matches: list[set[str]] = [
        store.lookup_by_attribute(name, value, policy) for name, value in terms
    ]
    if policy is MatchPolicy.NAME_AND_VALUE:
        candidates = set.intersection(*matches) if matches else set()
        if not candidates:
            candidates = set.union(*matches)
    else:
        candidates = set.union(*matches)
    counts = {item_id: 0 for item_id in candidates}
    for match in matches:
        for item_id in match & candidates:
            counts[item_id] += 1
    ranked = sorted(candidates, key=lambda item_id: (-counts[item_id], item_id))
    if k is not None:
        ranked = ranked[:k]
    hits = tuple(
        RankedHit(item_id=item_id, score=counts[item_id] / len(terms), rank=rank)
        for rank, item_id in enumerate(ranked, start=1)
    )
    return RetrievalResult(hits=hits, mode=RetrievalMode.ATTRIBUTE_BASED)


def oracle_recall(retrieved, gold, k):
    hits = 0
    for item in gold:
        found = False
        for candidate in list(retrieved)[:k]:
            if candidate == item:
                found = True
        if found:
            hits += 1
    return hits / len(gold)


def oracle_ndcg(retrieved, gold, k):
    gold = set(gold)
    if not gold:
        return 0.0
    dcg = 0.0
    for index in range(min(k, len(retrieved))):
        if retrieved[index] in gold:
            dcg += 1.0 / (math.log(index + 2) / math.log(2))
    ideal = 0.0
    for index in range(min(k, len(gold))):
        ideal += 1.0 / (math.log(index + 2) / math.log(2))
    return dcg / ideal


def oracle_f1(prediction, gold):
    pred_tokens = prediction.casefold().split()
    gold_tokens = gold.casefold().split()
    overlap = 0
    remaining = list(gold_tokens)
    for token in pred_tokens:
        if token in remaining:
            remaining.remove(token)
            overlap += 1
    if not pred_tokens or overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def store_line_oracle(item, annotation):
    """The line ``MemoryStore.save`` writes for an item, as it was written
    before lines were assembled without a record dict: ``json.dumps`` of the
    record, null fields left out."""
    record = {"id": item.id, "kind": item.kind.value}
    for key in ("content", "speaker", "session_id", "turn_id", "timestamp"):
        value = getattr(item, key)
        if value is not None:
            record[key] = value
    if annotation is not None:
        record["annotation"] = {
            "pairs": [{"name": p.name, "value": p.value} for p in annotation.pairs],
            "perspective": annotation.perspective.value,
            "granularity": annotation.granularity.value,
            "prioritization": annotation.prioritization.value,
        }
    return json.dumps(record, ensure_ascii=False) + "\n"


def load_store_oracle(path, *, strict=True, warnings=None):
    """``MemoryStore.load`` as it was before the one-pass load.

    Each line is decoded, built into an item and annotation with the public
    constructors, and inserted with the public ``write``, which makes the
    granularity and duplicate-id checks. Lines whose fields have the wrong
    JSON type are loaded as they come, or crash with whatever the
    constructors raise.
    """
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"store file not found: {source}")
    store = MemoryStore()
    with source.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                item, annotation = _record_oracle(record)
                store.write(item, annotation)
            except (ValueError, KeyError, TypeError, DuplicateIdError, GranularityMismatchError) as exc:
                if strict:
                    raise SchemaError(str(exc), line=line_no) from exc
                if warnings is not None:
                    warnings.append(f"line {line_no}: skipped ({exc})")
    report_path = source.with_name(source.name + ".report.json")
    if report_path.exists():
        store.augmentation_report = AugmentationReport.from_dict(
            json.loads(report_path.read_text(encoding="utf-8"))
        )
    return store


def _record_oracle(record):
    if not isinstance(record, dict) or "id" not in record or "kind" not in record:
        raise ValueError("record must be an object with 'id' and 'kind'")
    item = MemoryItem(
        id=record["id"],
        kind=ItemKind(record["kind"]),
        content=record.get("content", ""),
        speaker=record.get("speaker"),
        session_id=record.get("session_id"),
        turn_id=record.get("turn_id"),
        timestamp=record.get("timestamp"),
    )
    annotation = None
    data = record.get("annotation")
    if data is not None:
        try:
            annotation = Annotation(
                pairs=tuple(AttributePair(p["name"], p["value"]) for p in data["pairs"]),
                perspective=Perspective(data["perspective"]),
                granularity=Granularity(data["granularity"]),
                prioritization=Prioritization(data["prioritization"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed annotation record: {exc}") from exc
    return item, annotation


# The frozen-dataclass bodies of the three record types, as they were before
# their constructors were written by hand. Each takes its type's qualified
# name, so equal field values give equal reprs and hashes.


@dataclass(frozen=True, slots=True)
class AttributePairOracle:
    __qualname__ = "AttributePair"

    name: str
    value: str

    def __post_init__(self):
        if not (isinstance(self.name, str) and isinstance(self.value, str)):
            types = f"{type(self.name).__name__} and {type(self.value).__name__}"
            raise TypeError(f"pair name and value must be strings, got {types}")
        object.__setattr__(self, "name", normalize_name(self.name))
        object.__setattr__(self, "value", self.value.strip())
        if not self.name:
            raise ValueError("attribute name is empty after normalization")
        if "[" in self.name or "]" in self.name:
            raise ValueError(f"attribute name may not contain '[' or ']': {self.name!r}")
        if not self.value or self.value.casefold() == "none":
            raise ValueError(f"attribute value may not be empty or 'none': {self.value!r}")
        if "<" in self.value or ">" in self.value:
            raise ValueError(f"attribute value may not contain '<' or '>': {self.value!r}")


@dataclass(frozen=True, slots=True)
class AnnotationOracle:
    __qualname__ = "Annotation"

    pairs: tuple = ()
    perspective: Perspective = Perspective.CONVERSATION_CENTRIC
    granularity: Granularity = Granularity.NOT_APPLICABLE
    prioritization: Prioritization = Prioritization.BASIC

    def __post_init__(self):
        seen: set[tuple[str, str]] = set()
        deduped = []
        for pair in self.pairs:
            key = (pair.name, pair.value)
            if key not in seen:
                seen.add(key)
                deduped.append(pair)
        object.__setattr__(self, "pairs", tuple(deduped))

    @classmethod
    def from_dict(cls, data: dict) -> "AnnotationOracle":
        try:
            return cls(
                pairs=tuple([AttributePairOracle(pair["name"], pair["value"]) for pair in data["pairs"]]),
                perspective=Perspective(data["perspective"]),
                granularity=Granularity(data["granularity"]),
                prioritization=Prioritization(data["prioritization"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed annotation record: {exc}") from exc


_ORACLE_TEXT_FIELDS = (
    ("id", ""), ("content", ""),
    ("speaker", None), ("session_id", None), ("turn_id", None), ("timestamp", None),
)
_ORACLE_ITEM_KINDS = {kind.value: kind for kind in ItemKind}


@dataclass(frozen=True, slots=True)
class MemoryItemOracle:
    __qualname__ = "MemoryItem"

    id: str
    kind: ItemKind
    content: str
    speaker: str | None = None
    session_id: str | None = None
    turn_id: str | None = None
    timestamp: str | None = None

    def __post_init__(self):
        for key, missing in _ORACLE_TEXT_FIELDS:
            value = getattr(self, key)
            if not isinstance(value, str) and (value is not None or missing is not None):
                raise TypeError(f"field {key!r} must be a string, got {type(value).__name__}")
        if not isinstance(self.kind, ItemKind):
            try:
                kind = _ORACLE_ITEM_KINDS[self.kind]
            except (KeyError, TypeError):  # No kind has this value: the enum says so.
                kind = ItemKind(self.kind)
            object.__setattr__(self, "kind", kind)
        if not self.id:
            raise ValueError("item id must be non-empty")
        if self.kind is ItemKind.DIALOGUE_TURN and not (self.session_id and self.turn_id):
            raise ValueError("dialogue turns require session_id and turn_id")
        if self.kind is ItemKind.SESSION and not self.session_id:
            raise ValueError("sessions require session_id")


def _oracle_warn(warnings: list[str] | None, position: int, reason: str) -> None:
    if warnings is not None:
        warnings.append(f"{reason} (position {position})")


def _oracle_scan_pair(
    text: str,
    i: int,
    *,
    strict: bool,
    warnings: list[str] | None,
    base: int = 0,
) -> tuple[AttributePair | None, int]:
    """Scan one ``[name]<value>`` starting at ``text[i] == '['``.

    Returns (pair, next_index). ``pair`` is None when the span was dropped:
    either malformed (lenient mode) or carrying an empty/"none" value, which
    the surface syntax cannot represent and is skipped by design.
    """
    n = len(text)
    close = text.find("]", i + 1)
    if close == -1:
        if strict:
            raise ParseError(base + i, "unclosed attribute bracket")
        _oracle_warn(warnings, base + i, "skipped span with unclosed attribute bracket")
        return None, n
    name_raw = text[i + 1 : close]
    j = close + 1
    while j < n and text[j].isspace():
        j += 1
    if j >= n or text[j] != "<":
        if strict:
            raise ParseError(base + i, "attribute name not followed by <value>")
        _oracle_warn(warnings, base + i, "skipped attribute without a <value>")
        return None, close + 1
    vclose = text.find(">", j + 1)
    if vclose == -1:
        if strict:
            raise ParseError(base + j, "unclosed value bracket")
        _oracle_warn(warnings, base + j, "skipped span with unclosed value bracket")
        return None, n
    value_raw = text[j + 1 : vclose]
    next_i = vclose + 1
    if "<" in value_raw:
        if strict:
            raise ParseError(base + j, "'<' inside value")
        _oracle_warn(warnings, base + j, "skipped value containing '<'")
        return None, next_i
    name = normalize_name(name_raw)
    if not name:
        if strict:
            raise ParseError(base + i, "empty attribute name")
        _oracle_warn(warnings, base + i, "skipped pair with empty attribute name")
        return None, next_i
    if "[" in name:
        if strict:
            raise ParseError(base + i, "'[' inside attribute name")
        _oracle_warn(warnings, base + i, "skipped pair with '[' inside its name")
        return None, next_i
    value = value_raw.strip()
    if not value or value.casefold() == "none":
        # Unrepresentable content; mirrors the prompt instruction to skip
        # attributes without real values.
        return None, next_i
    return AttributePair(name, value), next_i


def _oracle_scan_pairs(
    text: str,
    start: int,
    stop: int,
    *,
    strict: bool,
    warnings: list[str] | None,
    base: int = 0,
    terminator: str | None = None,
) -> tuple[list[AttributePair], int]:
    """Scan pairs in ``text[start:stop]``; stop early at ``terminator``."""
    pairs: list[AttributePair] = []
    i = start
    while i < stop:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if terminator is not None and ch == terminator:
            return pairs, i
        if ch != "[":
            if strict:
                raise ParseError(base + i, "stray text outside [name]<value> pair")
            _oracle_warn(warnings, base + i, "skipped stray text between pairs")
            nxt = text.find("[", i + 1, stop)
            term = text.find(terminator, i + 1, stop) if terminator else -1
            if term != -1 and (nxt == -1 or term < nxt):
                return pairs, term
            if nxt == -1:
                return pairs, stop
            i = nxt
            continue
        pair, i = _oracle_scan_pair(text, i, strict=strict, warnings=warnings, base=base)
        if pair is not None:
            pairs.append(pair)
    return pairs, stop


def parse_annotation_oracle(
    text: str,
    *,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> Annotation:
    """``parse_annotation`` as it was before strict mode raised the first
    problem of the lenient scan: every rejection is written twice, as a
    strict ``raise`` and as a lenient warning with its own wording."""
    pairs, _ = _oracle_scan_pairs(text, 0, len(text), strict=strict, warnings=warnings)
    return Annotation(pairs=tuple(pairs))


def _oracle_parse_group(
    text: str,
    i: int,
    *,
    strict: bool,
    warnings: list[str] | None,
) -> tuple[TurnScopedAnnotation | None, int]:
    """Parse one ``{speaker:[dialog_id]:pairs}`` group at ``text[i] == '{'``."""
    n = len(text)
    colon = text.find(":", i + 1)
    brace = text.find("}", i + 1)
    if colon == -1 or (brace != -1 and brace < colon):
        if strict:
            raise ParseError(i, "turn group is missing its speaker segment")
        _oracle_warn(warnings, i, "skipped turn group without a speaker segment")
        return None, (brace + 1 if brace != -1 else n)
    speaker = text[i + 1 : colon].strip()
    if not speaker:
        if strict:
            raise ParseError(i, "turn group has an empty speaker")
        _oracle_warn(warnings, i, "skipped turn group with an empty speaker")
        return None, colon + 1
    j = colon + 1
    while j < n and text[j].isspace():
        j += 1
    if j >= n or text[j] != "[":
        if strict:
            raise ParseError(j if j < n else n, "turn group is missing its dialog id segment")
        _oracle_warn(warnings, i, "skipped turn group without a dialog id segment")
        return None, j
    id_close = text.find("]", j + 1)
    if id_close == -1:
        if strict:
            raise ParseError(j, "unclosed dialog id bracket")
        _oracle_warn(warnings, j, "skipped turn group with an unclosed dialog id")
        return None, n
    dialog_id = text[j + 1 : id_close].strip()
    if not dialog_id:
        if strict:
            raise ParseError(j, "turn group has an empty dialog id")
        _oracle_warn(warnings, j, "skipped turn group with an empty dialog id")
        return None, id_close + 1
    k = id_close + 1
    while k < n and text[k].isspace():
        k += 1
    if k >= n or text[k] != ":":
        if strict:
            raise ParseError(k if k < n else n, "expected ':' after the dialog id")
        _oracle_warn(warnings, i, "skipped turn group without ':' after the dialog id")
        return None, k
    pairs, end = _oracle_scan_pairs(
        text, k + 1, n, strict=strict, warnings=warnings, terminator="}"
    )
    if end >= n or text[end] != "}":
        if strict:
            raise ParseError(i, "unclosed turn group")
        _oracle_warn(warnings, i, "skipped unclosed turn group")
        return None, n
    annotation = Annotation(
        pairs=tuple(pairs),
        perspective=Perspective.CONVERSATION_CENTRIC,
        granularity=Granularity.TURN_LEVEL,
    )
    return TurnScopedAnnotation(speaker, dialog_id, annotation), end + 1


def parse_turn_annotations_oracle(
    text: str,
    *,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> list[TurnScopedAnnotation]:
    """``parse_turn_annotations`` as it was before the one-scan parser.

    Positions index the stripped, unwrapped copy of ``text``, not ``text``.
    """
    stripped = text.strip()
    if (
        stripped.startswith("[")
        and stripped.endswith("]")
        and stripped[1:].lstrip().startswith("{")
    ):
        stripped = stripped[1:-1]
    out: list[TurnScopedAnnotation] = []
    i, n = 0, len(stripped)
    while i < n:
        ch = stripped[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "{":
            if strict:
                raise ParseError(i, "stray text outside {...} turn group")
            _oracle_warn(warnings, i, "skipped stray text between turn groups")
            nxt = stripped.find("{", i + 1)
            if nxt == -1:
                break
            i = nxt
            continue
        scoped, i = _oracle_parse_group(stripped, i, strict=strict, warnings=warnings)
        if scoped is not None:
            out.append(scoped)
    return out


def mine_corpus_per_turn_oracle(miner, items):
    """``miner.mine_corpus(items)`` with one ``miner.mine`` call per item.

    This is the corpus miner from before turns were mined one session per
    call: every item, turns included, is mined from its own content only,
    with the per-item retries and failure reasons of ``mine``.
    """
    ids = [item.id for item in items]
    if len(set(ids)) != len(ids):
        raise ValueError("item ids must be unique")
    for item in items:
        check_granularity(item.kind, miner.granularity)

    def run(item):
        if not item.content:
            return AugmentFailure("empty", "item content is empty")
        try:
            return miner.mine(item)
        except AugmentFailure as exc:
            return exc
        except LengthBudgetExceeded as exc:
            return AugmentFailure("too_long", str(exc))

    outcomes = fan_out(run, items, miner.parallelism)

    results = []
    failures = []
    for item, outcome in zip(items, outcomes):
        if isinstance(outcome, AugmentFailure):
            failures.append((item.id, outcome.reason))
        else:
            results.append((item.id, outcome))
    report = AugmentationReport(
        total=len(items),
        succeeded=len(results),
        failed=len(failures),
        failures=failures,
    )
    return results, report


def _embeds_annotations(setup) -> bool:
    return (
        setup.mode is RetrievalMode.EMBEDDING_BASED
        and setup.index.strategy is not EmbeddingStrategy.RAW_CONTENT
    )


def run_qa_task_oracle(dataset, store, *, miner, answer_backend, setup) -> QATaskResult:
    """``run_qa_task`` as one serial loop with hand-kept accumulators.

    A question is mined only where retrieval reads its attribute names:
    attribute mode, or embedding mode over an annotation index whose query
    parts include the attributes.
    """
    mine = setup.mode is RetrievalMode.ATTRIBUTE_BASED or (
        _embeds_annotations(setup) and QueryPart.ATTRIBUTES in setup.query_parts
    )
    recall_scores: list[tuple[str, float]] = []
    f1_scores: list[tuple[str, float]] = []
    rows: list[QAResultRow] = []
    counts: list[int] = []
    for example in dataset.qa:
        category = example.category.value
        error = None
        retrieved: tuple[str, ...] = ()
        answer = ""
        try:
            names = miner.mine_question(example.question).attributes if mine else ()
            query = QueryContext(text=example.question, attribute_names=names)
            try:
                result = setup.run(store, query)
            except EmptyQueryError:
                result = RetrievalResult(hits=(), mode=setup.mode)
            retrieved = result.ids()
            counts.append(len(retrieved))
            prompt_payload = _answer_context(store, result, example.question)
            prompt = build_prompt(ANSWER_GENERATION, prompt_payload)
            answer = answer_backend.complete(
                prompt, template=ANSWER_GENERATION, payload=prompt_payload
            )
        except (AugmentFailure, EmptyQueryError, MemaugError) as exc:
            error = str(exc) or type(exc).__name__
            logger.warning("qa example failed (%s): %s", category, exc)
        recall = None
        if example.gold_turn_ids:
            recall = (
                0.0 if error else recall_at_k(retrieved, example.gold_turn_ids, setup.k)
            )
            recall_scores.append((category, recall))
        f1 = 0.0 if error else token_f1(answer, example.gold_answer)
        f1_scores.append((category, f1))
        rows.append(
            QAResultRow(
                question=example.question,
                category=category,
                retrieved_ids=retrieved,
                recall=recall,
                f1=f1,
                answer=answer,
                error=error,
            )
        )
    return QATaskResult(
        recall_report=MetricReport.from_scores("recall", recall_scores, k=setup.k),
        f1_report=MetricReport.from_scores("token_f1", f1_scores),
        rows=rows,
        retrieved_counts=counts,
    )


def run_rec_task_oracle(
    dataset, store, *, miner, rec_backend, setup, n=200, k=10, seed=0
) -> RecTaskResult:
    """``run_rec_task`` as one serial loop with hand-kept accumulators.

    A dialogue is mined only where retrieval reads its annotation: attribute
    mode, or embedding mode over an annotation index, whose query embeds a
    non-empty annotation whatever the query parts.
    """
    if n > len(dataset.dialogues):
        raise ValueError(
            f"cannot sample {n} dialogues from a dataset of {len(dataset.dialogues)}"
        )
    mine = setup.mode is RetrievalMode.ATTRIBUTE_BASED or _embeds_annotations(setup)
    rng = random.Random(seed)
    sampled = rng.sample(list(dataset.dialogues), n)
    titles = {item.id: item.title for item in dataset.items}
    score_rows: dict[tuple[str, int], list[tuple[str, float]]] = {
        (metric, cutoff): [] for metric in ("recall", "ndcg") for cutoff in REC_CUTOFFS
    }
    rows: list[RecResultRow] = []
    counts: list[int] = []
    skipped = 0
    for dialogue in sampled:
        try:
            masked = mask_dialogue(dialogue)
        except LabelNotFoundError as exc:
            skipped += 1
            logger.warning("dialogue %s skipped: %s", dialogue.dialogue_id, exc)
            continue
        error = None
        retrieved: tuple[str, ...] = ()
        recommendations: tuple[str, ...] = ()
        try:
            annotation = miner.mine_text(masked.text()) if mine else None
            query = QueryContext(text=masked.text(), annotation=annotation)
            result = setup.run(store, query, k)
            retrieved = result.ids()
            counts.append(len(retrieved))
            payload = (
                f"Conversation:\n{masked.text()}\nCandidates:\n"
                f"{_candidate_block(store, result, titles)}"
            )
            prompt = build_prompt(RECOMMENDATION, payload)
            response = rec_backend.complete(prompt, template=RECOMMENDATION, payload=payload)
            recommendations = parse_ranked_titles(response)
        except (AugmentFailure, EmptyQueryError, MemaugError) as exc:
            error = str(exc) or type(exc).__name__
            logger.warning("dialogue %s failed: %s", dialogue.dialogue_id, exc)
        gold = {normalize_title(label) for label in dialogue.gold_labels}
        predicted = [normalize_title(title) for title in recommendations]
        scores: dict[str, float] = {}
        for cutoff in REC_CUTOFFS:
            recall = 0.0 if error else recall_at_k(predicted, gold, cutoff)
            ndcg = 0.0 if error else ndcg_at_k(predicted, gold, cutoff)
            scores[f"recall@{cutoff}"] = recall
            scores[f"ndcg@{cutoff}"] = ndcg
            score_rows[("recall", cutoff)].append(("all", recall))
            score_rows[("ndcg", cutoff)].append(("all", ndcg))
        rows.append(
            RecResultRow(
                dialogue_id=dialogue.dialogue_id,
                retrieved_ids=retrieved,
                recommendations=recommendations,
                scores=scores,
                error=error,
            )
        )
    reports = {
        f"{metric}@{cutoff}": MetricReport.from_scores(metric, scored, k=cutoff)
        for (metric, cutoff), scored in score_rows.items()
    }
    return RecTaskResult(
        reports=reports,
        rows=rows,
        skipped_masking=skipped,
        retrieved_counts=counts,
    )


# The event terms before the two-word ones went: a name holding "life event"
# as words also holds "event", so those two terms never changed a result.
_EVENT_TERMS = ("event", "events", "life event", "life events", "activity", "activities")


def filter_event_pairs_oracle(annotation: Annotation) -> Annotation:
    """Keep the pairs in whose name some term's words appear contiguously."""
    kept = []
    for pair in annotation.pairs:
        words = pair.name.split()
        for term in _EVENT_TERMS:
            needle = term.split()
            if any(words[i : i + len(needle)] == needle for i in range(len(words) - len(needle) + 1)):
                kept.append(pair)
                break
    return Annotation(
        pairs=tuple(kept),
        perspective=annotation.perspective,
        granularity=annotation.granularity,
        prioritization=annotation.prioritization,
    )
