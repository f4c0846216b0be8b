"""Independent brute-force oracles used to check the fast implementations.

Everything here except :func:`single_pass_search` and
:func:`load_store_oracle` is deliberately written in plain Python (explicit
loops, ``math`` instead of numpy) so the oracle shares no code path with the
implementation it checks.
"""

from __future__ import annotations

import json
import math
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
    Perspective,
    Prioritization,
    RetrievalMode,
    SchemaError,
)
from memaug.mining import AugmentationReport
from memaug.retrieval import RankedHit, RetrievalResult


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
