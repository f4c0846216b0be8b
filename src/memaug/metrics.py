"""Deterministic evaluation metrics and their report structure.

All metrics are order-based or token-based and need no model calls:

* ``recall_at_k`` — fraction of the gold set found in the top-k ranking.
* ``ndcg_at_k`` — binary-relevance DCG, ``sum 1/log2(i+1)`` over gold hits
  at 1-based ranks ``i <= k``, normalized by the ideal DCG for the gold set.
  A gold item repeated in the ranking scores only at its first rank.
* ``token_f1`` — multiset precision/recall over case-folded whitespace
  tokens, combined as ``2PR/(P+R)`` (0 when both are 0).
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import EmptyGoldError, check_count


def recall_at_k(retrieved: Sequence[str], gold: Iterable[str], k: int) -> float:
    """|gold ∩ top-k| / |gold|; raises on an empty gold set."""
    gold_set = set(gold)
    if not gold_set:
        raise EmptyGoldError("recall is undefined for an empty gold set")
    check_count(k, "k")
    return len(gold_set & set(retrieved[:k])) / len(gold_set)


def ndcg_at_k(retrieved: Sequence[str], gold: Iterable[str], k: int) -> float:
    """Normalized discounted cumulative gain with binary relevance.

    An empty gold set scores 0. A gold item counts only at its first rank;
    a repeat scores 0 and keeps its position. The ideal DCG places
    min(|gold|, k) hits at the top ranks, so the result is at most 1, and 1
    exactly when those first ranks hold distinct gold items.
    """
    check_count(k, "k")
    gold_set = set(gold)
    if not gold_set:
        return 0.0
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(len(gold_set), k) + 1))
    dcg = 0.0
    for i, item in enumerate(retrieved[:k], start=1):
        if item in gold_set:
            gold_set.remove(item)  # its repeats score 0
            dcg += 1.0 / math.log2(i + 1)
    return dcg / ideal


def token_f1(prediction: str, gold: str) -> float:
    """Multiset token F1 between a predicted and a gold answer string."""
    gold_tokens = Counter(gold.casefold().split())
    if not gold_tokens:
        raise EmptyGoldError("token F1 is undefined for an empty gold string")
    pred_tokens = Counter(prediction.casefold().split())
    overlap = sum((pred_tokens & gold_tokens).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred_tokens.values())
    recall = overlap / sum(gold_tokens.values())
    return 2 * precision * recall / (precision + recall)


_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_title(title: str) -> str:
    """Case-fold, strip punctuation, and collapse whitespace for matching."""
    return " ".join(title.casefold().translate(_PUNCT_TABLE).split())


@dataclass
class MetricReport:
    """Per-category and overall scores for one metric over one task run.

    ``overall`` is the micro-average: the mean over all scored examples
    pooled together, not a mean of category means.
    """

    metric: str
    k: int | None = None
    per_category: dict[str, float] = field(default_factory=dict)
    overall: float = 0.0
    count: int = 0

    @classmethod
    def from_scores(
        cls, metric: str, scores: Sequence[tuple[str, float]], k: int | None = None
    ) -> "MetricReport":
        """Aggregate (category, score) rows into per-category means."""
        by_category: dict[str, list[float]] = {}
        for category, score in scores:
            by_category.setdefault(category, []).append(score)
        per_category = {
            category: sum(values) / len(values)
            for category, values in sorted(by_category.items())
        }
        total = [score for _, score in scores]
        return cls(
            metric=metric,
            k=k,
            per_category=per_category,
            overall=sum(total) / len(total) if total else 0.0,
            count=len(total),
        )

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "k": self.k,
            "overall": self.overall,
            "per_category": dict(sorted(self.per_category.items())),
            "count": self.count,
        }

    def as_table(self) -> str:
        """Aligned plain-text table: one column per category plus overall."""
        label = self.metric if self.k is None else f"{self.metric}@{self.k}"
        headers = list(self.per_category) + ["overall"]
        values = [self.per_category[name] for name in self.per_category] + [self.overall]
        widths = [max(len(h), 7) for h in headers]
        head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        row = "  ".join(f"{v:.4f}".rjust(w) for v, w in zip(values, widths))
        return f"{label} (n={self.count})\n{head}\n{row}"
