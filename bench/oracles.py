"""Independent checks of the outputs the workloads get back from memaug.

The top-k oracle scores every row in extended precision with an
element-wise product and a per-row sum, so identical rows get identical
scores wherever they sit; the attribute oracle is a linear scan over the
pairs the generator planted. Neither uses the index structures it checks.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# Scores closer than this are near-ties whose order float64 rounding may flip.
TIE_EPS = 1e-9


class Checks:
    """How many outputs each named check examined, and how many were wrong."""

    def __init__(self):
        self.checked: Counter = Counter()
        self.mismatches: Counter = Counter()

    def record(self, name: str, ok: bool, count: int = 1) -> None:
        self.checked[name] += count
        if not ok:
            self.mismatches[name] += count

    def merge(self, other: "Checks") -> None:
        self.checked.update(other.checked)
        self.mismatches.update(other.mismatches)

    def failed(self) -> int:
        return sum(self.mismatches.values())

    def lines(self):
        for name in sorted(self.checked):
            yield f"check {name} checked={self.checked[name]} mismatches={self.mismatches[name]}"


class ExactIndex:
    """Brute-force cosine scores for one saved index, in long double."""

    def __init__(self, ids, vectors):
        self.ids = list(ids)
        self.id_array = np.array(self.ids)
        self.position = {item_id: i for i, item_id in enumerate(self.ids)}
        self.vectors = np.asarray(vectors, dtype=np.longdouble)
        self.norms = np.sqrt((self.vectors * self.vectors).sum(axis=1))

    def scores(self, query) -> np.ndarray:
        q = np.asarray(query, dtype=np.longdouble)
        return (self.vectors * q).sum(axis=1) / (self.norms * np.sqrt((q * q).sum()))

    def is_topk(self, query, hits: list[tuple[str, float]], k: int) -> bool:
        """Whether ``hits`` is an exact top-k with the ascending-id tie-break.

        Exact ties must come in ascending id order, including at the cut-off;
        rows closer than TIE_EPS may come in either order.
        """
        scores = self.scores(query)
        got = [item_id for item_id, _ in hits]
        if len(got) != min(k, len(self.ids)) or len(set(got)) != len(got):
            return False
        if any(item_id not in self.position for item_id in got):
            return False
        exact = [scores[self.position[item_id]] for item_id in got]
        if any(abs(float(s) - score) > TIE_EPS for s, (_, score) in zip(exact, hits)):
            return False
        for (a, sa), (b, sb) in zip(zip(got, exact), zip(got[1:], exact[1:])):
            if sb > sa + TIE_EPS or (sa == sb and a > b):
                return False
        last_id, last = got[-1], exact[-1]
        chosen = set(got)
        better = self.id_array[scores > last + TIE_EPS]
        tied = self.id_array[scores == last]
        if any(item_id not in chosen for item_id in better):
            return False
        return not any(item_id < last_id and item_id not in chosen for item_id in tied)


def attribute_topk(entries, names, k: int) -> list[tuple[str, float]]:
    """Name-only attribute retrieval by linear scan.

    ``entries`` is a list of (item id, set of attribute names). Items holding
    every queried name rank first; if none does, every item holding any of
    them is a candidate. Candidates rank by how many names they hold, then
    by ascending id; the score is that count over the number of names.
    """
    counts = []
    for item_id, held in entries:
        count = sum(1 for name in names if name in held)
        if count:
            counts.append((count, item_id))
    if any(count == len(names) for count, _ in counts):
        counts = [(count, item_id) for count, item_id in counts if count == len(names)]
    counts.sort(key=lambda row: (-row[0], row[1]))
    return [(item_id, count / len(names)) for count, item_id in counts[:k]]


def same_hits(got: list[tuple[str, float]], want: list[tuple[str, float]]) -> bool:
    return [i for i, _ in got] == [i for i, _ in want] and all(
        abs(a - b) <= TIE_EPS for (_, a), (_, b) in zip(got, want)
    )
