"""Memory persistence: items, annotations, the attribute index, and stats.

The store keeps items in insertion order, maintains an inverted index over
annotation attribute names, and round-trips through JSONL with one item per
line in a canonical field order, so saving the same store twice produces
byte-identical files. Items are only ever appended; there is no deletion.
The :class:`AugmentationReport` of the pass that mined the store is saved
beside it as ``<store>.report.json``, and
:func:`~memaug.fileio.replace_together` replaces the pair as one set.

Each posting is one list of item ids in ascending order, with no repeats,
and every write keeps it so. A store keeps its name postings from the
start. Its (name, case-folded value) postings are built by the first query
that reads one (a value lookup, or a ``NAME_AND_VALUE`` ranking with a
value), all in one pass, and from then on every write keeps them too; a
store that no value query has read holds none. That first build runs under
a lock the store holds, so concurrent first readers build once, and the
finished postings are published by one assignment.

Writes are not safe against concurrent writers. ``lookup_by_attribute``
returns a fresh set, so its callers never observe a structure mutated
underneath them. Ranked queries (``rank_by_attributes``) read the postings
in place, so they may run together, but like writes they must not race a
writer.
"""

from __future__ import annotations

import gc
import heapq
import json
import threading
from bisect import bisect_left, insort
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring as _quote
from pathlib import Path
from itertools import islice
from typing import Iterator, Sequence

from .annotations import (
    Annotation,
    Granularity,
    MembersByValue,
    Perspective,
    Prioritization,
    _slot_setters,
    normalize_name,
)
from .errors import DuplicateIdError, GranularityMismatchError, SchemaError, check_count
from .fileio import replace_together


class ItemKind(Enum):
    ENTITY = "entity"
    DIALOGUE_TURN = "dialogue_turn"
    SESSION = "session"


# Every loaded line looks its kind up by value.
_ITEM_KINDS = MembersByValue(ItemKind)

_KIND_GRANULARITY = {
    ItemKind.ENTITY: Granularity.NOT_APPLICABLE,
    ItemKind.DIALOGUE_TURN: Granularity.TURN_LEVEL,
    ItemKind.SESSION: Granularity.SESSION_LEVEL,
}

# The text fields of a stored item, each with the value a line that leaves
# it out reads as: a field read as "" must be a string, one read as None may
# also be null, and null fields are not written. Saved lines and MemoryItem
# both hold them in this order, with "kind" right after "id"; a saved line
# ends with "annotation". MemoryItem checks their types in this order.
_TEXT_FIELDS = (
    ("id", ""), ("content", ""),
    ("speaker", None), ("session_id", None), ("turn_id", None), ("timestamp", None),
)


@dataclass(frozen=True, slots=True, init=False)
class MemoryItem:
    """One unit of memory: an entity, a dialogue turn, or a whole session.

    ``id`` and ``content`` are strings, and the other text fields strings or
    None; the first field of another type raises :class:`TypeError`.
    ``kind`` may also be given as its value, as a stored line holds it.
    """

    id: str
    kind: ItemKind
    content: str
    speaker: str | None = None
    session_id: str | None = None
    turn_id: str | None = None
    timestamp: str | None = None

    def __init__(
        self,
        id: str,
        kind: ItemKind,
        content: str,
        speaker: str | None = None,
        session_id: str | None = None,
        turn_id: str | None = None,
        timestamp: str | None = None,
    ):
        # The _TEXT_FIELDS rule, unrolled, since every loaded line makes this
        # test; the loop runs only to name the first field that breaks it.
        if not (
            isinstance(id, str) and isinstance(content, str)
            and (speaker is None or isinstance(speaker, str))
            and (session_id is None or isinstance(session_id, str))
            and (turn_id is None or isinstance(turn_id, str))
            and (timestamp is None or isinstance(timestamp, str))
        ):
            texts = (id, content, speaker, session_id, turn_id, timestamp)
            for (key, missing), value in zip(_TEXT_FIELDS, texts):
                if not isinstance(value, str) and (value is not None or missing is not None):
                    raise TypeError(f"field {key!r} must be a string, got {type(value).__name__}")
        if not isinstance(kind, ItemKind):
            kind = _ITEM_KINDS.member(kind)
        if not id:
            raise ValueError("item id must be non-empty")
        if kind is ItemKind.DIALOGUE_TURN and not (session_id and turn_id):
            raise ValueError("dialogue turns require session_id and turn_id")
        if kind is ItemKind.SESSION and not session_id:
            raise ValueError("sessions require session_id")
        _set_id(self, id)
        _set_kind(self, kind)
        _set_content(self, content)
        _set_speaker(self, speaker)
        _set_session_id(self, session_id)
        _set_turn_id(self, turn_id)
        _set_timestamp(self, timestamp)


(_set_id, _set_kind, _set_content, _set_speaker, _set_session_id, _set_turn_id,
 _set_timestamp) = _slot_setters(MemoryItem)


# A saved line is built from _quote, the escaper json.dumps(...,
# ensure_ascii=False) uses, and from these fixed pieces of its "kind" field
# and annotation tags.
_KIND_HEAD = {kind: f', "kind": "{kind.value}", "content": ' for kind in ItemKind}
_TAGS_TAIL = {
    (p, g, r): f'], "perspective": "{p.value}", "granularity": "{g.value}", "prioritization": "{r.value}"}}}}\n'
    for p in Perspective for g in Granularity for r in Prioritization
}


def check_granularity(kind: ItemKind, granularity: Granularity) -> None:
    """Raise unless ``granularity`` is the one items of ``kind`` are annotated at."""
    expected = _KIND_GRANULARITY[kind]
    if granularity is not expected:
        raise GranularityMismatchError(
            f"item kind {kind.value} requires granularity {expected.value}, got {granularity.value}"
        )


@dataclass(frozen=True, slots=True)
class CorpusStats:
    total_items: int
    annotated_items: int
    avg_attributes: float
    failure_rate: float
    top_attributes: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "total_items": self.total_items,
            "annotated_items": self.annotated_items,
            "avg_attributes": self.avg_attributes,
            "failure_rate": self.failure_rate,
            "top_attributes": [
                {"name": name, "frequency": freq} for name, freq in self.top_attributes
            ],
        }


@dataclass
class AugmentationReport:
    """Success/failure accounting for one corpus pass: non-negative integer
    counts, and an (item id, reason) pair of strings for every failure."""

    total: int = 0
    succeeded: int = 0
    failed: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        for name in ("total", "succeeded", "failed"):
            check_count(getattr(self, name), name, 0)
        if self.succeeded + self.failed != self.total:
            raise ValueError("succeeded + failed must equal total")
        if not all(isinstance(f, tuple) and len(f) == 2 and all(isinstance(s, str) for s in f)
                   for f in self.failures):
            raise ValueError("failures must be (item id, reason) pairs of strings")
        if len(self.failures) != self.failed:
            raise ValueError(
                f"failed must equal the number of failures, got {self.failed} and {len(self.failures)}"
            )

    @property
    def failure_rate(self) -> float:
        return self.failed / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failure_rate": self.failure_rate,
            "failures": [{"item_id": i, "reason": r} for i, r in self.failures],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AugmentationReport":
        return cls(
            total=data["total"],
            succeeded=data["succeeded"],
            failed=data["failed"],
            failures=[(f["item_id"], f["reason"]) for f in data.get("failures", [])],
        )


class MatchPolicy(Enum):
    NAME_ONLY = "name_only"
    NAME_AND_VALUE = "name_and_value"


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic collector for a block that builds many objects in
    no cycles: left running, it would make full passes over every object in
    the process while they pile up, and find nothing. It is re-enabled only
    if it was on at entry, so a caller's own ``gc.disable()`` stays in force.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class MemoryStore:
    """Insertion-ordered item storage with an attribute inverted index."""

    def __init__(self):
        self._items: dict[str, MemoryItem] = {}
        self._annotations: dict[str, Annotation] = {}
        # Each posting lists its ids in ascending order. The value postings
        # stay None until the first value query builds them.
        self._postings: dict[str, list[str]] = {}
        self._values: dict[tuple[str, str], list[str]] | None = None
        self._values_lock = threading.Lock()
        self.augmentation_report: AugmentationReport | None = None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[MemoryItem]:
        return iter(self._items.values())

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._items

    def ids(self) -> tuple[str, ...]:
        return tuple(self._items)

    def get(self, item_id: str) -> MemoryItem:
        return self._items[item_id]

    def annotation_for(self, item_id: str) -> Annotation | None:
        return self._annotations.get(item_id)

    def entries(self) -> Iterator[tuple[MemoryItem, Annotation | None]]:
        """Each item with its annotation (None if it has none), in store order."""
        return zip(self._items.values(), map(self._annotations.get, self._items))

    def _unindex(self, item_id: str) -> None:
        annotation = self._annotations.pop(item_id, None)
        if annotation is None:
            return
        names, values = self._postings, self._values
        for pair in annotation.pairs:
            _discard(names[pair.name], item_id)
            if values is not None:
                _discard(values[pair.name, pair.value.casefold()], item_id)

    def write(
        self,
        item: MemoryItem,
        annotation: Annotation | None = None,
        *,
        overwrite: bool = False,
    ) -> str:
        """Append an item (validating annotation granularity) and index it."""
        if annotation is not None:
            check_granularity(item.kind, annotation.granularity)
        if item.id in self._items:
            if not overwrite:
                raise DuplicateIdError(f"item id {item.id!r} already present")
            self._unindex(item.id)
        self._items[item.id] = item
        if annotation is not None:
            self._annotations[item.id] = annotation
            self._index(item.id, annotation)
        return item.id

    def _index(self, item_id: str, annotation: Annotation) -> None:
        """Insert ``item_id``, which no posting held, into the postings of the
        annotation's pairs."""
        names, values = self._postings, self._values
        for pair in annotation.pairs:
            _insert(names, pair.name, item_id)
            if values is not None:
                _insert(values, (pair.name, pair.value.casefold()), item_id)

    def _value_postings(self) -> dict[tuple[str, str], list[str]]:
        """The (name, case-folded value) postings, built by the first call."""
        values = self._values
        if values is not None:
            return values
        with self._values_lock:
            if self._values is None:
                with _collector_paused():
                    self._values = _ascending_postings(self._annotations, by_value=True)
            return self._values

    def _posting(self, name: str, value: str | None, policy: MatchPolicy) -> Sequence[str]:
        """The posting a query term reads.

        ``NAME_AND_VALUE`` compares values case-folded; with no value to
        compare (``value=None``) it degrades to a name match.
        """
        name = normalize_name(name)
        if policy is MatchPolicy.NAME_AND_VALUE and value is not None:
            return self._value_postings().get((name, value.strip().casefold()), ())
        return self._postings.get(name, ())

    def attach_annotation(self, item_id: str, annotation: Annotation) -> None:
        """Replace the annotation of an existing item."""
        item = self._items[item_id]
        self.write(item, annotation, overwrite=True)

    def lookup_by_attribute(
        self,
        name: str,
        value: str | None = None,
        policy: MatchPolicy = MatchPolicy.NAME_ONLY,
    ) -> set[str]:
        """Ids of items whose annotation carries the attribute, as a fresh set.

        ``NAME_AND_VALUE`` compares values case-folded; with no value to
        compare (``value=None``) it degrades to a name match. Unknown names
        yield an empty set. The first value query on a store builds its
        value postings, once, with the cyclic collector paused: about 70 ms
        for 100k pairs over 20k items.
        """
        return set(self._posting(name, value, policy))

    def rank_by_attributes(
        self,
        terms: Sequence[tuple[str, str | None]],
        policy: MatchPolicy,
        k: int | None,
    ) -> list[tuple[str, int]]:
        """The top ``k`` (every match when None) ids for (name, value) terms.

        Each id comes with the number of terms it matched, and ids are
        ordered by that count, highest first, then by ascending id. Under
        ``NAME_AND_VALUE``, when some item matches every term, only those
        items rank; they are read in id order from the shortest posting
        until ``k`` are found. Otherwise every item matching any term ranks.
        A term with a value under ``NAME_AND_VALUE`` reads the value
        postings, which the first such query builds as
        :meth:`lookup_by_attribute` says.
        """
        postings = [self._posting(name, value, policy) for name, value in terms]
        if policy is MatchPolicy.NAME_AND_VALUE and terms:
            shortest, *others = sorted(postings, key=len)
            walk = iter(shortest)
            # The shortest postings filter first: they reject the most ids.
            for ids in others:
                walk = _held_by(ids, walk)
            top = list(walk if k is None else islice(walk, k))
            if top:
                return [(item_id, len(terms)) for item_id in top]
        counts = Counter()
        for ids in postings:
            counts.update(ids)
        ranked: list[tuple[str, int]] = []
        for level in range(len(terms), 0, -1):
            if k is not None and len(ranked) >= k:
                break
            bucket = [item_id for item_id, n in counts.items() if n == level]
            chosen = sorted(bucket) if k is None else heapq.nsmallest(k - len(ranked), bucket)
            ranked += [(item_id, level) for item_id in chosen]
        return ranked

    def compute_stats(self) -> CorpusStats:
        """Pair counts and attribute frequencies over the annotated items.

        The failure rate comes from the augmentation report recorded at
        augment time (zero when no report is attached). Each item counts at
        most once per attribute name.
        """
        annotated = [ann for ann in self._annotations.values() if len(ann)]
        total_pairs = sum(len(ann) for ann in annotated)
        counts: dict[str, int] = {}
        for ann in self._annotations.values():
            for name in set(ann.names):
                counts[name] = counts.get(name, 0) + 1
        top = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
        return CorpusStats(
            total_items=len(self._items),
            annotated_items=len(self._annotations),
            avg_attributes=total_pairs / len(annotated) if annotated else 0.0,
            failure_rate=(
                self.augmentation_report.failure_rate if self.augmentation_report else 0.0
            ),
            top_attributes=top,
        )

    # -- persistence ---------------------------------------------------

    @staticmethod
    def _record(item: MemoryItem, annotation: Annotation | None) -> str:
        """The saved line of an item and its annotation, newline included.

        It is ``json.dumps(record, ensure_ascii=False)`` of the record
        (``_TEXT_FIELDS`` order, "kind" after "id", null fields left out,
        "annotation" last), assembled from the escaper ``json.dumps`` uses.
        """
        line = '{"id": ' + _quote(item.id) + _KIND_HEAD[item.kind] + _quote(item.content)
        if item.speaker is not None:
            line += ', "speaker": ' + _quote(item.speaker)
        if item.session_id is not None:
            line += ', "session_id": ' + _quote(item.session_id)
        if item.turn_id is not None:
            line += ', "turn_id": ' + _quote(item.turn_id)
        if item.timestamp is not None:
            line += ', "timestamp": ' + _quote(item.timestamp)
        if annotation is None:
            return line + "}\n"
        pairs = ", ".join([
            '{"name": ' + _quote(pair.name) + ', "value": ' + _quote(pair.value) + "}"
            for pair in annotation.pairs
        ])
        tags = _TAGS_TAIL[annotation.perspective, annotation.granularity, annotation.prioritization]
        return line + ', "annotation": {"pairs": [' + pairs + tags

    @staticmethod
    def _from_line(line: str) -> tuple[MemoryItem, Annotation | None]:
        """Decode one JSONL line into an item and its annotation, which
        their constructors check."""
        record = json.loads(line)
        if not isinstance(record, dict) or "id" not in record or "kind" not in record:
            raise ValueError("record must be an object with 'id' and 'kind'")
        get = record.get
        fields = [get(key, missing) for key, missing in _TEXT_FIELDS]
        fields.insert(1, record["kind"])
        item = MemoryItem(*fields)
        annotation = get("annotation")
        if annotation is not None:
            annotation = Annotation.from_dict(annotation)
        return item, annotation

    def save(self, path: str | Path) -> None:
        """Write one JSON object per item, in insertion order.

        When an augmentation report is attached, it is saved next to the
        store as ``<path>.report.json`` so stats survive a reload; without
        one, a report left by an earlier save is removed. The store and its
        report are replaced as one set: if either replacement fails, both
        files keep their earlier contents. The report goes first, so that
        only its earlier bytes are kept for that: a save never reads the old
        store.
        """
        target = Path(path)

        def write_items(fh) -> None:
            record = self._record
            for item, annotation in self.entries():
                fh.write(record(item, annotation).encode("utf-8"))

        report = None
        if self.augmentation_report is not None:
            report = json.dumps(self.augmentation_report.to_dict(), indent=2, sort_keys=True) + "\n"
        replace_together({_report_path(target): report, target: write_items})

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        strict: bool = True,
        warnings: list[str] | None = None,
    ) -> "MemoryStore":
        """Rebuild a store (and its attribute index) from a JSONL file.

        Lines are split on ``\\n`` and decoded as UTF-8 one at a time.
        Malformed lines, undecodable ones included, raise :class:`SchemaError`
        with the line number in strict mode; lenient mode skips them,
        reporting via ``warnings``. A line is checked in full before it
        changes the store. A malformed ``<path>.report.json`` raises
        :class:`SchemaError` in either mode.
        """
        source = Path(path)
        if not source.exists():
            raise FileNotFoundError(f"store file not found: {source}")
        store = cls()
        items, annotations, from_line = store._items, store._annotations, cls._from_line
        # Each line's objects are freed by reference counting (only the
        # exception chain of a skipped line can form a cycle, and the
        # collector takes it once the pause ends).
        with _collector_paused(), source.open("rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                    if line.isspace():
                        continue
                    item, annotation = from_line(line)
                    if annotation is not None:
                        check_granularity(item.kind, annotation.granularity)
                    if item.id in items:
                        raise DuplicateIdError(f"item id {item.id!r} already present")
                except (ValueError, KeyError, TypeError, DuplicateIdError, GranularityMismatchError) as exc:
                    if strict:
                        raise SchemaError(str(exc), line=line_no) from exc
                    if warnings is not None:
                        warnings.append(f"line {line_no}: skipped ({exc})")
                    continue
                items[item.id] = item
                if annotation is not None:
                    annotations[item.id] = annotation
            store._postings = _ascending_postings(annotations, by_value=False)
        report_path = _report_path(source)
        if report_path.exists():
            try:
                store.augmentation_report = AugmentationReport.from_dict(
                    json.loads(report_path.read_text(encoding="utf-8"))
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise SchemaError(f"store report {report_path}: {exc!r}") from exc
        return store


def _ascending_postings(annotations: dict[str, Annotation], *, by_value: bool) -> dict:
    """The name postings of ``annotations``, or with ``by_value`` their
    (name, case-folded value) postings.

    Built in ascending id order, each id appends to its postings: ids stored
    out of order pay no insertions.
    """
    postings: dict = {}
    for item_id in sorted(annotations):
        for pair in annotations[item_id].pairs:
            key = (pair.name, pair.value.casefold()) if by_value else pair.name
            ids = postings.get(key)
            if ids is None:
                postings[key] = [item_id]
            # A key the annotation repeats is already in its posting.
            elif ids[-1] != item_id:
                ids.append(item_id)
    return postings


def _insert(postings: dict, key, item_id: str) -> None:
    """Insert ``item_id`` into the posting of ``key``, once."""
    ids = postings.setdefault(key, [])
    # New ids usually sort last; one comparison then avoids the binary
    # search's scattered string reads.
    if not ids or ids[-1] < item_id:
        ids.append(item_id)
    # A key the annotation repeats is already in its posting.
    elif ids[bisect_left(ids, item_id)] != item_id:
        insort(ids, item_id)


def _discard(ids: list[str], item_id: str) -> None:
    """Remove ``item_id`` from the posting ``ids`` if it is there."""
    i = bisect_left(ids, item_id)
    # A key the annotation repeats was removed on its first pair.
    if i < len(ids) and ids[i] == item_id:
        del ids[i]


def _held_by(ids: list[str], walk: Iterator[str]) -> Iterator[str]:
    """The ids of the ascending ``walk`` that the ascending ``ids`` hold."""
    lo = 0
    for item_id in walk:
        lo = bisect_left(ids, item_id, lo)
        if lo < len(ids) and ids[lo] == item_id:
            yield item_id


def _report_path(store_path: Path) -> Path:
    return store_path.with_name(store_path.name + ".report.json")

