"""Attribute-value annotation model and its ``[name]<value>`` surface syntax.

An annotation is an ordered sequence of attribute-value pairs attached to one
unit of memory, plus three mode tags: the perspective the attributes were
mined from, the granularity of the annotated unit, and whether pair order
carries relevance. The textual form is a whitespace-separated run of
``[name]<value>`` pairs; turn-scoped blocks wrap pairs as
``{speaker:[dialog_id]:[name]<value>...}``.

Parsing is lenient by default (malformed spans are skipped and reported via
an optional warnings sink) because annotation text usually comes from an LLM.
Both modes scan once and record each malformed span; strict mode raises
:class:`~memaug.errors.ParseError` for the first one and is meant for tests
and round-trip checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache

from .errors import ParseError


class Perspective(Enum):
    """Whether attributes describe a stored entity or the user interaction."""

    ENTITY_CENTRIC = "entity_centric"
    CONVERSATION_CENTRIC = "conversation_centric"


class Granularity(Enum):
    """Unit of conversation the annotation covers."""

    TURN_LEVEL = "turn_level"
    SESSION_LEVEL = "session_level"
    NOT_APPLICABLE = "not_applicable"


class Prioritization(Enum):
    """Whether pair order encodes relevance (index 0 = most relevant)."""

    BASIC = "basic"
    PRIORITY = "priority"


class MembersByValue(dict):
    """An enum's members by value, for stored values: a lookup costs about a
    tenth of an enum call."""

    def __init__(self, enum_type: type[Enum]):
        super().__init__((member.value, member) for member in enum_type)
        self.enum_type = enum_type

    def member(self, value) -> Enum:
        """The member with this value; a value no member has goes to the
        enum call, which refuses it in its own words."""
        try:
            return self[value]
        except (KeyError, TypeError):
            return self.enum_type(value)


_PERSPECTIVES = MembersByValue(Perspective)
_GRANULARITIES = MembersByValue(Granularity)
_PRIORITIZATIONS = MembersByValue(Prioritization)


def normalize_name(name: str) -> str:
    """Case-fold and collapse inner whitespace; idempotent."""
    return " ".join(name.split()).casefold()


def is_blank_value(value: str) -> bool:
    """Whether a trimmed value is one the surface syntax cannot hold: empty,
    or ``none`` in any case."""
    return not value or value.casefold() == "none"


@lru_cache(maxsize=1024)
def _checked_name(name: str) -> str:
    """``name`` normalized, refusing one that is empty or holds a bracket.

    Cached per raw name, as a store holds few distinct names: its pairs
    share one string per name. A refused name raises, so it is not cached.
    """
    normalized = normalize_name(name)
    if not normalized:
        raise ValueError("attribute name is empty after normalization")
    if "[" in normalized or "]" in normalized:
        raise ValueError(f"attribute name may not contain '[' or ']': {normalized!r}")
    return normalized


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot, in field order: a hand-written
    ``__init__`` sets each field of a frozen class once through them."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class AttributePair:
    """One mined attribute: a normalized name and a verbatim (trimmed) value.

    A name or value that is not a string raises :class:`TypeError`. A value
    that is blank or reads ``none`` in any case is refused, as
    :func:`parse_annotation` drops it, so every pair survives a render and
    parse.
    """

    name: str
    value: str

    def __init__(self, name: str, value: str):
        if not (isinstance(name, str) and isinstance(value, str)):
            types = f"{type(name).__name__} and {type(value).__name__}"
            raise TypeError(f"pair name and value must be strings, got {types}")
        name = _checked_name(name)
        value = value.strip()
        if is_blank_value(value):
            raise ValueError(f"attribute value may not be empty or 'none': {value!r}")
        if "<" in value or ">" in value:
            raise ValueError(f"attribute value may not contain '<' or '>': {value!r}")
        _set_pair_name(self, name)
        _set_pair_value(self, value)

    def render(self) -> str:
        return f"[{self.name}]<{self.value}>"


_set_pair_name, _set_pair_value = _slot_setters(AttributePair)


@dataclass(frozen=True, slots=True, init=False)
class Annotation:
    """Ordered attribute pairs plus the mode tags they were produced under.

    Exact duplicate (name, value) pairs are dropped at construction, keeping
    the first occurrence; the same name may recur with distinct values.
    Instances are immutable and safe to share between threads.
    """

    pairs: tuple[AttributePair, ...] = ()
    perspective: Perspective = Perspective.CONVERSATION_CENTRIC
    granularity: Granularity = Granularity.NOT_APPLICABLE
    prioritization: Prioritization = Prioritization.BASIC

    def __init__(
        self,
        pairs: tuple[AttributePair, ...] = (),
        perspective: Perspective = Perspective.CONVERSATION_CENTRIC,
        granularity: Granularity = Granularity.NOT_APPLICABLE,
        prioritization: Prioritization = Prioritization.BASIC,
    ):
        first: dict[tuple[str, str], AttributePair] = {}
        for pair in pairs:
            first.setdefault((pair.name, pair.value), pair)
        _set_pairs(self, tuple(first.values()))
        _set_perspective(self, perspective)
        _set_granularity(self, granularity)
        _set_prioritization(self, prioritization)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.pairs)

    def to_dict(self) -> dict:
        return {
            "pairs": [{"name": p.name, "value": p.value} for p in self.pairs],
            "perspective": self.perspective.value,
            "granularity": self.granularity.value,
            "prioritization": self.prioritization.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Annotation":
        try:
            return cls(
                [AttributePair(pair["name"], pair["value"]) for pair in data["pairs"]],
                _PERSPECTIVES.member(data["perspective"]),
                _GRANULARITIES.member(data["granularity"]),
                _PRIORITIZATIONS.member(data["prioritization"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed annotation record: {exc}") from exc


_set_pairs, _set_perspective, _set_granularity, _set_prioritization = _slot_setters(Annotation)


@dataclass(frozen=True, slots=True)
class TurnScopedAnnotation:
    """A turn-level annotation labelled with the speaker and dialog id."""

    speaker: str
    dialog_id: str
    annotation: Annotation

    def __post_init__(self):
        if not self.dialog_id:
            raise ValueError("dialog_id must be non-empty")
        if self.annotation.granularity is not Granularity.TURN_LEVEL:
            raise ValueError("turn-scoped annotation must be turn-level")


# (position, reason) of each malformed span, in scan order.
_Problems = list[tuple[int, str]]
_STRAY_PAIR = "stray text outside [name]<value> pair"


def _skip(problems: _Problems, position: int, reason: str, resume: int):
    """Record a malformed span; the scan goes on at ``resume`` with no result."""
    problems.append((position, reason))
    return None, resume


def _report(problems: _Problems, strict: bool, warnings: list[str] | None, offset: int = 0):
    """Raise the first problem (strict) or describe each one in ``warnings``.

    Both modes scan alike up to the first malformed span, so the strict error
    is the first problem a lenient scan records. ``offset`` shifts positions
    back into the caller's text.
    """
    if strict and problems:
        position, reason = problems[0]
        raise ParseError(position + offset, reason)
    if warnings is not None:
        warnings.extend(f"skipped {r} (position {p + offset})" for p, r in problems)


# A well-formed pair and a well-formed turn group, as the scan reads them:
# a name and the dialog id run to the first ']', a value to the first '>',
# the speaker to the first ':', and re's \s is str.isspace. A name holds no
# '[' and a value no '<', and between and around the pairs of a group stands
# only whitespace. Of the scan's diagnostics, only an empty name, speaker or
# dialog id can hold for a match: a match is taken only without them, and
# the scan reads everything else.
_PAIR = re.compile(r"\[([^\[\]]*)\]\s*<([^<>]*)>")
_GROUP = re.compile(r"\{([^:}]*):\s*\[([^\]]*)\]\s*:((?:\s*\[[^\[\]]*\]\s*<[^<>]*>)*)\s*\}")


def _scan_pair(text: str, i: int, problems: _Problems) -> tuple[AttributePair | None, int]:
    """Scan one ``[name]<value>`` starting at ``text[i] == '['``.

    Returns (pair, next_index). ``pair`` is None when the span was dropped:
    either malformed (recorded in ``problems``) or carrying an empty/"none"
    value, which the surface syntax cannot represent and is skipped by design.
    """
    match = _PAIR.match(text, i)
    if match is not None and match[1].strip():
        value = match[2].strip()
        return (None if is_blank_value(value) else AttributePair(match[1], value)), match.end()
    n = len(text)
    close = text.find("]", i + 1)
    if close == -1:
        return _skip(problems, i, "unclosed attribute bracket", n)
    name_raw = text[i + 1 : close]
    j = close + 1
    while j < n and text[j].isspace():
        j += 1
    if j >= n or text[j] != "<":
        return _skip(problems, i, "attribute name not followed by <value>", close + 1)
    vclose = text.find(">", j + 1)
    if vclose == -1:
        return _skip(problems, j, "unclosed value bracket", n)
    value_raw = text[j + 1 : vclose]
    next_i = vclose + 1
    if "<" in value_raw:
        return _skip(problems, j, "'<' inside value", next_i)
    name = normalize_name(name_raw)
    if not name:
        return _skip(problems, i, "empty attribute name", next_i)
    if "[" in name:
        return _skip(problems, i, "'[' inside attribute name", next_i)
    value = value_raw.strip()
    if is_blank_value(value):
        # Unrepresentable content; mirrors the prompt instruction to skip
        # attributes without real values.
        return None, next_i
    return AttributePair(name, value), next_i


def _scan(text, start, stop, problems, opener, scan_one, stray, terminator=None):
    """Scan units in ``text[start:stop]``; stop early at ``terminator``.

    ``scan_one`` parses one unit at ``text[i] == opener`` and returns (unit
    or None, next_index). Other text is recorded under the reason ``stray``
    and skipped to the next opener, or to the terminator if that comes first.
    """
    units = []
    i = start
    while i < stop:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if terminator is not None and ch == terminator:
            return units, i
        if ch != opener:
            problems.append((i, stray))
            nxt = text.find(opener, i + 1, stop)
            term = text.find(terminator, i + 1, stop) if terminator else -1
            if term != -1 and (nxt == -1 or term < nxt):
                return units, term
            i = stop if nxt == -1 else nxt
            continue
        unit, i = scan_one(text, i, problems)
        if unit is not None:
            units.append(unit)
    return units, stop


def parse_annotation(
    text: str,
    *,
    strict: bool = False,
    warnings: list[str] | None = None,
    perspective: Perspective = Perspective.CONVERSATION_CENTRIC,
    granularity: Granularity = Granularity.NOT_APPLICABLE,
    prioritization: Prioritization = Prioritization.BASIC,
) -> Annotation:
    """Parse a run of ``[name]<value>`` pairs into an :class:`Annotation`.

    Pairs come back in textual order; names are normalized, values trimmed.
    The annotation carries the given mode tags, by default those of
    :class:`Annotation`. Empty input yields an empty annotation. In lenient
    mode (the default) unparseable spans are skipped and described in
    ``warnings`` when a list is supplied; strict mode raises
    :class:`ParseError` for the first of them instead.
    """
    problems: _Problems = []
    pairs, _ = _scan(text, 0, len(text), problems, "[", _scan_pair, _STRAY_PAIR)
    _report(problems, strict, warnings)
    return Annotation(tuple(pairs), perspective, granularity, prioritization)


def _parse_group(text: str, i: int, problems: _Problems) -> tuple[TurnScopedAnnotation | None, int]:
    """Parse one ``{speaker:[dialog_id]:pairs}`` group at ``text[i] == '{'``."""
    match = _GROUP.match(text, i)
    if match is not None:
        speaker, dialog_id, body = match.groups()
        speaker, dialog_id = speaker.strip(), dialog_id.strip()
        pairs = []
        for name_raw, value_raw in _PAIR.findall(body):
            if not name_raw.strip():
                break  # an empty name, which the scan reports
            value = value_raw.strip()
            if not is_blank_value(value):
                pairs.append(AttributePair(name_raw, value))
        else:
            if speaker and dialog_id:
                annotation = Annotation(
                    tuple(pairs), Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL
                )
                return TurnScopedAnnotation(speaker, dialog_id, annotation), match.end()
    n = len(text)
    colon = text.find(":", i + 1)
    brace = text.find("}", i + 1)
    if colon == -1 or (brace != -1 and brace < colon):
        resume = brace + 1 if brace != -1 else n
        return _skip(problems, i, "turn group is missing its speaker segment", resume)
    speaker = text[i + 1 : colon].strip()
    if not speaker:
        return _skip(problems, i, "turn group has an empty speaker", colon + 1)
    j = colon + 1
    while j < n and text[j].isspace():
        j += 1
    if j >= n or text[j] != "[":
        return _skip(problems, j, "turn group is missing its dialog id segment", j)
    id_close = text.find("]", j + 1)
    if id_close == -1:
        return _skip(problems, j, "unclosed dialog id bracket", n)
    dialog_id = text[j + 1 : id_close].strip()
    if not dialog_id:
        return _skip(problems, j, "turn group has an empty dialog id", id_close + 1)
    k = id_close + 1
    while k < n and text[k].isspace():
        k += 1
    if k >= n or text[k] != ":":
        return _skip(problems, k, "expected ':' after the dialog id", k)
    pairs, end = _scan(text, k + 1, n, problems, "[", _scan_pair, _STRAY_PAIR, terminator="}")
    if end >= n or text[end] != "}":
        return _skip(problems, i, "unclosed turn group", n)
    annotation = Annotation(tuple(pairs), Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL)
    return TurnScopedAnnotation(speaker, dialog_id, annotation), end + 1


def parse_turn_annotations(
    text: str,
    *,
    strict: bool = False,
    warnings: list[str] | None = None,
) -> list[TurnScopedAnnotation]:
    """Parse ``{speaker:[dialog_id]:[name]<value>...}`` groups, in order.

    A single outer ``[...]`` wrapper around the groups is tolerated. Empty
    input yields an empty list. ``strict`` and ``warnings`` work as in
    :func:`parse_annotation`; positions index ``text`` itself.
    """
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())
    wrapped = stripped.startswith("[") and stripped.endswith("]")
    if wrapped and stripped[1:].lstrip().startswith("{"):
        stripped = stripped[1:-1]
        offset += 1
    problems: _Problems = []
    stray = "stray text outside {...} turn group"
    groups, _ = _scan(stripped, 0, len(stripped), problems, "{", _parse_group, stray)
    _report(problems, strict, warnings, offset)
    return groups


def render_annotation(ann: Annotation) -> str:
    """Serialize pairs as ``[name]<value>`` joined by single spaces.

    ``parse_annotation(render_annotation(a))`` reproduces ``a``'s pairs
    exactly, order included: :class:`AttributePair` refuses the blank and
    ``none`` values that the parser drops.
    """
    return " ".join(p.render() for p in ann.pairs)
