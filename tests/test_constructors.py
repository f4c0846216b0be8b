"""The hand-written constructors of the three record types.

``AttributePair``, ``Annotation`` and ``MemoryItem`` build each field once,
where their frozen-dataclass bodies (kept in ``oracles.py``) set fields twice
through ``object.__setattr__``. These tests pin that they build the same
objects and refuse the same arguments with the same errors, that the types
stay immutable, and that the pair's name cache stays bounded and correct.
"""

import copy
import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import AnnotationOracle, AttributePairOracle, MemoryItemOracle

from memaug import (
    Annotation,
    AttributePair,
    Granularity,
    ItemKind,
    MemoryItem,
    Perspective,
    Prioritization,
    parse_annotation,
)
from memaug.annotations import _checked_name, is_blank_value
from memaug.mining import fan_out

# Texts that reach every rule: blank and "none" values, brackets, whitespace
# to normalise or trim, and strings that differ only in case.
_TEXT = st.one_of(
    st.sampled_from(["", " ", "none", " NONE ", "None", "x", "X ", "a b", " A  B", "a[b", "a]", "v<", ">v"]),
    st.text(alphabet=" \tnoeNOEab[]<>", max_size=6),
)
_OTHER = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=False),
    st.lists(st.integers(0, 2), max_size=2), st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=1),
)
_TEXT_OR_OTHER = st.one_of(_TEXT, _OTHER)


def _enum_value(enum_type):
    """Members, their values, unknown and unhashable values."""
    return st.one_of(
        st.sampled_from(list(enum_type)),
        st.sampled_from([member.value for member in enum_type]),
        st.sampled_from(["", "unknown", "ENTITY"]),
        _OTHER,
    )


def _shape(value):
    """A value with every record replaced by (qualified name, field shapes),
    so records of the new and the oracle type compare."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = tuple(_shape(getattr(value, f.name)) for f in dataclasses.fields(value))
        return type(value).__qualname__, fields
    if isinstance(value, tuple):
        return tuple(_shape(v) for v in value)
    return value


def _outcome(build):
    """What a construction gives: the object's fields, repr and hash, or the
    exception's type and message."""
    try:
        obj = build()
    except Exception as exc:
        return "raises", type(exc), str(exc)
    try:
        hashed = hash(obj)
    except TypeError as exc:
        hashed = "unhashable", str(exc)
    return "builds", _shape(obj), repr(obj), hashed


@st.composite
def _call(draw, params, values):
    """A call of a constructor with ``params``: some arguments positional (one
    too many included), the rest by keyword, some of those left out."""
    drawn = draw(st.tuples(*values, values[-1]))
    positional = draw(st.integers(0, len(params) + 1))
    omitted = draw(st.sets(st.sampled_from(params))) if draw(st.integers(0, 7)) == 0 else set()
    keywords = {p: v for p, v in zip(params[positional:], drawn[positional:]) if p not in omitted}
    return list(drawn[:positional]), keywords


def _same_construction(new, oracle, first, second, convert=lambda args, kwargs, pair: (args, kwargs)):
    """``new`` and ``oracle`` agree on both calls, and on whether the two
    objects are equal."""
    built = []
    for args, kwargs in (first, second):
        new_args, new_kwargs = convert(args, kwargs, AttributePair)
        old_args, old_kwargs = convert(args, kwargs, AttributePairOracle)
        got = _outcome(lambda: new(*new_args, **new_kwargs))
        expected = _outcome(lambda: oracle(*old_args, **old_kwargs))
        assert got == expected
        if got[0] == "builds":
            built.append((new(*new_args, **new_kwargs), oracle(*old_args, **old_kwargs)))
    if len(built) == 2:
        (new_a, old_a), (new_b, old_b) = built
        assert (new_a == new_b) == (old_a == old_b)


_PAIR_CALL = _call(("name", "value"), (_TEXT_OR_OTHER, _TEXT_OR_OTHER))


@settings(max_examples=400, deadline=None)
@given(first=_PAIR_CALL, second=_PAIR_CALL)
def test_pair_constructor_matches_the_dataclass_oracle(first, second):
    _same_construction(AttributePair, AttributePairOracle, first, second)


# Pair arguments, drawn from a small pool so that duplicates are common; a
# few entries are not pairs at all.
_PAIR_ARGS = st.lists(
    st.one_of(st.tuples(st.sampled_from(["a", "A ", "b"]), st.sampled_from(["1", " 1", "2"])), st.just("x")),
    max_size=5,
)
_ANNOTATION_CALL = _call(
    ("pairs", "perspective", "granularity", "prioritization"),
    (_PAIR_ARGS, _enum_value(Perspective), _enum_value(Granularity), _enum_value(Prioritization)),
)


def _with_pairs(args, kwargs, pair):
    """The call with its drawn (name, value) tuples built as ``pair`` objects."""
    def build(pairs):
        return tuple(pair(*p) if isinstance(p, tuple) else p for p in pairs)

    args = [build(args[0]), *args[1:]] if args else args
    if "pairs" in kwargs:
        kwargs = {**kwargs, "pairs": build(kwargs["pairs"])}
    return args, kwargs


@settings(max_examples=400, deadline=None)
@given(first=_ANNOTATION_CALL, second=_ANNOTATION_CALL)
def test_annotation_constructor_matches_the_dataclass_oracle(first, second):
    _same_construction(Annotation, AnnotationOracle, first, second, _with_pairs)


_PAIR_RECORD = st.one_of(
    st.fixed_dictionaries({"name": _TEXT_OR_OTHER, "value": _TEXT_OR_OTHER}),
    st.fixed_dictionaries({"name": _TEXT}),
    st.integers(0, 2),
)
_ANNOTATION_RECORD = st.one_of(
    st.fixed_dictionaries(
        {
            "pairs": st.one_of(st.lists(_PAIR_RECORD, max_size=4), _OTHER),
            "perspective": _enum_value(Perspective),
            "granularity": _enum_value(Granularity),
            "prioritization": _enum_value(Prioritization),
        }
    ).flatmap(lambda record: st.sampled_from([None, *record]).map(
        lambda dropped: {k: v for k, v in record.items() if k != dropped}
    )),
    _OTHER,
)


@settings(max_examples=400, deadline=None)
@given(first=_ANNOTATION_RECORD, second=_ANNOTATION_RECORD)
def test_annotation_from_dict_matches_the_dataclass_oracle(first, second):
    _same_construction(
        Annotation.from_dict, AnnotationOracle.from_dict, ([first], {}), ([second], {})
    )


_ITEM_CALL = _call(
    ("id", "kind", "content", "speaker", "session_id", "turn_id", "timestamp"),
    (
        _TEXT_OR_OTHER, _enum_value(ItemKind), _TEXT_OR_OTHER,
        *[st.one_of(st.none(), st.none(), _TEXT_OR_OTHER)] * 4,
    ),
)


@settings(max_examples=400, deadline=None)
@given(first=_ITEM_CALL, second=_ITEM_CALL)
def test_item_constructor_matches_the_dataclass_oracle(first, second):
    _same_construction(MemoryItem, MemoryItemOracle, first, second)


def test_annotation_keeps_the_first_of_equal_pairs():
    first, again = AttributePair("a", "1"), AttributePair(" A", "1 ")
    assert first == again and first is not again
    assert Annotation((first, AttributePair("b", "2"), again)).pairs[0] is first


_RECORDS = [
    AttributePair(" Genre ", " noir "),
    Annotation((AttributePair("a", "1"), AttributePair("A", "1"), AttributePair("b", "2")), Perspective.ENTITY_CENTRIC),
    MemoryItem("t1", ItemKind.DIALOGUE_TURN, "hi", speaker="Ann", session_id="s1", turn_id="1", timestamp="now"),
]


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
class TestImmutable:
    def test_setting_or_deleting_a_field_raises(self, record):
        for field in dataclasses.fields(record):
            before = getattr(record, field.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, before)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
            assert getattr(record, field.name) is before

    def test_replace_builds_through_the_constructor(self, record):
        assert dataclasses.replace(record) == record
        field = dataclasses.fields(record)[0]
        changed = {"name": " Mood ", "pairs": (AttributePair("c", "3"), AttributePair("c", "3"))}.get(field.name, "t2")
        replaced = dataclasses.replace(record, **{field.name: changed})
        expected = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
        assert replaced == type(record)(**{**expected, field.name: changed})
        assert replaced != record

    def test_deepcopy_round_trips_equal(self, record):
        copied = copy.deepcopy(record)
        assert copied == record and hash(copied) == hash(record)
        assert copied is not record


def test_replace_checks_the_new_value():
    with pytest.raises(TypeError, match="^field 'content' must be a string, got int$"):
        dataclasses.replace(_RECORDS[2], content=5)
    with pytest.raises(ValueError, match="attribute value may not be empty or 'none'"):
        dataclasses.replace(_RECORDS[0], value=" none ")


class TestNameCache:
    def test_stays_at_its_maxsize(self):
        maxsize = _checked_name.cache_parameters()["maxsize"]
        _checked_name.cache_clear()
        for i in range(10_000):
            AttributePair(f"Name {i}", "x")
        assert _checked_name.cache_info().currsize == maxsize < 10_000

    @pytest.mark.parametrize(
        "name, message",
        [
            (" \t ", "attribute name is empty after normalization"),
            ("A[b", "attribute name may not contain '[' or ']': 'a[b'"),
            ("b ]", "attribute name may not contain '[' or ']': 'b ]'"),
        ],
        ids=["blank", "open-bracket", "close-bracket"],
    )
    def test_a_refused_name_is_not_cached(self, name, message):
        _checked_name.cache_clear()
        for _ in range(3):
            with pytest.raises(ValueError) as refused:
                AttributePair(name, "x")
            assert str(refused.value) == message
        assert _checked_name.cache_info().currsize == 0

    def test_names_are_shared_strings(self):
        assert AttributePair(" Genre", "a").name is AttributePair(" Genre", "b").name

    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_concurrent_pairs_equal_serial_ones(self, parallelism):
        # More raw names than the cache holds, so entries are evicted while
        # the threads build, and a short switch interval interleaves them.
        maxsize = _checked_name.cache_parameters()["maxsize"]
        raw = [(f" Name  {i % (maxsize + 300)} ".upper() if i % 3 else f"name {i % 97}", f"v{i}") for i in range(6_000)]

        def build(batch):
            return [AttributePair(name, value) for name, value in batch]

        batches = [raw[i : i + 50] for i in range(0, len(raw), 50)]
        _checked_name.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            concurrent = fan_out(build, batches, parallelism)
        finally:
            sys.setswitchinterval(interval)
        _checked_name.cache_clear()
        serial = build(raw)
        assert [pair for batch in concurrent for pair in batch] == serial
        assert [(p.name, p.value) for p in serial[:3]] == [("name 0", "v0"), ("name 1", "v1"), ("name 2", "v2")]
        assert _checked_name.cache_info().currsize == maxsize


@pytest.mark.parametrize(
    "value",
    ["", " ", "none", " NONE ", "None", "nOnE", "x", "nones", "non e", "n"],
    ids=["empty", "space", "none", "padded-NONE", "None", "nOnE", "x", "nones", "non-e", "n"],
)
def test_one_blank_value_rule_for_the_parser_and_the_pair(value):
    blank = is_blank_value(value.strip())
    assert blank == (value.strip().casefold() in ("", "none"))
    warnings: list[str] = []
    parsed = parse_annotation(f"[genre]<{value}>", warnings=warnings)
    assert (len(parsed) == 0) == blank and warnings == []
    if blank:
        with pytest.raises(ValueError, match="attribute value may not be empty or 'none'"):
            AttributePair("genre", value)
    else:
        assert parsed.pairs == (AttributePair("genre", value),)
