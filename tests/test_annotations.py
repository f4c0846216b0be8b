"""Annotation model and parser tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaug import (
    Annotation,
    AttributePair,
    Granularity,
    ParseError,
    Perspective,
    Prioritization,
    normalize_name,
    parse_annotation,
    parse_turn_annotations,
    render_annotation,
)
from oracles import parse_annotation_oracle, parse_turn_annotations_oracle


class TestAttributePair:
    def test_name_is_normalized(self):
        pair = AttributePair("  Genre  Of   Movie ", " Drama ")
        assert pair.name == "genre of movie"
        assert pair.value == "Drama"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            AttributePair("   ", "x")

    def test_structural_characters_rejected(self):
        with pytest.raises(ValueError):
            AttributePair("a[b", "x")
        with pytest.raises(ValueError):
            AttributePair("a", "x<y")

    @pytest.mark.parametrize("value", ["", "  ", "\t\n", "none", "None", " NONE "])
    def test_blank_or_none_value_rejected(self, value):
        # parse_annotation drops such a span, so the pair could not survive
        # render and parse.
        with pytest.raises(ValueError, match="attribute value may not be empty or 'none'"):
            AttributePair("genre", value)

    @pytest.mark.parametrize(
        "name, value, types",
        [
            (5, "x", "int and str"),
            ("genre", None, "str and NoneType"),
            (["a"], 1.5, "list and float"),
        ],
    )
    def test_name_or_value_that_is_not_a_string_rejected(self, name, value, types):
        message = f"pair name and value must be strings, got {types}"
        with pytest.raises(TypeError, match=f"^{message}$"):
            AttributePair(name, value)

    def test_normalization_idempotent(self):
        name = normalize_name("  A  B\tC ")
        assert normalize_name(name) == name


class TestAnnotation:
    def test_exact_duplicates_dropped_keeping_first(self):
        ann = Annotation(
            pairs=(
                AttributePair("a", "1"),
                AttributePair("b", "2"),
                AttributePair("a", "1"),
            )
        )
        assert [(p.name, p.value) for p in ann.pairs] == [("a", "1"), ("b", "2")]

    def test_same_name_distinct_values_kept(self):
        ann = Annotation(pairs=(AttributePair("genre", "drama"), AttributePair("genre", "noir")))
        assert len(ann) == 2

    def test_from_dict(self):
        data = {
            "pairs": [{"name": "a", "value": "1"}],
            "perspective": "entity_centric",
            "granularity": "not_applicable",
            "prioritization": "priority",
        }
        assert Annotation.from_dict(data) == Annotation(
            pairs=(AttributePair("a", "1"),),
            perspective=Perspective.ENTITY_CENTRIC,
            granularity=Granularity.NOT_APPLICABLE,
            prioritization=Prioritization.PRIORITY,
        )

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            Annotation.from_dict({"pairs": "nope"})


class TestParseAnnotation:
    def test_single_pair(self):
        ann = parse_annotation("[genre]<Drama>")
        assert [(p.name, p.value) for p in ann.pairs] == [("genre", "Drama")]

    def test_order_preserved_and_names_folded(self):
        ann = parse_annotation("[Genre]<Drama> [director]<X>")
        assert [(p.name, p.value) for p in ann.pairs] == [("genre", "Drama"), ("director", "X")]

    def test_unclosed_bracket_strict(self):
        with pytest.raises(ParseError) as exc_info:
            parse_annotation("[genre<Drama>", strict=True)
        assert exc_info.value.position == 0
        assert "unclosed attribute bracket" in exc_info.value.reason

    def test_empty_input_yields_empty_annotation(self):
        assert len(parse_annotation("")) == 0
        assert len(parse_annotation("   \n  ", strict=True)) == 0

    def test_whitespace_and_blank_lines_between_pairs(self):
        ann = parse_annotation("[a]<1>\n\n   [b]<2>\t[c]<3>", strict=True)
        assert ann.names == ("a", "b", "c")

    def test_stray_text_strict_raises(self):
        with pytest.raises(ParseError):
            parse_annotation("[a]<1> junk [b]<2>", strict=True)

    def test_stray_text_lenient_skips_and_warns(self):
        warnings: list[str] = []
        ann = parse_annotation("[a]<1> junk [b]<2>", warnings=warnings)
        assert ann.names == ("a", "b")
        assert len(warnings) == 1

    def test_name_without_value_strict(self):
        with pytest.raises(ParseError):
            parse_annotation("[a] [b]<2>", strict=True)

    def test_lenient_resyncs_after_malformed_pair(self):
        warnings: list[str] = []
        ann = parse_annotation("[a] [b]<2>", warnings=warnings)
        assert ann.names == ("b",)
        assert warnings

    def test_none_and_empty_values_dropped(self):
        ann = parse_annotation("[a]<none> [b]<> [c]< None > [d]<real>", strict=True)
        assert ann.names == ("d",)

    def test_value_keeps_inner_brackets_and_whitespace(self):
        ann = parse_annotation("[a]<x [y] z>", strict=True)
        assert ann.pairs[0].value == "x [y] z"


class TestParseTurnAnnotations:
    def test_single_group(self):
        groups = parse_turn_annotations("{Ana:[D1]:[emotion]<happy>}")
        assert len(groups) == 1
        group = groups[0]
        assert group.speaker == "Ana"
        assert group.dialog_id == "D1"
        assert [(p.name, p.value) for p in group.annotation.pairs] == [("emotion", "happy")]
        assert group.annotation.granularity is Granularity.TURN_LEVEL

    def test_empty_input(self):
        assert parse_turn_annotations("") == []

    def test_two_groups_in_order(self):
        groups = parse_turn_annotations("{Ana:[D1]:[a]<1>}{Bob:[D2]:[b]<2>}")
        assert [(g.speaker, g.dialog_id) for g in groups] == [("Ana", "D1"), ("Bob", "D2")]

    def test_outer_bracket_wrapper_tolerated(self):
        groups = parse_turn_annotations("[{Ana:[D1]:[a]<1>}]", strict=True)
        assert len(groups) == 1

    def test_missing_speaker_strict(self):
        with pytest.raises(ParseError):
            parse_turn_annotations("{:[D1]:[a]<1>}", strict=True)

    def test_missing_dialog_id_strict(self):
        with pytest.raises(ParseError):
            parse_turn_annotations("{Ana:[a]<1>}", strict=True)

    def test_lenient_skips_bad_group(self):
        warnings: list[str] = []
        groups = parse_turn_annotations(
            "{:[D1]:[a]<1>} {Bob:[D2]:[b]<2>}", warnings=warnings
        )
        assert [g.speaker for g in groups] == ["Bob"]
        assert warnings


class TestRenderAnnotation:
    def test_single_pair(self):
        assert render_annotation(Annotation(pairs=(AttributePair("genre", "Drama"),))) == "[genre]<Drama>"

    def test_empty(self):
        assert render_annotation(Annotation()) == ""

    def test_two_pairs_space_separated(self):
        ann = Annotation(pairs=(AttributePair("a", "1"), AttributePair("b", "2")))
        assert render_annotation(ann) == "[a]<1> [b]<2>"


_name_strategy = st.text(
    alphabet=st.characters(blacklist_characters="[]", whitelist_categories=("L", "N"), max_codepoint=0x2FF),
    min_size=1,
    max_size=10,
).filter(lambda s: s.strip())

_value_strategy = st.text(
    alphabet=st.characters(blacklist_characters="<>", whitelist_categories=("L", "N", "P", "Zs"), max_codepoint=0x2FF),
    min_size=1,
    max_size=14,
).filter(lambda s: s.strip() and s.strip().casefold() != "none")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_name_strategy, _value_strategy), max_size=20),
    st.sampled_from(list(Prioritization)),
)
def test_round_trip_property(raw_pairs, prioritization):
    ann = Annotation(
        pairs=tuple(AttributePair(n, v) for n, v in raw_pairs),
        prioritization=prioritization,
    )
    parsed = parse_annotation(render_annotation(ann), strict=True)
    assert parsed.pairs == ann.pairs


class TestTurnPositions:
    """Turn-group positions index the caller's text, not a stripped copy."""

    @pytest.mark.parametrize(
        "text,position,reason",
        [
            ("  {:[D1]:[a]<1>}", 2, "turn group has an empty speaker"),
            ("\n\n{Ana:[D1] [a]<1>}", 12, "expected ':' after the dialog id"),
            (" [ {:[D1]:[a]<1>}]", 3, "turn group has an empty speaker"),
        ],
        ids=["leading-whitespace", "failing-character", "outer-wrapper"],
    )
    def test_strict_position(self, text, position, reason):
        with pytest.raises(ParseError) as exc_info:
            parse_turn_annotations(text, strict=True)
        assert (exc_info.value.position, exc_info.value.reason) == (position, reason)

    def test_lenient_warnings_use_the_same_positions(self):
        warnings: list[str] = []
        groups = parse_turn_annotations("  {:[D1]:[a]<1>} {Bob:[D2]:[b]<2>}", warnings=warnings)
        assert [g.speaker for g in groups] == ["Bob"]
        assert warnings[0] == "skipped turn group has an empty speaker (position 2)"


# Characters and fragments that sit near the grammar, so every one of the
# fifteen ways to reject a span comes up, followed by varied text. The
# whitespace that is not ASCII (an em space, a file separator, a next-line
# character), an inner run of spaces and the case and trim of values hold
# the compiled well-formed steps to str.isspace and normalize_name.
_PARSER_PIECES = st.sampled_from(
    list("[]{}<>: \n\tx")
    + ["none", "[x]<1>", "[ ]<1>", "[a[b]<1>", "<a<b>", "<v>", "[x] ", "[x]<"]
    + ["{Ana:[D1]:", "{Ana:", "{ :", "{x}", "[D1]", "[ ]:", "[D1] :", "{Bo:[D2]:[y]<2>}"]
    + ["\u2003", "\x1c", "\x85", "[A  B]<1>", "[x]<NONE>", "[x]< v >"]
)


def _outcome(parse, text, shift=0):
    """Lenient result, strict (reason, position) or None, and warning count."""
    warnings: list[str] = []
    lenient = parse(text, warnings=warnings)
    try:
        parse(text, strict=True)
        strict = None
    except ParseError as exc:
        strict = (exc.reason, exc.position + shift)
    return lenient, strict, len(warnings)


def _turn_offset(text):
    """Where the text the old turn parser indexed starts inside ``text``."""
    stripped = text.strip()
    wrapped = stripped.startswith("[") and stripped.endswith("]")
    unwrap = wrapped and stripped[1:].lstrip().startswith("{")
    return len(text) - len(text.lstrip()) + unwrap


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PARSER_PIECES, max_size=16).map("".join))
def test_parsers_match_the_two_path_oracle(text):
    assert _outcome(parse_annotation, text) == _outcome(parse_annotation_oracle, text)
    assert _outcome(parse_turn_annotations, text) == _outcome(
        parse_turn_annotations_oracle, text, shift=_turn_offset(text)
    )


# Turn groups built around runs of pieces, so that whole groups, which the
# pieces alone rarely make, meet every kind of span inside them.
_GROUP_PIECES = st.builds(
    "{{{}:[{}]:{}}}".format,
    st.sampled_from(["Ana", " ", "A\u2003b"]),
    st.sampled_from(["D1", " ", "\x85D2"]),
    st.lists(_PARSER_PIECES, max_size=6).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_GROUP_PIECES | _PARSER_PIECES, max_size=4).map("".join))
def test_turn_groups_match_the_two_path_oracle(text):
    assert _outcome(parse_turn_annotations, text) == _outcome(
        parse_turn_annotations_oracle, text, shift=_turn_offset(text)
    )
