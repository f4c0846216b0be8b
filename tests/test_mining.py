"""Attribute miner tests: modes, retries, corpus accounting."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaug import (
    AttributeMiner,
    AugmentFailure,
    Granularity,
    GranularityMismatchError,
    ItemKind,
    MemoryItem,
    MockChatBackend,
    Perspective,
    Prioritization,
    TransportError,
)
from memaug.annotations import parse_turn_annotations
from memaug.datasets import load_conversation_dataset, store_from_sessions
from memaug.errors import BackendRefusal
from memaug.mining import fan_out, parse_person_attributes, turn_payload
from memaug.templates import LENGTH_BUDGET, MINING_TEMPLATES, ResponseFormat

from doubles import (
    SESSION_FAULTS,
    CountingChatBackend,
    SessionFaultChatBackend,
    StaticChatBackend,
)
from oracles import mine_corpus_per_turn_oracle
from synthetic import build_qa_fixture


def make_turn(i: int, text: str, *, turn_id: str | None = None) -> MemoryItem:
    return MemoryItem(
        id=f"t{i}",
        kind=ItemKind.DIALOGUE_TURN,
        content=text,
        speaker="Ana",
        session_id="s1",
        turn_id=turn_id or f"t{i}",
    )


SESSION_RULES = {
    "pizza": ("food", "pizza"),
    "paris": ("city", "paris"),
    "comedy": ("genre", "comedy"),
    "jazz": ("music", "jazz"),
}


class AnnotatesEveryLine:
    """Replies to a turn prompt with a ``[topic]<chat>`` group for each of its lines."""

    def complete(self, prompt, *, template=None, payload=None):
        ids = [line[1 : line.index("]")] for line in payload.splitlines()]
        return "".join(f"{{Ana:[{turn_id}]:[topic]<chat>}}" for turn_id in ids)


def mine_both(backend, items, **options):
    """Batched ``mine_corpus`` and the per-turn oracle, each on a fresh miner."""
    got = AttributeMiner(backend, **options).mine_corpus(items)
    want = mine_corpus_per_turn_oracle(AttributeMiner(backend, **options), items)
    return got, want


# Words the session mock mines, names it captures, and words it finds nothing in.
_WORDS = st.sampled_from([*SESSION_RULES, "Ana", "Bob", "zzz", "[x]", "{y}", "a:b", "q]"])
_CONTENTS = st.one_of(
    st.just(""),
    st.lists(_WORDS, min_size=1, max_size=4).map(" ".join),
    st.lists(_WORDS, min_size=2, max_size=4).map("\n".join),
)
_TURN_IDS = st.one_of(
    st.integers(0, 999).map(lambda n: f"d{n}"),
    st.text(alphabet="ab[]:{} ", min_size=1, max_size=3),
)


@st.composite
def _session_corpora(draw):
    """Turns of up to four sessions of 1-25 turns, in a shuffled order."""
    turns = []
    for session in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 25))):
            speaker = draw(st.sampled_from(["Ana", "Bob", None]))
            turns.append((f"s{session}", draw(_TURN_IDS), draw(_CONTENTS), speaker))
    turns = draw(st.permutations(turns))
    return [
        MemoryItem(
            id=f"i{n}",
            kind=ItemKind.DIALOGUE_TURN,
            content=content,
            speaker=speaker,
            session_id=session_id,
            turn_id=turn_id,
        )
        for n, (session_id, turn_id, content, speaker) in enumerate(turns)
    ]


class TestMine:
    def test_mock_rule_table_end_to_end(self):
        # expected pairs from the hand-run of the default rule table over
        # "I loved the thriller Heat" (payload also carries the speaker line)
        miner = AttributeMiner(
            MockChatBackend(),
            granularity=Granularity.TURN_LEVEL,
            prioritization=Prioritization.PRIORITY,
        )
        annotation = miner.mine(make_turn(1, "I loved the thriller Heat"))
        pairs = [(p.name, p.value) for p in annotation.pairs]
        assert ("sentiment", "positive") in pairs
        assert ("genre", "thriller") in pairs

    def test_turn_scoped_template_selects_matching_group(self):
        miner = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL)
        annotation = miner.mine(make_turn(3, "such a boring comedy"))
        pairs = [(p.name, p.value) for p in annotation.pairs]
        assert pairs == [("sentiment", "negative"), ("genre", "comedy")]

    def test_turn_scoped_reply_for_another_turn_gives_its_first_group(self):
        # A reply whose groups all name other dialog ids falls back to the
        # first group; a batched turn path must not rely on this.
        backend = StaticChatBackend(["{Bob:[t9]:[genre]<noir>}{Bob:[t8]:[genre]<heist>}"])
        miner = AttributeMiner(backend, granularity=Granularity.TURN_LEVEL)
        annotation = miner.mine(make_turn(1, "nothing to mine"))
        assert [(p.name, p.value) for p in annotation.pairs] == [("genre", "noir")]

    def test_retry_contract_empty_responses(self):
        backend = StaticChatBackend([""])
        miner = AttributeMiner(backend, max_retries=2)
        with pytest.raises(AugmentFailure) as exc_info:
            miner.mine(make_turn(1, "whatever"))
        assert exc_info.value.reason == "unparseable"
        assert backend.calls == 3

    def test_retry_recovers_after_transient_failure(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, *, template=None, payload=None):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("boom", transient=True)
                return "[genre]<noir>"

        miner = AttributeMiner(
            Flaky(), max_retries=1, prioritization=Prioritization.PRIORITY
        )
        annotation = miner.mine(make_turn(1, "text"))
        assert annotation.names == ("genre",)

    def test_transport_reason_reported(self):
        class AlwaysDown:
            def complete(self, prompt, *, template=None, payload=None):
                raise TransportError("down", transient=True)

        miner = AttributeMiner(AlwaysDown(), max_retries=1)
        with pytest.raises(AugmentFailure) as exc_info:
            miner.mine(make_turn(1, "text"))
        assert exc_info.value.reason == "transport"

    def test_refusal_is_not_retried(self):
        class Refusing:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, *, template=None, payload=None):
                self.calls += 1
                raise BackendRefusal("declined")

        backend = Refusing()
        miner = AttributeMiner(backend, max_retries=3)
        with pytest.raises(AugmentFailure) as exc_info:
            miner.mine(make_turn(1, "text"))
        assert exc_info.value.reason == "refusal"
        assert backend.calls == 1
        with pytest.raises(AugmentFailure):
            miner.mine_question("what does Ana do?")
        assert backend.calls == 2

    def test_lasting_transport_error_is_not_retried(self):
        class BadRequest:
            def __init__(self):
                self.calls = 0

            def complete(self, prompt, *, template=None, payload=None):
                self.calls += 1
                raise TransportError("chat request returned HTTP 400: bad request")

        backend = BadRequest()
        miner = AttributeMiner(backend, max_retries=3)
        with pytest.raises(AugmentFailure) as exc_info:
            miner.mine(make_turn(1, "text"))
        assert exc_info.value.reason == "transport"
        assert isinstance(exc_info.value.__cause__, TransportError)
        assert backend.calls == 1
        with pytest.raises(AugmentFailure):
            miner.mine_question("what does Ana do?")
        assert backend.calls == 2

    def test_entity_centric_requires_na_granularity(self):
        with pytest.raises(ValueError):
            AttributeMiner(
                MockChatBackend(),
                perspective=Perspective.ENTITY_CENTRIC,
                granularity=Granularity.TURN_LEVEL,
            )

    def test_mode_tagging(self):
        miner = AttributeMiner(
            MockChatBackend(),
            perspective=Perspective.ENTITY_CENTRIC,
            granularity=Granularity.NOT_APPLICABLE,
            prioritization=Prioritization.PRIORITY,
        )
        item = MemoryItem(id="m1", kind=ItemKind.ENTITY, content="a great thriller")
        annotation = miner.mine(item)
        assert annotation.perspective is Perspective.ENTITY_CENTRIC
        assert annotation.granularity is Granularity.NOT_APPLICABLE
        assert annotation.prioritization is Prioritization.PRIORITY

    def test_turn_parser_tags_are_those_of_every_turn_scoped_template(self):
        # A miner takes the annotations parse_turn_annotations builds as they are.
        parsed = parse_turn_annotations("{Ana:[t1]:[genre]<noir>}")[0].annotation
        tags = (parsed.perspective, parsed.granularity, parsed.prioritization)
        turn_scoped = [
            triple for triple, template in MINING_TEMPLATES.items()
            if template.expected_format is ResponseFormat.TURN_SCOPED_PAIR_LIST
        ]
        assert turn_scoped == [tags]

    @pytest.mark.parametrize("triple", list(MINING_TEMPLATES), ids=lambda t: "-".join(m.value for m in t))
    def test_every_mode_tags_what_it_mines(self, triple):
        perspective, granularity, prioritization = triple
        miner = AttributeMiner(
            MockChatBackend(SESSION_RULES), perspective=perspective,
            granularity=granularity, prioritization=prioritization,
        )
        kind = {
            Granularity.NOT_APPLICABLE: ItemKind.ENTITY,
            Granularity.TURN_LEVEL: ItemKind.DIALOGUE_TURN,
            Granularity.SESSION_LEVEL: ItemKind.SESSION,
        }[granularity]
        items = [
            MemoryItem(f"i{n}", kind, text, speaker="Ana", session_id="s1", turn_id=f"t{n}")
            for n, text in enumerate(["pizza in paris", "a jazz comedy"])
        ]
        results, report = miner.mine_corpus(items)
        assert report.failed == 0
        for _, annotation in results + [("one", miner.mine(items[0]))]:
            assert (annotation.perspective, annotation.granularity, annotation.prioritization) == triple

    def test_never_returns_zero_pairs(self):
        miner = AttributeMiner(MockChatBackend(), max_retries=0)
        with pytest.raises(AugmentFailure):
            miner.mine(make_turn(1, "zzz qqq"))

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            AttributeMiner(MockChatBackend(), max_retries=-1)

    def test_empty_content_rejected(self):
        miner = AttributeMiner(MockChatBackend())
        with pytest.raises(ValueError):
            miner.mine_text("")

    @pytest.mark.parametrize("blank", [" ", "\n", " \t\n "])
    def test_blank_text_refused_before_any_call(self, blank):
        backend = StaticChatBackend(["{Ana:[t1]:[genre]<comedy>}"])
        miner = AttributeMiner(backend)
        with pytest.raises(ValueError, match="^item content must be non-empty$"):
            miner.mine(make_turn(1, blank))
        with pytest.raises(ValueError, match="^payload must be non-empty$"):
            miner.mine_text(blank)
        assert backend.calls == 0

    @pytest.mark.parametrize(
        "setting, value, message",
        [
            ("max_retries", 1.5, "max_retries must be a non-negative integer, got 1.5"),
            ("max_retries", True, "max_retries must be a non-negative integer, got True"),
            ("max_retries", "2", "max_retries must be a non-negative integer, got '2'"),
            ("parallelism", 2.5, "parallelism must be a positive integer, got 2.5"),
            ("parallelism", True, "parallelism must be a positive integer, got True"),
        ],
    )
    def test_count_that_is_not_an_int_rejected(self, setting, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            AttributeMiner(MockChatBackend(), **{setting: value})

    @pytest.mark.parametrize(
        "perspective, granularity, item",
        [
            (Perspective.CONVERSATION_CENTRIC, Granularity.SESSION_LEVEL, make_turn(1, "a comedy")),
            (Perspective.ENTITY_CENTRIC, Granularity.NOT_APPLICABLE, make_turn(1, "a comedy")),
            (Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL,
             MemoryItem(id="m1", kind=ItemKind.ENTITY, content="a comedy")),
        ],
        ids=["session-miner-turn", "entity-miner-turn", "turn-miner-entity"],
    )
    def test_item_kind_the_granularity_cannot_annotate_refused_before_any_call(
        self, perspective, granularity, item
    ):
        backend = StaticChatBackend(["[genre]<comedy>"])
        miner = AttributeMiner(backend, perspective=perspective, granularity=granularity)
        message = f"^item kind {item.kind.value} requires granularity "
        with pytest.raises(GranularityMismatchError, match=message):
            miner.mine(item)
        assert backend.calls == 0

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError):
            AttributeMiner(MockChatBackend(), parallelism=0)

    @pytest.mark.parametrize(
        "perspective, granularity",
        [
            (Perspective.ENTITY_CENTRIC, Granularity.SESSION_LEVEL),
            (Perspective.CONVERSATION_CENTRIC, Granularity.NOT_APPLICABLE),
        ],
        ids=["entity-session", "conversation-na"],
    )
    def test_impossible_mode_triple_refused_at_construction(self, perspective, granularity):
        with pytest.raises(ValueError, match="no mining template for"):
            AttributeMiner(MockChatBackend(), perspective=perspective, granularity=granularity)


class TestTurnPayload:
    def test_format(self):
        assert turn_payload(make_turn(7, "hello")) == "[t7] Ana: hello"


class TestParsePersonAttributes:
    def test_both_segments(self):
        out = parse_person_attributes("Person:[Ana]Attributes:[job, city]")
        assert out.persons == ("Ana",)
        assert out.attributes == ("job", "city")

    def test_attributes_only(self):
        out = parse_person_attributes("Attributes:[genre]")
        assert out.persons == ()
        assert out.attributes == ("genre",)

    def test_unparseable(self):
        with pytest.raises(AugmentFailure) as exc_info:
            parse_person_attributes("no idea")
        assert exc_info.value.reason == "unparseable"

    def test_multi_person_comma_separated(self):
        out = parse_person_attributes("Person:[Ana, Bob]Attributes:[]")
        assert out.persons == ("Ana", "Bob")
        assert out.attributes == ()

    def test_attribute_names_normalized(self):
        out = parse_person_attributes("Attributes:[Life  Event, GENRE]")
        assert out.attributes == ("life event", "genre")


class TestMineQuestion:
    def test_end_to_end(self):
        miner = AttributeMiner(MockChatBackend())
        out = miner.mine_question("What thriller did Ana enjoy")
        assert out.persons == ("Ana",)
        assert out.attributes == ("genre",)

    def test_failure_after_retries(self):
        backend = StaticChatBackend(["garbage"])
        miner = AttributeMiner(backend, max_retries=2)
        with pytest.raises(AugmentFailure):
            miner.mine_question("anything")
        assert backend.calls == 3

    @pytest.mark.parametrize("blank", ["", " ", " \t\n "])
    def test_blank_question_refused_before_any_call(self, blank):
        backend = StaticChatBackend(["Person:[Ana]Attributes:[genre]"])
        with pytest.raises(ValueError, match="^question must be non-empty$"):
            AttributeMiner(backend).mine_question(blank)
        assert backend.calls == 0


class TestMineCorpus:
    def test_all_parseable(self):
        miner = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL)
        items = [make_turn(i, f"a lovely comedy number {i}") for i in range(3)]
        results, report = miner.mine_corpus(items)
        assert report.total == 3
        assert report.failed == 0
        assert report.failure_rate == 0.0
        assert [item_id for item_id, _ in results] == ["t0", "t1", "t2"]

    def test_failure_rate_with_one_forced_failure(self):
        miner = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL, max_retries=0)
        items = [make_turn(i, "a fine comedy") for i in range(999)]
        items.append(make_turn(999, "zzz qqq"))  # fires no rules -> failure
        results, report = miner.mine_corpus(items)
        assert report.total == 1000
        assert report.failed == 1
        assert report.failure_rate == pytest.approx(0.001)
        assert report.failures == [("t999", "unparseable")]
        assert len(results) == 999

    def test_duplicate_ids_rejected(self):
        miner = AttributeMiner(MockChatBackend())
        items = [make_turn(1, "x"), make_turn(1, "y")]
        with pytest.raises(ValueError):
            miner.mine_corpus(items)

    def test_unannotatable_item_kind_refused_before_any_call(self):
        backend = StaticChatBackend(["[genre]<comedy>"])
        miner = AttributeMiner(backend, granularity=Granularity.TURN_LEVEL, parallelism=2)
        items = [make_turn(0, "a fine comedy"), make_turn(1, "a drama")]
        items.append(MemoryItem(id="e0", kind=ItemKind.ENTITY, content="a noir film"))
        message = "^item kind entity requires granularity not_applicable, got turn_level$"
        with pytest.raises(GranularityMismatchError, match=message):
            miner.mine_corpus(items)
        assert backend.calls == 0

    def test_parallel_matches_serial(self):
        items = [make_turn(i, f"a {word} film") for i, word in enumerate(
            ["comedy", "thriller", "drama", "horror", "boring", "great"] * 4
        )]
        serial = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL)
        parallel = AttributeMiner(
            MockChatBackend(), granularity=Granularity.TURN_LEVEL, parallelism=4
        )
        assert serial.mine_corpus(items) == parallel.mine_corpus(items)

    def test_over_budget_item_recorded_not_raised(self):
        miner = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL)
        items = [
            make_turn(0, "a fine comedy"),
            make_turn(1, "c" * LENGTH_BUDGET),  # the turn payload adds "[t1] Ana: "
            make_turn(2, "a drama"),
        ]
        results, report = miner.mine_corpus(items)
        assert report.failures == [("t1", "too_long")]
        assert [item_id for item_id, _ in results] == ["t0", "t2"]

    def test_empty_item_recorded_not_raised(self):
        miner = AttributeMiner(MockChatBackend(), granularity=Granularity.TURN_LEVEL)
        items = [make_turn(0, "a fine comedy"), make_turn(1, ""), make_turn(2, "a drama")]
        results, report = miner.mine_corpus(items)
        assert report.failures == [("t1", "empty")]
        assert (report.total, report.succeeded, report.failed) == (3, 2, 1)
        assert [item_id for item_id, _ in results] == ["t0", "t2"]

    @pytest.mark.parametrize("blank", [" ", "\n", " \t\n "])
    def test_blank_entity_fails_as_empty_with_no_call(self, blank):
        backend = CountingChatBackend(MockChatBackend())
        miner = AttributeMiner(
            backend, perspective=Perspective.ENTITY_CENTRIC, granularity=Granularity.NOT_APPLICABLE
        )
        items = [MemoryItem(id="m0", kind=ItemKind.ENTITY, content=blank)]
        results, report = miner.mine_corpus(items)
        assert (results, report.failures) == ([], [("m0", "empty")])
        assert backend.calls == {}

    @settings(max_examples=150, deadline=None)
    @given(
        items=_session_corpora(),
        fault=st.sampled_from([None, *SESSION_FAULTS]),
        max_retries=st.integers(0, 1),
        parallelism=st.sampled_from([1, 2]),
    )
    def test_session_batching_matches_the_per_turn_oracle(
        self, items, fault, max_retries, parallelism
    ):
        backend = MockChatBackend(SESSION_RULES)
        if fault is not None:
            backend = SessionFaultChatBackend(backend, fault)
        got, want = mine_both(backend, items, max_retries=max_retries, parallelism=parallelism)
        assert got == want

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("claimant", ["a]b", " a"])
    def test_turn_id_holding_another_turns_id_keeps_its_own_pairs(self, parallelism, claimant):
        # The mock reads the dialog id up to the first "]" and strips it, so
        # the group of the turn with id "a]b" or " a" claims id "a". With
        # the group of turn "a" lost from the session reply, taking the one
        # group that carries "a" would give turn "a" the other turn's pizza.
        class DropsTurnA:
            """The mock, less the group of turn "a" in a reply to several turns."""

            def complete(self, prompt, *, template=None, payload=None):
                lines = payload.splitlines()
                if len(lines) > 1:
                    payload = "\n".join(line for line in lines if not line.startswith("[a] "))
                return mock.complete(payload, template=template, payload=payload)

        mock = MockChatBackend(SESSION_RULES)
        items = [
            make_turn(0, "pizza", turn_id=claimant),
            make_turn(1, "paris", turn_id="a"),
            make_turn(2, "comedy", turn_id="c"),
        ]
        for backend in (mock, DropsTurnA()):
            got, want = mine_both(backend, items, parallelism=parallelism)
            assert got == want
            pairs = {item_id: [(p.name, p.value) for p in ann.pairs] for item_id, ann in got[0]}
            assert pairs["t0"] == [("food", "pizza")]
            assert pairs["t1"] == [("city", "paris")]
            assert pairs["t2"] == [("genre", "comedy")]

    def test_empty_turn_fails_as_empty_when_the_session_reply_annotates_it(self):
        items = [make_turn(0, "pizza"), make_turn(1, ""), make_turn(2, "paris")]
        got, want = mine_both(AnnotatesEveryLine(), items)
        assert got == want
        assert got[1].failures == [("t1", "empty")]

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize(
        "inner, mined",
        [
            (MockChatBackend(SESSION_RULES), {"t0": [("food", "pizza")], "t2": [("city", "paris")]}),
            (AnnotatesEveryLine(), {"t0": [("topic", "chat")], "t2": [("topic", "chat")]}),
        ],
        ids=["mock", "annotates-every-line"],
    )
    def test_blank_turn_stays_out_of_the_session_call(self, inner, mined, parallelism):
        backend = CountingChatBackend(inner)
        items = [make_turn(0, "pizza"), make_turn(1, " \t "), make_turn(2, "paris")]
        results, report = AttributeMiner(backend, parallelism=parallelism).mine_corpus(items)
        assert backend.calls == {"turn_basic": 1}
        assert report.failures == [("t1", "empty")]
        pairs = {item_id: [(p.name, p.value) for p in ann.pairs] for item_id, ann in results}
        assert pairs == mined

    def test_synthetic_qa_fixture_makes_one_turn_call_per_session(self, tmp_path):
        data, rules = build_qa_fixture(n_turns=20, n_sessions=4)
        path = tmp_path / "qa.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        items = list(store_from_sessions(load_conversation_dataset(path)))
        backend = CountingChatBackend(MockChatBackend(rules))
        results, report = AttributeMiner(backend, parallelism=2).mine_corpus(items)
        assert backend.calls == {"turn_basic": 4}
        assert report.failed == 0
        assert (results, report) == mine_corpus_per_turn_oracle(
            AttributeMiner(MockChatBackend(rules)), items
        )

    def test_session_over_the_length_budget_is_mined_per_turn(self):
        third = LENGTH_BUDGET // 3
        items = [make_turn(i, f"{word} " + "c" * third) for i, word in enumerate(SESSION_RULES)]
        assert all(len(turn_payload(item)) <= LENGTH_BUDGET for item in items)
        assert len("\n".join(turn_payload(item) for item in items)) > LENGTH_BUDGET
        backend = CountingChatBackend(MockChatBackend(SESSION_RULES))
        results, report = AttributeMiner(backend).mine_corpus(items)
        assert backend.calls["turn_basic"] == len(items)
        assert (results, report) == mine_corpus_per_turn_oracle(
            AttributeMiner(MockChatBackend(SESSION_RULES)), items
        )
        assert report.failed == 0

    def test_report_consistency(self):
        from memaug.mining import AugmentationReport

        with pytest.raises(ValueError):
            AugmentationReport(total=3, succeeded=1, failed=1)
        report = AugmentationReport(total=0, succeeded=0, failed=0)
        assert report.failure_rate == 0.0


class TestFanOut:
    def test_keeps_input_order_when_later_items_finish_first(self):
        second_done = threading.Event()
        finished = []

        def work(i):
            if i == 0:
                assert second_done.wait(timeout=10), "item 1 never ran beside item 0"
            finished.append(i)
            if i == 1:
                second_done.set()
            return i * 10

        assert fan_out(work, [0, 1, 2, 3], 2) == [0, 10, 20, 30]
        assert finished[0] == 1
        assert sorted(finished) == [0, 1, 2, 3]

    @pytest.mark.parametrize("parallelism,items", [(1, [1, 2, 3]), (4, [1])])
    def test_serial_cases_run_in_the_calling_thread(self, parallelism, items):
        caller = threading.get_ident()
        assert fan_out(lambda _: threading.get_ident(), items, parallelism) == [caller] * len(items)

    def test_error_propagates(self):
        def work(i):
            if i == 2:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            fan_out(work, [0, 1, 2, 3], 2)
