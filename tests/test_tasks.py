"""Task pipeline tests: question answering, recommendation, event summaries."""

import dataclasses
import json
import random
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memaug import (
    Annotation,
    AttributeMiner,
    AttributePair,
    Granularity,
    HashEmbedder,
    ItemKind,
    MatchPolicy,
    MemoryItem,
    MemoryStore,
    MockChatBackend,
    Prioritization,
    RetrievalMode,
    TransportError,
    build_index,
)
from memaug.datasets import load_conversation_dataset, load_recommendation_dataset, store_from_items
from memaug.datasets import RecDialogue, RecItem, RecommendationDataset, store_from_sessions
from memaug.errors import BackendRefusal, EmptyQueryError
from memaug.retrieval import DEFAULT_QUERY_PARTS, EmbeddingStrategy, QueryContext, QueryPart
from memaug.tasks import (
    RetrievalSetup,
    filter_event_pairs,
    parse_judge_scores,
    parse_ranked_titles,
    run_event_summarization,
    run_qa_task,
    run_rec_task,
)
from memaug.templates import ANSWER_GENERATION, QUESTION_AUGMENTATION, RECOMMENDATION, SESSION_BASIC

from doubles import CountingChatBackend, StaticChatBackend
from oracles import filter_event_pairs_oracle, run_qa_task_oracle, run_rec_task_oracle
from synthetic import build_qa_fixture, build_rec_fixture


@pytest.fixture(scope="module")
def qa_setup(tmp_path_factory):
    data, rules = build_qa_fixture()
    path = tmp_path_factory.mktemp("qa") / "dataset.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    dataset = load_conversation_dataset(path)
    store = store_from_sessions(dataset)
    mock = MockChatBackend(rules, capture_persons=False)
    miner = AttributeMiner(mock, granularity=Granularity.TURN_LEVEL)
    results, report = miner.mine_corpus(list(store))
    for item_id, annotation in results:
        store.attach_annotation(item_id, annotation)
    store.augmentation_report = report
    return dataset, store, miner, mock


class TestQATask:
    def test_attribute_mode_bijective_recall(self, qa_setup):
        dataset, store, miner, mock = qa_setup
        setup = RetrievalSetup(
            mode=RetrievalMode.ATTRIBUTE_BASED, k=5, policy=MatchPolicy.NAME_AND_VALUE
        )
        out = run_qa_task(dataset, store, miner=miner, answer_backend=mock, setup=setup)
        assert out.recall_report.overall == 1.0
        assert all(score == 1.0 for score in out.recall_report.per_category.values())

    def test_embedding_mode_bijective_recall(self, qa_setup):
        dataset, store, miner, mock = qa_setup
        embedder = HashEmbedder(64)
        index, skipped = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        assert skipped == []
        # the hash embedder only matches shared tokens, and only the question
        # text carries the full [name]<value> token, so embed the text alone
        setup = RetrievalSetup(
            mode=RetrievalMode.EMBEDDING_BASED,
            k=5,
            index=index,
            embedder=embedder,
            query_parts=(QueryPart.TEXT,),
        )
        out = run_qa_task(dataset, store, miner=miner, answer_backend=mock, setup=setup)
        assert out.recall_report.overall == 1.0
        assert all(len(row.retrieved_ids) == 5 for row in out.rows)

    def test_comprehensive_retrieves_every_turn(self, qa_setup):
        dataset, store, miner, mock = qa_setup
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE, k=5)
        out = run_qa_task(dataset, store, miner=miner, answer_backend=mock, setup=setup)
        assert out.avg_items_retrieved == len(store)

    def test_comprehensive_recall_one_when_k_covers_store(self, qa_setup):
        dataset, store, miner, mock = qa_setup
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE, k=len(store))
        out = run_qa_task(dataset, store, miner=miner, answer_backend=mock, setup=setup)
        assert out.recall_report.overall == 1.0

    def test_adversarial_empty_gold_skipped_for_recall(self):
        dataset_payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [{"turn_id": "t1", "speaker": "a", "text": "about topic00"}],
                }
            ],
            "qa": [
                {
                    "question": "unanswerable topic00 question",
                    "category": "adversarial",
                    "gold_turn_ids": [],
                    "gold_answer": "no answer",
                }
            ],
        }
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "d.json"
            path.write_text(json.dumps(dataset_payload))
            dataset = load_conversation_dataset(path)
        store = store_from_sessions(dataset)
        rules = {"topic00": ("topic00", "topic00")}
        mock = MockChatBackend(rules, capture_persons=False)
        miner = AttributeMiner(mock, granularity=Granularity.TURN_LEVEL)
        results, _ = miner.mine_corpus(list(store))
        for item_id, annotation in results:
            store.attach_annotation(item_id, annotation)
        echo = StaticChatBackend(["no answer"])
        setup = RetrievalSetup(mode=RetrievalMode.ATTRIBUTE_BASED, k=5)
        out = run_qa_task(dataset, store, miner=miner, answer_backend=echo, setup=setup)
        assert out.recall_report.count == 0
        assert out.f1_report.overall == 1.0

    def test_attribute_miss_degrades_to_empty_retrieval(self):
        payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [{"turn_id": "t1", "speaker": "a", "text": "about topic00 today"}],
                }
            ],
            "qa": [
                {
                    "question": "nothing matches here",
                    "category": "single_hop",
                    "gold_turn_ids": ["t1"],
                    "gold_answer": "about topic00 today",
                }
            ],
        }
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "d.json"
            path.write_text(json.dumps(payload))
            dataset = load_conversation_dataset(path)
        store = store_from_sessions(dataset)
        mock = MockChatBackend({"topic00": ("topic00", "topic00")}, capture_persons=False)
        miner = AttributeMiner(mock, granularity=Granularity.TURN_LEVEL)
        results, _ = miner.mine_corpus(list(store))
        for item_id, annotation in results:
            store.attach_annotation(item_id, annotation)
        setup = RetrievalSetup(mode=RetrievalMode.ATTRIBUTE_BASED, k=5)
        out = run_qa_task(dataset, store, miner=miner, answer_backend=mock, setup=setup)
        row = out.rows[0]
        assert row.error is None
        assert row.retrieved_ids == ()
        assert row.recall == 0.0
        assert out.retrieval_misses == 1

    def test_failing_example_scored_zero_not_fatal(self, qa_setup):
        dataset, store, miner, mock = qa_setup
        # a miner whose backend never yields attributes fails every question
        bad_miner = AttributeMiner(StaticChatBackend(["junk"]), max_retries=0)
        setup = RetrievalSetup(mode=RetrievalMode.ATTRIBUTE_BASED, k=5)
        out = run_qa_task(dataset, store, miner=bad_miner, answer_backend=mock, setup=setup)
        assert out.recall_report.overall == 0.0
        assert all(row.error for row in out.rows)


@pytest.fixture(scope="module")
def rec_setup(tmp_path_factory):
    data, store, rules = build_rec_fixture()
    path = tmp_path_factory.mktemp("rec") / "dataset.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    dataset = load_recommendation_dataset(path)
    mock = MockChatBackend(rules, capture_persons=False)
    miner = AttributeMiner(
        mock,
        granularity=Granularity.SESSION_LEVEL,
        prioritization=Prioritization.PRIORITY,
    )
    return dataset, store, miner, mock


class TestRecTask:
    def test_planted_gold_recall_at_one(self, rec_setup):
        dataset, store, miner, mock = rec_setup
        embedder = HashEmbedder(8)
        index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        setup = RetrievalSetup(
            mode=RetrievalMode.EMBEDDING_BASED, index=index, embedder=embedder
        )
        out = run_rec_task(
            dataset, store, miner=miner, rec_backend=mock, setup=setup, n=20, k=10, seed=0
        )
        assert out.reports["recall@1"].overall == 1.0
        assert out.reports["ndcg@1"].overall == 1.0
        assert out.avg_items_retrieved == 10.0
        assert out.skipped_masking == 0

    def test_candidates_are_named_by_title_when_items_carry_content(self, rec_setup):
        dataset, planted, miner, mock = rec_setup
        # The reply is scored against titles, so a candidate listed by its
        # content ("Film 00: a noir film") could never score.
        genre = {item.id: planted.annotation_for(item.id).pairs[0].value for item in dataset.items}
        items = tuple(
            dataclasses.replace(item, content=f"{item.title}: a {genre[item.id]} film")
            for item in dataset.items
        )
        dataset = dataclasses.replace(dataset, items=items)
        store = store_from_items(dataset.items)
        for item in dataset.items:
            store.attach_annotation(item.id, planted.annotation_for(item.id))
        # A store id the dataset does not list is shown by its content.
        store.write(MemoryItem(id="unlisted", kind=ItemKind.ENTITY, content="an unlisted film"),
                    planted.annotation_for(dataset.items[0].id))
        payloads = []

        class Recording:
            def complete(self, prompt, *, template=None, payload=None):
                payloads.append(payload)
                return mock.complete(prompt, template=template, payload=payload)

        embedder = HashEmbedder(8)
        index, _ = build_index(store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
        setup = RetrievalSetup(mode=RetrievalMode.EMBEDDING_BASED, index=index, embedder=embedder)
        out = run_rec_task(
            dataset, store, miner=miner, rec_backend=Recording(), setup=setup, n=20, k=10, seed=0
        )
        assert out.reports["recall@10"].overall == 1.0
        lines = [line for payload in payloads for line in payload.splitlines()]
        listed = {line[2:] for line in lines if line.startswith("- ")}
        assert listed <= {item.title for item in dataset.items} | {"an unlisted film"}
        assert "an unlisted film" in listed

    def test_comprehensive_retrieves_store_size(self, rec_setup):
        dataset, store, miner, mock = rec_setup
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
        out = run_rec_task(
            dataset, store, miner=miner, rec_backend=mock, setup=setup, n=20, k=10, seed=0
        )
        assert out.avg_items_retrieved == len(store)

    def test_n_larger_than_dataset_fails_before_work(self, rec_setup):
        dataset, store, miner, mock = rec_setup
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
        with pytest.raises(ValueError):
            run_rec_task(
                dataset, store, miner=miner, rec_backend=mock, setup=setup, n=10_000, k=10
            )

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_n_that_is_not_a_positive_int_fails_before_work(self, rec_setup, n):
        dataset, store, miner, _ = rec_setup
        backend = CountingChatBackend(MockChatBackend())
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
        with pytest.raises(ValueError, match=f"^n must be a positive integer, got {n}$"):
            run_rec_task(dataset, store, miner=miner, rec_backend=backend, setup=setup, n=n)
        assert not backend.calls

    def test_seeded_sampling_reproducible(self, rec_setup):
        dataset, store, miner, mock = rec_setup
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
        first = run_rec_task(
            dataset, store, miner=miner, rec_backend=mock, setup=setup, n=15, k=10, seed=3
        )
        second = run_rec_task(
            dataset, store, miner=miner, rec_backend=mock, setup=setup, n=15, k=10, seed=3
        )
        assert [row.dialogue_id for row in first.rows] == [
            row.dialogue_id for row in second.rows
        ]

    def test_unmaskable_dialogue_skipped_and_counted(self, rec_setup):
        dataset, store, miner, mock = rec_setup
        broken = type(dataset)(
            items=dataset.items,
            dialogues=tuple(
                type(dialogue)(
                    dialogue_id=dialogue.dialogue_id,
                    turns=(("user", "no label mention at all"),),
                    gold_labels=dialogue.gold_labels,
                )
                for dialogue in dataset.dialogues[:5]
            ),
        )
        setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
        out = run_rec_task(
            dataset=broken, store=store, miner=miner, rec_backend=mock, setup=setup, n=5, k=10
        )
        assert out.skipped_masking == 5
        assert out.rows == []

    @pytest.mark.parametrize("labels", [["Heat"], ["Heat", ""], ["Heat", "  "], ["Heat", "\t\n"]])
    def test_blank_gold_label_is_not_gold(self, tmp_path, labels):
        data = {
            "items": [{"id": "m1", "title": "Heat"}, {"id": "m2", "title": "Up"}],
            "dialogues": [{
                "dialogue_id": "d1",
                "turns": [{"speaker": "user", "text": "any film like Heat?"}],
                "gold_labels": labels,
            }],
        }
        path = tmp_path / "rec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        dataset = load_recommendation_dataset(path)
        out = run_rec_task(
            dataset, store_from_items(dataset.items), miner=AttributeMiner(MockChatBackend()),
            rec_backend=StaticChatBackend(["1. Heat\n2. Up"]),
            setup=RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE), n=1, k=10,
        )
        assert [row.error for row in out.rows] == [None]
        assert out.reports["recall@10"].overall == 1.0

    @pytest.mark.parametrize("label", ["!!", "--", " . "])
    def test_label_that_names_no_title_is_not_gold(self, label):
        # normalize_title maps the label to "", which no recommendation matches.
        dataset = RecommendationDataset(
            items=(RecItem("m1", "Heat"), RecItem("m2", "Up")),
            dialogues=(RecDialogue("d1", (("user", "any film like Heat?"),), ("Heat", label)),),
        )
        out = run_rec_task(
            dataset, store_from_items(dataset.items), miner=AttributeMiner(MockChatBackend()),
            rec_backend=StaticChatBackend(["- Heat\n- Up"]),
            setup=RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE), n=1, k=10,
        )
        assert [row.error for row in out.rows] == [None]
        assert out.reports["recall@10"].overall == 1.0


class TestParseRankedTitles:
    def test_bullets_and_numbering(self):
        response = "- First Film\n2. Second Film\nThird Film\n"
        assert parse_ranked_titles(response) == ("First Film", "Second Film", "Third Film")

    def test_empty(self):
        assert parse_ranked_titles("") == ()


EVENT_RULES = {
    "hiking": ("activity", "hiking"),
    "wedding": ("life event", "a wedding"),
    "mood": ("emotion", "calm"),
}


def build_event_world(n_sessions: int = 1):
    """Sessions mentioning hiking twice; turn- and session-level items."""
    turns = [
        ("ana", "went hiking at dawn"),
        ("bob", "my mood improved"),
        ("ana", "more hiking after the wedding"),
    ]
    dataset_payload = {
        "sessions": [
            {
                "session_id": f"s{s}",
                "turns": [
                    {
                        "turn_id": f"t{t}" if s == 1 else f"s{s}t{t}",
                        "speaker": speaker,
                        "text": text,
                    }
                    for t, (speaker, text) in enumerate(turns, start=1)
                ],
            }
            for s in range(1, n_sessions + 1)
        ],
        "events": [{"session_id": "s1", "speaker": "ana", "summary": "ana hiked a lot"}],
    }
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "d.json"
        path.write_text(json.dumps(dataset_payload))
        dataset = load_conversation_dataset(path)
    mock = MockChatBackend(EVENT_RULES, capture_persons=False)
    store = store_from_sessions(dataset)
    turn_miner = AttributeMiner(mock, granularity=Granularity.TURN_LEVEL)
    results, _ = turn_miner.mine_corpus(list(store))
    for item_id, annotation in results:
        store.attach_annotation(item_id, annotation)
    session_store = store_from_sessions(dataset, level="session")
    session_miner = AttributeMiner(mock, granularity=Granularity.SESSION_LEVEL)
    results, _ = session_miner.mine_corpus(list(session_store))
    for item_id, annotation in results:
        store.write(session_store.get(item_id), annotation)
    return dataset, store, mock


class TestEventSummarization:
    def test_turn_level_collects_at_least_as_many_event_pairs(self):
        dataset, store, mock = build_event_world()
        turn_out = run_event_summarization(
            dataset, store, level=Granularity.TURN_LEVEL, summarizer=mock
        )
        session_out = run_event_summarization(
            dataset, store, level=Granularity.SESSION_LEVEL, summarizer=mock
        )
        assert turn_out.rows[0].event_pairs >= session_out.rows[0].event_pairs
        # repeated keyword is deduplicated inside the single session annotation
        assert turn_out.rows[0].event_pairs == 3
        assert session_out.rows[0].event_pairs == 2

    def test_annotations_only_prompt_contains_pairs_and_no_dialogue(self):
        dataset, store, _ = build_event_world()
        captured: list[str] = []

        class Capture:
            def complete(self, prompt, *, template=None, payload=None):
                captured.append(payload)
                return "summary text"

        out = run_event_summarization(
            dataset, store, level=Granularity.SESSION_LEVEL, summarizer=Capture()
        )
        assert out.rows[0].summary == "summary text"
        payload = captured[0]
        assert "[activity]<hiking>" in payload
        assert "[life event]<a wedding>" in payload
        assert "[emotion]<calm>" not in payload
        assert "went hiking at dawn" not in payload

    def test_annotations_plus_dialogues_includes_text(self):
        dataset, store, _ = build_event_world()
        captured: list[str] = []

        class Capture:
            def complete(self, prompt, *, template=None, payload=None):
                captured.append(payload)
                return "summary"

        run_event_summarization(
            dataset,
            store,
            level=Granularity.SESSION_LEVEL,
            input_mode="annotations_plus_dialogues",
            summarizer=Capture(),
        )
        assert "went hiking at dawn" in captured[0]

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"level": Granularity.NOT_APPLICABLE}, "level must be TURN_LEVEL or SESSION_LEVEL"),
            ({"input_mode": "dialogues_only"}, "unknown input mode 'dialogues_only'"),
        ],
        ids=["level", "input-mode"],
    )
    def test_refuses_a_bad_level_or_input_mode(self, options, message):
        dataset, store, mock = build_event_world()
        options = {"level": Granularity.TURN_LEVEL, **options}
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_event_summarization(dataset, store, summarizer=mock, **options)

    def test_session_without_event_attributes_skipped(self):
        dataset, store, mock = build_event_world()
        emotion_only = Annotation(
            pairs=(AttributePair("emotion", "calm"),),
            granularity=Granularity.SESSION_LEVEL,
        )
        store.attach_annotation("s1", emotion_only)
        out = run_event_summarization(
            dataset, store, level=Granularity.SESSION_LEVEL, summarizer=mock
        )
        assert out.skipped == 1
        assert out.rows[0].skipped_reason

    def test_judge_scores_parsed(self):
        dataset, store, mock = build_event_world()
        judge = StaticChatBackend(["Relevance: 4\nCoherence: 5\nConsistency: 3"])
        out = run_event_summarization(
            dataset, store, level=Granularity.SESSION_LEVEL, summarizer=mock, judge=judge
        )
        assert out.rows[0].judge_scores == {
            "relevance": 4.0,
            "coherence": 5.0,
            "consistency": 3.0,
        }

    def test_backend_errors_are_recorded_per_session(self):
        dataset, store, _ = build_event_world(n_sessions=2)

        class FailsFirstCall:
            calls = 0

            def complete(self, prompt, *, template=None, payload=None):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("connection reset", transient=True)
                return "summary"

        class DownJudge:
            def complete(self, prompt, *, template=None, payload=None):
                raise TransportError("judge down", transient=True)

        out = run_event_summarization(
            dataset,
            store,
            level=Granularity.SESSION_LEVEL,
            summarizer=FailsFirstCall(),
            judge=DownJudge(),
        )
        failed, summarized = out.rows
        assert failed.skipped_reason == "summary failed: connection reset"
        assert (failed.summary, failed.judge_scores) == ("", None)
        assert summarized.skipped_reason is None
        assert summarized.summary == "summary"
        assert summarized.judge_scores is None
        assert out.skipped == 1

    def test_judge_garbage_gives_none(self):
        assert parse_judge_scores("not scores") is None
        assert parse_judge_scores("Relevance: 4") is None

    @pytest.mark.parametrize(
        "reply",
        [
            "Relevance: nan\nCoherence: 4\nConsistency: inf",
            "Relevance: 4\nCoherence: -inf\nConsistency: 5",
            "Relevance: 4\nCoherence: 5\nConsistency: NaN",
        ],
    )
    def test_non_finite_judge_score_gives_none(self, reply):
        assert parse_judge_scores(reply) is None


class TestFilterEventPairs:
    def test_word_boundary_matching(self):
        ann = Annotation(
            pairs=(
                AttributePair("prevent", "x"),
                AttributePair("major life event", "moving"),
                AttributePair("activity", "running"),
                AttributePair("emotion", "sad"),
            )
        )
        out = filter_event_pairs(ann)
        assert out.names == ("major life event", "activity")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from([
                    "life", "major", "event", "events", "activity", "activities",
                    "prevent", "eventful", "life-event", "sad",
                ]),
                min_size=1,
                max_size=4,
            ).map(" ".join),
            max_size=6,
        ),
        st.sampled_from(list(Granularity)),
    )
    def test_matches_the_word_window_oracle(self, names, granularity):
        ann = Annotation(
            pairs=tuple(AttributePair(name, f"v{i}") for i, name in enumerate(names)),
            granularity=granularity,
        )
        assert filter_event_pairs(ann) == filter_event_pairs_oracle(ann)


# -- the fan-out runners against the serial oracles ------------------------------

FAILABLE_TEMPLATES = (
    QUESTION_AUGMENTATION.id,
    ANSWER_GENERATION.id,
    SESSION_BASIC.id,
    RECOMMENDATION.id,
)


class FlakyChatBackend:
    """A mock that fails some calls of the ``failing`` templates.

    Whether a call fails, and how, is a pure function of (salt, template,
    payload), so every call order, serial or threaded, sees the same
    failures. One failure in three is a transport error with an empty
    message, whose row error is the exception's class name.
    """

    def __init__(self, inner, failing, salt, percent):
        self.inner = inner
        self.failing = failing
        self.salt = salt
        self.percent = percent

    def complete(self, prompt, *, template=None, payload=None):
        roll = zlib.crc32(f"{self.salt}|{template.id}|{payload}".encode()) % 100
        if template.id in self.failing and roll < self.percent:
            if roll % 3 == 0:
                raise TransportError("", transient=True)
            if roll % 3 == 1:
                raise BackendRefusal("refused")
            raise TransportError("connection reset", transient=True)
        return self.inner.complete(prompt, template=template, payload=payload)


@pytest.fixture(scope="module")
def oracle_world(tmp_path_factory):
    """QA and rec datasets with mined stores and indexes, shared by the oracle tests.

    QA gets one keyword-free adversarial question (an attribute-mode
    retrieval miss); rec gets three dialogues that never mention their label.
    """
    directory = tmp_path_factory.mktemp("oracle")
    qa_data, qa_rules = build_qa_fixture(n_turns=30, n_sessions=3)
    qa_data["qa"].append({
        "question": "did anything else happen",
        "category": "adversarial",
        "gold_turn_ids": [],
        "gold_answer": "nothing",
    })
    (directory / "qa.json").write_text(json.dumps(qa_data), encoding="utf-8")
    qa_dataset = load_conversation_dataset(directory / "qa.json")
    qa_store = store_from_sessions(qa_dataset)
    qa_mock = MockChatBackend(qa_rules, capture_persons=False)
    results, _ = AttributeMiner(qa_mock).mine_corpus(list(qa_store))
    for item_id, annotation in results:
        qa_store.attach_annotation(item_id, annotation)
    rec_data, rec_store, rec_rules = build_rec_fixture(n_dialogues=16, n_items=10)
    for dialogue in rec_data["dialogues"][3::5]:
        dialogue["gold_labels"] = ["A Film Nobody Mentions"]
    (directory / "rec.json").write_text(json.dumps(rec_data), encoding="utf-8")
    rec_dataset = load_recommendation_dataset(directory / "rec.json")
    rec_mock = MockChatBackend(rec_rules, capture_persons=False)
    embedder = HashEmbedder(16)
    qa_index, _ = build_index(qa_store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
    rec_index, _ = build_index(rec_store, EmbeddingStrategy.AVERAGED_PAIRS, embedder)
    return {
        "qa": (qa_dataset, qa_store, qa_mock, qa_index),
        "rec": (rec_dataset, rec_store, rec_mock, rec_index),
        "embedder": embedder,
        "raw": {
            "qa": build_index(qa_store, EmbeddingStrategy.RAW_CONTENT, embedder)[0],
            "rec": build_index(rec_store, EmbeddingStrategy.RAW_CONTENT, embedder)[0],
        },
    }


def oracle_setup(world, task, mode, policy, k, index="averaged", parts=DEFAULT_QUERY_PARTS):
    """The ``mode`` setup; embedding mode searches the ``averaged`` or
    ``raw`` index of ``task``'s store."""
    if mode is RetrievalMode.EMBEDDING_BASED:
        index = world[task][3] if index == "averaged" else world["raw"][task]
        return RetrievalSetup(
            mode=mode, k=k, index=index, embedder=world["embedder"], query_parts=parts
        )
    return RetrievalSetup(mode=mode, k=k, policy=policy)


# Every kind of setup the mining rule tells apart: attribute mode mines,
# comprehensive mode and a raw index never do, and text-only parts mine a
# dialogue but not a question.
_oracle_retrievals = st.sampled_from([
    (RetrievalMode.ATTRIBUTE_BASED, "averaged", DEFAULT_QUERY_PARTS),
    (RetrievalMode.COMPREHENSIVE, "averaged", DEFAULT_QUERY_PARTS),
    (RetrievalMode.EMBEDDING_BASED, "averaged", DEFAULT_QUERY_PARTS),
    (RetrievalMode.EMBEDDING_BASED, "averaged", (QueryPart.TEXT,)),
    (RetrievalMode.EMBEDDING_BASED, "raw", DEFAULT_QUERY_PARTS),
])
_oracle_failures = st.tuples(
    st.frozensets(st.sampled_from(FAILABLE_TEMPLATES)),
    st.integers(0, 2**16),
    st.sampled_from([0, 25, 60, 100]),
)


@settings(max_examples=60, deadline=None)
@given(
    retrieval=_oracle_retrievals,
    policy=st.sampled_from(list(MatchPolicy)),
    k=st.integers(1, 8),
    parallelism=st.sampled_from([1, 2]),
    max_retries=st.integers(0, 1),
    failures=_oracle_failures,
)
def test_qa_runner_matches_the_serial_oracle(
    oracle_world, retrieval, policy, k, parallelism, max_retries, failures
):
    dataset, store, mock, _ = oracle_world["qa"]
    backend = FlakyChatBackend(mock, *failures)
    mode, index, parts = retrieval
    setup = oracle_setup(oracle_world, "qa", mode, policy, k, index, parts)

    def run(runner, threads):
        miner = AttributeMiner(backend, max_retries=max_retries, parallelism=threads)
        return runner(dataset, store, miner=miner, answer_backend=backend, setup=setup)

    got = run(run_qa_task, parallelism)
    want = run(run_qa_task_oracle, 1)
    assert got.rows == want.rows
    assert got.recall_report == want.recall_report
    assert got.f1_report == want.f1_report
    assert got.retrieved_counts == want.retrieved_counts
    assert got.avg_items_retrieved == want.avg_items_retrieved
    assert got.retrieval_misses == want.retrieval_misses


@settings(max_examples=60, deadline=None)
@given(
    retrieval=_oracle_retrievals,
    policy=st.sampled_from(list(MatchPolicy)),
    n=st.integers(1, 16),
    k=st.integers(1, 10),
    seed=st.integers(0, 2**16),
    parallelism=st.sampled_from([1, 2]),
    failures=_oracle_failures,
)
def test_rec_runner_matches_the_serial_oracle(
    oracle_world, retrieval, policy, n, k, seed, parallelism, failures
):
    dataset, store, mock, _ = oracle_world["rec"]
    backend = FlakyChatBackend(mock, *failures)
    mode, index, parts = retrieval
    setup = oracle_setup(oracle_world, "rec", mode, policy, k, index, parts)

    def run(runner, threads):
        miner = AttributeMiner(
            backend, granularity=Granularity.SESSION_LEVEL, max_retries=0, parallelism=threads
        )
        return runner(
            dataset, store, miner=miner, rec_backend=backend, setup=setup, n=n, k=k, seed=seed
        )

    got = run(run_rec_task, parallelism)
    want = run(run_rec_task_oracle, 1)
    assert got.rows == want.rows
    assert got.reports == want.reports
    assert list(got.reports) == list(want.reports)
    assert got.skipped_masking == want.skipped_masking
    assert got.retrieved_counts == want.retrieved_counts
    assert got.avg_items_retrieved == want.avg_items_retrieved


@pytest.mark.parametrize("parallelism", [1, 2])
def test_answer_failure_after_retrieval_keeps_its_count(oracle_world, parallelism):
    dataset, store, mock, _ = oracle_world["qa"]
    backend = FlakyChatBackend(mock, {ANSWER_GENERATION.id}, 0, 100)
    miner = AttributeMiner(backend, parallelism=parallelism)
    setup = oracle_setup(oracle_world, "qa", RetrievalMode.ATTRIBUTE_BASED, None, 5)
    out = run_qa_task(dataset, store, miner=miner, answer_backend=backend, setup=setup)
    scored = [row for row in out.rows if row.recall is not None]
    assert all(row.error is not None and row.f1 == 0.0 for row in out.rows)
    assert all(row.retrieved_ids for row in scored)
    # an error with an empty message is recorded by its class name and scores zero too
    assert all(row.error and row.recall == 0.0 for row in scored)
    assert any(row.error == "TransportError" for row in out.rows)
    assert len(out.retrieved_counts) == len(dataset.qa)
    assert out.avg_items_retrieved > 0


@pytest.mark.parametrize("parallelism", [1, 2])
def test_rec_skips_and_fails_in_one_run(oracle_world, parallelism):
    dataset, store, mock, _ = oracle_world["rec"]
    backend = FlakyChatBackend(mock, {RECOMMENDATION.id}, 0, 100)
    miner = AttributeMiner(backend, granularity=Granularity.SESSION_LEVEL, parallelism=parallelism)
    setup = oracle_setup(oracle_world, "rec", RetrievalMode.COMPREHENSIVE, None, 10)
    out = run_rec_task(
        dataset, store, miner=miner, rec_backend=backend, setup=setup, n=16, k=10
    )
    assert out.skipped_masking == 3
    assert len(out.rows) == 13
    assert all(row.error and row.retrieved_ids for row in out.rows)
    assert any(row.error == "TransportError" for row in out.rows)
    assert out.retrieved_counts == [len(store)] * 13
    assert all(report.overall == 0.0 for report in out.reports.values())


def test_runners_match_the_oracle_under_thread_stress(oracle_world):
    """Eight threads with a tiny switch interval, on stores built for the run.

    The workers share one store, index and embedder per task. None of them
    holds state that a query fills in, so concurrent queries only read, and
    must give the serial oracle's rows at every interleaving.
    """
    qa_dataset, qa_store, qa_mock, qa_index = oracle_world["qa"]
    rec_dataset, rec_store, rec_mock, rec_index = oracle_world["rec"]
    cold_qa = store_from_sessions(qa_dataset)
    for item in qa_store:
        cold_qa.attach_annotation(item.id, qa_store.annotation_for(item.id))
    cold_rec = MemoryStore()
    for item in rec_store:
        cold_rec.write(item, rec_store.annotation_for(item.id))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mode in (RetrievalMode.ATTRIBUTE_BASED, RetrievalMode.EMBEDDING_BASED):
            qa_setup = RetrievalSetup(mode=mode, index=qa_index, embedder=HashEmbedder(16))
            rec_setup = RetrievalSetup(
                mode=mode, policy=MatchPolicy.NAME_ONLY, index=rec_index, embedder=HashEmbedder(16)
            )
            miner = AttributeMiner(qa_mock, parallelism=8)
            got = run_qa_task(
                qa_dataset, cold_qa, miner=miner, answer_backend=qa_mock, setup=qa_setup
            )
            want = run_qa_task_oracle(
                qa_dataset, qa_store, miner=miner, answer_backend=qa_mock, setup=qa_setup
            )
            assert (got.rows, got.recall_report, got.f1_report) == (
                want.rows, want.recall_report, want.f1_report
            )
            miner = AttributeMiner(rec_mock, granularity=Granularity.SESSION_LEVEL, parallelism=8)
            got = run_rec_task(
                rec_dataset, cold_rec, miner=miner, rec_backend=rec_mock, setup=rec_setup, n=16
            )
            want = run_rec_task_oracle(
                rec_dataset, rec_store, miner=miner, rec_backend=rec_mock, setup=rec_setup, n=16
            )
            assert (got.rows, got.reports) == (want.rows, want.reports)
    finally:
        sys.setswitchinterval(interval)


# -- a setup the runners refuse up front ----------------------------------------


@pytest.mark.parametrize(
    "task,mode,k,index,embedder,message",
    [
        ("qa", RetrievalMode.EMBEDDING_BASED, 0, True, True, "k must be a positive integer"),
        ("qa", RetrievalMode.COMPREHENSIVE, 0, False, False, "k must be a positive integer"),
        ("qa", RetrievalMode.ATTRIBUTE_BASED, -1, False, False, "k must be a positive integer"),
        ("rec", RetrievalMode.ATTRIBUTE_BASED, 0, False, False, "k must be a positive integer"),
        ("rec", RetrievalMode.EMBEDDING_BASED, 0, True, True, "k must be a positive integer"),
        ("qa", RetrievalMode.EMBEDDING_BASED, 5, False, True, "requires an index and an embedder"),
        ("rec", RetrievalMode.EMBEDDING_BASED, 5, True, False, "requires an index and an embedder"),
    ],
)
def test_runners_refuse_an_unusable_setup_before_any_chat_call(
    oracle_world, task, mode, k, index, embedder, message
):
    dataset, store, mock, built = oracle_world[task]
    backend = CountingChatBackend(mock)
    miner = AttributeMiner(backend, granularity=Granularity.SESSION_LEVEL)
    setup = RetrievalSetup(
        mode=mode,
        k=k,
        index=built if index else None,
        embedder=oracle_world["embedder"] if embedder else None,
    )
    with pytest.raises(ValueError, match=message):
        if task == "qa":
            run_qa_task(dataset, store, miner=miner, answer_backend=backend, setup=setup)
        else:
            run_rec_task(dataset, store, miner=miner, rec_backend=backend, setup=setup, n=4, k=k)
    assert not backend.calls


def test_rec_comprehensive_ignores_k(oracle_world):
    dataset, store, mock, _ = oracle_world["rec"]
    backend = CountingChatBackend(mock)
    miner = AttributeMiner(backend, granularity=Granularity.SESSION_LEVEL)
    setup = RetrievalSetup(mode=RetrievalMode.COMPREHENSIVE)
    out = run_rec_task(dataset, store, miner=miner, rec_backend=backend, setup=setup, n=4, k=0)
    assert out.retrieved_counts == [len(store)] * len(out.rows)
    assert backend.calls == {RECOMMENDATION.id: len(out.rows)}


# -- the mining rule against retrieval itself ------------------------------------

_RULE_WORDS = ("noir", "rome", "paris", "jazz", "boat", "drama", "heist")


@pytest.fixture(scope="module")
def rule_world():
    """An annotated store, its index under every strategy, and the embedder."""
    rng = random.Random(7)
    store = MemoryStore()
    for i in range(12):
        words = rng.sample(_RULE_WORDS, 3)
        pairs = tuple(AttributePair(word, rng.choice(_RULE_WORDS)) for word in words[:2])
        item = MemoryItem(id=f"m{i:02d}", kind=ItemKind.ENTITY, content=" ".join(words))
        store.write(item, Annotation(pairs=pairs))
    embedder = HashEmbedder(16)
    indexes = {strategy: build_index(store, strategy, embedder)[0] for strategy in EmbeddingStrategy}
    return store, embedder, indexes


def _outcome(setup, store, query):
    try:
        return setup.run(store, query)
    except EmptyQueryError:
        return EmptyQueryError


@pytest.mark.parametrize("mined", ["names", "annotation"])
@pytest.mark.parametrize(
    "parts", [(QueryPart.TEXT,), (QueryPart.ATTRIBUTES,), DEFAULT_QUERY_PARTS],
    ids=["text", "attributes", "both"],
)
@pytest.mark.parametrize("strategy", list(EmbeddingStrategy), ids=lambda s: s.value)
@pytest.mark.parametrize("mode", list(RetrievalMode), ids=lambda m: m.value)
def test_reads_mined_says_whether_retrieval_reads_the_mined_part(
    rule_world, mode, strategy, parts, mined
):
    """Where the rule says retrieval does not read a query's mined part,
    every generated query retrieves the same without it; where it says it
    does, some query retrieves differently."""
    store, embedder, indexes = rule_world
    setup = RetrievalSetup(
        mode=mode, k=3, index=indexes[strategy], embedder=embedder, query_parts=parts
    )
    rng = random.Random(f"{mode.value} {strategy.value} {parts} {mined}")
    differing = 0
    for _ in range(25):
        text = " ".join(rng.sample(_RULE_WORDS, rng.randint(1, 3)))
        names = tuple(rng.sample(_RULE_WORDS, rng.randint(1, 2)))
        if mined == "names":
            query = QueryContext(text=text, attribute_names=names)
        else:
            pairs = tuple(AttributePair(name, rng.choice(_RULE_WORDS)) for name in names)
            query = QueryContext(text=text, annotation=Annotation(pairs=pairs))
        differing += _outcome(setup, store, query) != _outcome(setup, store, QueryContext(text=text))
    assert setup.reads_mined(annotation=mined == "annotation") == (differing > 0)
