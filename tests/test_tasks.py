"""Task pipeline tests: question answering, recommendation, event summaries."""

import json

import pytest

from memaug import (
    Annotation,
    AttributeMiner,
    AttributePair,
    Granularity,
    HashEmbedder,
    MatchPolicy,
    MockChatBackend,
    Prioritization,
    RetrievalMode,
    TransportError,
    build_index,
)
from memaug.datasets import load_conversation_dataset, load_recommendation_dataset, store_from_sessions
from memaug.retrieval import EmbeddingStrategy, QueryPart
from memaug.tasks import (
    RetrievalSetup,
    filter_event_pairs,
    parse_judge_scores,
    parse_ranked_titles,
    run_event_summarization,
    run_qa_task,
    run_rec_task,
)

from doubles import StaticChatBackend
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
                    raise TransportError("connection reset")
                return "summary"

        class DownJudge:
            def complete(self, prompt, *, template=None, payload=None):
                raise TransportError("judge down")

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
