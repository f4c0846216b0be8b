"""End-to-end task pipelines: question answering, recommendation, events.

Each runner wires mining, retrieval, and a generation backend together, and
mines a query only where retrieval reads it (:meth:`RetrievalSetup.reads_mined`).
The QA and recommendation runners may run their examples concurrently, over the
miner's ``parallelism`` threads (chat backends are safe for concurrent calls);
their rows keep input order, and their :class:`~memaug.metrics.MetricReport`s
are built from those rows. Per-example failures are logged into the result and
scored zero; they never abort a run. Runs are deterministic given mock backends
and a fixed seed, whatever the parallelism.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field, replace

from .annotations import Annotation, Granularity, render_annotation
from .backends import ChatBackend, Embedder
from .datasets import (
    ConversationDataset,
    EventLabel,
    QAExample,
    RecDialogue,
    RecommendationDataset,
    mask_dialogue,
    session_text,
)
from .errors import EmptyQueryError, LabelNotFoundError, MemaugError, check_count
from .metrics import MetricReport, ndcg_at_k, normalize_title, recall_at_k, token_f1
from .mining import AttributeMiner, fan_out
from .retrieval import (
    DEFAULT_QUERY_PARTS,
    EmbeddingStrategy,
    QueryContext,
    QueryPart,
    RetrievalMode,
    RetrievalResult,
    VectorIndex,
    retrieve,
)
from .store import MatchPolicy, MemoryStore
from .templates import ANSWER_GENERATION, EVENT_SUMMARY, RECOMMENDATION, SUMMARY_JUDGE
from .templates import PromptTemplate, build_prompt

logger = logging.getLogger(__name__)

# Attribute-name words that mark a pair as an event (see filter_event_pairs).
EVENT_ATTRIBUTE_TERMS = ("event", "events", "activity", "activities")

# Recall@N and NDCG@N cut-offs of the recommendation task.
REC_CUTOFFS = (1, 5, 10)


@dataclass(frozen=True)
class RetrievalSetup:
    """Everything retrieval needs, bundled so runners stay small."""

    mode: RetrievalMode = RetrievalMode.EMBEDDING_BASED
    k: int = 5
    policy: MatchPolicy = MatchPolicy.NAME_AND_VALUE
    index: VectorIndex | None = None
    embedder: Embedder | None = None
    query_parts: tuple[QueryPart, ...] = DEFAULT_QUERY_PARTS

    def run(self, store: MemoryStore, query: QueryContext, k: int | None = None) -> RetrievalResult:
        """:func:`~memaug.retrieval.retrieve` under these settings; ``k`` overrides ``self.k``."""
        return retrieve(
            store,
            query,
            self.mode,
            k=self.k if k is None else k,
            policy=self.policy,
            index=self.index,
            embedder=self.embedder,
            query_parts=self.query_parts,
        )

    def check(self, k: int | None) -> None:
        """Refuse settings every example would fail under; None skips ``k``."""
        if self.mode is RetrievalMode.EMBEDDING_BASED and (self.index is None or self.embedder is None):
            raise ValueError("embedding retrieval requires an index and an embedder")
        if k is not None:
            check_count(k, "k")

    def reads_mined(self, *, annotation: bool) -> bool:
        """Whether :meth:`run` reads a mined annotation (``annotation``) or mined names."""
        if self.mode is RetrievalMode.EMBEDDING_BASED:  # an annotation is embedded whatever the parts
            raw = self.index.strategy is EmbeddingStrategy.RAW_CONTENT
            return not raw and (annotation or QueryPart.ATTRIBUTES in self.query_parts)
        return self.mode is RetrievalMode.ATTRIBUTE_BASED


@dataclass
class QAResultRow:
    question: str
    category: str
    retrieved_ids: tuple[str, ...]
    recall: float | None
    f1: float
    answer: str
    error: str | None = None


class _RetrievedCounts:
    """``avg_items_retrieved`` over the examples whose retrieval ran."""

    retrieved_counts: list[int]

    @property
    def avg_items_retrieved(self) -> float:
        counts = self.retrieved_counts
        return sum(counts) / len(counts) if counts else 0.0


@dataclass
class QATaskResult(_RetrievedCounts):
    recall_report: MetricReport
    f1_report: MetricReport
    rows: list[QAResultRow] = field(default_factory=list)
    retrieved_counts: list[int] = field(default_factory=list)

    @property
    def retrieval_misses(self) -> int:
        """Questions whose retrieval came back empty (answered from the
        question alone rather than through an invented fallback)."""
        return sum(1 for row in self.rows if not row.error and not row.retrieved_ids)


def _ask(backend: ChatBackend, template: PromptTemplate, payload: str) -> str:
    """One chat call with ``template`` filled in by ``payload``."""
    return backend.complete(build_prompt(template, payload), template=template, payload=payload)


def _answer_context(store: MemoryStore, result: RetrievalResult, question: str) -> str:
    lines = []
    for hit in result.hits:
        item = store.get(hit.item_id)
        annotation = store.annotation_for(hit.item_id)
        rendered = f" :: {render_annotation(annotation)}" if annotation else ""
        speaker = f"{item.speaker}: " if item.speaker else ""
        lines.append(f"{speaker}{item.content}{rendered}")
    block = "\n".join(lines) if lines else "(no turns retrieved)"
    return f"Turns:\n{block}\nQuestion: {question}"


def run_qa_task(
    dataset: ConversationDataset,
    store: MemoryStore,
    *,
    miner: AttributeMiner,
    answer_backend: ChatBackend,
    setup: RetrievalSetup,
) -> QATaskResult:
    """Question answering: augment the question, retrieve turns, answer.

    Recall@k is scored against the gold turn ids; adversarial questions with
    an empty gold set are skipped for recall (there is no turn to find) but
    still scored for answer F1.
    """
    setup.check(setup.k)  # recall@k is scored in every mode
    mine = setup.reads_mined(annotation=False)

    def answer(example: QAExample) -> tuple[QAResultRow, int | None]:
        category = example.category.value
        error = None
        result: RetrievalResult | None = None
        reply = ""
        try:
            names = miner.mine_question(example.question).attributes if mine else ()
            query = QueryContext(text=example.question, attribute_names=names)
            try:
                result = setup.run(store, query)
            except EmptyQueryError:
                # nothing to match on: answer from the question alone
                result = RetrievalResult(hits=(), mode=setup.mode)
            context = _answer_context(store, result, example.question)
            reply = _ask(answer_backend, ANSWER_GENERATION, context)
        except MemaugError as exc:
            error = str(exc) or type(exc).__name__
            logger.warning("qa example failed (%s): %s", category, exc)
        retrieved = () if result is None else result.ids()
        recall = None
        if example.gold_turn_ids:
            recall = 0.0 if error else recall_at_k(retrieved, example.gold_turn_ids, setup.k)
        row = QAResultRow(
            question=example.question,
            category=category,
            retrieved_ids=retrieved,
            recall=recall,
            f1=0.0 if error else token_f1(reply, example.gold_answer),
            answer=reply,
            error=error,
        )
        return row, None if result is None else len(retrieved)

    outcomes = fan_out(answer, dataset.qa, miner.parallelism)
    rows = [row for row, _ in outcomes]
    recall_scores = [(row.category, row.recall) for row in rows if row.recall is not None]
    return QATaskResult(
        recall_report=MetricReport.from_scores("recall", recall_scores, k=setup.k),
        f1_report=MetricReport.from_scores("token_f1", [(row.category, row.f1) for row in rows]),
        rows=rows,
        retrieved_counts=[count for _, count in outcomes if count is not None],
    )


@dataclass
class RecResultRow:
    dialogue_id: str
    retrieved_ids: tuple[str, ...]
    recommendations: tuple[str, ...]
    scores: dict[str, float]
    error: str | None = None


@dataclass
class RecTaskResult(_RetrievedCounts):
    reports: dict[str, MetricReport]
    rows: list[RecResultRow] = field(default_factory=list)
    skipped_masking: int = 0
    retrieved_counts: list[int] = field(default_factory=list)


def _candidate_block(store: MemoryStore, result: RetrievalResult, titles: dict[str, str]) -> str:
    """Each hit by its dataset title, which the ranked reply is scored against;
    an id the dataset does not list is shown by its stored content."""
    lines = []
    for hit in result.hits:
        title = titles.get(hit.item_id)
        lines.append(f"- {store.get(hit.item_id).content if title is None else title}")
        annotation = store.annotation_for(hit.item_id)
        if annotation:
            lines.append(f"  {render_annotation(annotation)}")
    return "\n".join(lines) if lines else "(no candidates retrieved)"


def parse_ranked_titles(response: str) -> tuple[str, ...]:
    """Titles from a ranked-list response: one per line, bullets stripped."""
    titles = []
    for line in response.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("- "):
            line = line[2:]
        else:
            head, _, rest = line.partition(". ")
            if head.isdigit() and rest:
                line = rest
        titles.append(line.strip())
    return tuple(titles)


def run_rec_task(
    dataset: RecommendationDataset,
    store: MemoryStore,
    *,
    miner: AttributeMiner,
    rec_backend: ChatBackend,
    setup: RetrievalSetup,
    n: int = 200,
    k: int = 10,
    seed: int = 0,
) -> RecTaskResult:
    """Conversational recommendation over masked dialogues.

    Samples ``n`` dialogues with a seeded RNG, masks ground-truth mentions
    and cuts each dialogue at the first mask, mines the remaining turns
    conversation-centrically, retrieves ``k`` candidate items, prompts the
    recommendation backend for a ranked list, and scores direct title
    matches with Recall@N and NDCG@N for each N in ``REC_CUTOFFS``.
    """
    check_count(n, "n")
    if n > len(dataset.dialogues):
        raise ValueError(
            f"cannot sample {n} dialogues from a dataset of {len(dataset.dialogues)}"
        )
    setup.check(None if setup.mode is RetrievalMode.COMPREHENSIVE else k)  # only retrieval reads k
    mine = setup.reads_mined(annotation=True)
    sampled = random.Random(seed).sample(list(dataset.dialogues), n)
    titles = {item.id: item.title for item in dataset.items}

    def recommend(dialogue: RecDialogue) -> tuple[RecResultRow, int | None] | None:
        try:
            text = mask_dialogue(dialogue).text()
        except LabelNotFoundError as exc:
            logger.warning("dialogue %s skipped: %s", dialogue.dialogue_id, exc)
            return None
        error = None
        result: RetrievalResult | None = None
        recommendations: tuple[str, ...] = ()
        try:
            query = QueryContext(text=text, annotation=miner.mine_text(text) if mine else None)
            result = setup.run(store, query, k)
            payload = f"Conversation:\n{text}\nCandidates:\n{_candidate_block(store, result, titles)}"
            recommendations = parse_ranked_titles(_ask(rec_backend, RECOMMENDATION, payload))
        except MemaugError as exc:
            error = str(exc) or type(exc).__name__
            logger.warning("dialogue %s failed: %s", dialogue.dialogue_id, exc)
        retrieved = () if result is None else result.ids()
        gold = {title for title in map(normalize_title, dialogue.gold_labels) if title}
        predicted = [normalize_title(title) for title in recommendations]
        scores: dict[str, float] = {}
        for cutoff in REC_CUTOFFS:
            scores[f"recall@{cutoff}"] = 0.0 if error else recall_at_k(predicted, gold, cutoff)
            scores[f"ndcg@{cutoff}"] = 0.0 if error else ndcg_at_k(predicted, gold, cutoff)
        row = RecResultRow(
            dialogue_id=dialogue.dialogue_id,
            retrieved_ids=retrieved,
            recommendations=recommendations,
            scores=scores,
            error=error,
        )
        return row, None if result is None else len(retrieved)

    outcomes = fan_out(recommend, sampled, miner.parallelism)
    kept = [outcome for outcome in outcomes if outcome is not None]
    rows = [row for row, _ in kept]
    reports = {
        f"{metric}@{cutoff}": MetricReport.from_scores(
            metric, [("all", row.scores[f"{metric}@{cutoff}"]) for row in rows], k=cutoff
        )
        for metric in ("recall", "ndcg")
        for cutoff in REC_CUTOFFS
    }
    return RecTaskResult(
        reports=reports,
        rows=rows,
        skipped_masking=len(outcomes) - len(kept),
        retrieved_counts=[count for _, count in kept if count is not None],
    )


@dataclass
class EventSummaryRow:
    session_id: str
    level: str
    input_mode: str
    event_pairs: int
    summary: str
    judge_scores: dict[str, float] | None = None
    skipped_reason: str | None = None


@dataclass
class EventTaskResult:
    rows: list[EventSummaryRow] = field(default_factory=list)

    @property
    def skipped(self) -> int:
        return sum(1 for row in self.rows if row.skipped_reason)


def filter_event_pairs(annotation: Annotation) -> Annotation:
    """Keep only pairs whose name holds one of ``EVENT_ATTRIBUTE_TERMS`` as a word.

    So "event" matches "big event" but neither "prevent" nor "pre-event".
    """
    pairs = [p for p in annotation.pairs if any(w in EVENT_ATTRIBUTE_TERMS for w in p.name.split())]
    return replace(annotation, pairs=tuple(pairs))


def parse_judge_scores(response: str) -> dict[str, float] | None:
    """Pull finite Relevance/Coherence/Consistency scores out of a judge reply."""
    scores: dict[str, float] = {}
    for line in response.splitlines():
        name, sep, value = line.partition(":")
        key = name.strip().casefold()
        if sep and key in ("relevance", "coherence", "consistency"):
            try:
                score = float(value.strip())
            except ValueError:
                continue
            if math.isfinite(score):  # nan and inf are not JSON
                scores[key] = score
    return scores if len(scores) == 3 else None


def run_event_summarization(
    dataset: ConversationDataset,
    store: MemoryStore,
    *,
    level: Granularity,
    input_mode: str = "annotations_only",
    summarizer: ChatBackend,
    judge: ChatBackend | None = None,
) -> EventTaskResult:
    """Summarize each session's event attributes, optionally judging them.

    ``level`` selects where annotations come from: per-turn annotations
    gathered across the session, or the single session-level annotation.
    ``input_mode`` is ``annotations_only`` or ``annotations_plus_dialogues``.
    Sessions whose filtered annotations are empty are recorded and skipped,
    as are sessions whose summary fails with a :class:`MemaugError` (the
    reason starts ``summary failed:``). A judge error leaves ``judge_scores``
    as None.
    """
    if level not in (Granularity.TURN_LEVEL, Granularity.SESSION_LEVEL):
        raise ValueError("level must be TURN_LEVEL or SESSION_LEVEL")
    if input_mode not in ("annotations_only", "annotations_plus_dialogues"):
        raise ValueError(f"unknown input mode {input_mode!r}")
    gold_by_session: dict[str, list[EventLabel]] = {}
    for label in dataset.events:
        gold_by_session.setdefault(label.session_id, []).append(label)
    result = EventTaskResult()
    for session in dataset.sessions:
        if level is Granularity.TURN_LEVEL:
            ids = [turn.turn_id for turn in session.turns]
        else:
            ids = [session.session_id]
        event_pairs = []
        for annotation in map(store.annotation_for, ids):
            if annotation is not None:
                event_pairs.extend(filter_event_pairs(annotation).pairs)
        row = EventSummaryRow(
            session_id=session.session_id,
            level=level.value,
            input_mode=input_mode,
            event_pairs=len(event_pairs),
            summary="",
        )
        result.rows.append(row)
        if not event_pairs:
            row.skipped_reason = "no event attributes after filtering"
            continue
        payload = " ".join(pair.render() for pair in event_pairs)
        if input_mode == "annotations_plus_dialogues":
            payload += f"\nDialogue:\n{session_text(session)}"
        try:
            row.summary = _ask(summarizer, EVENT_SUMMARY, payload)
        except MemaugError as exc:
            row.skipped_reason = f"summary failed: {exc}"
            logger.warning("session %s summary failed: %s", session.session_id, exc)
            continue
        if judge is not None:
            references = "\n".join(
                label.summary for label in gold_by_session.get(session.session_id, [])
            )
            judge_payload = f"Reference:\n{references}\nCandidate:\n{row.summary}"
            try:
                judge_response = _ask(judge, SUMMARY_JUDGE, judge_payload)
            except MemaugError as exc:
                logger.warning("session %s judge failed: %s", session.session_id, exc)
            else:
                row.judge_scores = parse_judge_scores(judge_response)
    return result
