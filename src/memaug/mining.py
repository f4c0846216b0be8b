"""Attribute mining: prompt a chat backend and parse its annotation output.

``AttributeMiner`` owns the mode triple (perspective, granularity,
prioritization), takes the one prompt template of that triple, and retries
failed calls. Corpus-level mining fans out over a thread pool (:func:`fan_out`,
which the task runners share), mines the turns of a session from one call
where the template replies turn by turn, and aggregates an
:class:`AugmentationReport`; individual failures never abort the stream.
"""

from __future__ import annotations

import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .annotations import (
    Annotation,
    Granularity,
    Perspective,
    Prioritization,
    TurnScopedAnnotation,
    normalize_name,
    parse_annotation,
    parse_turn_annotations,
)
from .backends import ChatBackend
from .errors import AugmentFailure, BackendRefusal, LengthBudgetExceeded, TransportError
from .errors import check_count
from .store import AugmentationReport, ItemKind, MemoryItem, check_granularity
from .templates import QUESTION_AUGMENTATION, ResponseFormat, build_prompt, mining_template

T = TypeVar("T")
R = TypeVar("R")


def fan_out(fn: Callable[[T], R], items: Sequence[T], parallelism: int) -> list[R]:
    """``[fn(item) for item in items]``, run over up to ``parallelism`` threads.

    Results keep input order. With ``parallelism`` 1 or a single item the
    calls run one after another in the calling thread.
    """
    if parallelism > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


@dataclass(frozen=True)
class QueryAnnotation:
    """Mined view of a question: who it is about and which attributes matter."""

    persons: tuple[str, ...] = ()
    attributes: tuple[str, ...] = ()


_PERSON_SEGMENT = re.compile(r"person\s*:\s*\[([^\]]*)\]", re.IGNORECASE)
_ATTRIBUTE_SEGMENT = re.compile(r"attributes\s*:\s*\[([^\]]*)\]", re.IGNORECASE)


def parse_person_attributes(text: str) -> QueryAnnotation:
    """Parse a ``Person:[names]Attributes:[names]`` response.

    Raises :class:`AugmentFailure` when neither segment is present. Names
    are comma-separated; attribute names are normalized.
    """
    person_match = _PERSON_SEGMENT.search(text)
    attribute_match = _ATTRIBUTE_SEGMENT.search(text)
    if person_match is None and attribute_match is None:
        raise AugmentFailure("unparseable", "no Person/Attributes segments found")

    def split(match: re.Match | None) -> list[str]:
        if match is None:
            return []
        return [part.strip() for part in match.group(1).split(",") if part.strip()]

    persons = split(person_match)
    attributes = [normalize_name(name) for name in split(attribute_match)]
    attributes = [name for name in attributes if name]
    return QueryAnnotation(persons=tuple(persons), attributes=tuple(attributes))


def turn_payload(item: MemoryItem) -> str:
    """Payload line for a dialogue turn: ``[turn_id] speaker: text``."""
    speaker = item.speaker or "unknown"
    return f"[{item.turn_id}] {speaker}: {item.content}"


class AttributeMiner:
    """Mines attribute annotations for memory items, questions, and text.

    Parameters mirror the augmentation modes: ``perspective`` selects whether
    attributes describe the stored entity or the conversation, ``granularity``
    the unit of conversation, and ``prioritization`` whether the backend is
    asked to order pairs by relevance. A triple without a mining template
    (entity-centric mining at turn or session level) is refused here.
    """

    def __init__(
        self,
        backend: ChatBackend,
        *,
        perspective: Perspective = Perspective.CONVERSATION_CENTRIC,
        granularity: Granularity = Granularity.TURN_LEVEL,
        prioritization: Prioritization = Prioritization.BASIC,
        max_retries: int = 2,
        parallelism: int = 1,
    ):
        self.template = mining_template(perspective, granularity, prioritization)
        self.max_retries = check_count(max_retries, "max_retries", 0)
        self.parallelism = check_count(parallelism, "parallelism")
        self.backend = backend
        self.perspective = perspective
        self.granularity = granularity
        self.prioritization = prioritization

    def _with_retries(self, template, payload: str, parse):
        """Prompt the backend up to ``max_retries + 1`` times; return ``parse(response)``.

        The prompt is built once. A transient transport error (see
        :class:`TransportError`) or a ``parse`` that raises
        :class:`AugmentFailure` costs one attempt; after the last attempt the
        last failure is raised. Any other transport error, such as HTTP 400
        or a malformed reply, and a refusal are raised at once, since the
        same prompt meets them again.
        """
        prompt = build_prompt(template, payload)
        failure = AugmentFailure("unparseable", "no attempts made")
        for _ in range(self.max_retries + 1):
            try:
                response = self.backend.complete(prompt, template=template, payload=payload)
            except TransportError as exc:
                failure = AugmentFailure("transport", str(exc))
                if exc.transient:
                    continue
                raise failure from exc
            except BackendRefusal as exc:
                raise AugmentFailure("refusal", str(exc)) from exc
            try:
                return parse(response)
            except AugmentFailure as exc:
                failure = exc
        raise failure

    def _parse_response(self, response: str, item: MemoryItem | None) -> Annotation:
        """The annotation a reply holds for ``item``, built once with this
        miner's mode tags: the one template that replies turn by turn is
        conversation-centric, turn-level and basic, the tags the turn parser
        gives."""
        if self.template.expected_format is ResponseFormat.TURN_SCOPED_PAIR_LIST:
            scoped = parse_turn_annotations(response)
            if item is not None and item.turn_id:
                for group in scoped:
                    if group.dialog_id == item.turn_id:
                        return group.annotation
            if scoped:
                return scoped[0].annotation
            return Annotation()
        return parse_annotation(
            response,
            perspective=self.perspective,
            granularity=self.granularity,
            prioritization=self.prioritization,
        )

    def mine_text(self, text: str, *, item: MemoryItem | None = None) -> Annotation:
        """Mine one payload string; retries, then raises AugmentFailure.

        The returned annotation always carries this miner's mode tags and at
        least one pair (a zero-pair parse counts as a failure).
        """
        def parse(response: str) -> Annotation:
            annotation = self._parse_response(response, item)
            if len(annotation) == 0:
                raise AugmentFailure("unparseable", "response contained no pairs")
            return annotation

        return self._with_retries(self.template, text, parse)

    def mine(self, item: MemoryItem) -> Annotation:
        """Mine one memory item using the payload convention for its kind; an item
        kind this miner's granularity cannot annotate is refused before any call."""
        check_granularity(item.kind, self.granularity)
        if not item.content.strip():
            raise ValueError("item content must be non-empty")
        payload = turn_payload(item) if item.kind is ItemKind.DIALOGUE_TURN else item.content
        return self.mine_text(payload, item=item)

    def mine_question(self, question: str) -> QueryAnnotation:
        """Identify the persons and attribute names a question asks about."""
        if not question.strip():
            raise ValueError("question must be non-empty")
        return self._with_retries(QUESTION_AUGMENTATION, question, parse_person_attributes)

    def _outcome(self, item: MemoryItem) -> Annotation | AugmentFailure:
        """``mine(item)``, with a failure returned under its reason, not raised."""
        if not item.content.strip():
            return AugmentFailure("empty", "item content is empty")
        try:
            return self.mine(item)
        except AugmentFailure as exc:
            return exc
        except LengthBudgetExceeded as exc:
            return AugmentFailure("too_long", str(exc))

    def _mine_session(self, turns: list[MemoryItem]) -> list[Annotation | AugmentFailure]:
        """Outcomes of one session's turns, mined together from one call where possible.

        Only a turn whose content holds a non-whitespace character, whose
        payload is one line and whose turn id is unique in ``turns`` and
        reads back unchanged from a ``[dialog_id]`` segment (no ``]``, no
        surrounding whitespace), joins the call: any other line could yield a group that claims
        another turn's id. A turn takes the reply's group for its id only
        when exactly one group carries that id and it holds a pair. Every
        other turn, and every turn when fewer than two join or the call
        fails after its retries or is over the length budget, is mined on
        its own by :meth:`_outcome`.
        """
        id_counts = Counter(turn.turn_id for turn in turns)
        lines: dict[str, str] = {}
        for turn in turns:
            line = turn_payload(turn)
            turn_id = turn.turn_id
            if (
                turn.content.strip()
                and id_counts[turn_id] == 1
                and "]" not in turn_id
                and turn_id == turn_id.strip()
                and line.splitlines() == [line]
            ):
                lines[turn_id] = line
        placed: dict[str, Annotation] = {}
        if len(lines) > 1:
            try:
                groups = self._with_retries(self.template, "\n".join(lines.values()), _turn_groups)
            except (AugmentFailure, LengthBudgetExceeded):
                groups = []
            claims = Counter(group.dialog_id for group in groups)
            placed = {
                group.dialog_id: group.annotation
                for group in groups
                if group.dialog_id in lines and claims[group.dialog_id] == 1 and len(group.annotation)
            }
        return [
            placed[turn.turn_id] if turn.turn_id in placed else self._outcome(turn)
            for turn in turns
        ]

    def mine_corpus(
        self, items: list[MemoryItem]
    ) -> tuple[list[tuple[str, Annotation]], AugmentationReport]:
        """Mine every item; per-item failures are recorded, never raised.

        A template that replies with one group per turn (``turn_basic``)
        gets one call per session: the turns of a ``session_id``, in input
        order, wherever they stand in ``items``, as their ``[turn_id]
        speaker: text`` lines. A turn the session reply cannot annotate,
        unambiguously and with at least one pair, is mined with a call of
        its own, as is every turn when the session call fails or is over
        the length budget (see :meth:`_mine_session` for the rules). Other
        templates, and one-turn sessions, get one call per item, from that
        item's content only. Results come back in input order, and are the
        same at every ``parallelism``. Besides the reasons of
        :class:`AugmentFailure`, an item whose content has no
        non-whitespace character fails as ``empty``, with no call, and one
        over the length budget as ``too_long``. It raises only
        before its first call: for a repeated id, or an item kind this
        miner's granularity cannot annotate.
        """
        ids = [item.id for item in items]
        if len(set(ids)) != len(ids):
            raise ValueError("item ids must be unique")
        for item in items:
            check_granularity(item.kind, self.granularity)

        if self.template.expected_format is ResponseFormat.TURN_SCOPED_PAIR_LIST:
            sessions: dict[str, list[MemoryItem]] = {}
            for item in items:
                sessions.setdefault(item.session_id, []).append(item)
            by_id: dict[str, Annotation | AugmentFailure] = {}
            mined = fan_out(self._mine_session, list(sessions.values()), self.parallelism)
            for turns, session_outcomes in zip(sessions.values(), mined):
                by_id.update(zip((turn.id for turn in turns), session_outcomes))
            outcomes = [by_id[item_id] for item_id in ids]
        else:
            outcomes = fan_out(self._outcome, items, self.parallelism)

        results: list[tuple[str, Annotation]] = []
        failures: list[tuple[str, str]] = []
        for item, outcome in zip(items, outcomes):
            if isinstance(outcome, AugmentFailure):
                failures.append((item.id, outcome.reason))
            else:
                results.append((item.id, outcome))
        report = AugmentationReport(
            total=len(items),
            succeeded=len(results),
            failed=len(failures),
            failures=failures,
        )
        return results, report


def _turn_groups(response: str) -> list[TurnScopedAnnotation]:
    groups = parse_turn_annotations(response)
    if not groups:
        raise AugmentFailure("unparseable", "response contained no turn groups")
    return groups
