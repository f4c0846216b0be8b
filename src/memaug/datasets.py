"""Generic dataset schemas for the three evaluation tasks, plus masking.

Datasets are plain JSON files so public corpora can be adapted with thin
mapping scripts rather than redistributed. Two schemas are used:

Conversation dataset (question answering / event summarization)::

    {
      "sessions": [{"session_id": "s1", "timestamp": "...",
                    "turns": [{"turn_id": "t1", "speaker": "A", "text": "..."}]}],
      "qa": [{"question": "...", "category": "single_hop",
              "gold_turn_ids": ["t1"], "gold_answer": "..."}],
      "events": [{"session_id": "s1", "speaker": "A", "summary": "..."}]
    }

Recommendation dataset::

    {
      "items": [{"id": "m1", "title": "Heat", "content": "..."}],
      "dialogues": [{"dialogue_id": "d1",
                     "turns": [{"speaker": "user", "text": "..."}],
                     "gold_labels": ["Heat"]}]
    }
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import LabelNotFoundError, SchemaError
from .fileio import read_json_object
from .metrics import normalize_title
from .store import ItemKind, MemoryItem, MemoryStore

MASK_TOKEN = "[MASKED]"


class QACategory(Enum):
    SINGLE_HOP = "single_hop"
    MULTI_HOP = "multi_hop"
    TEMPORAL = "temporal"
    OPEN_DOMAIN = "open_domain"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True)
class QAExample:
    question: str
    category: QACategory
    gold_turn_ids: frozenset[str]
    gold_answer: str

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.gold_answer.split():
            raise ValueError("gold_answer must contain at least one token")
        if not self.gold_turn_ids and self.category is not QACategory.ADVERSARIAL:
            raise ValueError("gold_turn_ids may be empty only for adversarial questions")


@dataclass(frozen=True)
class Turn:
    turn_id: str
    speaker: str
    text: str


@dataclass(frozen=True)
class Session:
    session_id: str
    turns: tuple[Turn, ...]
    timestamp: str | None = None


@dataclass(frozen=True)
class EventLabel:
    session_id: str
    speaker: str
    summary: str


@dataclass(frozen=True)
class ConversationDataset:
    sessions: tuple[Session, ...]
    qa: tuple[QAExample, ...] = ()
    events: tuple[EventLabel, ...] = ()


@dataclass(frozen=True)
class RecDialogue:
    """A recommendation dialogue, optionally already masked and cut off."""

    dialogue_id: str
    turns: tuple[tuple[str, str], ...]  # (speaker, text)
    gold_labels: tuple[str, ...]
    masked: bool = False

    def text(self) -> str:
        return "\n".join(f"{speaker}: {text}" for speaker, text in self.turns)


@dataclass(frozen=True)
class RecItem:
    id: str
    title: str
    content: str = ""


@dataclass(frozen=True)
class RecommendationDataset:
    items: tuple[RecItem, ...]
    dialogues: tuple[RecDialogue, ...]


_REQUIRED = object()


def _require(record: dict, key: str, context: str, default=_REQUIRED, *, strings: bool = False):
    """``record[key]``, which must be a string (with ``strings``: a list of
    strings). A missing or null field is ``default``, or an error if none."""
    value = record.get(key)
    if isinstance(value, str) and not strings:
        return value
    if value is None:
        if default is _REQUIRED:
            raise SchemaError(f"{context}: missing required field {key!r}")
        return default
    if not (strings and isinstance(value, list) and all(isinstance(v, str) for v in value)):
        kind = "a list of strings" if strings else "a string"
        raise SchemaError(f"{context}: field {key!r} must be {kind}, not {type(value).__name__}")
    return value


def _records(record: dict, key: str, context: str = "") -> list[dict]:
    """The objects listed under ``record[key]``; an absent key lists none."""
    where = f"{context}.{key}" if context else key
    records = record.get(key, [])
    if not isinstance(records, list):
        raise SchemaError(f"{where} must be a list")
    for idx, entry in enumerate(records):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}[{idx}] must be an object")
    return records


def load_conversation_dataset(path: str | Path) -> ConversationDataset:
    data = read_json_object(path, "dataset file")
    sessions = []
    seen_turn_ids: set[str] = set()
    seen_session_ids: set[str] = set()
    for s_idx, raw in enumerate(_records(data, "sessions")):
        session_id = _require(raw, "session_id", f"sessions[{s_idx}]")
        if session_id in seen_session_ids:
            raise SchemaError(f"duplicate session_id {session_id!r}")
        seen_session_ids.add(session_id)
        turns = []
        for t_idx, turn in enumerate(_records(raw, "turns", f"sessions[{s_idx}]")):
            turn_id = _require(turn, "turn_id", f"sessions[{s_idx}].turns[{t_idx}]")
            if turn_id in seen_turn_ids:
                raise SchemaError(f"duplicate turn_id {turn_id!r}")
            seen_turn_ids.add(turn_id)
            turns.append(
                Turn(
                    turn_id=turn_id,
                    speaker=_require(turn, "speaker", f"turn {turn_id}"),
                    text=_require(turn, "text", f"turn {turn_id}"),
                )
            )
        sessions.append(
            Session(
                session_id=session_id,
                turns=tuple(turns),
                timestamp=_require(raw, "timestamp", f"sessions[{s_idx}]", None),
            )
        )
    qa = []
    for q_idx, raw in enumerate(_records(data, "qa")):
        try:  # _require and the gold-id check raise SchemaError, not ValueError
            category = QACategory(_require(raw, "category", f"qa[{q_idx}]"))
            gold_ids = frozenset(_require(raw, "gold_turn_ids", f"qa[{q_idx}]", [], strings=True))
            unknown = gold_ids - seen_turn_ids
            if unknown:
                raise SchemaError(f"qa[{q_idx}]: unknown gold turn ids {sorted(unknown)}")
            qa.append(
                QAExample(
                    question=_require(raw, "question", f"qa[{q_idx}]"),
                    category=category,
                    gold_turn_ids=gold_ids,
                    gold_answer=_require(raw, "gold_answer", f"qa[{q_idx}]"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"qa[{q_idx}]: {exc}") from exc
    events = tuple(
        EventLabel(
            session_id=_require(raw, "session_id", f"events[{e_idx}]"),
            speaker=_require(raw, "speaker", f"events[{e_idx}]"),
            summary=_require(raw, "summary", f"events[{e_idx}]"),
        )
        for e_idx, raw in enumerate(_records(data, "events"))
    )
    return ConversationDataset(sessions=tuple(sessions), qa=tuple(qa), events=events)


def load_recommendation_dataset(path: str | Path) -> RecommendationDataset:
    data = read_json_object(path, "dataset file")
    items = []
    seen_ids: set[str] = set()
    for i_idx, raw in enumerate(_records(data, "items")):
        item_id = _require(raw, "id", f"items[{i_idx}]")
        if item_id in seen_ids:
            raise SchemaError(f"duplicate item id {item_id!r}")
        seen_ids.add(item_id)
        items.append(
            RecItem(
                id=item_id,
                title=_require(raw, "title", f"items[{i_idx}]"),
                content=_require(raw, "content", f"items[{i_idx}]", ""),
            )
        )
    dialogues = []
    for d_idx, raw in enumerate(_records(data, "dialogues")):
        turns = tuple(
            (
                _require(turn, "speaker", f"dialogues[{d_idx}].turns[{t_idx}]"),
                _require(turn, "text", f"dialogues[{d_idx}].turns[{t_idx}]"),
            )
            for t_idx, turn in enumerate(_records(raw, "turns", f"dialogues[{d_idx}]"))
        )
        labels = tuple(_require(raw, "gold_labels", f"dialogues[{d_idx}]", strings=True))
        if not labels:
            raise SchemaError(f"dialogues[{d_idx}]: gold_labels must be non-empty")
        dialogues.append(
            RecDialogue(
                dialogue_id=_require(raw, "dialogue_id", f"dialogues[{d_idx}]"),
                turns=turns,
                gold_labels=labels,
            )
        )
    return RecommendationDataset(items=tuple(items), dialogues=tuple(dialogues))


def mask_dialogue(dialogue: RecDialogue) -> RecDialogue:
    """Mask every gold label occurrence and cut the dialogue after the first mask.

    Occurrences are matched case-insensitively as whole mentions, with no
    word character right before or after (the label "Her" masks "her" but
    not "where"), and replaced with ``[MASKED]``; every turn strictly after
    the first turn containing a mask is removed (those turns back the
    evaluation labels). A label that :func:`~memaug.metrics.normalize_title`
    maps to ``""`` names no title and is ignored. Raises
    :class:`LabelNotFoundError` when no label occurs anywhere.
    """
    patterns = [
        re.compile(rf"(?<!\w){re.escape(label)}(?!\w)", re.IGNORECASE)
        for label in dialogue.gold_labels
        if normalize_title(label)
    ]
    if not patterns:
        raise LabelNotFoundError("no labels to mask")
    masked_turns: list[tuple[str, str]] = []
    for speaker, text in dialogue.turns:
        replaced = text
        for pattern in patterns:
            replaced = pattern.sub(MASK_TOKEN, replaced)
        masked_turns.append((speaker, replaced))
        if replaced != text:
            break
    else:
        raise LabelNotFoundError("no ground-truth label occurs in the dialogue")
    return RecDialogue(
        dialogue_id=dialogue.dialogue_id,
        turns=tuple(masked_turns),
        gold_labels=dialogue.gold_labels,
        masked=True,
    )


def session_text(session: Session) -> str:
    """Speaker-prefixed, newline-separated payload for session-level mining."""
    return "\n".join(f"{turn.speaker}: {turn.text}" for turn in session.turns)


def store_from_sessions(dataset: ConversationDataset, *, level: str = "turn") -> MemoryStore:
    """Build a store of dialogue turns (or whole sessions) from a dataset."""
    if level not in ("turn", "session"):
        raise ValueError(f"level must be 'turn' or 'session', got {level!r}")
    store = MemoryStore()
    for session in dataset.sessions:
        if level == "session":
            store.write(
                MemoryItem(
                    id=session.session_id,
                    kind=ItemKind.SESSION,
                    content=session_text(session),
                    session_id=session.session_id,
                    timestamp=session.timestamp,
                )
            )
            continue
        for turn in session.turns:
            store.write(
                MemoryItem(
                    id=turn.turn_id,
                    kind=ItemKind.DIALOGUE_TURN,
                    content=turn.text,
                    speaker=turn.speaker,
                    session_id=session.session_id,
                    turn_id=turn.turn_id,
                    timestamp=session.timestamp,
                )
            )
    return store


def store_from_items(items: tuple[RecItem, ...]) -> MemoryStore:
    """Build an entity store from recommendation items; an item whose
    content has no non-whitespace character is stored as its title."""
    store = MemoryStore()
    for item in items:
        store.write(
            MemoryItem(
                id=item.id,
                kind=ItemKind.ENTITY,
                content=item.content if item.content.strip() else item.title,
            )
        )
    return store
