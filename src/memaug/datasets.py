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

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import LabelNotFoundError, SchemaError
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


def _require(record: dict, key: str, context: str):
    if key not in record:
        raise SchemaError(f"{context}: missing required field {key!r}")
    return record[key]


def load_conversation_dataset(path: str | Path) -> ConversationDataset:
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"dataset file not found: {source}")
    data = json.loads(source.read_text(encoding="utf-8"))
    sessions = []
    seen_turn_ids: set[str] = set()
    for s_idx, raw in enumerate(data.get("sessions", [])):
        turns = []
        for t_idx, turn in enumerate(raw.get("turns", [])):
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
                session_id=_require(raw, "session_id", f"sessions[{s_idx}]"),
                turns=tuple(turns),
                timestamp=raw.get("timestamp"),
            )
        )
    qa = []
    for q_idx, raw in enumerate(data.get("qa", [])):
        try:
            category = QACategory(_require(raw, "category", f"qa[{q_idx}]"))
        except ValueError as exc:
            raise SchemaError(f"qa[{q_idx}]: {exc}") from exc
        gold_ids = frozenset(raw.get("gold_turn_ids", []))
        unknown = gold_ids - seen_turn_ids
        if unknown:
            raise SchemaError(f"qa[{q_idx}]: unknown gold turn ids {sorted(unknown)}")
        try:
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
        for e_idx, raw in enumerate(data.get("events", []))
    )
    return ConversationDataset(sessions=tuple(sessions), qa=tuple(qa), events=events)


def load_recommendation_dataset(path: str | Path) -> RecommendationDataset:
    source = Path(path)
    if not source.exists():
        raise FileNotFoundError(f"dataset file not found: {source}")
    data = json.loads(source.read_text(encoding="utf-8"))
    items = []
    seen_ids: set[str] = set()
    for i_idx, raw in enumerate(data.get("items", [])):
        item_id = _require(raw, "id", f"items[{i_idx}]")
        if item_id in seen_ids:
            raise SchemaError(f"duplicate item id {item_id!r}")
        seen_ids.add(item_id)
        items.append(
            RecItem(
                id=item_id,
                title=_require(raw, "title", f"items[{i_idx}]"),
                content=raw.get("content", ""),
            )
        )
    dialogues = []
    for d_idx, raw in enumerate(data.get("dialogues", [])):
        turns = tuple(
            (
                _require(turn, "speaker", f"dialogues[{d_idx}].turns[{t_idx}]"),
                _require(turn, "text", f"dialogues[{d_idx}].turns[{t_idx}]"),
            )
            for t_idx, turn in enumerate(raw.get("turns", []))
        )
        labels = tuple(_require(raw, "gold_labels", f"dialogues[{d_idx}]"))
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

    Occurrences are matched case-insensitively and replaced with
    ``[MASKED]``; every turn strictly after the first turn containing a mask
    is removed (those turns back the evaluation labels). Raises
    :class:`LabelNotFoundError` when no label occurs anywhere.
    """
    patterns = [
        re.compile(re.escape(label), re.IGNORECASE) for label in dialogue.gold_labels if label
    ]
    if not patterns:
        raise LabelNotFoundError("no labels to mask")
    masked_turns: list[tuple[str, str]] = []
    cutoff: int | None = None
    for idx, (speaker, text) in enumerate(dialogue.turns):
        replaced = text
        for pattern in patterns:
            replaced = pattern.sub(MASK_TOKEN, replaced)
        masked_turns.append((speaker, replaced))
        if replaced != text:
            cutoff = idx
            break
    if cutoff is None:
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
    """Build an entity store from recommendation items."""
    store = MemoryStore()
    for item in items:
        store.write(
            MemoryItem(
                id=item.id,
                kind=ItemKind.ENTITY,
                content=item.content or item.title,
            )
        )
    return store
