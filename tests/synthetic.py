"""Builders for deterministic synthetic fixtures shared across test modules."""

from __future__ import annotations

import random
import string

from memaug import (
    Annotation,
    AttributePair,
    Granularity,
    ItemKind,
    MemoryItem,
    MemoryStore,
    Perspective,
    Prioritization,
)

NAME_CHARS = string.ascii_letters + string.digits + "  -_'<>"
VALUE_CHARS = string.ascii_letters + string.digits + " .,;:'!?()[]/-_&"
# Characters a JSON line must escape or may leave raw: quotes, backslashes,
# control characters, non-ASCII text and the two Unicode line separators.
ESCAPED_CHARS = '"\\/\n\t\r\x00\x01\x1f\x7féß中😀\u2028\u2029'


def random_name(rng: random.Random) -> str:
    while True:
        raw = "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 12)))
        if raw.strip():
            return raw


def random_value(rng: random.Random) -> str:
    while True:
        raw = "".join(rng.choice(VALUE_CHARS) for _ in range(rng.randint(1, 16))).strip()
        if raw and raw.casefold() != "none":
            return raw


def random_annotation(rng: random.Random, max_pairs: int = 20) -> Annotation:
    pairs = tuple(
        AttributePair(random_name(rng), random_value(rng))
        for _ in range(rng.randint(0, max_pairs))
    )
    return Annotation(
        pairs=pairs,
        perspective=rng.choice(list(Perspective)),
        granularity=rng.choice(list(Granularity)),
        prioritization=rng.choice(list(Prioritization)),
    )


def _escaped_text(rng: random.Random, size: int) -> str:
    alphabet = VALUE_CHARS + ESCAPED_CHARS
    return "".join(rng.choice(alphabet) for _ in range(size))


def build_mixed_store(seed: int = 0, n_items: int = 300) -> MemoryStore:
    """A store of entities, turns and sessions whose text JSON must escape.

    Each optional text field is present or absent, about a third of the
    items carry no annotation, and annotated items carry up to 6 pairs
    (some with no pairs at all), under random perspective and prioritization.
    """
    rng = random.Random(seed)
    store = MemoryStore()
    granularity = {
        ItemKind.ENTITY: Granularity.NOT_APPLICABLE,
        ItemKind.DIALOGUE_TURN: Granularity.TURN_LEVEL,
        ItemKind.SESSION: Granularity.SESSION_LEVEL,
    }
    for i in range(n_items):
        kind = rng.choice(list(ItemKind))
        optional = {
            key: _escaped_text(rng, rng.randint(0, 8)) if rng.random() < 0.5 else None
            for key in ("speaker", "session_id", "turn_id", "timestamp")
        }
        if kind is not ItemKind.ENTITY:
            optional["session_id"] = f"s{i % 7}" + (optional["session_id"] or "")
        if kind is ItemKind.DIALOGUE_TURN:
            optional["turn_id"] = f"t{i}" + (optional["turn_id"] or "")
        item = MemoryItem(f"m{i}:" + _escaped_text(rng, rng.randint(0, 3)), kind,
                          _escaped_text(rng, rng.randint(0, 40)), **optional)
        annotation = None
        if rng.random() < 0.67:
            pairs = []
            for _ in range(rng.randint(0, 6)):
                value = _escaped_text(rng, rng.randint(1, 12)).strip()
                if value and value.casefold() != "none":
                    pairs.append(AttributePair(random_name(rng), value))
            annotation = Annotation(
                tuple(pairs),
                rng.choice(list(Perspective)),
                granularity[kind],
                rng.choice(list(Prioritization)),
            )
        store.write(item, annotation)
    return store


def qa_keyword(i: int) -> str:
    return f"topic{i:02d}"


def build_qa_fixture(n_turns: int = 50, n_sessions: int = 5):
    """A corpus where each turn carries one unique keyword and each question
    asks about exactly one keyword, so mined question attributes biject to
    turns. Returns (dataset dict, mock rule table)."""
    rules: dict[str, tuple[str, str]] = {}
    categories = ["single_hop", "multi_hop", "temporal", "open_domain", "adversarial"]
    sessions = []
    qa = []
    turns_per_session = n_turns // n_sessions
    index = 0
    for s in range(n_sessions):
        turns = []
        for t in range(turns_per_session):
            word = qa_keyword(index)
            rules[word] = (word, word)
            rules[f"[{word}]<{word}>"] = (word, word)
            turns.append(
                {
                    "turn_id": f"t{index:02d}",
                    "speaker": "ana" if t % 2 == 0 else "bob",
                    "text": f"we talked about {word} today",
                }
            )
            index += 1
        sessions.append({"session_id": f"s{s}", "turns": turns})
    for i in range(n_turns):
        word = qa_keyword(i)
        qa.append(
            {
                "question": f"what came up regarding [{word}]<{word}> back then",
                "category": categories[i % len(categories)],
                "gold_turn_ids": [f"t{i:02d}"],
                "gold_answer": f"we talked about {word} today",
            }
        )
    return {"sessions": sessions, "qa": qa}, rules


REC_GENRES = [
    "noir", "western", "musical", "biopic", "heist", "satire", "sports",
    "war", "space", "fantasy", "mystery", "roadtrip", "courtroom", "spy",
    "survival", "political", "dance", "monster", "pirate", "detective",
    "gothic", "samurai", "jungle", "arctic", "desert",
]


def build_rec_store(n_items: int = 25) -> tuple[MemoryStore, list[dict]]:
    """Entity store with one planted single-pair annotation per item."""
    store = MemoryStore()
    items = []
    for i in range(n_items):
        genre = REC_GENRES[i % len(REC_GENRES)]
        title = f"Film {i:02d}"
        item = MemoryItem(id=f"m{i:02d}", kind=ItemKind.ENTITY, content=title)
        annotation = Annotation(
            pairs=(AttributePair("genre", genre),),
            perspective=Perspective.ENTITY_CENTRIC,
            granularity=Granularity.NOT_APPLICABLE,
        )
        store.write(item, annotation)
        items.append({"id": item.id, "title": title})
    return store, items


def build_rec_fixture(n_dialogues: int = 30, n_items: int = 25):
    """Recommendation dataset whose dialogues each want one unique genre.

    Dialogue i mentions the keyword of item i's genre before mentioning the
    gold title, so masking keeps the keyword turn and the planted store item
    is the exact retrieval match. Returns (dataset dict, store, rules).
    """
    store, items = build_rec_store(n_items)
    rules = {genre: ("genre", genre) for genre in REC_GENRES}
    dialogues = []
    for d in range(n_dialogues):
        item_index = d % n_items
        genre = REC_GENRES[item_index % len(REC_GENRES)]
        title = items[item_index]["title"]
        dialogues.append(
            {
                "dialogue_id": f"d{d:02d}",
                "turns": [
                    {"speaker": "user", "text": f"i want something {genre} tonight"},
                    {"speaker": "agent", "text": f"you could watch {title}"},
                    {"speaker": "user", "text": "sounds good, adding it to my list"},
                ],
                "gold_labels": [title],
            }
        )
    return {"items": items, "dialogues": dialogues}, store, rules
