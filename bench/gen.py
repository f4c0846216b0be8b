"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python over dicts and strings: the generators never
import memaug, so the inputs (and the expected mining results derived from
them) do not depend on the code under test. The same seed always gives the
same inputs.

The mock chat backend mines a pair for every payload token found in its rule
table, in token order, so each generator also returns that table and can say
exactly which ``(name, value)`` pairs mining must produce for any text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ENTITY_NAMES = (
    "color", "size", "material", "origin", "brand", "style", "era", "mood",
    "shape", "finish", "theme", "scent", "texture", "pattern", "flavor", "season",
)
# Keyword pool for entity corpora. Five draws per item from 150k keywords
# leave about 73k distinct pairs in a 20k-item corpus, so the embedder's
# token cache mostly misses while an index is built.
ENTITY_POOL = 150_000
PAIRS_PER_ENTITY = 5
ENTITY_FILLER = ("with", "and", "plus", "then", "also")

# Shared vocabulary of the conversation corpus: every turn carries one genre
# and one sentiment keyword next to its own unique topic keyword.
QA_GENRES = ("thriller", "comedy", "drama", "horror", "romance", "documentary", "action")
QA_SENTIMENTS = {
    "loved": "positive", "enjoyed": "positive", "liked": "positive",
    "hated": "negative", "disliked": "negative",
}
QA_CATEGORIES = ("single_hop", "multi_hop", "temporal", "open_domain", "adversarial")

Rules = dict[str, tuple[str, str]]


def keyword(j: int) -> str:
    return f"kw{j:06d}"


def entity_rule(j: int) -> tuple[str, str]:
    name = ENTITY_NAMES[j % len(ENTITY_NAMES)]
    return name, f"{name}{j:06d}"


def render_pair(name: str, value: str) -> str:
    return f"[{name}]<{value}>"


def expected_pairs(text: str, rules: Rules) -> list[tuple[str, str]]:
    """Pairs the rule table yields for ``text``: token order, duplicates dropped."""
    pairs: list[tuple[str, str]] = []
    for token in text.split():
        rule = rules.get(token)
        if rule is not None and rule not in pairs:
            pairs.append(rule)
    return pairs


def token_sharing(texts) -> tuple[int, int, float]:
    """(tokens, distinct tokens, hit ratio) a per-token memo cache would see."""
    seen: set[str] = set()
    total = 0
    for text in texts:
        tokens = text.casefold().split()
        total += len(tokens)
        seen.update(tokens)
    return total, len(seen), (1.0 - len(seen) / total) if total else 0.0


@dataclass
class EntityCorpus:
    """Unannotated entity items plus the rule table that annotates them."""

    items: list[dict]
    keywords: list[list[int]]
    rules: Rules

    def expected(self, index: int) -> list[tuple[str, str]]:
        return expected_pairs(self.items[index]["content"], self.rules)

    def pair_tokens(self):
        """Pair strings the averaged index strategy embeds, in store order."""
        for kws in self.keywords:
            seen = []
            for j in kws:
                if j not in seen:
                    seen.append(j)
                    yield render_pair(*entity_rule(j))

    def write_jsonl(self, path: Path) -> None:
        """Raw items as the store's JSONL input format, one object per line."""
        with path.open("w", encoding="utf-8") as fh:
            for item in self.items:
                fh.write(json.dumps(item) + "\n")


def entity_content(rng: random.Random, label: str, kws: list[int]) -> str:
    words = [f"entry {label} lists"]
    for position, j in enumerate(kws):
        words.append(f"{ENTITY_FILLER[position % len(ENTITY_FILLER)]} {keyword(j)}")
    return " ".join(words) + f" in stock {rng.randrange(1000)}"


def entity_corpus(seed: int, n_items: int) -> EntityCorpus:
    """``n_items`` entity items, each naming five pool keywords."""
    rng = random.Random(seed)
    rules: Rules = {keyword(j): entity_rule(j) for j in range(ENTITY_POOL)}
    items, keywords = [], []
    for i in range(n_items):
        kws = [rng.randrange(ENTITY_POOL) for _ in range(PAIRS_PER_ENTITY)]
        items.append({"id": f"e{i:06d}", "kind": "entity", "content": entity_content(rng, str(i), kws)})
        keywords.append(kws)
    return EntityCorpus(items=items, keywords=keywords, rules=rules)


# -- serve-20k request stream ----------------------------------------------

HOT_ITEMS = 800  # corpus items whose pairs the query stream draws from


@dataclass(frozen=True)
class Op:
    kind: str  # "embed", "attr" or "write"
    text: str  # question for queries, item content for writes
    item_id: str = ""
    expected: tuple[tuple[str, str], ...] = ()


def add_query_rules(corpus: EntityCorpus, seed: int) -> list[str]:
    """Register rendered pair tokens of a hot item set as question keywords.

    Questions quote pairs the corpus holds (``[color]<color001234>``), so the
    question-augmentation call mines their attribute names and the embedding
    query shares a token with the items that carry the pair.
    """
    rng = random.Random(seed ^ 0x5EED)
    hot = rng.sample(range(len(corpus.keywords)), min(HOT_ITEMS, len(corpus.keywords)))
    tokens = []
    for i in hot:
        for j in corpus.keywords[i]:
            name, value = entity_rule(j)
            token = render_pair(name, value)
            if token not in corpus.rules:
                corpus.rules[token] = (name, value)
                tokens.append(token)
    return tokens


def serve_ops(corpus: EntityCorpus, tokens: list[str], seed: int):
    """Endless seeded request stream: 45% embedding, 45% attribute, 10% writes.

    The mix is exact in every block of 20 requests, shuffled within the
    block, so that every seed asks for the same work. Questions quote two of
    ``tokens``; writes are new items built like the corpus's own.
    """
    rng = random.Random(seed)
    block = ["embed"] * 9 + ["attr"] * 9 + ["write"] * 2
    n = 0
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "write":
                kws = [rng.randrange(ENTITY_POOL) for _ in range(PAIRS_PER_ENTITY)]
                content = entity_content(rng, f"w{n}", kws)
                yield Op(
                    "write",
                    content,
                    item_id=f"w{seed}-{n:06d}",
                    expected=tuple(expected_pairs(content, corpus.rules)),
                )
                n += 1
                continue
            a, b = rng.choice(tokens), rng.choice(tokens)
            question = f"what do we know about {a} and {b}"
            yield Op(kind, question, expected=tuple(expected_pairs(question, corpus.rules)))


# -- qa-pipeline conversation dataset ---------------------------------------


@dataclass
class Conversation:
    data: dict
    rules: Rules
    turn_texts: dict[str, str]

    def write_json(self, path: Path) -> None:
        path.write_text(json.dumps(self.data), encoding="utf-8")

    def pair_tokens(self):
        for text in self.turn_texts.values():
            for name, value in expected_pairs(text, self.rules):
                yield render_pair(name, value)


def conversation(seed: int, n_sessions: int, turns_per_session: int, n_questions: int) -> Conversation:
    """Sessions of two-speaker turns and questions that each quote one turn's topic."""
    rng = random.Random(seed)
    rules: Rules = {genre: ("genre", genre) for genre in QA_GENRES}
    rules.update({word: ("sentiment", tone) for word, tone in QA_SENTIMENTS.items()})
    sentiments = sorted(QA_SENTIMENTS)
    sessions, turn_texts, topics = [], {}, {}
    for s in range(n_sessions):
        turns = []
        for t in range(turns_per_session):
            turn_id = f"s{s:03d}t{t:02d}"
            topic = f"topic{s:03d}{t:02d}"
            rules[topic] = ("topic", topic)
            text = (
                f"we {rng.choice(sentiments)} that {rng.choice(QA_GENRES)} "
                f"and talked about {topic} for a while"
            )
            turns.append({"turn_id": turn_id, "speaker": "ana" if t % 2 == 0 else "bob", "text": text})
            turn_texts[turn_id] = text
            topics[turn_id] = topic
        sessions.append({"session_id": f"s{s:03d}", "timestamp": f"day {s}", "turns": turns})
    qa = []
    for q, turn_id in enumerate(rng.sample(sorted(turn_texts), n_questions)):
        quoted = render_pair("topic", topics[turn_id])
        rules[quoted] = ("topic", topics[turn_id])
        qa.append({
            "question": f"what came up regarding {quoted} back then",
            "category": QA_CATEGORIES[q % len(QA_CATEGORIES)],
            "gold_turn_ids": [turn_id],
            "gold_answer": turn_texts[turn_id],
        })
    return Conversation(data={"sessions": sessions, "qa": qa}, rules=rules, turn_texts=turn_texts)
