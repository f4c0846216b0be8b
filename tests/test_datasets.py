"""Dataset schema loading and dialogue masking tests."""

import json
import random
import re

import pytest

from memaug import (
    LabelNotFoundError,
    QACategory,
    RecDialogue,
    SchemaError,
    load_conversation_dataset,
    load_recommendation_dataset,
    mask_dialogue,
)
from memaug.datasets import (
    MASK_TOKEN, RecItem, session_text, store_from_items, store_from_sessions,
)
from memaug.store import ItemKind

from synthetic import build_qa_fixture, build_rec_fixture


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestConversationDataset:
    def test_load_fixture(self, tmp_path):
        data, _ = build_qa_fixture(n_turns=10, n_sessions=2)
        dataset = load_conversation_dataset(write_json(tmp_path, "d.json", data))
        assert sum(len(session.turns) for session in dataset.sessions) == 10
        assert len(dataset.qa) == 10
        assert dataset.qa[0].category is QACategory.SINGLE_HOP

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_conversation_dataset(tmp_path / "nope.json")

    def test_duplicate_turn_ids_rejected(self, tmp_path):
        payload = {
            "sessions": [
                {
                    "session_id": "s1",
                    "turns": [
                        {"turn_id": "t1", "speaker": "a", "text": "x"},
                        {"turn_id": "t1", "speaker": "b", "text": "y"},
                    ],
                }
            ]
        }
        with pytest.raises(SchemaError):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))

    def test_duplicate_session_ids_rejected(self, tmp_path):
        payload = {
            "sessions": [
                {"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": "x"}]},
                {"session_id": "s1", "turns": [{"turn_id": "t2", "speaker": "b", "text": "y"}]},
            ]
        }
        with pytest.raises(SchemaError, match="^duplicate session_id 's1'$"):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))

    def test_unknown_gold_turn_rejected(self, tmp_path):
        payload = {
            "sessions": [
                {"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": "x"}]}
            ],
            "qa": [
                {
                    "question": "?",
                    "category": "single_hop",
                    "gold_turn_ids": ["missing"],
                    "gold_answer": "x",
                }
            ],
        }
        with pytest.raises(SchemaError):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))

    def test_empty_gold_only_for_adversarial(self, tmp_path):
        payload = {
            "sessions": [
                {"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": "x"}]}
            ],
            "qa": [
                {
                    "question": "?",
                    "category": "temporal",
                    "gold_turn_ids": [],
                    "gold_answer": "x",
                }
            ],
        }
        with pytest.raises(SchemaError):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))
        payload["qa"][0]["category"] = "adversarial"
        dataset = load_conversation_dataset(write_json(tmp_path, "d2.json", payload))
        assert dataset.qa[0].gold_turn_ids == frozenset()

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("question", "", "question must be non-empty"),
            ("question", " \t\n", "question must be non-empty"),
            ("gold_answer", "", "gold_answer must contain at least one token"),
            ("gold_answer", " \t\n", "gold_answer must contain at least one token"),
        ],
        ids=["empty-question", "blank-question", "empty-answer", "blank-answer"],
    )
    def test_unanswerable_qa_record_is_a_schema_error(self, tmp_path, field, value, message):
        data, _ = build_qa_fixture(n_turns=10, n_sessions=2)
        data["qa"][3][field] = value
        with pytest.raises(SchemaError, match=re.escape(f"qa[3]: {message}")):
            load_conversation_dataset(write_json(tmp_path, "d.json", data))

    def test_store_from_sessions_turn_level(self, tmp_path):
        data, _ = build_qa_fixture(n_turns=10, n_sessions=2)
        dataset = load_conversation_dataset(write_json(tmp_path, "d.json", data))
        store = store_from_sessions(dataset)
        assert len(store) == 10
        item = store.get("t03")
        assert item.kind is ItemKind.DIALOGUE_TURN
        assert item.session_id == "s0"

    def test_store_from_sessions_session_level(self, tmp_path):
        data, _ = build_qa_fixture(n_turns=10, n_sessions=2)
        dataset = load_conversation_dataset(write_json(tmp_path, "d.json", data))
        store = store_from_sessions(dataset, level="session")
        assert len(store) == 2
        item = store.get("s0")
        assert item.kind is ItemKind.SESSION
        assert item.content == session_text(dataset.sessions[0])
        assert item.content.count("\n") == 4

    @pytest.mark.parametrize("level", ["sessions", "Session", "na", ""])
    def test_store_from_sessions_refuses_an_unknown_level(self, tmp_path, level):
        data, _ = build_qa_fixture(n_turns=10, n_sessions=2)
        dataset = load_conversation_dataset(write_json(tmp_path, "d.json", data))
        with pytest.raises(ValueError, match=f"^level must be 'turn' or 'session', got {level!r}$"):
            store_from_sessions(dataset, level=level)


class TestRecommendationDataset:
    def test_load_fixture(self, tmp_path):
        data, _, _ = build_rec_fixture(n_dialogues=6, n_items=5)
        dataset = load_recommendation_dataset(write_json(tmp_path, "r.json", data))
        assert len(dataset.items) == 5
        assert len(dataset.dialogues) == 6
        assert dataset.dialogues[0].gold_labels == ("Film 00",)

    def test_empty_labels_rejected(self, tmp_path):
        payload = {
            "items": [{"id": "m1", "title": "X"}],
            "dialogues": [{"dialogue_id": "d1", "turns": [], "gold_labels": []}],
        }
        with pytest.raises(SchemaError):
            load_recommendation_dataset(write_json(tmp_path, "r.json", payload))

    def test_duplicate_item_id_rejected(self, tmp_path):
        data, _, _ = build_rec_fixture(n_dialogues=2, n_items=3)
        data["items"].append(dict(data["items"][1], title="Another"))
        duplicate = data["items"][1]["id"]
        with pytest.raises(SchemaError, match=f"^duplicate item id {duplicate!r}$"):
            load_recommendation_dataset(write_json(tmp_path, "r.json", data))

    def test_store_from_items_stores_a_blank_content_as_the_title(self):
        store = store_from_items(
            (RecItem("m1", "Heat", "  "), RecItem("m2", "Up", ""), RecItem("m3", "X", " a film"))
        )
        assert [item.content for item in store] == ["Heat", "Up", " a film"]

    def test_store_from_items(self):
        _, store, _ = build_rec_fixture(n_dialogues=2, n_items=4)
        assert len(store) == 4
        fresh = store_from_items(
            tuple()
        )
        assert len(fresh) == 0


class TestMaskDialogue:
    def make(self, texts, labels=("Heat",)):
        return RecDialogue(
            dialogue_id="d",
            turns=tuple(("user", text) for text in texts),
            gold_labels=tuple(labels),
        )

    def test_cutoff_after_first_masked_turn(self):
        dialogue = self.make(
            ["hello", "how are you", "watch Heat tonight", "ok", "bye", "later"]
        )
        masked = mask_dialogue(dialogue)
        assert len(masked.turns) == 3
        assert masked.turns[2][1] == f"watch {MASK_TOKEN} tonight"
        assert masked.masked

    def test_label_in_first_turn(self):
        masked = mask_dialogue(self.make(["Heat was great", "more talk"]))
        assert len(masked.turns) == 1
        assert masked.turns[0][1] == f"{MASK_TOKEN} was great"

    def test_label_absent(self):
        with pytest.raises(LabelNotFoundError):
            mask_dialogue(self.make(["nothing here", "nope"]))

    def test_case_insensitive_and_all_occurrences(self):
        masked = mask_dialogue(self.make(["I rewatched heat because HEAT rules"]))
        assert masked.turns[0][1] == f"I rewatched {MASK_TOKEN} because {MASK_TOKEN} rules"

    @pytest.mark.parametrize("blank", ["", "  ", "\t"])
    def test_blank_label_is_ignored(self, blank):
        # Blank runs with no word character around them, as a blank label's
        # whole-mention pattern would match.
        texts = ["well ,  , hmm (\t)", "and more", "watch Heat tonight", "bye"]
        masked = mask_dialogue(self.make(texts, labels=("Heat", blank)))
        assert masked.turns == mask_dialogue(self.make(texts)).turns
        assert masked.turns[2][1] == f"watch {MASK_TOKEN} tonight"

    @pytest.mark.parametrize("label", ["!!", "--", " . "])
    def test_label_that_names_no_title_is_ignored(self, label):
        texts = ["well !! -- . hmm", "watch Heat tonight", "bye"]
        masked = mask_dialogue(self.make(texts, labels=("Heat", label)))
        assert masked.turns == mask_dialogue(self.make(texts)).turns
        with pytest.raises(LabelNotFoundError, match="^no labels to mask$"):
            mask_dialogue(self.make(texts, labels=(label,)))

    def test_only_blank_labels_mask_nothing(self):
        with pytest.raises(LabelNotFoundError, match="no labels to mask"):
            mask_dialogue(self.make(["well ,  , hmm"], labels=("  ",)))

    def test_structural_invariants_on_random_dialogues(self):
        rng = random.Random(42)
        labels = ["Alpha Movie", "Beta Show"]
        for _ in range(100):
            n_turns = rng.randint(1, 10)
            label_turn = rng.randint(0, n_turns - 1)
            texts = []
            for i in range(n_turns):
                base = f"turn number {i} with filler"
                if i == label_turn:
                    base += f" mentioning {rng.choice(labels)} explicitly"
                elif rng.random() < 0.3 and i > label_turn:
                    base += f" later mention of {rng.choice(labels)}"
                texts.append(base)
            masked = mask_dialogue(self.make(texts, labels))
            # no un-masked label text survives in the kept turns
            for _, text in masked.turns:
                for label in labels:
                    assert label.casefold() not in text.casefold()
            # the kept prefix ends exactly at the first turn containing a mask
            assert MASK_TOKEN in masked.turns[-1][1]
            for _, text in masked.turns[:-1]:
                assert MASK_TOKEN not in text
            assert len(masked.turns) == label_turn + 1

    def test_label_matches_whole_mentions_only(self):
        masked = mask_dialogue(self.make(
            ["Where can I find a film like that?", "Try her: HER is great", "Her again"],
            labels=("Her",),
        ))
        assert masked.turns == (
            ("user", "Where can I find a film like that?"),
            ("user", f"Try {MASK_TOKEN}: {MASK_TOKEN} is great"),
        )

    def test_label_is_matched_by_its_stripped_text(self):
        masked = mask_dialogue(self.make(["hi", "I loved Heat so much", "bye"], labels=(" Heat ",)))
        assert masked.turns == (("user", "hi"), ("user", f"I loved {MASK_TOKEN} so much"))

    @pytest.mark.parametrize("label, text, expected", [
        ("Up", "an upbeat film, not Up", f"an upbeat film, not {MASK_TOKEN}"),
        ("It", "It's it_2 or It", f"{MASK_TOKEN}'s it_2 or {MASK_TOKEN}"),
        ("Heat", "preheat; (Heat) Heat2", f"preheat; ({MASK_TOKEN}) Heat2"),
        ("Us", "thus us", f"thus {MASK_TOKEN}"),
    ])
    def test_word_characters_around_a_label_block_its_mask(self, label, text, expected):
        assert mask_dialogue(self.make([text], labels=(label,))).turns[0][1] == expected


class TestFieldTypes:
    """Every record is an object; ids, speakers and texts are strings, and
    label and gold-id fields are lists of strings."""

    _SESSION = {"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": "x"}]}

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([_SESSION], "must hold a JSON object"),
            ({"sessions": {"s1": _SESSION}}, "sessions must be a list"),
            ({"sessions": [_SESSION, "s2"]}, "sessions[1] must be an object"),
            ({"sessions": [{"session_id": "s1", "turns": [7]}]}, "sessions[0].turns[0] must be an object"),
            ({"sessions": [{"session_id": 1, "turns": []}]}, "field 'session_id' must be a string"),
            ({"sessions": [{"session_id": "s1", "turns": [{"turn_id": 1, "speaker": "a", "text": "x"}]}]},
             "field 'turn_id' must be a string"),
            ({"sessions": [{"session_id": "s1", "turns": [{"turn_id": "t1", "speaker": "a", "text": ["x"]}]}]},
             "field 'text' must be a string"),
            ({"sessions": [dict(_SESSION, timestamp=5)]}, "field 'timestamp' must be a string"),
            ({"sessions": [_SESSION],
              "qa": [{"question": "?", "category": "single_hop", "gold_turn_ids": "t1", "gold_answer": "x"}]},
             "field 'gold_turn_ids' must be a list of strings"),
            ({"sessions": [_SESSION], "events": [{"session_id": "s1", "speaker": "a", "summary": 3}]},
             "field 'summary' must be a string"),
        ],
    )
    def test_conversation_schema(self, tmp_path, payload, message):
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))

    def test_missing_field_message_kept(self, tmp_path):
        payload = {"sessions": [{"session_id": "s1", "turns": [{"turn_id": "t1", "text": "x"}]}]}
        with pytest.raises(SchemaError, match="turn t1: missing required field 'speaker'"):
            load_conversation_dataset(write_json(tmp_path, "d.json", payload))

    def test_not_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError, match="is not valid JSON"):
            load_conversation_dataset(path)
        with pytest.raises(SchemaError, match="is not valid JSON"):
            load_recommendation_dataset(path)

    @pytest.mark.parametrize(
        "items,dialogue,message",
        [
            ([{"id": "m1", "title": "Heat"}], {"gold_labels": "Heat"}, "field 'gold_labels' must be a list of strings"),
            ([{"id": "m1", "title": "Heat"}], {"gold_labels": ["Heat", 2]}, "field 'gold_labels' must be a list of strings"),
            ([{"id": 1, "title": "Heat"}], {"gold_labels": ["Heat"]}, "field 'id' must be a string"),
            ([{"id": "m1", "title": "Heat", "content": 0}], {"gold_labels": ["Heat"]}, "field 'content' must be a string"),
            ([{"id": "m1", "title": "Heat"}], {"gold_labels": ["Heat"], "turns": "Heat"}, "dialogues[0].turns must be a list"),
        ],
    )
    def test_recommendation_schema(self, tmp_path, items, dialogue, message):
        payload = {
            "items": items,
            "dialogues": [dict({"dialogue_id": "d1", "turns": [{"speaker": "u", "text": "Heat"}]}, **dialogue)],
        }
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_recommendation_dataset(write_json(tmp_path, "r.json", payload))
