"""Prompt template and mining-template table tests."""

import pytest

from memaug import PromptTemplate, ResponseFormat, build_prompt
from memaug.annotations import Granularity, Perspective, Prioritization
from memaug.errors import LengthBudgetExceeded
from memaug.templates import LENGTH_BUDGET, MINING_TEMPLATES, mining_template


class TestBuildPrompt:
    def test_substitution(self):
        template = PromptTemplate(id="t", body="Movie is: {}")
        assert build_prompt(template, "Heat") == "Movie is: Heat"

    def test_missing_placeholder_is_construction_error(self):
        with pytest.raises(ValueError):
            PromptTemplate(id="t", body="no placeholder here")

    def test_two_placeholders_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(id="t", body="{} and {}")

    def test_length_budget(self):
        template = PromptTemplate(id="t", body="x {}")
        assert build_prompt(template, "a" * LENGTH_BUDGET) == "x " + "a" * LENGTH_BUDGET
        with pytest.raises(LengthBudgetExceeded):
            build_prompt(template, "a" * (LENGTH_BUDGET + 1))

    def test_empty_payload_rejected(self):
        template = PromptTemplate(id="t", body="x {}")
        with pytest.raises(ValueError):
            build_prompt(template, "")

    @pytest.mark.parametrize("payload", [" ", "\n", " \t\n "])
    def test_blank_payload_rejected(self, payload):
        template = PromptTemplate(id="t", body="x {}")
        with pytest.raises(ValueError, match="payload must be non-empty"):
            build_prompt(template, payload)

    def test_body_preserved_around_placeholder(self):
        template = PromptTemplate(id="t", body="a {b} {} {c}")
        assert build_prompt(template, "X") == "a {b} X {c}"

    def test_payload_braces_not_reexpanded(self):
        template = PromptTemplate(id="t", body="say: {}")
        assert build_prompt(template, "literal {} stays") == "say: literal {} stays"


class TestRegistry:
    """The mining-template table and its lookup."""

    def test_default_mode_mapping(self):
        entity = mining_template(
            Perspective.ENTITY_CENTRIC, Granularity.NOT_APPLICABLE, Prioritization.BASIC
        )
        assert entity.id == "entity_basic"
        assert entity.expected_format is ResponseFormat.PAIR_LIST
        turn_basic = mining_template(
            Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL, Prioritization.BASIC
        )
        assert turn_basic.expected_format is ResponseFormat.TURN_SCOPED_PAIR_LIST
        for granularity in (Granularity.TURN_LEVEL, Granularity.SESSION_LEVEL):
            for prioritization in Prioritization:
                template = mining_template(
                    Perspective.CONVERSATION_CENTRIC, granularity, prioritization
                )
                assert template.body.count("{}") == 1
        assert len({template.id for template in MINING_TEMPLATES.values()}) == 6

    def test_invalid_mode_combination(self):
        for granularity in (Granularity.TURN_LEVEL, Granularity.SESSION_LEVEL):
            with pytest.raises(ValueError, match=r"^no mining template for \(entity_centric, "):
                mining_template(Perspective.ENTITY_CENTRIC, granularity, Prioritization.BASIC)
        with pytest.raises(ValueError, match="no mining template for"):
            mining_template(
                Perspective.CONVERSATION_CENTRIC, Granularity.NOT_APPLICABLE, Prioritization.BASIC
            )
