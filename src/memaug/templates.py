"""Prompt templates and the table that maps mining modes onto them.

Each template body carries exactly one ``{}`` placeholder that receives the
payload (an item description, a dialogue turn, a whole dialogue, a question,
and so on). Literal braces elsewhere in the body are left alone, so
substitution is a plain single replacement rather than ``str.format``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .annotations import Granularity, Perspective, Prioritization
from .errors import LengthBudgetExceeded

PLACEHOLDER = "{}"

# Longest payload a prompt may carry, in characters.
LENGTH_BUDGET = 100_000


class ResponseFormat(Enum):
    """How a backend response to a template should be interpreted."""

    PAIR_LIST = "pair_list"
    TURN_SCOPED_PAIR_LIST = "turn_scoped_pair_list"
    PERSON_ATTRIBUTES = "person_attributes"
    RANKED_LIST = "ranked_list"
    FREE_TEXT = "free_text"


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    body: str
    expected_format: ResponseFormat = ResponseFormat.PAIR_LIST

    def __post_init__(self):
        if self.body.count(PLACEHOLDER) != 1:
            raise ValueError(
                f"template {self.id!r} must contain exactly one '{{}}' placeholder"
            )


def build_prompt(template: PromptTemplate, payload: str) -> str:
    """Substitute ``payload`` into the template's single placeholder.

    A payload with no non-whitespace character raises ``ValueError``.
    """
    if not payload.strip():
        raise ValueError("payload must be non-empty")
    if len(payload) > LENGTH_BUDGET:
        raise LengthBudgetExceeded(
            f"payload of {len(payload)} chars exceeds budget of {LENGTH_BUDGET}"
        )
    return template.body.replace(PLACEHOLDER, payload, 1)


ENTITY_BASIC = PromptTemplate(
    id="entity_basic",
    body=(
        "For the following movie identify the most important attributes "
        "independently. Determine all attributes that describe the movie based on "
        "your knowledge of this movie. Choose attribute names that are common "
        "characteristics of movies in general.\n"
        "Respond in the following format:\n"
        "[attribute]<value of attribute>.\n"
        "The Movie is: {}"
    ),
    expected_format=ResponseFormat.PAIR_LIST,
)

ENTITY_PRIORITY = PromptTemplate(
    id="entity_priority",
    body=(
        "You are a movie annotation expert tasked with analyzing movies and "
        "generating key-attribute pairs.\n"
        "For the following movie identify the most important. Determine all "
        "attribute that describe the movie based on your knowledge of this movie.\n"
        "Choose attribute names that are common characteristics of movies in "
        "general.\n"
        "Respond in the following format:\n"
        "[attribute]<value of attribute>.\n"
        "Sort attributes from left to right based on their relevance.\n"
        "The Movie is:{}"
    ),
    expected_format=ResponseFormat.PAIR_LIST,
)

TURN_BASIC = PromptTemplate(
    id="turn_basic",
    body=(
        "You are an expert annotator who generates the most relevant attributes "
        "in a conversation. Given the conversation below, identify the key "
        "attributes and their values on a turn by turn level.\n"
        "Attributes should be specific with most relevant values only. Don't "
        "include speaker name. Include value information that you find relevant "
        "and their names if mentioned. Each dialogue turn contains a dialogue id "
        "between [ ]. Make sure to include the dialogue the attributes and values "
        "are extracted form. Important: Respond only in the format "
        "[{speaker name:[Dialog id]:[attribute]<value>}].\n"
        "Dialogue Turn:{}"
    ),
    expected_format=ResponseFormat.TURN_SCOPED_PAIR_LIST,
)

TURN_PRIORITY = PromptTemplate(
    id="turn_priority",
    body=(
        "You are an expert dialogue annotator, given the following dialogue turn "
        "generate a list of attributes and values for relevant information in the "
        "text.\n"
        "Generate the annotations in the format: [attribute]<value> where "
        "attribute is the attribute name and value is its corresponding value "
        "from the text.\n"
        "and values for relevant information in this dialogue turn with respect "
        "to each person. Be concise and direct.\n"
        "Include person name as an attribute and value pair.\n"
        "Please make sure you read and understand these instructions carefully.\n"
        "1- Identify the key attributes in the dialogue turn and their "
        "corresponding values.\n"
        "2- Arrange attributes descendingly with respect to relevance from left "
        "to right.\n"
        "3- Generate the sorted annotations list in the format: "
        "[attribute]<value> where attribute is the attribute name and value is "
        "its corresponding value from the text.\n"
        "4- Skip all attributes with none vales\n"
        "Important: YOU MUST put attribute name is between [ ] and value between "
        "< >. Only return a list of [attribute]<value> nothing else. "
        "Dialogue Turn: {}"
    ),
    expected_format=ResponseFormat.PAIR_LIST,
)

SESSION_BASIC = PromptTemplate(
    id="session_basic",
    body=(
        "You are an expert annotator who captures what a whole conversation is "
        "about. Given the dialogue session below, identify the key attributes "
        "and their values for the session as a whole, not per turn.\n"
        "Respond only in the format: [attribute]<value>.\n"
        "Dialogue Session:\n{}"
    ),
    expected_format=ResponseFormat.PAIR_LIST,
)

SESSION_PRIORITY = PromptTemplate(
    id="session_priority",
    body=(
        "Identify the key attributes that best describe the movie the user wants "
        "for recommendation in the dialogue.\n"
        "These attributes should encompass movie features that are relevant to "
        "the user sorted descendingly with respect to user interest.\n"
        "Respond in the format: [attribute]<value>.\n"
        "{}"
    ),
    expected_format=ResponseFormat.PAIR_LIST,
)

QUESTION_AUGMENTATION = PromptTemplate(
    id="question_augmentation",
    body=(
        "Given the following question, determine what are the main inquiry "
        "attribute to look for and the person the question is for. Respond in "
        "the format: Person:[names]Attributes:[].\n"
        "Question: {}"
    ),
    expected_format=ResponseFormat.PERSON_ATTRIBUTES,
)

ANSWER_GENERATION = PromptTemplate(
    id="answer_generation",
    body=(
        "Answer the question using only the retrieved dialogue turns below. "
        "Reply with the answer text alone.\n"
        "{}"
    ),
    expected_format=ResponseFormat.FREE_TEXT,
)

RECOMMENDATION = PromptTemplate(
    id="recommendation",
    body=(
        "Recommend items for the user that best fit the masked mention in the "
        "conversation, guided by the candidate items retrieved from memory. "
        "Rank the best match first and reply with one title per line, each "
        "prefixed by '- '.\n"
        "{}"
    ),
    expected_format=ResponseFormat.RANKED_LIST,
)

EVENT_SUMMARY = PromptTemplate(
    id="event_summary",
    body=(
        "Given the following attributes and values that annotate a dialogue for "
        "every speaker in the format [attribute]<value>, generate a summary for "
        "the event attributes only to describe the main and important events "
        "represented in these annotations. Refrain from mentioning any minimal "
        "event. Include any event-related details and speaker. Format: a bullet "
        "paragraph for major life events for every speaker with no special "
        "characters. Don't include anything else in your response or extra text "
        "or lines. Don't include bullets. Input annotations: {}"
    ),
    expected_format=ResponseFormat.FREE_TEXT,
)

SUMMARY_JUDGE = PromptTemplate(
    id="summary_judge",
    body=(
        "Score the candidate summary against the reference on a 1-5 scale for "
        "each criterion. Reply with exactly three lines:\n"
        "Relevance: <score>\nCoherence: <score>\nConsistency: <score>\n"
        "{}"
    ),
    expected_format=ResponseFormat.FREE_TEXT,
)

# The one prompt per mining mode triple; a triple absent here is impossible
# (entity-centric mining has no turns or sessions).
MINING_TEMPLATES: dict[tuple[Perspective, Granularity, Prioritization], PromptTemplate] = {
    (Perspective.ENTITY_CENTRIC, Granularity.NOT_APPLICABLE, Prioritization.BASIC): ENTITY_BASIC,
    (Perspective.ENTITY_CENTRIC, Granularity.NOT_APPLICABLE, Prioritization.PRIORITY): ENTITY_PRIORITY,
    (Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL, Prioritization.BASIC): TURN_BASIC,
    (Perspective.CONVERSATION_CENTRIC, Granularity.TURN_LEVEL, Prioritization.PRIORITY): TURN_PRIORITY,
    (Perspective.CONVERSATION_CENTRIC, Granularity.SESSION_LEVEL, Prioritization.BASIC): SESSION_BASIC,
    (Perspective.CONVERSATION_CENTRIC, Granularity.SESSION_LEVEL, Prioritization.PRIORITY): SESSION_PRIORITY,
}


def mining_template(
    perspective: Perspective,
    granularity: Granularity,
    prioritization: Prioritization,
) -> PromptTemplate:
    """The prompt for a mining mode triple; ``ValueError`` for an impossible one."""
    try:
        return MINING_TEMPLATES[(perspective, granularity, prioritization)]
    except KeyError:
        raise ValueError(
            "no mining template for "
            f"({perspective.value}, {granularity.value}, {prioritization.value})"
        ) from None
