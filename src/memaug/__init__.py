"""memaug: attribute-annotated agent memory with deterministic retrieval.

Memory items are annotated with mined attribute-value pairs, stored in a
JSONL-backed store with an attribute inverted index, and retrieved either
comprehensively, by attribute matching, or by top-k cosine search over
annotation embeddings.
"""

from .annotations import (
    Annotation,
    AttributePair,
    Granularity,
    Perspective,
    Prioritization,
    TurnScopedAnnotation,
    normalize_name,
    parse_annotation,
    parse_turn_annotations,
    render_annotation,
)
from .backends import (
    BackendProfile,
    HashEmbedder,
    MockChatBackend,
    RemoteChatBackend,
    RemoteEmbedder,
)
from .datasets import (
    ConversationDataset,
    QACategory,
    QAExample,
    RecDialogue,
    RecommendationDataset,
    load_conversation_dataset,
    load_recommendation_dataset,
    mask_dialogue,
)
from .errors import (
    AugmentFailure,
    DimensionMismatchError,
    DuplicateIdError,
    EmptyAnnotationError,
    EmptyGoldError,
    EmptyQueryError,
    GranularityMismatchError,
    LabelNotFoundError,
    MemaugError,
    ParseError,
    SchemaError,
    StrategyMismatchError,
    TransportError,
    ZeroVectorError,
)
from .metrics import MetricReport, ndcg_at_k, recall_at_k, token_f1
from .mining import AttributeMiner, AugmentationReport, QueryAnnotation
from .retrieval import (
    EmbeddingStrategy,
    QueryContext,
    QueryPart,
    RetrievalMode,
    RetrievalResult,
    VectorIndex,
    build_index,
    embed_annotation,
    embed_query,
    retrieve,
)
from .store import (
    CorpusStats,
    ItemKind,
    MatchPolicy,
    MemoryItem,
    MemoryStore,
)
from .templates import PromptTemplate, ResponseFormat, build_prompt

__version__ = "0.1.0"
