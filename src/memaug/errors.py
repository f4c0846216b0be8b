"""Exception types shared across the package, and the one check of a count."""


def check_count(value: int, name: str, minimum: int = 1) -> int:
    """``value`` if it is an ``int`` (not a ``bool``) of at least ``minimum`` (0 or 1)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return value


class MemaugError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MemaugError):
    """Annotation text violates the bracket grammar (strict parsing only)."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"{reason} (position {position})")
        self.position = position
        self.reason = reason


class LengthBudgetExceeded(MemaugError):
    """Prompt payload is longer than the configured budget."""


class AugmentFailure(MemaugError):
    """Attribute mining gave up on an item after exhausting retries.

    ``reason`` is one of ``"transport"``, ``"refusal"``, ``"unparseable"``;
    corpus mining also records ``"empty"`` items, whose content has no
    non-whitespace character and costs no call, and ``"too_long"`` items.
    """

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"augmentation failed ({reason})" + (f": {detail}" if detail else ""))
        self.reason = reason
        self.detail = detail


class TransportError(MemaugError):
    """A remote backend call failed at the HTTP level.

    ``transient`` marks a failure that the same request may not meet again:
    a connection error, a timeout, HTTP 429 or HTTP 5xx. Mining retries only
    those.
    """

    def __init__(self, message: str = "", *, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class BackendRefusal(MemaugError):
    """The backend declined to answer the prompt."""


class DuplicateIdError(MemaugError):
    """An item id is already present in the store."""


class GranularityMismatchError(MemaugError):
    """Annotation granularity does not match the memory item kind."""


class SchemaError(MemaugError):
    """A persisted record or dataset file violates its documented schema."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ZeroVectorError(MemaugError):
    """Normalization input had (near-)zero magnitude or no tokens."""


class EmptyAnnotationError(MemaugError):
    """Pair-averaged embedding requires at least one attribute pair."""


class DimensionMismatchError(MemaugError):
    """Vector dimension differs from the index dimension."""


class StrategyMismatchError(MemaugError):
    """Query vector was embedded with a different strategy than the index."""


class EmptyQueryError(MemaugError):
    """Attribute retrieval received a query with no attributes."""


class EmptyGoldError(MemaugError):
    """A metric that divides by the gold set size received an empty gold set."""


class LabelNotFoundError(MemaugError):
    """None of the ground-truth labels occur in the dialogue to mask."""
