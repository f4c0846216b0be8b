"""Retrieval over annotated memory: comprehensive, attribute, and embedding.

Three modes are supported. Comprehensive returns every item in store order.
Attribute retrieval filters by the inverted index and ranks by how many of
the query's attributes an item matched. Embedding retrieval runs an exact
flat cosine scan over a vector index built from the annotations, with two
annotation strategies (each pair embedded independently and averaged, or the
whole rendered annotation as one string) plus a raw-content baseline that
indexes item text directly.

Ties are broken by ascending item id so results are deterministic. Indexes
are immutable after build; searches are pure and can run concurrently.
"""

from __future__ import annotations

import json
import math
import mmap
from collections import ChainMap, Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .annotations import Annotation, render_annotation
from .backends import _MIN_NORM, _ZERO_NORM, Embedder, _unit_means
from .errors import (
    DimensionMismatchError,
    EmptyAnnotationError,
    EmptyQueryError,
    MemaugError,
    SchemaError,
    StrategyMismatchError,
    TransportError,
    ZeroVectorError,
    check_count,
)
from .fileio import replace_together
from .store import MatchPolicy, MemoryStore


class EmbeddingStrategy(Enum):
    AVERAGED_PAIRS = "averaged_pairs"
    WHOLE_ANNOTATION = "whole_annotation"
    RAW_CONTENT = "raw_content"


class RetrievalMode(Enum):
    COMPREHENSIVE = "comprehensive"
    ATTRIBUTE_BASED = "attribute_based"
    EMBEDDING_BASED = "embedding_based"


class QueryPart(Enum):
    """Components a text query can contribute to its embedding."""

    TEXT = "text"
    ATTRIBUTES = "attributes"


DEFAULT_QUERY_PARTS = (QueryPart.TEXT, QueryPart.ATTRIBUTES)


@dataclass(frozen=True)
class RankedHit:
    item_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RetrievalResult:
    hits: tuple[RankedHit, ...]
    mode: RetrievalMode

    def ids(self) -> tuple[str, ...]:
        return tuple(hit.item_id for hit in self.hits)

    def __len__(self) -> int:
        return len(self.hits)


@dataclass(frozen=True)
class QueryContext:
    """What is known about a query before retrieval.

    ``annotation`` carries full attribute pairs (mined from a dialogue);
    ``attribute_names`` carries bare names (mined from a question). Either,
    both, or just raw ``text`` may be present. Nothing reads ``persons``.
    """

    text: str | None = None
    annotation: Annotation | None = None
    attribute_names: tuple[str, ...] = ()
    persons: tuple[str, ...] = ()

    def attribute_queries(self) -> list[tuple[str, str | None]]:
        """(name, value) terms for attribute retrieval; value None = any."""
        if self.annotation is not None and len(self.annotation):
            return [(p.name, p.value) for p in self.annotation.pairs]
        return [(name, None) for name in self.attribute_names]


@dataclass(frozen=True)
class QueryVector:
    """An embedded query tagged with the strategy that produced it."""

    values: np.ndarray
    strategy: EmbeddingStrategy


def _average(rows: np.ndarray) -> np.ndarray:
    """The averaged-pairs vector: the mean of the rows, L2-normalized, as
    :func:`build_index` computes it."""
    out = np.empty((1, rows.shape[1]))
    if _unit_means(out, [range(len(rows))], rows.__getitem__)[0]:
        raise ZeroVectorError(_ZERO_NORM)
    return out[0]


def _annotation_texts(ann: Annotation, strategy: EmbeddingStrategy) -> list[str]:
    """The strings an annotation embeds as under an annotation strategy."""
    if strategy is EmbeddingStrategy.AVERAGED_PAIRS:
        if len(ann) == 0:
            raise EmptyAnnotationError("cannot average over zero pairs")
        return [pair.render() for pair in ann.pairs]
    if strategy is EmbeddingStrategy.WHOLE_ANNOTATION:
        return [render_annotation(ann)]
    raise ValueError("RAW_CONTENT embeds item text, not annotations")


def embed_annotation(
    ann: Annotation, strategy: EmbeddingStrategy, embedder: Embedder
) -> np.ndarray:
    """Embed an annotation under one of the two annotation strategies.

    AVERAGED_PAIRS embeds each ``[name]<value>`` string independently, takes
    the arithmetic mean, and L2-normalizes it, so a single-pair annotation
    embeds exactly like its pair. WHOLE_ANNOTATION embeds the full rendered
    annotation as one string.
    """
    rows = embedder.embed_many(_annotation_texts(ann, strategy))
    return _average(rows) if strategy is EmbeddingStrategy.AVERAGED_PAIRS else rows[0]


# Binary index file: one JSON header line, then the float64 matrix in .npy form.
INDEX_FORMAT = "memaug-index"
INDEX_VERSION = 2
# Search ranks rows by float32 dot products of unit vectors, then re-scores
# a band in float64. Each float32 product term takes at most d + 2 roundings
# of unit u = 2**-24 (row entry, query entry, d multiply-adds in any order),
# so by Cauchy-Schwarz a float32 score is within gamma = (d+2)u / (1-(d+2)u)
# of the true cosine. Float64 roundings and float32 underflow stay far below
# _BAND for d under 1e6, and clipping only moves a score towards the true
# cosine, so a float32 score a and the clipped float64 score t differ by at
# most E = gamma + _BAND. With T the k-th largest t, fewer than k rows have
# a > T + E, so the k-th float32 score is at most T + E, while a top-k row
# has a >= t - E >= T - E: the rows within 2E of the k-th float32 score
# hold the exact top k, ties included.
_BAND = 1e-9
# Rows per block of the row norms and the float32 rows: each block squares
# only its own rows, so no temporary of the matrix's size is made, and a
# loaded index holds at most one block of its file's rows in memory at a
# time. Smaller blocks keep smaller the freed temporaries that the allocator
# may hold on to: at dimension 256, a loaded 20k-row index held 4 MB more
# with 4,096-row blocks than with 2,048-row ones. Blocks of 1,024 rows or
# fewer changed which allocations the allocator maps afresh, and raised the
# peak of a 4,000-row in-memory build and search by 3 MB.
_NORM_BLOCK = 2048


def _read_only_mapping(vectors) -> mmap.mmap | None:
    """The read-only file mapping whose bytes the array ``vectors`` views, or None."""
    if not isinstance(vectors, np.ndarray):
        return None
    owner = vectors.base
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, memoryview):
        owner = owner.obj
    if not isinstance(owner, mmap.mmap):
        return None
    with memoryview(owner) as view:
        return owner if view.readonly else None


def _row_blocks(vectors: np.ndarray, mapping: mmap.mmap | None):
    """Each ``_NORM_BLOCK`` rows of ``vectors`` as (slice, rows). When the
    rows are read from ``mapping``, the pages a block lies on are dropped
    once the caller is done with it."""
    if mapping is not None:
        first = vectors.ctypes.data - np.frombuffer(mapping, np.uint8).ctypes.data
    for start in range(0, len(vectors), _NORM_BLOCK):
        rows = slice(start, start + _NORM_BLOCK)
        block = vectors[rows]
        yield rows, block
        if mapping is not None:
            begin = first + start * vectors.strides[0]
            page = begin - begin % mmap.PAGESIZE
            mapping.madvise(mmap.MADV_DONTNEED, page, begin + block.nbytes - page)


@dataclass(frozen=True, eq=False)
class VectorIndex:
    """Flat exact-scan cosine index; immutable after build.

    ``embedder_kind`` and ``embedder_model`` record what built the vectors.
    ``unit32``, the unit-scaled rows in float32 for the first search pass,
    is derived from the float64 rows and never saved. Every index that
    constructs saves and loads back.

    An index whose float64 rows view a read-only file mapping (as
    :meth:`load` gives them) reads them from the file: it does not copy
    them into memory, and it drops the mapped pages again after it derives
    ``unit32`` and after each search reads its band, so ``vectors`` is
    read-only and only ``unit32`` and the norms stay resident. Where the
    platform has no ``madvise``, or the rows are not stored row by row,
    the index reads the whole matrix into memory instead.
    """

    item_ids: tuple[str, ...]
    vectors: np.ndarray  # shape (n, dimension)
    strategy: EmbeddingStrategy
    dimension: int
    embedder_kind: str | None = None
    embedder_model: str | None = None
    norms: np.ndarray = field(init=False, repr=False)
    unit32: np.ndarray = field(init=False, repr=False)
    # The mapping ``vectors`` is read from, when its pages are dropped after use.
    _mapping: mmap.mmap | None = field(init=False, repr=False)

    def __post_init__(self):
        if not all(isinstance(item_id, str) for item_id in self.item_ids):
            raise ValueError("index ids must be strings")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("index item ids must be unique")
        check_count(self.dimension, "dimension", 0)
        if not all(value is None or isinstance(value, str)
                   for value in (self.embedder_kind, self.embedder_model)):
            raise ValueError("index embedder kind and model must be strings or None")
        vectors = self.vectors
        mapping = _read_only_mapping(vectors)
        if mapping is not None and not (
            hasattr(mmap, "MADV_DONTNEED") and vectors.dtype == np.float64
            and vectors.flags.c_contiguous and vectors.size
        ):  # No pages to drop, or no way to: read the whole matrix into memory.
            vectors, mapping = np.array(vectors, dtype=np.float64), None
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape != (len(self.item_ids), self.dimension):
            raise DimensionMismatchError(
                f"expected vectors of shape {(len(self.item_ids), self.dimension)}, "
                f"got {vectors.shape}"
            )
        norms = np.zeros(len(vectors))
        with np.errstate(over="ignore"):
            for rows, block in _row_blocks(vectors, mapping):
                if not np.isfinite(block).all():
                    raise ValueError("index vectors contain non-finite entries")
                norms[rows] = np.linalg.norm(block, axis=1)
        if not np.all(np.isfinite(norms)):
            raise ValueError("index vectors have a norm that overflows float64")
        if not np.all(norms > 0):
            raise ZeroVectorError("index contains a zero vector")
        # One rounding of each float64 quotient to float32, in place: no
        # float64 temporary of the matrix's size.
        unit32 = np.empty(vectors.shape, np.float32)
        for rows, block in _row_blocks(vectors, mapping):
            np.divide(block, norms[rows, None], out=unit32[rows], casting="same_kind")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "norms", norms)
        object.__setattr__(self, "unit32", unit32)
        object.__setattr__(self, "_mapping", mapping)

    def __len__(self) -> int:
        return len(self.item_ids)

    def search(self, query: np.ndarray | QueryVector, k: int) -> RetrievalResult:
        """Exact top-k by cosine similarity over all entries.

        Ties break by ascending item id; min(k, len(index)) hits come back
        with consecutive ranks from 1. Tagged query vectors must match this
        index's strategy.
        """
        check_count(k, "k")
        if isinstance(query, QueryVector):
            if query.strategy is not self.strategy:
                raise StrategyMismatchError(
                    f"query embedded with {query.strategy.value}, "
                    f"index built with {self.strategy.value}"
                )
            query = query.values
        vector = np.asarray(query, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
        if not np.all(np.isfinite(vector)):
            raise ValueError("vector contains non-finite entries")
        n = len(self.item_ids)
        if not n:
            return RetrievalResult(hits=(), mode=RetrievalMode.EMBEDDING_BASED)
        if vector.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"vector has dimension {vector.shape[0]}, expected {self.dimension}"
            )
        qnorm = float(np.linalg.norm(vector))
        if qnorm < _MIN_NORM:
            raise ZeroVectorError("query vector has zero norm")
        # One float32 gemv ranks every row; the rows within 2E of its k-th
        # score hold the exact top-k (see _BAND), and every row when k >= n.
        approx = self.unit32 @ (vector / qnorm).astype(np.float32)
        at = max(n - k, 0)
        kth = np.partition(approx, at)[at]
        rounding = (self.dimension + 2) * 2.0**-24
        band = np.flatnonzero(approx >= float(kth) - 2 * (rounding / (1 - rounding) + _BAND))
        # Row-wise reduction over the band: duplicate entries must produce
        # bitwise-equal scores so that exact ties fall through to the id
        # tie-break regardless of row position.
        scores = (self.vectors[band] * vector).sum(axis=1) / (self.norms[band] * qnorm)
        if self._mapping is not None:  # The band's rows are copied: drop the file's pages.
            self._mapping.madvise(mmap.MADV_DONTNEED)
        np.clip(scores, -1.0, 1.0, out=scores)
        ids = [self.item_ids[i] for i in band]
        order = sorted(range(len(band)), key=lambda j: (-scores[j], ids[j]))[:k]
        hits = tuple(
            RankedHit(item_id=ids[j], score=float(scores[j]), rank=rank)
            for rank, j in enumerate(order, start=1)
        )
        return RetrievalResult(hits=hits, mode=RetrievalMode.EMBEDDING_BASED)

    def save(self, path: str | Path) -> None:
        """Write the index as one file, atomically: a JSON header line with
        the format version, strategy, dimension, embedder and ids, then the
        vectors as a ``.npy`` float64 matrix."""
        header = {
            "format": INDEX_FORMAT,
            "version": INDEX_VERSION,
            "strategy": self.strategy.value,
            "dimension": self.dimension,
            "embedder": {"kind": self.embedder_kind, "model": self.embedder_model},
            "ids": list(self.item_ids),
        }

        def write(fh) -> None:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            np.save(fh, self.vectors, allow_pickle=False)

        replace_together({Path(path): write})

    @classmethod
    def load(cls, path: str | Path) -> "VectorIndex":
        """Read a file written by :meth:`save`; raises :class:`SchemaError`
        for any other content, JSON indexes of older releases included.

        The float64 rows are mapped read-only from the file, not read into
        memory (see :class:`VectorIndex`). Replacing the file, as
        :meth:`save` and ``memaug index`` do, is safe on POSIX: the index
        keeps reading the file it mapped. Truncating or rewriting that file
        in place makes a later search fault (SIGBUS).
        """
        source = Path(path)
        if not source.exists():
            raise FileNotFoundError(f"index file not found: {source}")
        with source.open("rb") as fh:
            try:
                header = json.loads(fh.readline())
            except ValueError:
                header = None
            if (
                not isinstance(header, dict)
                or header.get("format") != INDEX_FORMAT
                or header.get("version") != INDEX_VERSION
            ):
                raise SchemaError(
                    f"{source} is not a version-{INDEX_VERSION} memaug index (JSON indexes "
                    "of older releases are not read); re-run `memaug index` to rebuild it"
                )
            try:
                major, _ = np.lib.format.read_magic(fh)
                read_header = (np.lib.format.read_array_header_1_0 if major == 1
                               else np.lib.format.read_array_header_2_0)
                shape, fortran_order, dtype = read_header(fh)
                mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                vectors = np.frombuffer(mapping, dtype, math.prod(shape), fh.tell()).reshape(
                    shape, order="F" if fortran_order else "C"
                )
                ids, embedder = header["ids"], header["embedder"]
                strategy = EmbeddingStrategy(header["strategy"])
                fields = (strategy, header["dimension"], embedder["kind"], embedder["model"])
            except (ValueError, EOFError, OSError, KeyError, TypeError) as exc:
                raise SchemaError(f"{source}: malformed index: {exc}") from exc
        if not isinstance(ids, list):
            raise SchemaError(f"{source}: index ids must be a list, got {type(ids).__name__}")
        if vectors.dtype != np.float64:
            raise SchemaError(f"{source}: expected a float64 matrix, got {vectors.dtype}")
        try:  # The constructor checks the field types.
            return cls(tuple(ids), vectors, *fields)
        except (ValueError, MemaugError) as exc:
            raise SchemaError(f"{source}: malformed index: {exc}") from exc


# Items per block of an index build. A block's single-use texts are embedded
# together, so a build holds their rows for one block at a time.
_BUILD_BLOCK = 1024


def _embed_rows(embedder: Embedder, texts: list[str], errors: dict) -> dict[str, np.ndarray]:
    """Each text's row from one ``embed_many`` call; a text whose embedding
    fails gets no row, and its reason goes into ``errors``. A failed batch is
    embedded again in halves, so each failing text costs about two calls per
    halving, not one call per text of its batch."""
    try:
        return dict(zip(texts, embedder.embed_many(texts)))
    except ZeroVectorError as exc:
        if len(texts) == 1:
            errors[texts[0]] = str(exc)
            return {}
    half = len(texts) // 2
    return _embed_rows(embedder, texts[:half], errors) | _embed_rows(embedder, texts[half:], errors)


def build_index(
    store: MemoryStore,
    strategy: EmbeddingStrategy,
    embedder: Embedder,
) -> tuple[VectorIndex, list[tuple[str, str]]]:
    """Embed every eligible item; return the index and a skip report.

    Annotation strategies skip items without annotations; the raw-content
    strategy embeds item text regardless. Items whose embedding fails are
    skipped and reported as (item id, reason), in store order. Every distinct
    text of the corpus is embedded once: the texts several items share in
    one ``embed_many`` call, every other text with its block of
    ``_BUILD_BLOCK`` items. Vectors go straight into one preallocated matrix.
    """
    units: list[tuple[str, list[str] | str]] = []  # (item id, texts or skip reason)
    for item, annotation in store.entries():
        if strategy is EmbeddingStrategy.RAW_CONTENT:
            units.append((item.id, [item.content]))
        elif annotation is None:
            units.append((item.id, "no annotation"))
        else:
            try:
                units.append((item.id, _annotation_texts(annotation, strategy)))
            except EmptyAnnotationError as exc:
                units.append((item.id, str(exc)))
    uses = Counter(t for _, texts in units if isinstance(texts, list) for t in texts)
    errors: dict[str, str] = {}
    shared = _embed_rows(embedder, [text for text, n in uses.items() if n > 1], errors)
    ids: list[str] = []
    skipped: list[tuple[str, str]] = []
    matrix: np.ndarray | None = None
    for start in range(0, len(units), _BUILD_BLOCK):
        block = units[start : start + _BUILD_BLOCK]
        own = [t for _, texts in block if isinstance(texts, list) for t in texts if uses[t] == 1]
        rows = ChainMap(_embed_rows(embedder, own, errors), shared)
        reasons = [
            texts if isinstance(texts, str)
            else next((errors[text] for text in texts if text in errors), None)
            for _, texts in block
        ]
        items = [texts for (_, texts), reason in zip(block, reasons) if reason is None]
        if items and matrix is None:
            eligible = sum(isinstance(texts, list) for _, texts in units)
            matrix = np.empty((eligible, len(rows[items[0][0]])), dtype=np.float64)
        out = matrix[len(ids) : len(ids) + len(items)] if items else np.empty((0, 0))
        if strategy is EmbeddingStrategy.AVERAGED_PAIRS:
            zero = _unit_means(out, items, lambda texts: np.array([rows[text] for text in texts]))
        else:  # Single-text rows are stored as embedded, never rescaled.
            out[:] = [rows[texts[0]] for texts in items]
            zero = np.linalg.norm(out, axis=1) < _MIN_NORM
        if zero.any():  # A zero vector has no cosine, so its item is skipped.
            out[: len(items) - int(zero.sum())] = out[~zero]
        flags = iter(zero)
        for (item_id, _), reason in zip(block, reasons):
            if reason is None and next(flags):
                reason = _ZERO_NORM
            if reason is None:
                ids.append(item_id)
            else:
                skipped.append((item_id, reason))
    shared.clear()  # Frees the shared rows before the index derives its own matrices.
    if matrix is None:
        try:
            dimension = embedder.dimension
        except TransportError:  # A remote embedder learns it from its first reply.
            dimension = 0
        matrix = np.zeros((0, dimension))
    index = VectorIndex(
        item_ids=tuple(ids),
        vectors=matrix[: len(ids)],
        strategy=strategy,
        dimension=matrix.shape[1],
        embedder_kind=embedder.kind,
        embedder_model=embedder.model,
    )
    return index, skipped


def embed_query(
    query: QueryContext,
    strategy: EmbeddingStrategy,
    embedder: Embedder,
    *,
    parts: Sequence[QueryPart] = DEFAULT_QUERY_PARTS,
) -> QueryVector:
    """Embed a query context consistently with an index strategy.

    A query holding a full annotation embeds through the same path as the
    index entries. A text query (optionally with mined attribute names)
    embeds its selected parts: the raw text and/or the attribute names
    joined by spaces. The raw-content strategy always embeds the text alone.
    """
    if strategy is EmbeddingStrategy.RAW_CONTENT:
        if not (query.text or "").strip():
            raise EmptyQueryError("raw-content queries need query text")
        return QueryVector(embedder.embed(query.text), strategy)
    if query.annotation is not None and len(query.annotation):
        return QueryVector(embed_annotation(query.annotation, strategy, embedder), strategy)
    units: list[str] = []
    if QueryPart.TEXT in parts and (query.text or "").strip():
        units.append(query.text)
    if QueryPart.ATTRIBUTES in parts and query.attribute_names:
        units.append(" ".join(query.attribute_names))
    if not units:
        raise EmptyQueryError("query has no embeddable content for the selected parts")
    if strategy is EmbeddingStrategy.AVERAGED_PAIRS and len(units) > 1:
        return QueryVector(_average(embedder.embed_many(units)), strategy)
    return QueryVector(embedder.embed(" ".join(units)), strategy)


def _comprehensive(store: MemoryStore) -> RetrievalResult:
    hits = tuple(
        RankedHit(item_id=item_id, score=0.0, rank=rank)
        for rank, item_id in enumerate(store.ids(), start=1)
    )
    return RetrievalResult(hits=hits, mode=RetrievalMode.COMPREHENSIVE)


def _attribute_based(
    store: MemoryStore,
    query: QueryContext,
    policy: MatchPolicy,
    k: int | None,
) -> RetrievalResult:
    if k is not None:
        check_count(k, "k")
    terms = query.attribute_queries()
    if not terms:
        raise EmptyQueryError("query has no attributes to match")
    hits = tuple(
        RankedHit(item_id=item_id, score=n / len(terms), rank=rank)
        for rank, (item_id, n) in enumerate(store.rank_by_attributes(terms, policy, k), start=1)
    )
    return RetrievalResult(hits=hits, mode=RetrievalMode.ATTRIBUTE_BASED)


def retrieve(
    store: MemoryStore,
    query: QueryContext,
    mode: RetrievalMode,
    *,
    k: int = 5,
    policy: MatchPolicy = MatchPolicy.NAME_ONLY,
    index: VectorIndex | None = None,
    embedder: Embedder | None = None,
    query_parts: Sequence[QueryPart] = DEFAULT_QUERY_PARTS,
) -> RetrievalResult:
    """Retrieve from the store under one of the three modes.

    Comprehensive ignores the query and returns everything in store order
    with a zero sentinel score. Attribute mode matches the query's attribute
    terms against the inverted index and keeps the top ``k``, or every match
    when ``k`` is None. Embedding mode embeds the query with the index's
    strategy and runs a top-k cosine search. Both refuse a ``k`` below 1.
    """
    if mode is RetrievalMode.COMPREHENSIVE:
        return _comprehensive(store)
    if mode is RetrievalMode.ATTRIBUTE_BASED:
        return _attribute_based(store, query, policy, k)
    if index is None or embedder is None:
        raise ValueError("embedding retrieval requires an index and an embedder")
    query_vector = embed_query(query, index.strategy, embedder, parts=query_parts)
    return index.search(query_vector, k)

