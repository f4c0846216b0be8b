"""Input-validation helpers."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


def check_positive_int(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_vector(values, dimension: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally pinning its length."""
    vector = np.asarray(values, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {vector.shape}")
    if not np.all(np.isfinite(vector)):
        raise ValueError("vector contains non-finite entries")
    if dimension is not None and vector.shape[0] != dimension:
        raise DimensionMismatchError(
            f"vector has dimension {vector.shape[0]}, expected {dimension}"
        )
    return vector
