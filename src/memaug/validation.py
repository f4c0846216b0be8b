"""Input-validation helpers and the get_params/set_params mixin."""

from __future__ import annotations

import inspect

import numpy as np

from .errors import DimensionMismatchError


class ParamsMixin:
    """sklearn-style parameter introspection driven by ``__init__``."""

    @classmethod
    def _param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, param in signature.parameters.items()
            if name != "self" and param.kind is not inspect.Parameter.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Build a fresh instance from the merged parameters, so every check of
        ``__init__`` applies, and take its state; a rejected call leaves this
        instance unchanged."""
        valid = set(self._param_names())
        for name in params:
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
        fresh = type(self)(**{**self.get_params(), **params})
        self.__dict__.update(fresh.__dict__)
        return self


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
