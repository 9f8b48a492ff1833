"""Argument validation helpers shared across the library.

These helpers raise consistent, descriptive exceptions so that user-facing
classes (codes, decoders, architecture models) do not each re-implement the
same checks with slightly different error messages.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, TypeVar

import numpy as np
import numpy.typing as npt

_T = TypeVar("_T")

__all__ = [
    "check_binary_array",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_shape",
    "check_in_range",
    "check_one_of",
]


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) number.

    Parameters
    ----------
    name:
        Parameter name used in the exception message.
    value:
        The value to validate.
    strict:
        When ``True`` (default) zero is rejected; when ``False`` zero is
        accepted.

    Returns
    -------
    float
        The validated value, unchanged.
    """
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that ``value`` is >= 0."""
    return check_positive(name, value, strict=False)


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
    return float(value)


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_one_of(name: str, value: _T, allowed: Iterable[_T]) -> _T:
    """Validate that ``value`` is one of ``allowed``."""
    options = tuple(allowed)
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def check_binary_array(
    name: str, array: npt.ArrayLike, *, copy: bool = True
) -> npt.NDArray[np.uint8]:
    """Validate that ``array`` contains only 0/1 entries.

    Returns a new ``np.uint8`` array, never a view of ``array``; with
    ``copy=False``, a ``uint8`` input is returned as it is.
    """
    arr = np.asarray(array)
    if arr.dtype.kind in "biu":
        # Bounds need no temporaries, where np.isin would widen the array
        # to int64: 100 MB for the dense parity-check matrix of C2.
        binary = not arr.size or bool(arr.min() >= 0 and arr.max() <= 1)
    else:
        binary = bool(np.isin(arr, (0, 1)).all())
    if not binary:
        raise ValueError(f"{name} must contain only 0/1 entries")
    return arr.astype(np.uint8, copy=copy)


def check_shape(
    name: str, array: npt.ArrayLike, shape: Sequence[int]
) -> npt.NDArray[Any]:
    """Validate that ``array`` has exactly the given ``shape``.

    ``-1`` entries in ``shape`` act as wildcards for that dimension.
    """
    arr = np.asarray(array)
    expected = tuple(shape)
    if arr.ndim != len(expected):
        raise ValueError(
            f"{name} must have {len(expected)} dimensions, got {arr.ndim}"
        )
    for axis, (actual, wanted) in enumerate(zip(arr.shape, expected)):
        if wanted != -1 and actual != wanted:
            raise ValueError(
                f"{name} has shape {arr.shape}, expected {expected} "
                f"(mismatch on axis {axis})"
            )
    return arr
