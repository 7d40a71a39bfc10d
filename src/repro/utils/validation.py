"""Argument-validation helpers shared across the library.

These functions normalize inputs to ``float64`` numpy arrays and raise the
library's typed exceptions with actionable messages. They exist so that the
public API fails fast at the boundary instead of deep inside numpy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import (
    DimensionMismatchError,
    InfeasibleConfigurationError,
    InvalidParameterError,
)


def require(condition: bool, message: str, exception: type = InvalidParameterError) -> None:
    """Raise ``exception(message)`` unless ``condition`` holds."""
    if not condition:
        raise exception(message)


def check_vector(
    x,
    dimension: Optional[int] = None,
    name: str = "x",
    allow_non_finite: bool = False,
) -> np.ndarray:
    """Validate and coerce ``x`` into a finite 1-D float64 array.

    Parameters
    ----------
    x:
        Array-like input.
    dimension:
        If given, the exact length the vector must have.
    name:
        Name used in error messages.
    allow_non_finite:
        Permit NaN/Inf entries. Off by default — the only legitimate
        carriers of non-finite payloads are fault-injection paths (e.g. a
        corrupted in-flight gradient), which opt in explicitly.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise DimensionMismatchError(
            f"{name} must have dimension {dimension}, got {arr.shape[0]}"
        )
    if not allow_non_finite and not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


def check_matrix(
    m,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    name: str = "matrix",
    allow_non_finite: bool = False,
) -> np.ndarray:
    """Validate and coerce ``m`` into a 2-D float64 array."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise DimensionMismatchError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise DimensionMismatchError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not allow_non_finite and not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Reject a job parameter that is not an ``int`` (a ``bool`` is not one)
    or lies below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(
            f"job parameter {name!r} must be an integer, got {value!r}"
        )
    if minimum is not None and value < minimum:
        raise InvalidParameterError(
            f"job parameter {name!r} must be >= {minimum}, got {value}"
        )


def require_number(name: str, value) -> None:
    """Reject a job parameter that is not an ``int`` or ``float``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"job parameter {name!r} must be a number, got {value!r}"
        )


def require_names(name: str, values, available, kind: str) -> None:
    """Reject a job parameter that is not a non-empty list of ``available``
    names of one ``kind`` (``"filter"``, ``"attack"``)."""
    if not isinstance(values, (list, tuple)) or not values:
        raise InvalidParameterError(
            f"job parameter {name!r} must be a non-empty list of names"
        )
    unknown = [v for v in values if v not in available]
    if unknown:
        raise InvalidParameterError(
            f"unknown {kind}(s) {', '.join(map(repr, unknown))}; "
            f"available: {', '.join(available)}"
        )


def check_probability(p: float, name: str = "p") -> float:
    """Validate that ``p`` lies in ``[0, 1]``."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {p}")
    return p


def check_fault_bound(n: int, f: int, *, architecture: str = "server") -> None:
    """Validate the fault bound ``f`` for ``n`` agents.

    ``architecture`` is ``"server"`` (requires ``2 f < n``, the paper's
    feasibility bound for exact fault-tolerance) or ``"peer"`` (requires
    ``3 f < n``, needed to simulate the server via Byzantine broadcast).
    """
    n = int(n)
    f = int(f)
    if n <= 0:
        raise InvalidParameterError(f"n must be positive, got {n}")
    if f < 0:
        raise InvalidParameterError(f"f must be non-negative, got {f}")
    if architecture == "server":
        if 2 * f >= n:
            raise InfeasibleConfigurationError(
                f"exact fault-tolerance requires 2f < n; got n={n}, f={f}"
            )
    elif architecture == "peer":
        if 3 * f >= n:
            raise InfeasibleConfigurationError(
                f"the peer-to-peer architecture requires 3f < n; got n={n}, f={f}"
            )
    else:
        raise InvalidParameterError(f"unknown architecture {architecture!r}")
