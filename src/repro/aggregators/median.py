"""Median-based gradient filters: coordinate-wise and geometric median."""

from __future__ import annotations

import math

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError


class CoordinateWiseMedian(GradientFilter):
    """Per-coordinate median of the received gradients.

    The extreme case of the trimmed mean (maximal trimming); tolerates any
    minority of Byzantine inputs per coordinate.
    """

    name = "median"

    def minimum_inputs(self) -> int:
        return max(2 * self._f + 1, 1)

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return np.median(gradients, axis=0)

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return np.median(tensor, axis=1)


class GeometricMedian(GradientFilter):
    """Geometric (spatial) median computed with Weiszfeld's algorithm.

    Minimizes ``Σ_i ||z − g_i||`` over ``z ∈ R^d``. The implementation uses
    the smoothed Weiszfeld iteration (a small ``smoothing`` is added to each
    distance) which sidesteps the classical breakdown when an iterate
    coincides with an input point, and stops on a fixed-point tolerance.
    On the paper's ``d = 2`` instances (``(n, 2)`` gradients with ``n < 8``
    and every entry within ±1e150) the iteration runs in plain floats and
    returns the numpy loop's bits; see :func:`weiszfeld`.

    Parameters
    ----------
    f:
        Declared tolerance (informational; the geometric median's breakdown
        point is 1/2 regardless).
    max_iterations, tolerance, smoothing:
        Weiszfeld iteration controls.
    """

    name = "geomed"

    def __init__(
        self,
        f: int = 0,
        max_iterations: int = 200,
        tolerance: float = 1e-10,
        smoothing: float = 1e-12,
    ):
        super().__init__(f)
        if max_iterations <= 0:
            raise InvalidParameterError(f"max_iterations must be positive, got {max_iterations}")
        if tolerance <= 0:
            raise InvalidParameterError(f"tolerance must be positive, got {tolerance}")
        if smoothing <= 0:
            raise InvalidParameterError(f"smoothing must be positive, got {smoothing}")
        self._max_iterations = int(max_iterations)
        self._tolerance = float(tolerance)
        self._smoothing = float(smoothing)

    def minimum_inputs(self) -> int:
        return max(2 * self._f + 1, 1)

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        return weiszfeld(
            gradients,
            max_iterations=self._max_iterations,
            tolerance=self._tolerance,
            smoothing=self._smoothing,
        )


# The plain-float Weiszfeld loop takes (n, 2) inputs with 2 <= n < 8, every
# entry within ±_FLOAT_PATH_BOUND and a smoothing in [1 / _FLOAT_PATH_BOUND,
# _FLOAT_PATH_BOUND]. Below 8 terms numpy adds a 1-D sum left to right from
# +0.0, as the loop does; from 8 on it adds pairwise. The bounds keep every
# square, weight and weighted sum finite and every weight positive, so the
# loop never divides by zero where numpy would return NaN.
_FLOAT_PATH_MAX_ROWS = 8
_FLOAT_PATH_BOUND = 1e150
# The stop test's numpy norm may round a last bit differently from the float
# one (BLAS ``dot`` can fuse its multiply-adds). Steps this close to the
# tolerance are decided by the same numpy call the numpy loop makes.
_STOP_BAND_RELATIVE = 1e-9
_STOP_BAND_ABSOLUTE = 1e-150


def weiszfeld(
    points: np.ndarray,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    smoothing: float = 1e-12,
) -> np.ndarray:
    """Smoothed Weiszfeld iteration for the geometric median of ``points``.

    Small 2-D inputs run a plain-float loop that returns the same bits as
    the numpy loop, several times faster (DESIGN.md §5.5); every other input
    runs the numpy loop.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    max_iterations:
        Iteration budget; the iterate after the budget is returned (the
        iteration is a descent method, so the last iterate is the best).
    tolerance:
        Fixed-point stopping threshold on the iterate displacement.
    smoothing:
        Additive distance smoothing preventing division by zero.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidParameterError("points must be a non-empty (n, d) array")
    if points.shape[0] == 1:
        return points[0].copy()
    bound = _FLOAT_PATH_BOUND
    if (
        points.shape[1] == 2
        and points.shape[0] < _FLOAT_PATH_MAX_ROWS
        and 1.0 / bound <= smoothing <= bound
    ):
        rows = points.tolist()
        # Chained comparisons are false for NaN, so non-finite rows fail too.
        if all(-bound <= x <= bound and -bound <= y <= bound for x, y in rows):
            return _weiszfeld_plane(rows, max_iterations, tolerance, smoothing)
    estimate = points.mean(axis=0)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - estimate, axis=1) + smoothing
        weights = 1.0 / distances
        updated = (points * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(updated - estimate) <= tolerance:
            return updated
        estimate = updated
    return estimate


def _weiszfeld_plane(rows, max_iterations, tolerance, smoothing) -> np.ndarray:
    """:func:`weiszfeld`'s numpy loop on a list of ``(x, y)`` rows, in floats.

    Every sum starts at +0.0 and adds left to right, and a row's distance is
    ``sqrt(dx*dx + dy*dy)``: numpy's own order for these shapes. Builtin
    ``sum``, ``math.fsum`` and ``math.hypot`` round differently.
    """
    sqrt = math.sqrt
    count = len(rows)
    sum_x = sum_y = 0.0
    for x, y in rows:
        sum_x += x
        sum_y += y
    estimate_x = sum_x / count
    estimate_y = sum_y / count
    band = _STOP_BAND_RELATIVE * tolerance + _STOP_BAND_ABSOLUTE
    for _ in range(max_iterations):
        total = sum_x = sum_y = 0.0
        for x, y in rows:
            dx = x - estimate_x
            dy = y - estimate_y
            weight = 1.0 / (sqrt(dx * dx + dy * dy) + smoothing)
            sum_x += x * weight
            sum_y += y * weight
            total += weight
        updated_x = sum_x / total
        updated_y = sum_y / total
        dx = updated_x - estimate_x
        dy = updated_y - estimate_y
        step = sqrt(dx * dx + dy * dy)
        if abs(step - tolerance) <= band:
            step = np.linalg.norm(np.array([dx, dy]))
        if step <= tolerance:
            return np.array([updated_x, updated_y])
        estimate_x = updated_x
        estimate_y = updated_y
    return np.array([estimate_x, estimate_y])
