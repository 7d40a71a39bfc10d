"""Reference implementation of the smoothed Weiszfeld iteration.

A frozen copy of the numpy loop that ``repro.aggregators.median.weiszfeld``
ran for every input before it gained a plain-float path for small 2-D
inputs. ``tests/test_weiszfeld_reference.py`` requires ``weiszfeld`` to
return the same bytes as this loop on every input, both on the inputs that
take the float path and on the ones that still take numpy's. Keep this
module unchanged when ``weiszfeld`` changes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError


def reference_weiszfeld(
    points: np.ndarray,
    max_iterations: int = 200,
    tolerance: float = 1e-10,
    smoothing: float = 1e-12,
) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise InvalidParameterError("points must be a non-empty (n, d) array")
    if points.shape[0] == 1:
        return points[0].copy()
    estimate = points.mean(axis=0)
    for _ in range(max_iterations):
        distances = np.linalg.norm(points - estimate, axis=1) + smoothing
        weights = 1.0 / distances
        updated = (points * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(updated - estimate) <= tolerance:
            return updated
        estimate = updated
    return estimate
