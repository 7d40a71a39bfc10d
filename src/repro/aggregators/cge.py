"""Comparative Gradient Elimination (CGE) — the paper's gradient filter.

CGE sorts the ``n`` received gradients by Euclidean norm and outputs the
**sum of the ``n − f`` smallest-norm gradients**::

    ||g_{i_1}|| <= ... <= ||g_{i_n}||        (ties broken by agent index)
    CGE(g_1, ..., g_n) = Σ_{j=1..n-f} g_{i_j}

Intuition: under 2f-redundancy and bounded heterogeneity, honest gradients
near the honest minimizer are small; a Byzantine gradient can therefore
survive the cut only by having a norm no larger than some honest gradient's,
which caps the damage it can inject. The paper proves exact convergence of
gradient descent with this filter when ``α = 1 − (f/n)(1 + 2μ/γ) > 0``.
"""

from __future__ import annotations

import numpy as np

from repro.aggregators import kernels
from repro.aggregators.base import GradientFilter
from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_matrix


class ComparativeGradientElimination(GradientFilter):
    """CGE filter: sum (paper) or mean (ablation) of smallest-norm gradients.

    Parameters
    ----------
    f:
        Number of largest-norm gradients to eliminate.
    mode:
        ``"sum"`` — the paper's definition; ``"mean"`` — averages the kept
        gradients instead, an ablation that changes only the effective step
        size (direction is identical), exercised by the ablation bench.
    """

    name = "cge"

    def __init__(self, f: int, mode: str = "sum"):
        super().__init__(f)
        if mode not in ("sum", "mean"):
            raise InvalidParameterError(f"mode must be 'sum' or 'mean', got {mode!r}")
        self._mode = mode

    @property
    def mode(self) -> str:
        return self._mode

    def minimum_inputs(self) -> int:
        # Need at least one surviving gradient.
        return self._f + 1

    def kept_indices(self, gradients) -> np.ndarray:
        """Indices of the ``n − f`` gradients the filter keeps.

        Exposed for diagnostics: the attack experiments use it to audit how
        often Byzantine gradients survive the cut. Sorting is stable on
        (norm, index) so results are deterministic under ties. Validates and
        sanitizes arbitrary input; internal callers that already hold a
        validated matrix use :meth:`_kept_indices` to avoid re-copying the
        matrix on the hot path.
        """
        matrix = check_matrix(gradients, name="gradients", allow_non_finite=True)
        return self._kept_indices(self.sanitize(matrix))

    def _kept_indices(self, matrix: np.ndarray) -> np.ndarray:
        """Kept indices of a pre-validated, sanitized ``(n, d)`` matrix."""
        return kernels.cge_kept_indices(matrix, self._f)

    def _kept_indices_batch(self, tensor: np.ndarray) -> np.ndarray:
        """Kept indices of every run slice: ``(K, n, d)`` → ``(K, n − f)``.

        Delegates to :func:`repro.aggregators.kernels.cge_kept_indices_batch`
        (batched ``argpartition`` with a stable redo of any run whose cut
        boundary has tied norms).
        """
        return kernels.cge_kept_indices_batch(tensor, self._f)

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        kept = self._kept_indices(gradients)
        total = gradients[kept].sum(axis=0)
        if self._mode == "mean":
            return total / kept.shape[0]
        return total

    def _aggregate_batch(self, tensor: np.ndarray) -> np.ndarray:
        return self._aggregate_batch_kept(tensor)[0]

    def _aggregate_batch_kept(self, tensor: np.ndarray):
        """Batched CGE and the kept sets it summed: ``(K, d)``, ``(K, n − f)``.

        The batch engine's telemetry reports these kept sets, so a traced
        round selects them once.
        """
        kept = self._kept_indices_batch(tensor)
        return kernels.cge_sum_kept_batch(tensor, kept, self._mode), kept

    def __repr__(self) -> str:
        return f"ComparativeGradientElimination(f={self._f}, mode={self._mode!r})"
