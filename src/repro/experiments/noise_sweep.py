"""E5 — Figure 4: graceful degradation under redundancy violation.

2f-redundancy is exact only in noiseless systems. This sweep injects
observation noise of increasing σ into the regression instance, measures
the induced redundancy margin ``ε*(σ)``, and runs DGD+CGE under the
gradient-reverse attack at each level. The paper's characterization
predicts the achievable error scales with the redundancy violation: the
final error should track ``ε*(σ)`` (up to a modest constant), and at
``σ = 0`` both are (numerically) zero.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.metrics import final_error
from repro.analysis.reporting import ExperimentResult
from repro.core.exact_algorithm import SubsetEnumerationAlgorithm
from repro.core.redundancy import measure_redundancy_margin
from repro.experiments.common import run_attacked
from repro.problems.linear_regression import make_redundant_regression
from repro.utils.rng import SeedLike


def run_noise_sweep(
    noise_levels: Sequence[float] = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2),
    n: int = 6,
    f: int = 1,
    d: int = 2,
    iterations: int = 500,
    seed: SeedLike = 20200803,
    include_exact_algorithm: bool = True,
) -> ExperimentResult:
    """Regenerate Figure 4 (error vs redundancy-violation sweep)."""
    result = ExperimentResult(
        experiment_id="E5",
        title=f"Redundancy violation sweep (n={n}, f={f}, d={d}, gradient-reverse attack)",
        headers=["noise std", "margin eps*", "cge error", "exact-alg error", "cge err / eps*"],
    )
    margins = []
    cge_errors = []
    optimization_floor = None
    for sigma in noise_levels:
        instance = make_redundant_regression(
            n=n, d=d, f=f, noise_std=sigma, seed=seed
        )
        honest = list(range(f, n))
        x_H = instance.honest_minimizer(honest)
        margin = measure_redundancy_margin(instance.costs, f).margin
        trace = run_attacked(
            instance, "cge", "gradient-reverse", faulty_ids=tuple(range(f)),
            iterations=iterations, seed=seed,
        )
        error = final_error(trace, x_H)
        if include_exact_algorithm:
            algorithm = SubsetEnumerationAlgorithm(n, f)
            exact_error = float(
                np.linalg.norm(algorithm.run(instance.costs).output - x_H)
            )
        else:
            exact_error = float("nan")
        ratio = error / margin if margin > 1e-12 else float("nan")
        if sigma == 0.0:
            optimization_floor = error
        result.rows.append([sigma, margin, error, exact_error, ratio])
        margins.append(margin)
        cge_errors.append(error)
    result.series["margin eps*(sigma)"] = np.asarray(margins)
    result.series["cge final error(sigma)"] = np.asarray(cge_errors)
    if optimization_floor is not None:
        result.notes.append(
            f"DGD optimization floor after {iterations} iterations (sigma=0): "
            f"{optimization_floor:.4g} — the iterative method's finite-horizon "
            "error, unrelated to redundancy; the exact algorithm's sigma=0 "
            "error is numerically zero"
        )
    result.notes.append(
        "expected shape: the margin and both errors grow together with sigma; "
        "cge error ~ max(optimization floor, O(eps*)); exact-alg error <= 2 eps*"
    )
    return result
