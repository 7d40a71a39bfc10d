"""E6 — Figure 5: fault-count sweep and the α > 0 condition.

Fix ``n`` and sweep the number of Byzantine agents ``f``. For each ``f``
(and a matching 2f-redundant instance) run every filter under the
gradient-reverse attack and record the final error, alongside the
theoretical CGE margin ``α(f) = 1 − (f/n)(1 + 2μ/γ)``. The paper's theory
predicts: error stays near zero while ``α > 0`` and filters may break down
beyond; plain averaging breaks down already at ``f = 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.metrics import final_error
from repro.analysis.reporting import ExperimentResult
from repro.core.conditions import cge_alpha, regularity_of_quadratics
from repro.experiments.common import run_attacked
from repro.problems.linear_regression import make_redundant_regression
from repro.utils.rng import SeedLike


def run_fault_sweep(
    n: int = 15,
    d: int = 2,
    fault_counts: Sequence[int] = (0, 1, 2, 3, 4),
    filters: Sequence[str] = ("cge", "cwtm", "multikrum", "geomed", "average"),
    attack: str = "gradient-reverse",
    iterations: int = 400,
    noise_std: float = 0.0,
    seed: SeedLike = 11,
) -> ExperimentResult:
    """Regenerate Figure 5 (final error vs number of faults, per filter)."""
    result = ExperimentResult(
        experiment_id="E6",
        title=f"Fault sweep (n={n}, d={d}, attack={attack})",
        headers=["f", "alpha(f)"] + [f"{name} error" for name in filters],
    )
    per_filter_series = {name: [] for name in filters}
    alphas = []
    max_f = max(fault_counts)
    for f in fault_counts:
        # One instance redundant enough for the largest f keeps the workload
        # comparable across the sweep.
        instance = make_redundant_regression(
            n=n, d=d, f=max(max_f, 1), noise_std=noise_std, seed=seed
        )
        faulty_ids = tuple(range(f))
        honest = [i for i in range(n) if i not in faulty_ids]
        x_H = instance.honest_minimizer(honest)
        constants = regularity_of_quadratics(instance.costs, f, honest=honest)
        alpha = cge_alpha(n, f, constants.mu, constants.gamma) if f > 0 else 1.0
        alphas.append(alpha)
        row = [f, alpha]
        for filter_name in filters:
            if f == 0:
                trace = run_attacked(
                    instance, filter_name, "zero", faulty_ids=(),
                    iterations=iterations, seed=seed,
                )
            else:
                trace = run_attacked(
                    instance, filter_name, attack, faulty_ids=faulty_ids,
                    iterations=iterations, seed=seed,
                )
            error = final_error(trace, x_H)
            row.append(error)
            per_filter_series[filter_name].append(error)
        result.rows.append(row)
    for name, series in per_filter_series.items():
        result.series[f"{name} error vs f"] = np.asarray(series)
    result.series["alpha vs f"] = np.asarray(alphas)
    result.notes.append(
        "expected shape: robust filters hold errors near zero while alpha > 0; "
        "plain averaging degrades immediately at f = 1"
    )
    return result
