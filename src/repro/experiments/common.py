"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.registry import make_attack
from repro.exceptions import InfeasibleConfigurationError, InvalidParameterError
from repro.problems.linear_regression import (
    RegressionInstance,
    check_regression_parameters,
    make_redundant_regression,
    paper_instance,
)
from repro.system.batch import run_dgd_batch
from repro.system.runner import Trace
from repro.utils.rng import SeedLike

#: The initial estimate the paper's executions all share.
PAPER_X0 = (-0.0085, -0.5643)

#: The attack names exercised by the regression experiments.
REGRESSION_ATTACKS = ("gradient-reverse", "random", "sign-flip", "zero")


def paper_setup(noise_std: float = 0.02, seed: SeedLike = 20200803) -> RegressionInstance:
    """The shared n=6, f=1, d=2 regression instance of E1-E3/E10."""
    return paper_instance(noise_std=noise_std, seed=seed)


def check_regression_setup(n: int, d: int, f: int, noise_std: float) -> None:
    """Reject a set-up whose instance cannot be built.

    Runs the generator's own parameter checks (comparisons only; nothing is
    built) and raises every failure as
    :class:`~repro.exceptions.InvalidParameterError`, so a job spec or grid
    that names such an instance is refused at the boundary.
    """
    try:
        check_regression_parameters(n, d, f, noise_std)
    except InfeasibleConfigurationError as exc:
        raise InvalidParameterError(str(exc)) from exc


def regression_setup(
    n: int,
    d: int,
    f: int,
    noise_std: float,
    seed: SeedLike,
    redundancy_f: Optional[int] = None,
) -> Tuple[RegressionInstance, Tuple[int, ...], np.ndarray]:
    """The attacked regression run every job sets up.

    Returns the :func:`make_redundant_regression` instance, the faulty ids
    ``0..f-1`` and the honest minimizer ``x_H`` of the other agents. The
    instance is built for ``redundancy_f`` faults (default ``f``): a sweep
    builds one instance for all of its fault counts.
    """
    instance = make_redundant_regression(
        n=n, d=d, f=f if redundancy_f is None else redundancy_f,
        noise_std=noise_std, seed=seed,
    )
    return instance, tuple(range(f)), instance.honest_minimizer(range(f, n))


def run_attacked(
    instance: RegressionInstance,
    filter_name: str,
    attack_name: str,
    faulty_ids: Sequence[int] = (0,),
    iterations: int = 500,
    seed: SeedLike = 1,
    attack_kwargs: Optional[Dict] = None,
    x0=PAPER_X0,
) -> Trace:
    """One attacked execution on a regression instance (a batch of one)."""
    return run_attacked_multiseed(
        instance, filter_name, attack_name, [seed], faulty_ids=faulty_ids,
        iterations=iterations, attack_kwargs=attack_kwargs, x0=x0,
    )[0]


def run_attacked_multiseed(
    instance: RegressionInstance,
    filter_name: str,
    attack_name: str,
    seeds: Sequence[SeedLike],
    faulty_ids: Sequence[int] = (0,),
    iterations: int = 500,
    attack_kwargs: Optional[Dict] = None,
    x0=PAPER_X0,
) -> List[Trace]:
    """Replicate one attacked configuration across many seeds.

    All runs execute as one stacked :func:`repro.system.batch.run_dgd_batch`
    computation, bit-identical to looping :func:`repro.system.runner.run_dgd`
    (which the batch engine falls back to for configurations it cannot
    vectorize).
    """
    behavior = make_attack(attack_name, **(attack_kwargs or {}))
    return run_dgd_batch(
        instance.costs,
        behavior,
        seeds=list(seeds),
        gradient_filter=filter_name,
        faulty_ids=tuple(faulty_ids),
        iterations=iterations,
        x0=np.asarray(x0, dtype=float),
    )


def run_fault_free(
    instance: RegressionInstance,
    honest_ids: Sequence[int],
    iterations: int = 500,
    seed: SeedLike = 1,
    x0=PAPER_X0,
) -> Trace:
    """The fault-free DGD baseline: faulty agents removed, plain summation."""
    honest_costs = [instance.costs[i] for i in honest_ids]
    return run_dgd_batch(
        honest_costs,
        None,
        seeds=[seed],
        gradient_filter="sum",
        faulty_ids=(),
        iterations=iterations,
        x0=np.asarray(x0, dtype=float),
    )[0]
