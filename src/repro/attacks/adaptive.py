"""Adaptive (filter-aware) Byzantine behaviours.

These attacks exploit knowledge of the honest gradients' statistics — the
strongest setting the synchronous rushing adversary permits — and are the
standard stress tests for robust aggregation rules.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.exceptions import InvalidParameterError


@functools.lru_cache(maxsize=256)
def _default_z(n: int, f: int) -> float:
    """ALIE's default ``z`` for ``n`` agents of which ``f`` are faulty.

    A normal quantile that depends only on ``(n, f)``, so it is computed
    once per pair rather than on every forge.
    """
    # Number of honest agents the adversary must out-vote.
    s = max(int(np.floor(n / 2.0 + 1.0)) - f, 1)
    fraction = min(max((n - f - s) / max(n - f, 1), 1e-6), 1.0 - 1e-6)
    from scipy.stats import norm

    return float(norm.ppf(1.0 - fraction) if fraction < 0.5 else norm.ppf(fraction))


class ALittleIsEnough(ByzantineBehavior):
    """ALIE attack (Baruch et al., 2019).

    Sends ``mean(honest) − z · std(honest)`` per coordinate: a perturbation
    small enough to hide inside the honest spread yet consistently biased.
    ``z`` defaults to a value matched to the honest population size via the
    normal quantile heuristic of the original paper.
    """

    name = "alie"

    def __init__(self, z: Optional[float] = None):
        if z is not None and z <= 0:
            raise InvalidParameterError(f"z must be positive, got {z}")
        self._z = z

    def _z_value(self, context: AttackContext) -> float:
        if self._z is not None:
            return self._z
        return _default_z(
            context.honest_gradients.shape[0] + context.num_faulty,
            context.num_faulty,
        )

    def forge(self, context: AttackContext) -> np.ndarray:
        z = abs(self._z_value(context))
        forged = context.honest_mean() - z * context.honest_std()
        return np.tile(forged, (context.num_faulty, 1))


class InnerProductManipulation(ByzantineBehavior):
    """IPM attack (Xie, Koyejo & Gupta, 2020).

    Every faulty agent sends ``−scale · mean(honest)``. For small ``scale``
    the forged gradients look individually plausible but flip the sign of
    the aggregate's inner product with the true descent direction.
    """

    name = "ipm"

    def __init__(self, scale: float = 0.5):
        if scale <= 0:
            raise InvalidParameterError(f"scale must be positive, got {scale}")
        self._scale = float(scale)

    def forge(self, context: AttackContext) -> np.ndarray:
        forged = -self._scale * context.honest_mean()
        return np.tile(forged, (context.num_faulty, 1))


class Mimic(ByzantineBehavior):
    """All faulty agents copy one fixed honest agent's gradient.

    Defeats no filter on its own but skews heterogeneity-sensitive rules by
    over-representing one data distribution (Karimireddy et al., 2021).
    """

    name = "mimic"

    def __init__(self, target_position: int = 0):
        if target_position < 0:
            raise InvalidParameterError(
                f"target_position must be non-negative, got {target_position}"
            )
        self._target_position = int(target_position)

    def forge(self, context: AttackContext) -> np.ndarray:
        honest = context.honest_gradients
        if honest.shape[0] == 0:
            return np.zeros((context.num_faulty, context.dimension))
        row = honest[self._target_position % honest.shape[0]]
        return np.tile(row, (context.num_faulty, 1))


class OptimalDirectionAttack(ByzantineBehavior):
    """Norm-camouflaged push toward an adversarial target point.

    Each forged gradient points from the target toward the current estimate
    (so descent moves the estimate toward the target) and is scaled to the
    median honest gradient norm — specifically crafted to survive
    norm-based elimination such as CGE while remaining maximally harmful.
    """

    name = "optimal-direction"

    def __init__(self, target):
        self._target = np.asarray(target, dtype=float)
        if self._target.ndim != 1:
            raise InvalidParameterError("target must be a 1-D point")

    def forge(self, context: AttackContext) -> np.ndarray:
        if self._target.shape[0] != context.dimension:
            raise InvalidParameterError(
                f"target dimension {self._target.shape[0]} does not match problem "
                f"dimension {context.dimension}"
            )
        direction = context.estimate - self._target
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            return np.zeros((context.num_faulty, context.dimension))
        honest_norms = np.linalg.norm(context.honest_gradients, axis=1)
        camouflage = float(np.median(honest_norms)) if honest_norms.size else 1.0
        forged = direction / norm * camouflage
        return np.tile(forged, (context.num_faulty, 1))


class IntermittentAttack(ByzantineBehavior):
    """Wrap an attack so the faulty agents misbehave only sometimes.

    In rounds where the attack is dormant the faulty agents behave
    *honestly* (sending their true gradients), which makes the fault
    pattern time-varying and much harder to detect than a constant
    misbehaviour — the server can never amortize an identification over
    rounds. Byzantine agents are allowed any behaviour, so this is strictly
    inside the model.

    Parameters
    ----------
    inner:
        The behaviour used in active rounds.
    active_probability:
        Per-round probability of attacking (drawn from the adversary's
        stream); ``period`` may be given instead for deterministic duty
        cycles.
    period:
        When set, attack exactly every ``period``-th round (overrides the
        probability).
    """

    name = "intermittent"

    def __init__(
        self,
        inner: ByzantineBehavior,
        active_probability: float = 0.5,
        period: Optional[int] = None,
    ):
        if not 0.0 <= active_probability <= 1.0:
            raise InvalidParameterError(
                f"active_probability must lie in [0, 1], got {active_probability}"
            )
        if period is not None and period <= 0:
            raise InvalidParameterError(f"period must be positive, got {period}")
        self._inner = inner
        self._probability = float(active_probability)
        self._period = period

    def _active(self, context: AttackContext) -> bool:
        if self._period is not None:
            return context.round_index % self._period == 0
        return bool(context.rng.random() < self._probability)

    def forge(self, context: AttackContext) -> np.ndarray:
        if self._active(context):
            return self._inner(context)
        return context.true_faulty_gradients()
