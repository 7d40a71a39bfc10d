"""Vectorized multi-run execution of the filtered DGD protocol.

:func:`run_dgd_batch` executes ``K`` replicate runs of the same
configuration (differing only in their seeds) as stacked ``(K, n, d)``
gradient tensors: one numpy kernel per round evaluates every agent's
gradient in every run, applies the Byzantine forging per run slice, feeds
the stacked matrices through the filter's batched aggregation, and advances
all ``K`` estimates at once. The arithmetic is arranged so every run's
recorded trace is **bit-identical** to what the sequential
:func:`repro.system.runner.run_dgd` produces for the same seed — the
equivalence suite (``tests/test_system_batch.py``) pins this down — so the
batch engine is a drop-in accelerator for the sweep experiments, not an
approximation of them.

Fast-path requirements (checked by :func:`batch_unsupported_reason`):

- every cost is a :class:`~repro.optimization.cost_functions.QuadraticCost`
  (covers the paper's least-squares workload), so gradients are the batched
  affine map ``x ↦ P_i x + q_i``;
- the gradient filter is stateless (all registry filters except
  ``clipping``);
- no crash faults, no network fault model, no checkpointing and no
  message recording (those need the full message-passing simulator).

Configurations outside the fast path transparently fall back to sequential
:func:`run_dgd` per seed, so callers never need to special-case.

The per-round kernels are plain numpy: the broadcast affine map
``(P[None] @ X[:, None, :, None])[..., 0] + q[None]`` (which matches the
sequential dgemv bit-for-bit), the filter's own
:meth:`~repro.aggregators.base.GradientFilter.aggregate_batch`, and the
row projector :func:`~repro.optimization.projections.numpy_batch_projector`.

Attack forging: gradient-reverse, sign-flip, zero, constant-bias, ALIE,
IPM and mimic are forged for all ``K`` runs at once, with one vectorized
expression over the honest rows ``G[:, honest]``. Every other behaviour
receives a genuine :class:`~repro.attacks.base.AttackContext` per run
slice, built from its run's slice of the gradient tensor and its run's own
adversary stream, so randomized and wrapped attacks (``random``,
``intermittent(alie)``, …) reproduce the sequential execution exactly. So
do sign-flip, ALIE and IPM at ``d = 1`` with 8 or more honest agents, where
numpy would sum the batch's honest rows in another order than a slice's,
and sign-flip, ALIE, IPM and mimic when no agent is honest.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.attacks.adaptive import (
    ALittleIsEnough,
    InnerProductManipulation,
    Mimic,
    _default_z,
)
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.attacks.simple import ConstantBias, GradientReverse, SignFlip, ZeroGradient
from repro.exceptions import InvalidParameterError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction, QuadraticCost
from repro.optimization.projections import numpy_batch_projector
from repro.system.runner import (
    DGDConfig,
    Trace,
    _schedule_projection_start,
    _validate_run,
    apply_config_overrides,
    run_dgd,
)
from repro.utils.rng import SeedLike, ensure_rng, spawn_rngs

__all__ = ["run_dgd_batch", "batch_unsupported_reason"]


def batch_unsupported_reason(
    costs: Sequence[CostFunction],
    behavior: Optional[ByzantineBehavior],
    config: DGDConfig,
    gradient_filter: GradientFilter,
) -> Optional[str]:
    """Why a configuration cannot take the vectorized fast path.

    Returns ``None`` when the fast path applies, otherwise a human-readable
    reason (the engine then falls back to sequential execution).
    """
    if config.crash_rounds:
        return "crash faults need the full message-passing simulator"
    if config.fault_model is not None or config.checkpoint_path is not None:
        return (
            "network faults and checkpoints need the full message-passing "
            "simulator"
        )
    if config.record_messages:
        return "message recording needs the full message-passing simulator"
    if gradient_filter.stateful:
        return (
            f"filter {type(gradient_filter).__name__} is stateful and cannot "
            "be shared across replicate runs"
        )
    for index, cost in enumerate(costs):
        if not isinstance(cost, QuadraticCost):
            return (
                f"cost {index} ({type(cost).__name__}) has no batched "
                "gradient kernel (only quadratic costs are vectorized)"
            )
    return None


def _forged_matrix(
    G: np.ndarray, forged: np.ndarray, faulty_idx: np.ndarray
) -> np.ndarray:
    """The received-gradient tensor: honest rows of ``G``, forged rows on top.

    Copies ``G`` before overwriting the faulty rows — ``G`` stays the pure
    honest-gradient tensor (attack closures and telemetry may read it after
    the forge), and the returned tensor shares no memory with it.
    """
    M = G.copy()
    M[:, faulty_idx] = forged
    return M


def _vectorized_forger(
    behavior: ByzantineBehavior,
    faulty_ids: Sequence[int],
    honest_ids: Sequence[int],
    costs: Sequence[CostFunction],
    rngs: Sequence[np.random.Generator],
):
    """Build ``forge(t, X, G) -> (K, |F|, d)`` for the configured behaviour.

    Exact-type matches get a closed-form vectorized expression where it
    rounds as each slice would; any other behaviour is invoked per run
    slice through a real :class:`AttackContext`, which reproduces the
    sequential semantics for arbitrary (randomized, adaptive, even wrapped)
    behaviours.
    """
    faulty_idx = np.asarray(faulty_ids, dtype=int)
    honest_idx = np.asarray(honest_ids, dtype=int)
    num_faulty = faulty_idx.shape[0]

    kind = type(behavior)
    if kind is GradientReverse:
        strength = behavior.strength

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            return -strength * G[:, faulty_idx]

        return forge
    if kind is ZeroGradient:

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            return np.zeros((X.shape[0], num_faulty, X.shape[1]))

        return forge
    if kind is ConstantBias:
        bias = behavior.bias
        # Validated here, at construction, so a misconfigured bias fails
        # before the round loop starts and the hot path carries no branch.
        dimension = costs[0].dimension
        if bias.shape[0] != dimension:
            raise InvalidParameterError(
                f"bias dimension {bias.shape[0]} does not match problem "
                f"dimension {dimension}"
            )

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            return np.broadcast_to(
                bias[None, None, :], (X.shape[0], num_faulty, X.shape[1])
            )

        return forge

    num_honest = honest_idx.shape[0]
    if kind is Mimic and num_honest > 0:
        source = honest_idx[behavior.target_position % num_honest]

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            return np.broadcast_to(
                G[:, source, None, :], (X.shape[0], num_faulty, X.shape[1])
            )

        return forge
    # Reducing G[:, honest_idx] over its honest axis adds in each slice's
    # order, except at d = 1 with 8 or more honest rows, where numpy sums a
    # slice's column pairwise but the batch row by row.
    honest_reductions_exact = num_honest > 0 and (
        costs[0].dimension > 1 or num_honest < 8
    )
    if kind in (SignFlip, InnerProductManipulation) and honest_reductions_exact:
        scale = behavior.strength if kind is SignFlip else behavior.scale

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            direction = -scale * G[:, honest_idx].mean(axis=1)
            return np.broadcast_to(
                direction[:, None, :], (X.shape[0], num_faulty, X.shape[1])
            )

        return forge
    if kind is ALittleIsEnough and honest_reductions_exact:
        z = behavior.z
        z = abs(_default_z(len(costs), num_faulty) if z is None else z)

        def forge(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
            H = G[:, honest_idx]
            row = H.mean(axis=1) - z * H.std(axis=1)
            return np.broadcast_to(
                row[:, None, :], (X.shape[0], num_faulty, X.shape[1])
            )

        return forge

    faulty_costs = [costs[i] for i in faulty_ids]
    honest_list = list(honest_ids)
    faulty_list = list(faulty_ids)

    def forge_per_slice(t: int, X: np.ndarray, G: np.ndarray) -> np.ndarray:
        forged = np.empty((X.shape[0], num_faulty, X.shape[1]))
        for k in range(X.shape[0]):
            context = AttackContext(
                round_index=t,
                estimate=X[k],
                honest_gradients=G[k, honest_idx],
                honest_ids=honest_list,
                faulty_ids=faulty_list,
                faulty_costs=faulty_costs,
                rng=rngs[k],
            )
            forged[k] = behavior(context)
        return forged

    return forge_per_slice


def _json_seed(seed: SeedLike):
    """A JSON-safe rendering of a seed for telemetry records."""
    return int(seed) if isinstance(seed, (int, np.integer)) else str(seed)


def run_dgd_batch(
    costs: Sequence[CostFunction],
    behavior: Optional[ByzantineBehavior] = None,
    config: Optional[DGDConfig] = None,
    seeds: Optional[Sequence[SeedLike]] = None,
    round_hook: Optional[Callable[[int], None]] = None,
    telemetry: TelemetryLike = None,
    **config_overrides,
) -> List[Trace]:
    """Execute ``K`` replicate DGD runs, vectorized across the batch.

    Parameters
    ----------
    costs, behavior, config:
        As for :func:`repro.system.runner.run_dgd`; keyword overrides are
        applied on top of ``config``.
    seeds:
        One master seed per replicate run; defaults to ``[config.seed]``
        (a batch of one). Every other configuration field is shared.
    round_hook:
        Optional ``hook(t)`` invoked after round ``t`` completes on the
        vectorized fast path — a seam for progress reporting and for the
        chaos suite to inject faults *mid-execution* (a raising hook
        aborts the batch; re-running it is bit-identical, so the sweep
        engine's retry ladder recovers exactly). Not invoked on the
        sequential fallback path, which has no shared round loop.
    telemetry:
        Optional :class:`~repro.observability.Telemetry` handle (or JSONL
        path), defaulting to the no-op. On the fast path it emits one
        ``"round"`` record per round *per run slice* (tagged ``run=k`` and
        ``seed=seeds[k]``) inside that round's ``"round"`` span, as
        :func:`run_dgd` does, with the filter's kept set computed by the
        batched kernel — norms and kept indices are derived from the same
        stacked tensor the filter aggregates, outside the arithmetic of
        the update itself, so enabling telemetry never perturbs the
        bit-identical guarantee. On the sequential fallback the handle is
        passed through to each :func:`run_dgd`, with a ``"run_start"``
        event marking each run's slice of the stream.

    Returns
    -------
    list of Trace
        ``traces[k]`` is bit-identical to
        ``run_dgd(costs, behavior, config, seed=seeds[k])`` in its
        estimates, directions, and accounting fields. Each trace's
        ``extra["batch"]`` records the batch size and total wall time;
        ``wall_time`` is the amortized per-run share.
    """
    if config is None:
        config = DGDConfig()
    config = apply_config_overrides(config, config_overrides)
    seeds = [config.seed] if seeds is None else list(seeds)
    if not seeds:
        raise InvalidParameterError("seeds must contain at least one entry")

    costs, dimension, faulty_ids, _, _, gradient_filter = _validate_run(
        costs, behavior, config
    )
    n = len(costs)

    tel = ensure_telemetry(telemetry)
    reason = batch_unsupported_reason(costs, behavior, config, gradient_filter)
    if reason is not None:
        traces = []
        # run_dgd warns once per seed, from this frame. Record its warnings
        # and re-emit each distinct one once, at the caller, as the fast
        # path warns; a run that raises must not swallow them.
        caught: List[warnings.WarningMessage] = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                for k, seed in enumerate(seeds):
                    if tel:
                        tel.emit("run_start", run=k, seed=_json_seed(seed), reason=reason)
                    traces.append(
                        run_dgd(
                            costs,
                            behavior,
                            apply_config_overrides(config, {"seed": seed}),
                            telemetry=tel,
                        )
                    )
        finally:
            for message, category in dict.fromkeys(
                (str(w.message), w.category) for w in caught
            ):
                warnings.warn(message, category, stacklevel=2)
        return traces

    K = len(seeds)
    T = config.iterations
    honest_ids = [i for i in range(n) if i not in faulty_ids]

    # Per-run randomness, derived exactly as the sequential runner does.
    adversary_rngs = []
    for seed in seeds:
        adversary_rng, _ = spawn_rngs(ensure_rng(seed), 2)
        adversary_rngs.append(adversary_rng)

    step_sizes, projection, x0 = _schedule_projection_start(
        costs, dimension, gradient_filter, config.step_sizes, config.projection, config.x0
    )
    project_batch = numpy_batch_projector(projection)
    x0 = projection.project(x0)

    # Batched affine gradient map G[k, i] = P_i @ X[k] + q_i.
    P = np.stack([cost.P for cost in costs])
    q = np.stack([cost.q for cost in costs])

    if n < gradient_filter.minimum_inputs():
        raise InvalidParameterError(
            f"{type(gradient_filter).__name__} with f={gradient_filter.f} "
            f"requires at least {gradient_filter.minimum_inputs()} gradients, "
            f"got {n}"
        )

    faulty_idx = np.asarray(faulty_ids, dtype=int)
    forge = (
        _vectorized_forger(behavior, faulty_ids, honest_ids, costs, adversary_rngs)
        if faulty_ids
        else None
    )

    estimates = np.empty((K, T + 1, dimension))
    directions = np.empty((K, T, dimension))

    filter_name = getattr(gradient_filter, "name", type(gradient_filter).__name__)
    if tel:
        tel.annotate(byzantine_ids=faulty_ids)

    start = time.perf_counter()
    with tel.span("run"):
        X = np.broadcast_to(x0, (K, dimension)).copy()
        estimates[:, 0] = X
        for t in range(T):
            with tel.span("round"):
                # Broadcast matmul, which matches the sequential dgemv
                # bit-for-bit.
                G = (P[None] @ X[:, None, :, None])[..., 0] + q[None]
                if forge is not None:
                    M = _forged_matrix(G, forge(t, X, G), faulty_idx)
                else:
                    M = G
                # The round's single sanitize pass: aggregation and the
                # telemetry records below both consume this tensor.
                M = GradientFilter.sanitize(M)
                kept = None
                if tel and hasattr(gradient_filter, "_aggregate_batch_kept"):
                    # The kept sets the records report, built once.
                    D, kept = gradient_filter._aggregate_batch_kept(M)
                else:
                    D = gradient_filter.aggregate_batch(M, presanitized=True)
                directions[:, t] = D
                eta = step_sizes(t)
                X = project_batch(X - eta * D)
                estimates[:, t + 1] = X
                if tel:
                    tel.record_round(
                        round_index=t,
                        filter_name=filter_name,
                        step_size=eta,
                        gradient_norms=np.linalg.norm(M, axis=2),
                        kept_ids=kept,
                        estimate=X,
                        seeds=seeds,
                    )
            if round_hook is not None:
                round_hook(t)
    elapsed = time.perf_counter() - start

    # Closed-form network accounting: every round delivers one estimate
    # broadcast to each of the n agents and gathers one gradient from each
    # (nobody is ever silent on the fast path), every payload being a
    # d-vector plus headers — identical to the simulator's per-message
    # bookkeeping.
    message_bytes = 16 + 8 * dimension
    messages_delivered = 2 * n * T
    bytes_delivered = messages_delivered * message_bytes

    traces = []
    for k in range(K):
        traces.append(
            Trace(
                estimates=estimates[k].copy(),
                directions=directions[k].copy(),
                honest_ids=list(honest_ids),
                faulty_ids=list(faulty_ids),
                eliminated=[],
                wall_time=elapsed / K,
                messages_delivered=messages_delivered,
                bytes_delivered=bytes_delivered,
                filter_name=filter_name,
                crash_ids=[],
                extra={"batch": {"size": K, "wall_time": elapsed}},
            )
        )
    return traces
