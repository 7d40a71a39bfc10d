"""Reference implementation of the decentralized DGD round loop.

A frozen copy of the straightforward engine that
:func:`repro.system.decentralized.run_decentralized_dgd` optimizes: every
round it resolves each edge's link-fault profile draws with one
:func:`~repro.system.faultinjection.deterministic_draw_array` call per
tag, scatters all payloads into a padded ``(n, Δ)`` per-edge buffer,
argsorts the live slots and regroups the agents by ``(k_i, f_i)``. The
engine hoists that round-invariant work out of the loop without
reordering any arithmetic, so ``tests/test_decentralized_reference.py``
requires the two to agree byte for byte. Keep this module unchanged when
the engine changes.

The healing rules it applies are its own frozen copies too: the policy
``ResiliencePolicy.for_link_model`` derives (from
:mod:`tests.healing_reference`) and the per-edge liveness tracker
``NeighborhoodLiveness`` with its suspicion threshold as a parameter.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregators.kernels import cge_kept_indices_batch, partition_trimmed_mean
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.exceptions import InvalidParameterError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction, QuadraticCost
from repro.optimization.projections import BoxSet, ConvexSet, numpy_batch_projector
from repro.optimization.step_sizes import StepSizeSchedule, suggest_diminishing
from repro.system.decentralized import (
    DECENTRALIZED_AGGREGATIONS,
    DecentralizedExecutionResult,
)
from repro.system.faultinjection import deterministic_draw_array
from repro.system.netfaults import (
    CORRUPTION_MODES,
    LinkFaultModel,
    corrupt_payload_rows,
)
from repro.system.topology import Topology
from repro.utils.rng import SeedLike, ensure_rng
from tests.healing_reference import ReferenceResiliencePolicy

# The draw-domain tags of repro.system.netfaults.
_LINK_TAG_DROP = 101
_LINK_TAG_DELAY_GATE = 102
_LINK_TAG_DELAY_LAG = 103
_LINK_TAG_CORRUPT = 104


def reference_edge_parameters(
    model: LinkFaultModel, senders: np.ndarray, receivers: np.ndarray
) -> Dict[str, np.ndarray]:
    """One ``profile_for`` lookup per edge."""
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    profiles = [
        model.profile_for(u, v)
        for u, v in zip(senders.tolist(), receivers.tolist())
    ]
    return {
        "drop_prob": np.array([p.drop_prob for p in profiles]),
        "delay_prob": np.array([p.delay_prob for p in profiles]),
        "max_delay": np.array([p.max_delay for p in profiles], dtype=np.int64),
        "corrupt_prob": np.array([p.corrupt_prob for p in profiles]),
        "corrupt_mode_index": np.array(
            [CORRUPTION_MODES.index(p.corrupt_mode) for p in profiles],
            dtype=np.int64,
        ),
    }


def _partition_labels(model: LinkFaultModel, round_index: int, n: int):
    for window in model.partitions:
        if window.active_at(round_index):
            return window.labels(n)
    return None


def reference_draw_link_faults(
    model: LinkFaultModel,
    round_index: int,
    senders: np.ndarray,
    receivers: np.ndarray,
    params: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Four full ``deterministic_draw_array`` calls per round.

    The agent count is taken as the largest edge endpoint + 1, so only
    use it where every agent has an edge.
    """
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    if params is None:
        params = reference_edge_parameters(model, senders, receivers)
    dropped = (
        deterministic_draw_array(
            model.seed, _LINK_TAG_DROP, round_index, senders, receivers
        )
        < params["drop_prob"]
    )
    labels = _partition_labels(model, round_index, int(max(senders.max(initial=-1), receivers.max(initial=-1))) + 1 if senders.size else 0)
    if labels is not None:
        dropped |= labels[senders] != labels[receivers]
    if model.churn:
        down = model.down_mask(
            round_index,
            int(max(senders.max(initial=-1), receivers.max(initial=-1))) + 1
            if senders.size
            else 0,
        )
        dropped |= down[senders] | down[receivers]
    delay_gate = (
        deterministic_draw_array(
            model.seed, _LINK_TAG_DELAY_GATE, round_index, senders, receivers
        )
        < params["delay_prob"]
    )
    lag_draw = deterministic_draw_array(
        model.seed, _LINK_TAG_DELAY_LAG, round_index, senders, receivers
    )
    delay = np.where(
        delay_gate & ~dropped,
        1 + (lag_draw * np.maximum(params["max_delay"], 1)).astype(np.int64),
        0,
    )
    delay = np.minimum(delay, params["max_delay"])
    corrupt = (
        deterministic_draw_array(
            model.seed, _LINK_TAG_CORRUPT, round_index, senders, receivers
        )
        < params["corrupt_prob"]
    ) & ~dropped
    return {"dropped": dropped, "delay": delay, "corrupt": corrupt}


class ReferenceNeighborhoodLiveness:
    """``NeighborhoodLiveness`` with a settable suspicion threshold."""

    def __init__(
        self,
        senders: np.ndarray,
        receivers: np.ndarray,
        suspicion_threshold: int,
    ):
        if suspicion_threshold < 1:
            raise InvalidParameterError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        self._senders = np.asarray(senders, dtype=np.int64).copy()
        self._receivers = np.asarray(receivers, dtype=np.int64).copy()
        if self._senders.shape != self._receivers.shape or self._senders.ndim != 1:
            raise InvalidParameterError(
                "senders and receivers must be 1-D arrays of equal length"
            )
        self._threshold = int(suspicion_threshold)
        self._misses = np.zeros(self._senders.shape[0], dtype=np.int64)
        self._last_seen = np.full(self._senders.shape[0], -1, dtype=np.int64)
        self._suspected = np.zeros(self._senders.shape[0], dtype=bool)
        self._last_newly = np.zeros(self._senders.shape[0], dtype=bool)
        self._last_reinstated = np.zeros(self._senders.shape[0], dtype=bool)
        self.reinstatements = 0

    def suspected_edges(self) -> List[Tuple[int, int]]:
        index = np.flatnonzero(self._suspected)
        return sorted(
            (int(self._senders[i]), int(self._receivers[i])) for i in index
        )

    def observe(self, round_index: int, delivered: np.ndarray) -> Tuple[int, int]:
        delivered = np.asarray(delivered, dtype=bool)
        if delivered.shape != self._senders.shape:
            raise InvalidParameterError(
                f"delivered must have shape {self._senders.shape}, "
                f"got {delivered.shape}"
            )
        reinstated_mask = delivered & self._suspected
        reinstated = int(reinstated_mask.sum())
        self._misses = np.where(delivered, 0, self._misses + 1)
        self._last_seen = np.where(delivered, int(round_index), self._last_seen)
        now_suspected = self._misses >= self._threshold
        newly_mask = now_suspected & ~self._suspected
        newly = int(newly_mask.sum())
        self._last_newly = newly_mask
        self._last_reinstated = reinstated_mask
        self._suspected = now_suspected
        self.reinstatements += reinstated
        return newly, reinstated

    def _edges_of(self, mask: np.ndarray) -> List[Tuple[int, int]]:
        index = np.flatnonzero(mask)
        return sorted(
            (int(self._senders[i]), int(self._receivers[i])) for i in index
        )

    def last_newly_suspected_edges(self) -> List[Tuple[int, int]]:
        return self._edges_of(self._last_newly)

    def last_reinstated_edges(self) -> List[Tuple[int, int]]:
        return self._edges_of(self._last_reinstated)


def _quadratic_gradient_stack(costs: Sequence[CostFunction]):
    if not all(isinstance(c, QuadraticCost) for c in costs):
        return None
    P = np.stack([c.P for c in costs])
    q = np.stack([c.q for c in costs])
    return lambda X: np.einsum("nij,nj->ni", P, X) + q


def _group_mix(
    values: np.ndarray,
    own: np.ndarray,
    f: int,
    aggregation: str,
) -> np.ndarray:
    if aggregation == "mean" or f == 0 and aggregation == "cwtm":
        return values.mean(axis=1)
    if aggregation == "cwtm":
        return partition_trimmed_mean(values, f)
    diffs = values - own[:, None, :]
    kept = cge_kept_indices_batch(diffs, f)
    return np.take_along_axis(values, kept[:, :, None], axis=1).mean(axis=1)


def reference_run_decentralized_dgd(
    costs: Sequence[CostFunction],
    topology: Topology,
    aggregation: str = "cwtm",
    faulty_ids: Sequence[int] = (),
    behavior: Optional[ByzantineBehavior] = None,
    local_budgets=None,
    iterations: int = 100,
    step_sizes: Optional[StepSizeSchedule] = None,
    projection: Optional[ConvexSet] = None,
    x0=None,
    seed: SeedLike = 0,
    telemetry: TelemetryLike = None,
    link_faults: Optional[LinkFaultModel] = None,
    record_states: bool = False,
    validate_feasibility: bool = True,
) -> DecentralizedExecutionResult:
    """Same signature and result as ``run_decentralized_dgd``."""
    costs = list(costs)
    n = topology.n
    if len(costs) != n:
        raise InvalidParameterError(
            f"got {len(costs)} costs for a topology of {n} agents"
        )
    if aggregation not in DECENTRALIZED_AGGREGATIONS:
        raise InvalidParameterError(
            f"aggregation must be one of {DECENTRALIZED_AGGREGATIONS}, "
            f"got {aggregation!r}"
        )
    if iterations <= 0:
        raise InvalidParameterError(f"iterations must be positive, got {iterations}")
    faulty = sorted(set(int(i) for i in faulty_ids))
    if any(i < 0 or i >= n for i in faulty):
        raise InvalidParameterError(
            f"faulty_ids must lie in [0, {n}), got {faulty}"
        )
    if faulty and behavior is None:
        raise InvalidParameterError("faulty agents configured but no behavior given")
    dimension = costs[0].dimension
    budgets = topology.resolve_budgets(local_budgets, faulty)
    if validate_feasibility and aggregation != "mean":
        topology.check_local_redundancy(budgets)

    honest = [i for i in range(n) if i not in set(faulty)]
    if not honest:
        raise InvalidParameterError("at least one honest agent is required")
    rng = ensure_rng(seed)
    schedule = step_sizes or suggest_diminishing(costs, aggregation="mean")
    constraint = projection or BoxSet.centered(dimension, 1000.0)
    project_rows = numpy_batch_projector(constraint)

    if x0 is None:
        X = np.zeros((n, dimension))
    else:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape == (dimension,):
            X = np.broadcast_to(x0, (n, dimension)).copy()
        elif x0.shape == (n, dimension):
            X = x0.copy()
        else:
            raise InvalidParameterError(
                f"x0 must have shape ({dimension},) or ({n}, {dimension}), "
                f"got {x0.shape}"
            )
    X = project_rows(X)

    model = link_faults
    faulted = model is not None and not model.is_null
    policy = (
        ReferenceResiliencePolicy.for_link_model(model)
        if model is not None
        else ReferenceResiliencePolicy(max_staleness=0)
    )

    nbr, valid = topology.neighbor_matrix()
    receivers, slots = np.nonzero(valid)
    senders = nbr[receivers, slots]
    edge_params = (
        reference_edge_parameters(model, senders, receivers) if faulted else None
    )
    liveness = (
        ReferenceNeighborhoodLiveness(
            senders, receivers, policy.suspicion_threshold
        )
        if faulted
        else None
    )

    width = nbr.shape[1]
    P = np.zeros((n, width, dimension))
    P_round = np.full((n, width), -1, dtype=np.int64)
    history_len = (model.delay_bound() if faulted else 0) + 1
    X_hist = np.zeros((history_len, n, dimension))

    gradient_stack = _quadratic_gradient_stack(costs)
    faulty_costs = [costs[i] for i in faulty]
    honest_arr = np.array(honest, dtype=np.int64)
    faulty_arr = np.array(faulty, dtype=np.int64)

    counters = {
        "dropped_edges": 0,
        "delayed_edges": 0,
        "corrupted_edges": 0,
        "quarantined": 0,
        "stale_reuses": 0,
        "degraded_agent_rounds": 0,
        "frozen_agent_rounds": 0,
        "suspected_edge_events": 0,
        "reinstated_edge_events": 0,
    }

    mean_trajectory = np.empty((iterations + 1, dimension))
    mean_trajectory[0] = X[honest_arr].mean(axis=0)
    trajectory = None
    if record_states:
        trajectory = np.empty((iterations + 1, n, dimension))
        trajectory[0] = X

    tel = ensure_telemetry(telemetry)
    if tel:
        tel.annotate(
            architecture="decentralized",
            topology=topology.name,
            aggregation=aggregation,
            byzantine_ids=faulty,
        )

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(iterations):
            B = X
            if faulty:
                context = AttackContext(
                    round_index=t,
                    estimate=X[honest_arr].mean(axis=0),
                    honest_gradients=X[honest_arr],
                    honest_ids=honest,
                    faulty_ids=faulty,
                    faulty_costs=faulty_costs,
                    rng=rng,
                )
                B = X.copy()
                B[faulty_arr] = behavior(context)
            X_hist[t % history_len] = B

            if faulted:
                draws = reference_draw_link_faults(
                    model, t, senders, receivers, edge_params
                )
                dropped, delay = draws["dropped"], draws["delay"]
                origin = t - delay
                delivered = ~dropped & (origin >= 0)
                payloads = X_hist[origin % history_len, senders]
                corrupt = draws["corrupt"] & delivered
                if corrupt.any():
                    rows = np.flatnonzero(corrupt)
                    payloads[rows] = corrupt_payload_rows(
                        payloads[rows],
                        edge_params["corrupt_mode_index"][rows],
                        model.seed,
                        t,
                        senders[rows],
                        receivers[rows],
                    )
                    counters["corrupted_edges"] += int(rows.shape[0])
                if policy.quarantine_non_finite:
                    bad = delivered & ~np.isfinite(payloads).all(axis=1)
                    counters["quarantined"] += int(bad.sum())
                    delivered &= ~bad
                dropped_now = int(dropped.sum())
                counters["dropped_edges"] += dropped_now
                counters["delayed_edges"] += int((delivered & (delay > 0)).sum())
                newly, reinstated = liveness.observe(t, delivered)
                counters["suspected_edge_events"] += newly
                counters["reinstated_edge_events"] += reinstated
                upd = delivered & (origin > P_round[receivers, slots])
                P[receivers[upd], slots[upd]] = payloads[upd]
                P_round[receivers[upd], slots[upd]] = origin[upd]
                live = valid & (P_round >= 0) & (t - P_round <= policy.max_staleness)
                counters["stale_reuses"] += int((live & (P_round < t)).sum())
                down = model.down_mask(t, n)
                counters["frozen_agent_rounds"] += int(down.sum())
            else:
                P[receivers, slots] = B[senders]
                P_round[receivers, slots] = t
                live = valid
                down = None

            k_live = live.sum(axis=1)
            feasible = (1 + k_live) >= (2 * budgets + 1)
            mix = X.copy()
            counters["degraded_agent_rounds"] += int(
                (~feasible[honest_arr]).sum()
                if down is None
                else (~feasible[honest_arr] & ~down[honest_arr]).sum()
            )
            order = np.argsort(~live, axis=1, kind="stable")
            class_key = k_live * (budgets.max() + 1) + budgets
            active = feasible & (k_live > 0)
            if down is not None:
                active &= ~down
            for key in np.unique(class_key[active]):
                members = np.flatnonzero(active & (class_key == key))
                k = int(k_live[members[0]])
                f_local = int(budgets[members[0]])
                gathered = P[members[:, None], order[members, :k]]
                own = X[members]
                closed = np.concatenate([own[:, None, :], gathered], axis=1)
                mix[members] = _group_mix(closed, own, f_local, aggregation)

            if gradient_stack is not None:
                G = gradient_stack(mix)
            else:
                G = np.stack([cost.gradient(mix[i]) for i, cost in enumerate(costs)])
            eta = schedule(t)
            new_X = project_rows(mix - eta * G)
            if down is not None and down.any():
                new_X[down] = X[down]
            X = new_X

            mean_trajectory[t + 1] = X[honest_arr].mean(axis=0)
            if record_states:
                trajectory[t + 1] = X
            if tel:
                tel.record_round(
                    round_index=t,
                    filter_name=f"decentralized-{aggregation}",
                    step_size=eta,
                    gradient_norms=np.linalg.norm(G[honest_arr], axis=1),
                    kept_ids=None,
                    estimate=mean_trajectory[t + 1],
                )
                if faulted:
                    degraded_mask = ~feasible
                    if down is not None:
                        degraded_mask = degraded_mask & ~down
                    tel.emit(
                        "agent_health",
                        round=t,
                        live_in_degree=k_live.tolist(),
                        degraded=np.flatnonzero(degraded_mask).tolist(),
                        frozen=(
                            np.flatnonzero(down).tolist()
                            if down is not None
                            else []
                        ),
                        dropped_edges=dropped_now,
                        bytes_dropped=dropped_now * dimension * 8,
                        suspected_edges=[
                            list(edge)
                            for edge in liveness.last_newly_suspected_edges()
                        ],
                        reinstated_edges=[
                            list(edge)
                            for edge in liveness.last_reinstated_edges()
                        ],
                        degraded_agent_rounds=counters[
                            "degraded_agent_rounds"
                        ],
                    )
    elapsed = time.perf_counter() - start

    extra: Dict[str, object] = {"max_staleness": policy.max_staleness}
    if liveness is not None:
        extra["suspected_edges"] = liveness.suspected_edges()
    return DecentralizedExecutionResult(
        final_states=X,
        mean_trajectory=mean_trajectory,
        honest_ids=honest,
        faulty_ids=faulty,
        budgets=budgets,
        topology_name=topology.name,
        aggregation=aggregation,
        wall_time=elapsed,
        counters=counters,
        states=trajectory,
        extra=extra,
    )
