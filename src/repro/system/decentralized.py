"""Sparse-topology decentralized DGD with per-neighborhood filtering.

The third architecture, after the trusted server and the dense
(broadcast-based) peer-to-peer protocol: agents sit on a sparse
communication graph (:mod:`repro.system.topology`) and each round run
resilient *consensus-style* DGD

.. math::

    z_i^t = \\mathrm{Mix}_i(\\{x_i^t\\} \\cup \\{x_j^t : j \\in N_i\\}),
    \\qquad
    x_i^{t+1} = \\Pi_W\\bigl(z_i^t - \\eta_t \\nabla Q_i(z_i^t)\\bigr)

where ``Mix_i`` is a Byzantine-robust aggregation (coordinate-wise trimmed
mean, CGE-style norm screening, or the plain mean baseline) over agent
``i``'s **closed neighborhood** — itself plus whatever neighbor states
survived the links this round. The gradient is taken at the *mixed* point
(combine-then-adapt): with a row-stochastic mix and ``η ≤ 2/L`` the
per-round map is non-expansive regardless of the graph's spectrum,
whereas adapt-then-combine diverges on graphs whose mixing matrix has
eigenvalues near ``-1/2`` (observed on random-regular graphs at
``n = 1024``). This is the setting of "Byzantine
Fault-Tolerance in Peer-to-Peer Distributed Gradient-Descent" and the
minimal-redundancy decentralized follow-up (PAPERS.md): fault-tolerance
becomes *local*, agent ``i`` surviving ``f_i`` Byzantine neighbors exactly
when its closed neighborhood satisfies ``deg_i + 1 >= 2 f_i + 1``.

Execution is vectorized end to end: agents are grouped by their
round-local ``(k_i, f_i)`` class, and one ``take`` per class from a
single gather table (own states, then neighbor states) feeds the batched
kernels in :mod:`repro.aggregators.kernels`, so n = 1024 agents on a
sparse graph cost a handful of array ops per round — no Python per-agent
loop anywhere on the hot path. Whatever depends only on the topology,
the budgets and the link-fault model is computed once per run; without
link faults that includes the whole mixing plan.

Fault model
-----------
``link_faults`` (a :class:`~repro.system.netfaults.LinkFaultModel`) makes
edges — not agents — the failure unit: per-edge drops, bounded delays,
payload corruption, scheduled partitions, and agent churn. Delays use a
*stationary re-parameterization* of the queue model: the payload arriving
on edge ``e`` at round ``t`` originated ``delay(e, t)`` rounds earlier
(served from a ring buffer of past broadcasts). Since every draw is a
pure function of ``(seed, edge, round)``, the whole degraded execution is
replayable from its seed.

Each receiver keeps a freshest-wins per-edge buffer; a neighbor is *live*
while its buffered state is at most ``resilience.max_staleness`` rounds
old (bounded-staleness reuse). When a neighborhood shrinks below its
``2 f_i + 1`` closed-neighborhood requirement — deep partition, heavy
loss — the agent degrades gracefully to its own state (local gradient
descent) for the round rather than mixing an un-defendable set; a
partitioned component therefore keeps optimizing independently and
reconciles deterministically once the cut heals.

Byzantine behaviour reuses the attack bank: a faulty agent broadcasts a
*forged state* computed by a :class:`~repro.attacks.base.ByzantineBehavior`
whose :class:`~repro.attacks.base.AttackContext` carries the honest
**states** in ``honest_gradients`` and their mean in ``estimate`` — the
documented adaptation from gradient-space to state-space forging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregators.kernels import (
    cge_kept_indices_batch,
    partition_trimmed_mean,
)
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.exceptions import InvalidParameterError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction, QuadraticCost
from repro.optimization.projections import (
    BoxSet,
    ConvexSet,
    numpy_batch_projector,
)
from repro.optimization.step_sizes import StepSizeSchedule, suggest_diminishing
from repro.system.healing import NeighborhoodLiveness, ResiliencePolicy
from repro.system.netfaults import LinkFaultModel, corrupt_payload_rows
from repro.system.topology import Topology
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_vector

__all__ = [
    "DECENTRALIZED_AGGREGATIONS",
    "DecentralizedExecutionResult",
    "run_decentralized_dgd",
]

#: Supported per-neighborhood aggregation rules.
DECENTRALIZED_AGGREGATIONS = ("cwtm", "cge", "mean")


@dataclass
class DecentralizedExecutionResult:
    """Outcome of a decentralized sparse-topology DGD execution.

    Attributes
    ----------
    final_states:
        ``(n, d)`` final state of every agent (including Byzantine ones,
        whose rows are their honestly-evolved internal states — what they
        *broadcast* was forged).
    mean_trajectory:
        ``(T + 1, d)`` trajectory of the honest agents' mean state — the
        coarse convergence diagnostic.
    budgets:
        The resolved per-agent local fault budgets ``f_i``.
    counters:
        Link/healing bookkeeping: ``dropped_edges``, ``delayed_edges``,
        ``corrupted_edges``, ``quarantined``, ``stale_reuses``,
        ``degraded_agent_rounds`` (rounds an agent fell back to its own
        state), ``frozen_agent_rounds`` (churn), ``suspected_edge_events``
        and ``reinstated_edge_events`` (liveness transitions).
    states:
        ``(T + 1, n, d)`` full trajectory when ``record_states`` was set,
        else ``None``.
    """

    final_states: np.ndarray
    mean_trajectory: np.ndarray
    honest_ids: List[int]
    faulty_ids: List[int]
    budgets: np.ndarray
    topology_name: str
    aggregation: str
    wall_time: float
    counters: Dict[str, int] = field(default_factory=dict)
    states: Optional[np.ndarray] = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def num_agents(self) -> int:
        return int(self.final_states.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.final_states.shape[1])

    @property
    def final_mean(self) -> np.ndarray:
        return self.mean_trajectory[-1].copy()

    def distances_to(self, point) -> np.ndarray:
        """Per-agent final distance to ``point``: ``(n,)``."""
        point = check_vector(point, dimension=self.dimension, name="point")
        return np.linalg.norm(self.final_states - point, axis=1)

    def max_honest_distance_to(self, point) -> float:
        """Worst honest agent's final distance to ``point``."""
        return float(self.distances_to(point)[self.honest_ids].max())


def _quadratic_gradient_stack(costs: Sequence[CostFunction]):
    """Closed-form batched gradient map when every cost is quadratic.

    ``∇Q_i(x_i) = P_i x_i + q_i`` for all agents at once via one einsum —
    the hot path for the paper's least-squares workloads. Returns ``None``
    when any cost lacks the quadratic form (callers fall back to the
    per-agent loop).
    """
    if not all(isinstance(c, QuadraticCost) for c in costs):
        return None
    P = np.stack([c.P for c in costs])
    q = np.stack([c.q for c in costs])
    return lambda X: np.einsum("nij,nj->ni", P, X) + q


def _group_mix(values: np.ndarray, f: int, aggregation: str) -> np.ndarray:
    """Robust mix of one ``(m, k, d)`` closed-neighborhood tensor.

    Row 0 of every slice is the agent's own state. With ``f = 0`` every
    rule keeps all ``k`` rows, so the mix is the plain mean.
    """
    if aggregation == "mean" or f == 0:
        return values.mean(axis=1)
    if aggregation == "cwtm":
        return partition_trimmed_mean(values, f)
    # CGE in state space: keep the k - f neighborhood states closest to
    # the agent's own (the self row's difference is 0, so it always
    # survives), then average the kept absolute states.
    diffs = values - values[:, :1]
    kept = cge_kept_indices_batch(diffs, f)
    return np.take_along_axis(values, kept[:, :, None], axis=1).mean(axis=1)


def _mix_plan(
    k_live: np.ndarray,
    budgets: np.ndarray,
    active: np.ndarray,
    neighbor_rows: np.ndarray,
) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """Group the ``active`` agents by their ``(k_i, f_i)`` class.

    ``neighbor_rows`` lists the gather-table rows of every agent's
    ``k_live[i]`` live neighbors, agent by agent in canonical order.
    Returns one ``(members, rows, f)`` triple per class, members
    ascending, where ``rows[j]`` lists member ``j``'s closed neighborhood
    as table rows: its own row ``members[j]``, then its live neighbors.
    """
    first = np.cumsum(k_live) - k_live
    agents = np.flatnonzero(active)
    key = k_live[agents] * (budgets.max() + 1) + budgets[agents]
    order = np.argsort(key, kind="stable")
    agents, key = agents[order], key[order]
    plan = []
    for members in np.split(agents, np.flatnonzero(np.diff(key)) + 1):
        if not members.size:
            continue
        k = int(k_live[members[0]])
        rows = np.empty((members.size, k + 1), dtype=np.int64)
        rows[:, 0] = members
        rows[:, 1:] = neighbor_rows[first[members, None] + np.arange(k)]
        plan.append((members, rows, int(budgets[members[0]])))
    return plan


def run_decentralized_dgd(
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
    resilience: Optional[ResiliencePolicy] = None,
    record_states: bool = False,
    validate_feasibility: bool = True,
) -> DecentralizedExecutionResult:
    """Run per-neighborhood filtered DGD over a sparse topology.

    Parameters
    ----------
    costs:
        All ``n = topology.n`` agents' local cost functions.
    topology:
        The communication graph (:mod:`repro.system.topology`).
    aggregation:
        Per-neighborhood mixing rule: ``"cwtm"`` (coordinate-wise trimmed
        mean over the closed neighborhood), ``"cge"`` (keep the ``k - f``
        states nearest the agent's own, average them), or ``"mean"`` (the
        fault-intolerant baseline).
    faulty_ids / behavior:
        Byzantine agents and the state-forging behaviour they share (see
        the module docstring for the state-space adaptation).
    local_budgets:
        Per-neighborhood fault budgets ``f_i``: ``None`` derives them from
        ``faulty_ids`` (each agent budgets exactly the Byzantine agents in
        its neighborhood), an int applies uniformly, a length-``n``
        sequence is taken per agent.
    x0:
        Common ``(d,)`` start, per-agent ``(n, d)`` starts, or ``None``
        for zeros.
    link_faults / resilience:
        The edge-level fault model and the healing policy (defaults to
        :meth:`ResiliencePolicy.for_link_model`). ``None`` link faults run
        the perfect-synchrony fast path. Every agent a partition or churn
        window names must lie in ``[0, n)``.
    record_states:
        Keep the full ``(T + 1, n, d)`` trajectory (memory permitting).
    validate_feasibility:
        Check local 2f-redundancy (``deg_i >= 2 f_i``) up front and raise
        :class:`~repro.exceptions.TopologyInfeasibilityError`; disable to
        study infeasible regimes (agents degrade instead of mixing).
    """
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
    honest_arr = np.array(honest, dtype=np.int64)
    faulty_arr = np.array(faulty, dtype=np.int64)
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
    if model is not None:
        named = [("partition", agent) for window in model.partitions
                 for group in window.groups for agent in group]
        named += [("churn", window.agent) for window in model.churn]
        for kind, agent in named:
            if agent >= n:
                raise InvalidParameterError(
                    f"{kind} agent {agent} out of range for n={n}"
                )
    faulted = model is not None and not model.is_null
    policy = resilience
    if policy is None:
        policy = (
            ResiliencePolicy.for_link_model(model)
            if model is not None
            else ResiliencePolicy(max_staleness=0)
        )

    # The flat directed edge list: receiver-major, canonical neighbor
    # order within each receiver.
    nbr, valid = topology.neighbor_matrix()
    receivers, slots = np.nonzero(valid)
    senders = nbr[receivers, slots]
    num_edges = senders.shape[0]

    # One gather table: rows [0, n) hold the agents' own states, the rest
    # what they mix from their neighbors. Under link faults that is the
    # freshest-wins buffer of edge e at row n + e, fed from a ring of the
    # last B + 1 broadcasts (slot t % (B + 1) holds round t's, rows
    # flattened) that serves delayed deliveries; the ring also records
    # which of its rows are finite. Without link faults every edge
    # delivers every round, so rows [n, 2n) hold the round's broadcast
    # and the mixing plan is fixed for the run.
    if faulted:
        edge_params = model.edge_parameters(senders, receivers)
        liveness = NeighborhoodLiveness(
            senders, receivers, policy.suspicion_threshold
        )
        table = np.zeros((n + num_edges, dimension))
        edge_round = np.full(num_edges, -1, dtype=np.int64)
        history_len = model.delay_bound() + 1
        history = np.zeros((history_len * n, dimension))
        history_finite = np.ones(history_len * n, dtype=bool)
    else:
        liveness = None
        table = np.empty((2 * n, dimension))
        degrees = valid.sum(axis=1)
        feasible = (1 + degrees) >= (2 * budgets + 1)
        plan = _mix_plan(
            degrees, budgets, feasible & (degrees > 0), n + senders
        )
        degraded_per_round = int((~feasible[honest_arr]).sum())

    gradient_stack = _quadratic_gradient_stack(costs)
    faulty_costs = [costs[i] for i in faulty]

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
            # 1. Broadcast matrix: honest agents broadcast their states;
            # Byzantine agents broadcast forged states.
            table[:n] = X
            if faulted:
                slot = t % history_len
                B = history[slot * n : (slot + 1) * n]
            else:
                B = table[n:]
            B[...] = X
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
                B[faulty_arr] = behavior(context)

            # 2. Link fault draws, payload resolution, and the round's
            # mixing plan over the live edges.
            down = None
            if faulted:
                if policy.quarantine_non_finite:
                    finite_rows = np.isfinite(B).all(axis=1)
                    history_finite[slot * n : (slot + 1) * n] = finite_rows
                draws = model.draw_link_faults(t, senders, receivers, edge_params)
                dropped, delay = draws["dropped"], draws["delay"]
                origin = t - delay
                delivered = ~dropped & (origin >= 0)
                # Ring row of each edge's payload: its sender's broadcast
                # at its origin round (corrupted edges carry a damaged copy).
                slot_rows = (t - np.arange(history_len)) % history_len * n
                source = slot_rows[delay] + senders
                corrupt = np.flatnonzero(draws["corrupt"] & delivered)
                if corrupt.size:
                    damaged = corrupt_payload_rows(
                        history.take(source[corrupt], axis=0),
                        edge_params["corrupt_mode_index"][corrupt],
                        model.seed,
                        t,
                        senders[corrupt],
                        receivers[corrupt],
                    )
                    counters["corrupted_edges"] += int(corrupt.size)
                if policy.quarantine_non_finite:
                    finite = history_finite[source]
                    if corrupt.size:
                        finite[corrupt] = np.isfinite(damaged).all(axis=1)
                    bad = delivered & ~finite
                    counters["quarantined"] += int(bad.sum())
                    delivered &= ~bad
                dropped_now = int(dropped.sum())
                counters["dropped_edges"] += dropped_now
                counters["delayed_edges"] += int((delivered & (delay > 0)).sum())
                newly, reinstated = liveness.observe(t, delivered)
                counters["suspected_edge_events"] += newly
                counters["reinstated_edge_events"] += reinstated
                # Freshest-wins buffer update.
                fresh = delivered & (origin > edge_round)
                upd = np.flatnonzero(fresh)
                table[n + upd] = history.take(source[upd], axis=0)
                if corrupt.size:
                    stored = fresh[corrupt]
                    table[n + corrupt[stored]] = damaged[stored]
                edge_round[upd] = origin[upd]
                live = (edge_round >= 0) & (t - edge_round <= policy.max_staleness)
                counters["stale_reuses"] += int((live & (edge_round < t)).sum())
                down = model.down_mask(t, n)
                counters["frozen_agent_rounds"] += int(down.sum())

                k_live = np.bincount(receivers[live], minlength=n)
                feasible = (1 + k_live) >= (2 * budgets + 1)
                counters["degraded_agent_rounds"] += int(
                    (~feasible[honest_arr] & ~down[honest_arr]).sum()
                )
                plan = _mix_plan(
                    k_live, budgets, feasible & (k_live > 0) & ~down,
                    n + np.flatnonzero(live),
                )
            else:
                counters["degraded_agent_rounds"] += degraded_per_round

            # 3. Grouped mixing; agents outside the plan (degraded, frozen
            # or isolated) keep their own state.
            mix = X.copy()
            for members, rows, f_local in plan:
                mix[members] = _group_mix(
                    table.take(rows, axis=0), f_local, aggregation
                )

            # 4. Projected gradient step at the mixed point (frozen agents
            # hold their state).
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
                    # Per-agent/per-edge health time-series: the live
                    # in-degree each agent actually saw, who fell below
                    # its 2f_i+1 redundancy floor, and which links
                    # changed suspicion state this round. Consumed by
                    # the agent_health anomaly pass in perf/traces.py.
                    tel.emit(
                        "agent_health",
                        round=t,
                        live_in_degree=k_live.tolist(),
                        degraded=np.flatnonzero(~feasible & ~down).tolist(),
                        frozen=np.flatnonzero(down).tolist(),
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
