"""Peer-to-peer filtered DGD via Byzantine broadcast.

In the peer-to-peer architecture there is no trusted server: every agent
maintains its own estimate and, each round, broadcasts its gradient with the
authenticated Byzantine broadcast primitive. Because broadcast guarantees
that all honest agents deliver the *same* vector per sender, and the filter
and update rule are deterministic, all honest agents evolve identical
estimates — effectively each honest agent locally simulates the server.
Feasibility requires ``f < n/3`` (validated up front).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.exceptions import ProtocolViolationError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.broadcast import EquivocatingSender, byzantine_broadcast
from repro.system.faultinjection import KeyedDraws
from repro.system.netfaults import NetworkFaultModel, corrupt_gradient
from repro.system.runner import _check_run_inputs, _schedule_projection_start
from repro.system.server import record_filter_round
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fault_bound, check_vector


@dataclass
class PeerExecutionResult:
    """Outcome of a peer-to-peer DGD execution.

    Attributes
    ----------
    estimates:
        ``(T + 1, d)`` trajectory of the (common) honest estimate.
    per_agent_final:
        Final estimate of each honest agent — asserted identical, retained
        as evidence.
    broadcast_messages:
        Total point-to-point messages spent in broadcasts (the cost of
        removing the server).
    agreement_verified:
        Whether honest estimates were checked equal every round.
    """

    estimates: np.ndarray
    honest_ids: List[int]
    faulty_ids: List[int]
    per_agent_final: Dict[int, np.ndarray]
    broadcast_messages: int
    wall_time: float
    agreement_verified: bool = True
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def final_estimate(self) -> np.ndarray:
        return self.estimates[-1].copy()

    def distances_to(self, point) -> np.ndarray:
        point = check_vector(point, dimension=self.estimates.shape[1], name="point")
        return np.linalg.norm(self.estimates - point, axis=1)


def _degrade_agreed_rows(
    rows: List[np.ndarray],
    t: int,
    model: NetworkFaultModel,
    in_flight: List,
    last_agreed: Dict[int, tuple],
    counters: Dict[str, int],
    dimension: int,
) -> List[np.ndarray]:
    """Apply the fault model to one round's agreed broadcast values.

    Works on the broadcast *outcomes* — by then every honest agent holds
    the same per-sender vector, and every fault draw below is a pure
    function of ``(model seed, "p2p", sender, round)``, so all honest
    agents degrade the matrix identically and agreement survives. A
    sender's value can be lost for the round, delayed a bounded number of
    rounds, or corrupted; consumers fall back to the sender's last agreed
    value up to ``model.staleness_bound()`` rounds old and to the zero
    vector (the protocol's ⊥ convention) beyond that, and quarantine
    non-finite arrivals when the model corrupts. Duplicated deliveries are
    inherently idempotent here — re-delivering an agreed value changes
    nothing — so duplication needs no handling.
    """
    seed = model.seed
    max_staleness = model.staleness_bound()
    quarantine = model.corrupts
    for sender, value in enumerate(rows):
        profile = model.profile(sender)
        key = ("p2p", sender, t)
        if profile.is_down(t):
            counters["dropped"] += 1
            continue
        draws = KeyedDraws(seed, *key) if profile.is_random else None
        if profile.drop_prob > 0 and draws.draw("drop") < profile.drop_prob:
            counters["dropped"] += 1
            continue
        if profile.corrupt_prob > 0 and draws.draw("corrupt") < profile.corrupt_prob:
            value = corrupt_gradient(value, profile.corrupt_mode, seed, *key)
            counters["corrupted"] += 1
        delay = 0
        if profile.straggles_at(t):
            delay += profile.straggle_delay
        if profile.delay_prob > 0 and draws.draw("delay") < profile.delay_prob:
            delay += draws.choice(1, profile.max_delay, "delay-len")
        if delay > 0:
            counters["delayed"] += 1
        in_flight.append((t + delay, t, sender, value))

    arrivals: Dict[int, tuple] = {}
    remaining = []
    for due, origin, sender, value in in_flight:
        if due <= t:
            best = arrivals.get(sender)
            if best is None or origin > best[0]:
                arrivals[sender] = (origin, value)
        else:
            remaining.append((due, origin, sender, value))
    in_flight[:] = remaining

    for sender, (origin, value) in arrivals.items():
        if quarantine and not np.all(np.isfinite(value)):
            counters["quarantined"] += 1
            continue
        prev = last_agreed.get(sender)
        if prev is None or origin > prev[0]:
            last_agreed[sender] = (origin, value)

    degraded: List[np.ndarray] = []
    for sender in range(len(rows)):
        entry = last_agreed.get(sender)
        if entry is not None and t - entry[0] <= max_staleness:
            if entry[0] < t:
                counters["stale_reuses"] += 1
            degraded.append(entry[1])
        else:
            counters["zero_filled"] += 1
            degraded.append(np.zeros(dimension))
    return degraded


def run_peer_to_peer_dgd(
    costs: Sequence[CostFunction],
    gradient_filter: GradientFilter,
    faulty_ids: Sequence[int] = (),
    behavior: Optional[ByzantineBehavior] = None,
    iterations: int = 100,
    step_sizes: Optional[StepSizeSchedule] = None,
    projection: Optional[ConvexSet] = None,
    x0=None,
    seed: SeedLike = 0,
    equivocate: bool = True,
    telemetry: TelemetryLike = None,
    fault_model: Optional[NetworkFaultModel] = None,
) -> PeerExecutionResult:
    """Run filtered DGD in the peer-to-peer architecture.

    Parameters
    ----------
    costs:
        All ``n`` agents' local costs.
    gradient_filter:
        The deterministic filter every honest agent applies locally.
    faulty_ids / behavior:
        Byzantine agents and their gradient-forging strategy.
    iterations:
        Number of rounds ``T``, a non-negative integer (``0`` records
        ``x0`` only).
    step_sizes / projection / x0 / seed:
        As for :func:`~repro.system.runner.run_dgd`, with the same
        defaults, checks and warnings; ``seed`` seeds the adversary and
        the broadcast simulation.
    equivocate:
        When ``True``, faulty broadcasters additionally *equivocate* inside
        the broadcast primitive (sending different vectors to different
        peers); the primitive must — and does — still force a consistent
        delivered value.
    telemetry:
        Optional :class:`~repro.observability.Telemetry` handle (or JSONL
        path), defaulting to the no-op. Emits ``"round"``/``"broadcast"``/
        ``"filter"`` spans and a per-round record of the filter's
        kept/eliminated senders on the *delivered* (post-broadcast)
        gradient matrix — the matrix every honest agent filters locally.
    fault_model:
        Optional :class:`~repro.system.netfaults.NetworkFaultModel`
        degrading the *outcome* of each sender's broadcast: the agreed
        value may be lost for the round (drop / crash window), arrive a
        bounded number of rounds late (delay / straggle schedule), or be
        corrupted in flight. Every fault draw is a pure function of
        ``(model seed, "p2p", sender, round)`` — identical at every honest
        agent — so broadcast agreement is preserved by construction. A
        ``None`` or null model reproduces the fault-free execution
        bit-for-bit. Under faults each honest agent reuses a sender's last
        agreed gradient up to the model's ``staleness_bound()`` rounds old
        and zero-fills beyond (the protocol's deterministic ⊥ convention),
        and, when the model corrupts, quarantines non-finite agreed values
        at the message boundary.
    """
    costs, dimension, faulty = _check_run_inputs(costs, behavior, iterations, faulty_ids)
    n = len(costs)
    f = len(faulty)
    check_fault_bound(n, f, architecture="peer")
    honest = [i for i in range(n) if i not in faulty]
    rng = ensure_rng(seed)
    schedule, constraint, start_point = _schedule_projection_start(
        costs, dimension, gradient_filter, step_sizes, projection, x0
    )

    # Each honest agent's local estimate; initialized identically (the
    # common x0 is itself agreed via one broadcast in a real deployment).
    local: Dict[int, np.ndarray] = {i: constraint.project(start_point) for i in honest}
    estimates = np.empty((iterations + 1, dimension))
    estimates[0] = local[honest[0]]
    broadcast_messages = 0

    in_flight: List = []
    last_agreed: Dict[int, tuple] = {}
    overlay_counters = {
        "dropped": 0,
        "delayed": 0,
        "corrupted": 0,
        "quarantined": 0,
        "stale_reuses": 0,
        "zero_filled": 0,
    }

    tel = ensure_telemetry(telemetry)
    if tel:
        tel.annotate(byzantine_ids=faulty)

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(iterations):
            with tel.span("round"):
                reference = local[honest[0]]
                # One gradient per honest agent and round: the attack context
                # sees exactly the payload that agent broadcasts.
                payloads = {i: costs[i].gradient(local[i]) for i in honest}
                honest_gradients = np.stack(list(payloads.values()))
                # Faulty agents forge gradients knowing the honest ones (rushing).
                forged: Dict[int, np.ndarray] = {}
                if faulty:
                    context = AttackContext(
                        round_index=t,
                        estimate=reference,
                        honest_gradients=honest_gradients,
                        honest_ids=honest,
                        faulty_ids=faulty,
                        faulty_costs=[costs[i] for i in faulty],
                        rng=rng,
                    )
                    matrix = behavior(context)
                    forged = {agent: matrix[row] for row, agent in enumerate(faulty)}

                delivered_rows: List[np.ndarray] = []
                with tel.span("broadcast"):
                    for sender in range(n):
                        if sender in forged and equivocate and f > 0:
                            # The faulty sender equivocates between its forged vector
                            # and an opposite decoy; broadcast resolves it consistently.
                            strategy = EquivocatingSender(forged[sender], -forged[sender])
                            result = byzantine_broadcast(
                                n, f, sender, value=None, faulty=faulty, sender_strategy=strategy, rng=rng
                            )
                        else:
                            payload = forged[sender] if sender in forged else payloads[sender]
                            result = byzantine_broadcast(n, f, sender, payload, faulty=faulty, rng=rng)
                        broadcast_messages += result.messages_sent
                        agreed = result.agreed_value
                        # ⊥ is replaced by the zero vector by protocol convention — a
                        # deterministic rule every honest agent applies identically.
                        delivered_rows.append(np.zeros(dimension) if agreed is None else agreed)

                if fault_model is not None:
                    delivered_rows = _degrade_agreed_rows(
                        delivered_rows,
                        t,
                        fault_model,
                        in_flight,
                        last_agreed,
                        overlay_counters,
                        dimension,
                    )
                gradients = np.stack(delivered_rows)
                with tel.span("filter"):
                    direction = gradient_filter(gradients)
                eta = schedule(t)
                for agent in honest:
                    local[agent] = constraint.project(local[agent] - eta * direction)
                # Agreement audit: all honest estimates must coincide exactly.
                baseline = local[honest[0]]
                for agent in honest[1:]:
                    if not np.array_equal(local[agent], baseline):
                        raise ProtocolViolationError(
                            "honest estimates diverged in peer-to-peer execution"
                        )
                estimates[t + 1] = baseline
                if tel:
                    record_filter_round(tel, t, gradient_filter, gradients, eta, baseline)
    elapsed = time.perf_counter() - start

    extra: Dict[str, object] = {}
    if fault_model is not None:
        extra["degraded"] = dict(overlay_counters)
        extra["max_staleness"] = fault_model.staleness_bound()
    return PeerExecutionResult(
        estimates=estimates,
        honest_ids=honest,
        faulty_ids=faulty,
        per_agent_final={i: local[i].copy() for i in honest},
        broadcast_messages=broadcast_messages,
        wall_time=elapsed,
        extra=extra,
    )
