"""Reference implementations of Dolev–Strong broadcast and peer-to-peer DGD.

Frozen copies of the straightforward simulator that
:func:`repro.system.broadcast.byzantine_broadcast` and
:func:`repro.system.peer_to_peer.run_peer_to_peer_dgd` optimize: the
broadcast queues one ``(recipient, message)`` pair per point-to-point
message and hashes the value at every honest recipient, and the
peer-to-peer loop computes each honest gradient twice per round (once
for the attack context, once as the broadcast payload). The optimized
code delivers the same messages in the same order, so
``tests/test_broadcast_reference.py`` requires the two to agree byte for
byte. Keep this module unchanged when the simulator changes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import BoxSet, ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.broadcast import (
    BroadcastResult,
    ByzantineSenderStrategy,
    EquivocatingSender,
    SignedMessage,
)
from repro.system.healing import ResiliencePolicy
from repro.system.netfaults import NetworkFaultModel
from repro.system.peer_to_peer import PeerExecutionResult, _degrade_agreed_rows
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fault_bound, check_vector


def _key(value: np.ndarray) -> bytes:
    return np.ascontiguousarray(value).tobytes()


def reference_byzantine_broadcast(
    n: int,
    f: int,
    sender: int,
    value: Optional[np.ndarray],
    faulty: Sequence[int] = (),
    sender_strategy: Optional[ByzantineSenderStrategy] = None,
    relay_withholding: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> BroadcastResult:
    """One Dolev–Strong broadcast, one queue entry per recipient."""
    check_fault_bound(n, f, architecture="peer")
    faulty_set: Set[int] = set(int(i) for i in faulty)
    if len(faulty_set) > f:
        raise InvalidParameterError(f"{len(faulty_set)} faulty nodes exceed f={f}")
    if not 0 <= sender < n:
        raise InvalidParameterError(f"sender {sender} out of range")
    honest = [i for i in range(n) if i not in faulty_set]
    rounds = f + 1
    messages_sent = 0

    # extracted[node] maps value-key -> value; honest nodes relay new values.
    extracted: Dict[int, Dict[bytes, np.ndarray]] = {i: {} for i in honest}
    # Messages scheduled for delivery at the start of each round.
    pending: Dict[int, List[Tuple[int, SignedMessage]]] = {r: [] for r in range(1, rounds + 2)}
    # Everything the adversary has seen (valid chains addressed to faulty nodes).
    adversary_pool: List[SignedMessage] = []

    # --- Round 1: the sender speaks. ---
    if sender in faulty_set and sender_strategy is not None:
        initial = sender_strategy.initial_messages(sender, list(range(n)), rng)
        for node, sent_value in initial.items():
            if sent_value is None:
                continue
            message = SignedMessage(np.asarray(sent_value, dtype=float), (sender,))
            pending[1].append((node, message))
            messages_sent += 1
    else:
        if value is None:
            raise InvalidParameterError("an honest sender needs an input value")
        payload = check_vector(value, name="value")
        for node in range(n):
            pending[1].append((node, SignedMessage(payload, (sender,))))
            messages_sent += 1

    # --- Rounds 1 .. f+1: relay with signature chains. ---
    for round_index in range(1, rounds + 1):
        deliveries = pending[round_index]
        for node, message in deliveries:
            if len(message.chain) != round_index or message.chain[0] != sender:
                raise ProtocolViolationError("malformed signature chain in simulator")
            if node in faulty_set:
                adversary_pool.append(message)
                continue
            store = extracted.get(node)
            if store is None:
                continue
            key = _key(message.value)
            if key in store:
                continue
            store[key] = message.value
            # Honest relay: sign and forward to everyone next round.
            if round_index < rounds and node != sender and node not in message.chain:
                relayed = message.extended_by(node)
                for other in range(n):
                    if other != node:
                        pending[round_index + 1].append((other, relayed))
                        messages_sent += 1
        # Faulty relays: withhold until the last round, then reveal to a
        # minority of honest nodes — the adversarial schedule Dolev-Strong
        # is designed to defeat.
        if relay_withholding and round_index == rounds - 1 and adversary_pool:
            revealed = adversary_pool[-1]
            signers = [i for i in faulty_set if i not in revealed.chain]
            chain_message = revealed
            for signer in signers:
                if len(chain_message.chain) >= rounds:
                    break
                chain_message = chain_message.extended_by(signer)
            if len(chain_message.chain) == rounds:
                for node in honest[: max(len(honest) // 2, 1)]:
                    pending[rounds].append((node, chain_message))
                    messages_sent += 1

    # --- Delivery decision. ---
    delivered: Dict[int, Optional[np.ndarray]] = {}
    for node in honest:
        values = list(extracted[node].values())
        delivered[node] = values[0].copy() if len(values) == 1 else None

    witness = delivered[honest[0]]
    for node in honest[1:]:
        other = delivered[node]
        same = (witness is None and other is None) or (
            witness is not None and other is not None and np.array_equal(witness, other)
        )
        if not same:
            raise ProtocolViolationError(
                "Byzantine broadcast violated agreement — simulator bug"
            )
    return BroadcastResult(
        delivered=delivered,
        agreed_value=None if witness is None else witness.copy(),
        rounds=rounds,
        messages_sent=messages_sent,
    )


def reference_run_peer_to_peer_dgd(
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
    resilience: Optional["ResiliencePolicy"] = None,
) -> PeerExecutionResult:
    """Peer-to-peer filtered DGD over :func:`reference_byzantine_broadcast`."""
    costs = list(costs)
    n = len(costs)
    faulty = sorted(set(int(i) for i in faulty_ids))
    if any(i < 0 or i >= n for i in faulty):
        raise InvalidParameterError(
            f"faulty_ids must lie in [0, {n}), got {faulty}"
        )
    f = len(faulty)
    check_fault_bound(n, f, architecture="peer")
    if faulty and behavior is None:
        raise InvalidParameterError("faulty agents configured but no behavior given")
    if iterations <= 0:
        raise InvalidParameterError(f"iterations must be positive, got {iterations}")
    dimension = costs[0].dimension
    honest = [i for i in range(n) if i not in faulty]
    rng = ensure_rng(seed)
    from repro.system.runner import _default_schedule

    schedule = step_sizes or _default_schedule(costs, gradient_filter)
    constraint = projection or BoxSet.centered(dimension, 1000.0)
    start_point = (
        np.zeros(dimension) if x0 is None else check_vector(x0, dimension=dimension, name="x0")
    )

    local: Dict[int, np.ndarray] = {i: constraint.project(start_point) for i in honest}
    estimates = np.empty((iterations + 1, dimension))
    estimates[0] = local[honest[0]]
    broadcast_messages = 0

    policy: Optional[ResiliencePolicy] = None
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
    if fault_model is not None:
        policy = (
            resilience
            if resilience is not None
            else ResiliencePolicy.for_model(fault_model)
        )

    tel = ensure_telemetry(telemetry)
    if tel:
        tel.annotate(byzantine_ids=faulty)

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(iterations):
            with tel.span("round"):
                reference = local[honest[0]]
                honest_gradients = np.stack([costs[i].gradient(local[i]) for i in honest])
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
                            result = reference_byzantine_broadcast(
                                n, f, sender, value=None, faulty=faulty, sender_strategy=strategy, rng=rng
                            )
                        else:
                            payload = (
                                forged[sender]
                                if sender in forged
                                else costs[sender].gradient(local[sender])
                            )
                            result = reference_byzantine_broadcast(n, f, sender, payload, faulty=faulty, rng=rng)
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
                        policy,
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
                matrix = gradient_filter.sanitize(gradients)
                kept_rows = (
                    gradient_filter.kept_indices(matrix)
                    if hasattr(gradient_filter, "kept_indices")
                    else None
                )
                tel.record_round(
                    round_index=t,
                    filter_name=getattr(
                        gradient_filter, "name", type(gradient_filter).__name__
                    ),
                    step_size=eta,
                    gradient_norms=np.linalg.norm(matrix, axis=1),
                    kept_ids=kept_rows,
                    estimate=baseline,
                )
    elapsed = time.perf_counter() - start

    extra: Dict[str, object] = {}
    if fault_model is not None:
        extra["degraded"] = dict(overlay_counters)
        extra["max_staleness"] = policy.max_staleness
    return PeerExecutionResult(
        estimates=estimates,
        honest_ids=honest,
        faulty_ids=faulty,
        per_agent_final={i: local[i].copy() for i in honest},
        broadcast_messages=broadcast_messages,
        wall_time=elapsed,
        extra=extra,
    )
