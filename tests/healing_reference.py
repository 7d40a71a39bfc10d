"""Reference implementations of the message-level simulator's network layer.

Frozen copies of the straightforward code that the server-path simulator
optimizes:

- the SHA-256 fault draws, which rebuild their key string for every draw
  (``reference_deterministic_draw`` and ``reference_deterministic_choice``);
- the synchronous network, which builds a frozen ``DeliveryRecord`` per
  message as it delivers it;
- the partially-synchronous network, which keeps all in-flight copies in
  one list and rescans it for every receiver;
- ``write_json_atomic``, which streams the document through ``json.dump``;
- the checkpoint writer, which re-encodes the whole trajectory prefix
  every time, under the fingerprint of the instance, seed, filter,
  placement and fault seed only;
- the peer-to-peer fault overlay ``_degrade_agreed_rows``;
- the two ``run_dgd`` loops that drive them.

Everything else (servers, agents, adversary, filters, the checkpoint
reader) is the production code. ``tests/test_healing_reference.py``
requires the optimized simulator to agree with these byte for byte. Keep
this module unchanged when the simulator changes; a change that merges the
server loops can run these loops as its oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.aggregators.registry import make_filter
from repro.attacks.base import ByzantineBehavior
from repro.exceptions import InvalidParameterError
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import BoxSet, ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.adversary import Adversary
from repro.system.agents import Agent, CrashAgent, HonestAgent
from repro.system.healing import ResiliencePolicy, ResilientDGDServer
from repro.system.messages import (
    SERVER_ID,
    EstimateBroadcast,
    GradientMessage,
    Message,
)
from repro.system.netfaults import (
    CORRUPTION_MODES,
    FaultProfile,
    NetworkFaultModel,
)
from repro.system.network import DeliveryRecord
from repro.system.runner import (
    DGDConfig,
    Trace,
    _default_schedule,
    _load_checkpoint,
    apply_config_overrides,
)
from repro.system.server import DGDServer, fixed_filter_factory
from repro.utils.atomicio import CHECKSUM_KEY, PAYLOAD_KEY, payload_checksum
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_probability, check_vector


# ----------------------------------------------------------------------
# Fault draws
# ----------------------------------------------------------------------


def reference_deterministic_draw(seed: int, *key) -> float:
    material = ":".join(str(part) for part in (seed, *key))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def reference_deterministic_choice(seed: int, low: int, high: int, *key) -> int:
    if high < low:
        raise InvalidParameterError(f"empty choice range [{low}, {high}]")
    span = high - low + 1
    return low + int(reference_deterministic_draw(seed, "choice", *key) * span) % span


def reference_corrupt_gradient(
    gradient: np.ndarray, mode: str, seed: int, *key
) -> np.ndarray:
    if mode not in CORRUPTION_MODES:
        raise InvalidParameterError(
            f"mode must be one of {CORRUPTION_MODES}, got {mode!r}"
        )
    damaged = np.array(gradient, dtype=float, copy=True)
    if damaged.size == 0:
        return damaged
    position = reference_deterministic_choice(
        seed, 0, damaged.size - 1, "corrupt-pos", *key
    )
    if mode == "nan":
        damaged[position] = np.nan
    elif mode == "inf":
        sign = (
            1.0 if reference_deterministic_draw(seed, "corrupt-sign", *key) < 0.5 else -1.0
        )
        damaged[position] = sign * np.inf
    else:  # bitflip
        bit = reference_deterministic_choice(seed, 0, 63, "corrupt-bit", *key)
        bits = damaged.view(np.uint64)
        bits[position] ^= np.uint64(1) << np.uint64(bit)
    return damaged


# ----------------------------------------------------------------------
# Networks
# ----------------------------------------------------------------------


class ReferenceSynchronousNetwork:
    """``SynchronousNetwork`` with one ``DeliveryRecord`` built per message."""

    def __init__(
        self,
        drop_probabilities: Optional[Dict[int, float]] = None,
        rng=None,
        log_capacity: int = 10_000,
    ):
        if log_capacity <= 0:
            raise InvalidParameterError(f"log_capacity must be positive, got {log_capacity}")
        self._drop_probabilities = {
            int(k): check_probability(v, name=f"drop_probabilities[{k}]")
            for k, v in (drop_probabilities or {}).items()
        }
        self._rng = rng
        self._log: Deque[DeliveryRecord] = deque(maxlen=int(log_capacity))
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._bytes_delivered = 0
        self._bytes_dropped = 0
        self._records_seen = 0
        self._eviction_warned = False

    @property
    def messages_delivered(self) -> int:
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        return self._messages_dropped

    @property
    def bytes_delivered(self) -> int:
        return self._bytes_delivered

    @property
    def bytes_dropped(self) -> int:
        return self._bytes_dropped

    def traffic_summary(self) -> Dict[str, int]:
        return {
            "messages_delivered": self._messages_delivered,
            "messages_dropped": self._messages_dropped,
            "bytes_delivered": self._bytes_delivered,
            "bytes_dropped": self._bytes_dropped,
        }

    @property
    def log_capacity(self) -> int:
        return self._log.maxlen

    @property
    def records_evicted(self) -> int:
        return self._records_seen - len(self._log)

    @property
    def log(self) -> List[DeliveryRecord]:
        if self.records_evicted > 0 and not self._eviction_warned:
            self._eviction_warned = True
            warnings.warn(
                f"network delivery log overflowed: {self.records_evicted} of "
                f"{self._records_seen} records were evicted (capacity "
                f"{self._log.maxlen}); raise log_capacity (e.g. via "
                "DGDConfig.log_capacity) to retain the full history",
                stacklevel=2,
            )
        return list(self._log)

    def _should_drop(self, sender: int) -> bool:
        probability = self._drop_probabilities.get(sender, 0.0)
        if probability <= 0.0:
            return False
        if self._rng is None:
            raise InvalidParameterError(
                "drop probabilities configured but no rng supplied to the network"
            )
        return bool(self._rng.random() < probability)

    def deliver(self, message: Message, receiver: int) -> Optional[Message]:
        dropped = self._should_drop(message.sender)
        record = DeliveryRecord(
            round_index=message.round_index,
            sender=message.sender,
            receiver=int(receiver),
            message_type=type(message).__name__,
            size_bytes=message.size_bytes(),
            dropped=dropped,
        )
        self._log.append(record)
        self._records_seen += 1
        if dropped:
            self._messages_dropped += 1
            self._bytes_dropped += record.size_bytes
            return None
        self._messages_delivered += 1
        self._bytes_delivered += record.size_bytes
        return message

    def broadcast(self, message: Message, receivers: Iterable[int]) -> Dict[int, Message]:
        delivered: Dict[int, Message] = {}
        for receiver in receivers:
            result = self.deliver(message, receiver)
            if result is not None:
                delivered[int(receiver)] = result
        return delivered

    def gather(self, messages: Iterable[Message], receiver: int) -> List[Message]:
        received: List[Message] = []
        for message in messages:
            result = self.deliver(message, receiver)
            if result is not None:
                received.append(result)
        return received


@dataclass(frozen=True)
class _InFlight:
    due: int
    receiver: int
    sequence: int
    message: Message
    copy_index: int = 0


class ReferencePartiallySynchronousNetwork(ReferenceSynchronousNetwork):
    """``PartiallySynchronousNetwork`` with one queue rescanned per receiver."""

    def __init__(
        self,
        fault_model: Optional[NetworkFaultModel] = None,
        log_capacity: int = 10_000,
    ):
        super().__init__(drop_probabilities=None, rng=None, log_capacity=log_capacity)
        self._model = fault_model if fault_model is not None else NetworkFaultModel()
        self._queue: List[_InFlight] = []
        self._sequence = 0
        self._messages_delayed = 0
        self._messages_duplicated = 0
        self._messages_corrupted = 0

    @property
    def fault_model(self) -> NetworkFaultModel:
        return self._model

    @property
    def messages_delayed(self) -> int:
        return self._messages_delayed

    @property
    def messages_duplicated(self) -> int:
        return self._messages_duplicated

    @property
    def messages_corrupted(self) -> int:
        return self._messages_corrupted

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def traffic_summary(self) -> Dict[str, int]:
        summary = super().traffic_summary()
        summary.update(
            messages_delayed=self._messages_delayed,
            messages_duplicated=self._messages_duplicated,
            messages_corrupted=self._messages_corrupted,
        )
        return summary

    def _endpoint_profile(self, message: Message, receiver: int) -> Tuple[int, FaultProfile]:
        endpoint = message.sender if message.sender >= 0 else int(receiver)
        return endpoint, self._model.profile(endpoint)

    def _record_drop(self, message: Message, receiver: int) -> None:
        record = DeliveryRecord(
            round_index=message.round_index,
            sender=message.sender,
            receiver=int(receiver),
            message_type=type(message).__name__,
            size_bytes=message.size_bytes(),
            dropped=True,
        )
        self._log.append(record)
        self._records_seen += 1
        self._messages_dropped += 1
        self._bytes_dropped += record.size_bytes

    def submit(self, message: Message, receiver: int, current_round: int) -> None:
        endpoint, profile = self._endpoint_profile(message, receiver)
        key = (endpoint, int(receiver), message.sender, message.round_index, current_round)
        seed = self._model.seed

        if profile.is_down(current_round):
            self._record_drop(message, receiver)
            return
        if (
            profile.drop_prob > 0
            and reference_deterministic_draw(seed, "drop", *key) < profile.drop_prob
        ):
            self._record_drop(message, receiver)
            return

        delay = 0
        if profile.straggle_every > 0 and message.sender >= 0 and profile.straggles_at(current_round):
            delay += profile.straggle_delay
        if (
            profile.delay_prob > 0
            and reference_deterministic_draw(seed, "delay", *key) < profile.delay_prob
        ):
            delay += reference_deterministic_choice(
                seed, 1, profile.max_delay, "delay-len", *key
            )
        if delay > 0:
            self._messages_delayed += 1

        payload = message
        if (
            profile.corrupt_prob > 0
            and isinstance(message, GradientMessage)
            and reference_deterministic_draw(seed, "corrupt", *key) < profile.corrupt_prob
        ):
            payload = GradientMessage(
                sender=message.sender,
                round_index=message.round_index,
                gradient=reference_corrupt_gradient(
                    message.gradient, profile.corrupt_mode, seed, *key
                ),
            )
            self._messages_corrupted += 1

        self._enqueue(payload, receiver, current_round + delay, copy_index=0)

        if (
            profile.duplicate_prob > 0
            and reference_deterministic_draw(seed, "dup", *key) < profile.duplicate_prob
        ):
            extra = 0
            if profile.max_delay > 0:
                extra = reference_deterministic_choice(
                    seed, 0, profile.max_delay, "dup-delay", *key
                )
            self._messages_duplicated += 1
            self._enqueue(payload, receiver, current_round + delay + extra, copy_index=1)

    def _enqueue(self, message: Message, receiver: int, due: int, copy_index: int) -> None:
        self._queue.append(
            _InFlight(
                due=int(due),
                receiver=int(receiver),
                sequence=self._sequence,
                message=message,
                copy_index=copy_index,
            )
        )
        self._sequence += 1

    def collect(self, receiver: int, current_round: int) -> List[Message]:
        receiver = int(receiver)
        due = [e for e in self._queue if e.receiver == receiver and e.due <= current_round]
        if not due:
            return []
        self._queue = [
            e for e in self._queue if not (e.receiver == receiver and e.due <= current_round)
        ]
        due.sort(key=lambda e: (e.message.round_index, e.message.sender, e.sequence))
        if self._model.reorder and len(due) > 1:
            order = sorted(
                range(len(due)),
                key=lambda i: reference_deterministic_draw(
                    self._model.seed, "reorder", current_round, receiver, i
                ),
            )
            due = [due[i] for i in order]
        released: List[Message] = []
        for entry in due:
            record = DeliveryRecord(
                round_index=entry.message.round_index,
                sender=entry.message.sender,
                receiver=receiver,
                message_type=type(entry.message).__name__,
                size_bytes=entry.message.size_bytes(),
                dropped=False,
            )
            self._log.append(record)
            self._records_seen += 1
            self._messages_delivered += 1
            self._bytes_delivered += record.size_bytes
            released.append(entry.message)
        return released

    def state(self) -> Dict:
        return {
            "sequence": self._sequence,
            "queue": [
                {
                    "due": e.due,
                    "receiver": e.receiver,
                    "sequence": e.sequence,
                    "copy_index": e.copy_index,
                    "kind": type(e.message).__name__,
                    "sender": e.message.sender,
                    "round_index": e.message.round_index,
                    "payload": self._payload_of(e.message),
                }
                for e in self._queue
            ],
            "counters": {
                "messages_delivered": self._messages_delivered,
                "messages_dropped": self._messages_dropped,
                "bytes_delivered": self._bytes_delivered,
                "bytes_dropped": self._bytes_dropped,
                "messages_delayed": self._messages_delayed,
                "messages_duplicated": self._messages_duplicated,
                "messages_corrupted": self._messages_corrupted,
                "records_seen": self._records_seen,
            },
        }

    @staticmethod
    def _payload_of(message: Message) -> Optional[List]:
        if isinstance(message, GradientMessage):
            return [float(v).hex() for v in np.asarray(message.gradient, dtype=float)]
        if isinstance(message, EstimateBroadcast):
            return [float(v).hex() for v in np.asarray(message.estimate, dtype=float)]
        return None

    def restore_state(self, state: Dict) -> None:
        self._sequence = int(state["sequence"])
        counters = state["counters"]
        self._messages_delivered = int(counters["messages_delivered"])
        self._messages_dropped = int(counters["messages_dropped"])
        self._bytes_delivered = int(counters["bytes_delivered"])
        self._bytes_dropped = int(counters["bytes_dropped"])
        self._messages_delayed = int(counters["messages_delayed"])
        self._messages_duplicated = int(counters["messages_duplicated"])
        self._messages_corrupted = int(counters["messages_corrupted"])
        self._records_seen = int(counters["records_seen"])
        queue: List[_InFlight] = []
        for entry in state["queue"]:
            payload = (
                None
                if entry["payload"] is None
                else np.array([float.fromhex(v) for v in entry["payload"]])
            )
            if entry["kind"] == "GradientMessage":
                message: Message = GradientMessage(
                    sender=entry["sender"],
                    round_index=entry["round_index"],
                    gradient=payload,
                )
            elif entry["kind"] == "EstimateBroadcast":
                message = EstimateBroadcast(
                    sender=entry["sender"],
                    round_index=entry["round_index"],
                    estimate=payload,
                )
            else:
                raise InvalidParameterError(
                    f"cannot restore in-flight message of kind {entry['kind']!r}"
                )
            queue.append(
                _InFlight(
                    due=int(entry["due"]),
                    receiver=int(entry["receiver"]),
                    sequence=int(entry["sequence"]),
                    message=message,
                    copy_index=int(entry["copy_index"]),
                )
            )
        self._queue = queue


# ----------------------------------------------------------------------
# Atomic writes and checkpoints
# ----------------------------------------------------------------------


def reference_write_json_atomic(path: str, payload, checksum: bool = True) -> str:
    document = payload
    if checksum:
        document = {CHECKSUM_KEY: payload_checksum(payload), PAYLOAD_KEY: payload}
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    os.replace(tmp_path, path)
    return path


_CHECKPOINT_VERSION = 1


def _hex_matrix(matrix: np.ndarray) -> List[List[str]]:
    return [[float(v).hex() for v in row] for row in np.asarray(matrix, dtype=float)]


def _unhex_matrix(rows: List[List[str]]) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def reference_checkpoint_fingerprint(
    config: DGDConfig,
    n: int,
    f: int,
    dimension: int,
    faulty_ids: Sequence[int],
    crash_rounds: Dict[int, int],
    filter_name: str,
) -> Dict:
    return {
        "n": int(n),
        "f": int(f),
        "d": int(dimension),
        "seed": repr(config.seed),
        "filter": filter_name,
        "faulty_ids": [int(i) for i in faulty_ids],
        "crash_rounds": {str(k): int(v) for k, v in sorted(crash_rounds.items())},
        "fault_seed": None if config.fault_model is None else config.fault_model.seed,
    }


def reference_write_checkpoint(
    path: str,
    fingerprint: Dict,
    completed_rounds: int,
    server: ResilientDGDServer,
    network: ReferencePartiallySynchronousNetwork,
    adversary: Optional[Adversary],
    agents: Dict[int, Agent],
    estimates: np.ndarray,
    directions: np.ndarray,
) -> None:
    adversary_state = None
    if adversary is not None:
        adversary_state = adversary._rng.bit_generator.state
    payload = {
        "version": _CHECKPOINT_VERSION,
        "fingerprint": fingerprint,
        "round": int(completed_rounds),
        "server": server.checkpoint(),
        "network": network.state(),
        "adversary_rng": adversary_state,
        "agents": {
            str(agent_id): agent.crashed
            for agent_id, agent in agents.items()
            if isinstance(agent, CrashAgent)
        },
        "estimates": _hex_matrix(estimates[: completed_rounds + 1]),
        "directions": _hex_matrix(directions[:completed_rounds]),
    }
    reference_write_json_atomic(path, payload)


# ----------------------------------------------------------------------
# The peer-to-peer fault overlay
# ----------------------------------------------------------------------


def reference_degrade_agreed_rows(
    rows: List[np.ndarray],
    t: int,
    model: NetworkFaultModel,
    policy: ResiliencePolicy,
    in_flight: List,
    last_agreed: Dict[int, tuple],
    counters: Dict[str, int],
    dimension: int,
) -> List[np.ndarray]:
    seed = model.seed
    for sender, value in enumerate(rows):
        profile = model.profile(sender)
        key = ("p2p", sender, t)
        if profile.is_down(t):
            counters["dropped"] += 1
            continue
        if (
            profile.drop_prob > 0
            and reference_deterministic_draw(seed, "drop", *key) < profile.drop_prob
        ):
            counters["dropped"] += 1
            continue
        if (
            profile.corrupt_prob > 0
            and reference_deterministic_draw(seed, "corrupt", *key) < profile.corrupt_prob
        ):
            value = reference_corrupt_gradient(value, profile.corrupt_mode, seed, *key)
            counters["corrupted"] += 1
        delay = 0
        if profile.straggles_at(t):
            delay += profile.straggle_delay
        if (
            profile.delay_prob > 0
            and reference_deterministic_draw(seed, "delay", *key) < profile.delay_prob
        ):
            delay += reference_deterministic_choice(
                seed, 1, profile.max_delay, "delay-len", *key
            )
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
        if policy.quarantine_non_finite and not np.all(np.isfinite(value)):
            counters["quarantined"] += 1
            continue
        prev = last_agreed.get(sender)
        if prev is None or origin > prev[0]:
            last_agreed[sender] = (origin, value)

    degraded: List[np.ndarray] = []
    for sender in range(len(rows)):
        entry = last_agreed.get(sender)
        if entry is not None and t - entry[0] <= policy.max_staleness:
            if entry[0] < t:
                counters["stale_reuses"] += 1
            degraded.append(entry[1])
        else:
            counters["zero_filled"] += 1
            degraded.append(np.zeros(dimension))
    return degraded


# ----------------------------------------------------------------------
# The server loops
# ----------------------------------------------------------------------


def reference_run_dgd(
    costs: Sequence[CostFunction],
    behavior: Optional[ByzantineBehavior] = None,
    config: Optional[DGDConfig] = None,
    telemetry: TelemetryLike = None,
    round_hook: Optional[Callable[[int, DGDServer], None]] = None,
    **config_overrides,
) -> Trace:
    """``run_dgd`` over the reference networks and checkpoint writer."""
    if config is None:
        config = DGDConfig()
    config = apply_config_overrides(config, config_overrides)

    costs = list(costs)
    n = len(costs)
    if n == 0:
        raise InvalidParameterError("at least one agent required")
    dimension = costs[0].dimension
    for index, cost in enumerate(costs):
        if cost.dimension != dimension:
            raise InvalidParameterError(
                f"cost {index} has dimension {cost.dimension}, expected {dimension}"
            )
    faulty_ids = sorted(set(int(i) for i in config.faulty_ids))
    if any(i < 0 or i >= n for i in faulty_ids):
        raise InvalidParameterError("faulty_ids out of range")
    crash_rounds = {int(k): int(v) for k, v in (config.crash_rounds or {}).items()}
    if any(i < 0 or i >= n for i in crash_rounds):
        raise InvalidParameterError("crash_rounds agent ids out of range")
    if set(crash_rounds) & set(faulty_ids):
        raise InvalidParameterError(
            "an agent cannot be both adversarial (faulty_ids) and crash-faulty"
        )
    f = config.resolved_f()
    if len(faulty_ids) + len(crash_rounds) > f:
        raise InvalidParameterError(
            f"{len(faulty_ids) + len(crash_rounds)} faulty agents exceed the "
            f"announced bound f={f}"
        )
    if faulty_ids and behavior is None:
        raise InvalidParameterError("faulty agents configured but no behavior given")

    master = ensure_rng(config.seed)
    adversary_rng, network_rng = spawn_rngs(master, 2)

    gradient_filter = config.gradient_filter
    if isinstance(gradient_filter, str):
        gradient_filter = make_filter(gradient_filter, f=f)

    step_sizes = config.step_sizes or _default_schedule(costs, gradient_filter)
    if not step_sizes.satisfies_robbins_monro:
        warnings.warn(
            "step-size schedule violates the Robbins-Monro conditions; the "
            "convergence theorem does not apply",
            stacklevel=2,
        )
    projection = config.projection or BoxSet.centered(dimension, config.box_half_width)
    if not projection.is_compact:
        warnings.warn(
            "projection set is not compact; the convergence theorem requires "
            "a compact convex W",
            stacklevel=2,
        )
    x0 = (
        np.zeros(dimension)
        if config.x0 is None
        else check_vector(config.x0, dimension=dimension, name="x0")
    )

    honest_ids = [i for i in range(n) if i not in faulty_ids and i not in crash_rounds]
    agents: Dict[int, Agent] = {i: HonestAgent(i, costs[i]) for i in honest_ids}
    for i, crash_round in crash_rounds.items():
        agents[i] = CrashAgent(i, costs[i], crash_round=crash_round)
    adversary = (
        Adversary(
            behavior,
            faulty_ids,
            costs={i: costs[i] for i in faulty_ids},
            seed=adversary_rng,
        )
        if faulty_ids
        else None
    )
    tel = ensure_telemetry(telemetry)
    if tel:
        tel.annotate(byzantine_ids=faulty_ids + sorted(crash_rounds))

    if (
        config.fault_model is not None
        or config.resilience is not None
        or config.checkpoint_path is not None
    ):
        return _reference_run_partially_synchronous(
            config=config,
            tel=tel,
            agents=agents,
            adversary=adversary,
            faulty_ids=faulty_ids,
            crash_rounds=crash_rounds,
            honest_ids=honest_ids,
            gradient_filter=gradient_filter,
            step_sizes=step_sizes,
            projection=projection,
            x0=x0,
            n=n,
            f=f,
            dimension=dimension,
            round_hook=round_hook,
        )

    network = ReferenceSynchronousNetwork(rng=network_rng, log_capacity=config.log_capacity)
    server = DGDServer.with_fixed_filter(
        gradient_filter, step_sizes, projection, x0, n=n, f=f, telemetry=tel
    )

    estimates = np.empty((config.iterations + 1, dimension))
    directions = np.empty((config.iterations, dimension))
    estimates[0] = server.estimate

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(config.iterations):
            with tel.span("round"):
                broadcast = server.make_broadcast()
                active = set(server.active_agents)
                delivered = network.broadcast(broadcast, sorted(active))
                honest_replies: List[GradientMessage] = []
                for agent_id in sorted(active & set(agents)):
                    if agent_id not in delivered:
                        continue
                    reply = agents[agent_id].on_estimate(delivered[agent_id])
                    if reply is not None:
                        honest_replies.append(reply)
                forged: List[GradientMessage] = []
                if adversary is not None:
                    active_faulty = sorted(active & set(faulty_ids))
                    if active_faulty:
                        forged = adversary.forge_messages(
                            broadcast, honest_replies, active_faulty=active_faulty
                        )
                inbound = network.gather(honest_replies + forged, SERVER_ID)
                server.step(inbound)
                estimates[t + 1] = server.estimate
                directions[t] = server.last_direction
            if round_hook is not None:
                round_hook(t, server)
    elapsed = time.perf_counter() - start

    return Trace(
        estimates=estimates,
        directions=directions,
        honest_ids=honest_ids,
        faulty_ids=faulty_ids,
        eliminated=server.eliminated_agents,
        wall_time=elapsed,
        messages_delivered=network.messages_delivered,
        bytes_delivered=network.bytes_delivered,
        filter_name=getattr(gradient_filter, "name", type(gradient_filter).__name__),
        crash_ids=sorted(crash_rounds),
        messages_dropped=network.messages_dropped,
        bytes_dropped=network.bytes_dropped,
        extra={"network_log": network.log} if config.record_messages else {},
    )


def _reference_run_partially_synchronous(
    *,
    config: DGDConfig,
    tel,
    agents: Dict[int, Agent],
    adversary: Optional[Adversary],
    faulty_ids: List[int],
    crash_rounds: Dict[int, int],
    honest_ids: List[int],
    gradient_filter: GradientFilter,
    step_sizes: StepSizeSchedule,
    projection: ConvexSet,
    x0: np.ndarray,
    n: int,
    f: int,
    dimension: int,
    round_hook: Optional[Callable[[int, DGDServer], None]],
) -> Trace:
    model = config.fault_model if config.fault_model is not None else NetworkFaultModel()
    policy = (
        config.resilience
        if config.resilience is not None
        else ResiliencePolicy.for_model(model)
    )
    filter_name = getattr(gradient_filter, "name", type(gradient_filter).__name__)
    network = ReferencePartiallySynchronousNetwork(model, log_capacity=config.log_capacity)
    server = ResilientDGDServer(
        fixed_filter_factory(gradient_filter),
        step_sizes,
        projection,
        x0,
        n=n,
        f=f,
        telemetry=tel,
        policy=policy,
    )

    iterations = config.iterations
    estimates = np.empty((iterations + 1, dimension))
    directions = np.empty((iterations, dimension))
    estimates[0] = server.estimate

    start_round = 0
    fingerprint = reference_checkpoint_fingerprint(
        config, n, f, dimension, faulty_ids, crash_rounds, filter_name
    )
    if config.checkpoint_path:
        if config.checkpoint_every <= 0:
            raise InvalidParameterError(
                f"checkpoint_every must be positive, got {config.checkpoint_every}"
            )
        saved = _load_checkpoint(config.checkpoint_path, fingerprint, iterations)
        if saved is not None:
            server.restore(saved["server"])
            network.restore_state(saved["network"])
            if adversary is not None and saved["adversary_rng"] is not None:
                adversary._rng.bit_generator.state = saved["adversary_rng"]
            for agent_id, crashed in saved["agents"].items():
                agent = agents.get(int(agent_id))
                if isinstance(agent, CrashAgent):
                    agent._crashed = bool(crashed)
            start_round = int(saved["round"])
            estimates[: start_round + 1] = _unhex_matrix(saved["estimates"])
            if start_round:
                directions[:start_round] = _unhex_matrix(saved["directions"])
            if tel:
                tel.emit("resume", round=start_round, path=config.checkpoint_path)

    start = time.perf_counter()
    with tel.span("run"):
        for t in range(start_round, iterations):
            with tel.span("round"):
                broadcast = server.make_broadcast()
                active = set(server.active_agents)
                for agent_id in sorted(active):
                    network.submit(broadcast, agent_id, t)
                honest_replies: List[GradientMessage] = []
                for agent_id in sorted(active):
                    if model.profile(agent_id).is_down(t):
                        continue
                    delivered = network.collect(agent_id, t)
                    if agent_id not in agents:
                        continue
                    for message in delivered:
                        reply = agents[agent_id].on_estimate(message)
                        if reply is not None:
                            honest_replies.append(reply)
                honest_replies.sort(key=lambda m: (m.round_index, m.sender))
                forged: List[GradientMessage] = []
                if adversary is not None:
                    active_faulty = sorted(active & set(faulty_ids))
                    if active_faulty:
                        forged = adversary.forge_messages(
                            broadcast, honest_replies, active_faulty=active_faulty
                        )
                for message in honest_replies + forged:
                    network.submit(message, SERVER_ID, t)
                server.step_partial(network.collect(SERVER_ID, t))
                estimates[t + 1] = server.estimate
                directions[t] = server.last_direction
            if round_hook is not None:
                round_hook(t, server)
            if config.checkpoint_path and (
                (t + 1) % config.checkpoint_every == 0 or t + 1 == iterations
            ):
                reference_write_checkpoint(
                    config.checkpoint_path,
                    fingerprint,
                    t + 1,
                    server,
                    network,
                    adversary,
                    agents,
                    estimates,
                    directions,
                )
    elapsed = time.perf_counter() - start

    extra: Dict[str, object] = {
        "resilience": server.resilience_summary(),
        "traffic": network.traffic_summary(),
        "resumed_from_round": start_round,
    }
    if config.record_messages:
        extra["network_log"] = network.log
    return Trace(
        estimates=estimates,
        directions=directions,
        honest_ids=honest_ids,
        faulty_ids=faulty_ids,
        eliminated=server.eliminated_agents,
        wall_time=elapsed,
        messages_delivered=network.messages_delivered,
        bytes_delivered=network.bytes_delivered,
        filter_name=filter_name,
        crash_ids=sorted(crash_rounds),
        messages_dropped=network.messages_dropped,
        bytes_dropped=network.bytes_dropped,
        extra=extra,
    )
