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
  placement and fault seed only, and the version-1 checkpoint reader;
- the healing policy object ``ResiliencePolicy``, the per-agent
  ``LivenessTracker`` and the ``ResilientDGDServer`` built on them
  (``ReferenceResiliencePolicy``, ``ReferenceLivenessTracker``,
  ``ReferenceResilientDGDServer``);
- the peer-to-peer fault overlay ``_degrade_agreed_rows``;
- the two ``run_dgd`` loops that drive them.

Everything else (the synchronous server, agents, adversary, filters) is
the production code. ``tests/test_healing_reference.py`` requires the
simulator to agree with these byte for byte. Keep this module unchanged
when the simulator changes; a change that merges the server loops can run
these loops as its oracle.

The frozen server differs from the verbatim copy in one way only: three
of its decisions sit in small methods (``_spoke``, ``_observe_liveness``
and ``_quorum``) that return exactly what the inline code did.
:class:`FixedRulesReferenceServer` overrides them with the two rules
fixed since the copy was made, so the configurations those fixes change
can still be checked byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

import numpy as np

from repro.aggregators.base import GradientFilter
from repro.aggregators.registry import make_filter
from repro.attacks.base import ByzantineBehavior
from repro.exceptions import (
    CacheIntegrityError,
    InvalidParameterError,
    ProtocolViolationError,
)
from repro.observability import TelemetryLike, ensure_telemetry
from repro.optimization.cost_functions import CostFunction
from repro.optimization.projections import BoxSet, ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.adversary import Adversary
from repro.system.agents import Agent, CrashAgent, HonestAgent
from repro.system.healing import RoundInbox
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
    apply_config_overrides,
)
from repro.system.server import DGDServer, FilterFactory, fixed_filter_factory
from repro.utils.atomicio import (
    CHECKSUM_KEY,
    PAYLOAD_KEY,
    payload_checksum,
    read_json_checked,
)
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
    server: ReferenceResilientDGDServer,
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


def reference_load_checkpoint(
    path: str, fingerprint: Dict, iterations: int
) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    try:
        payload = read_json_checked(path, require_checksum=True)
    except CacheIntegrityError as exc:
        warnings.warn(
            f"ignoring corrupt checkpoint {path}: {exc}", stacklevel=3
        )
        return None
    if payload.get("version") != _CHECKPOINT_VERSION:
        warnings.warn(
            f"ignoring checkpoint {path} with version "
            f"{payload.get('version')!r} (expected {_CHECKPOINT_VERSION})",
            stacklevel=3,
        )
        return None
    if payload.get("fingerprint") != fingerprint:
        warnings.warn(
            f"ignoring checkpoint {path}: it belongs to a different "
            "configuration",
            stacklevel=3,
        )
        return None
    if payload["round"] > iterations:
        warnings.warn(
            f"ignoring checkpoint {path}: it is {payload['round']} rounds "
            f"deep but the run only has {iterations}",
            stacklevel=3,
        )
        return None
    return payload


# ----------------------------------------------------------------------
# The healing policy, the per-agent liveness tracker and the server
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceResiliencePolicy:
    """``ResiliencePolicy``: the healing rules as one settable object."""

    max_staleness: int = 1
    suspicion_threshold: int = 2
    eliminate_on_silence: bool = True
    eliminate_on_conflict: bool = False
    quarantine_non_finite: bool = True

    def __post_init__(self):
        if self.max_staleness < 0:
            raise InvalidParameterError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        if self.suspicion_threshold < 1:
            raise InvalidParameterError(
                f"suspicion_threshold must be >= 1, got {self.suspicion_threshold}"
            )

    @classmethod
    def for_model(
        cls, model: NetworkFaultModel, **overrides
    ) -> "ReferenceResiliencePolicy":
        defaults = dict(
            max_staleness=model.staleness_bound(),
            eliminate_on_silence=model.preserves_synchrony,
            quarantine_non_finite=any(
                p.corrupt_prob > 0 for p in model.profiles.values()
            ),
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def for_link_model(cls, model, **overrides) -> "ReferenceResiliencePolicy":
        defaults = dict(
            max_staleness=model.staleness_bound(),
            eliminate_on_silence=model.is_null,
        )
        defaults.update(overrides)
        return cls(**defaults)


class ReferenceLivenessTracker:
    """``LivenessTracker``: per-agent misses, suspicion and reinstatement."""

    def __init__(self, agent_ids: Iterable[int], suspicion_threshold: int):
        if suspicion_threshold < 1:
            raise InvalidParameterError(
                f"suspicion_threshold must be >= 1, got {suspicion_threshold}"
            )
        self._threshold = int(suspicion_threshold)
        self._misses: Dict[int, int] = {int(i): 0 for i in agent_ids}
        self._last_seen: Dict[int, int] = {int(i): -1 for i in agent_ids}
        self._suspected: Set[int] = set()
        self.reinstatements = 0

    @property
    def suspicion_threshold(self) -> int:
        return self._threshold

    @property
    def suspected(self) -> List[int]:
        return sorted(self._suspected)

    def consecutive_misses(self, agent_id: int) -> int:
        return self._misses.get(int(agent_id), 0)

    def last_seen(self, agent_id: int) -> int:
        return self._last_seen.get(int(agent_id), -1)

    def forget(self, agent_id: int) -> None:
        agent_id = int(agent_id)
        self._misses.pop(agent_id, None)
        self._last_seen.pop(agent_id, None)
        self._suspected.discard(agent_id)

    def observe(
        self, round_index: int, responders: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        responded = {int(i) for i in responders}
        newly_suspected: List[int] = []
        reinstated: List[int] = []
        for agent_id in self._misses:
            if agent_id in responded:
                self._misses[agent_id] = 0
                self._last_seen[agent_id] = int(round_index)
                if agent_id in self._suspected:
                    self._suspected.remove(agent_id)
                    self.reinstatements += 1
                    reinstated.append(agent_id)
            else:
                self._misses[agent_id] += 1
                if (
                    self._misses[agent_id] >= self._threshold
                    and agent_id not in self._suspected
                ):
                    self._suspected.add(agent_id)
                    newly_suspected.append(agent_id)
        return sorted(newly_suspected), sorted(reinstated)

    def state(self) -> Dict:
        return {
            "threshold": self._threshold,
            "misses": {str(k): v for k, v in self._misses.items()},
            "last_seen": {str(k): v for k, v in self._last_seen.items()},
            "suspected": sorted(self._suspected),
            "reinstatements": self.reinstatements,
        }

    def restore_state(self, state: Dict) -> None:
        self._threshold = int(state["threshold"])
        self._misses = {int(k): int(v) for k, v in state["misses"].items()}
        self._last_seen = {int(k): int(v) for k, v in state["last_seen"].items()}
        self._suspected = set(int(i) for i in state["suspected"])
        self.reinstatements = int(state["reinstatements"])


class ReferenceResilientDGDServer(DGDServer):
    """``ResilientDGDServer`` driven by a :class:`ReferenceResiliencePolicy`."""

    def __init__(
        self,
        filter_factory: FilterFactory,
        step_sizes: StepSizeSchedule,
        projection: ConvexSet,
        x0,
        n: int,
        f: int,
        telemetry: TelemetryLike = None,
        policy: Optional[ReferenceResiliencePolicy] = None,
    ):
        super().__init__(
            filter_factory, step_sizes, projection, x0, n, f, telemetry=telemetry
        )
        self._policy = policy if policy is not None else ReferenceResiliencePolicy()
        self._dimension = int(self._estimate.shape[0])
        self._inbox = RoundInbox()
        self._liveness = ReferenceLivenessTracker(
            range(n), self._policy.suspicion_threshold
        )
        self._stale_reuses = 0
        self._stalled_rounds = 0
        self._ignored_messages = 0

    @property
    def policy(self) -> ReferenceResiliencePolicy:
        return self._policy

    @property
    def inbox(self) -> RoundInbox:
        return self._inbox

    @property
    def liveness(self) -> ReferenceLivenessTracker:
        return self._liveness

    @property
    def suspected_agents(self) -> List[int]:
        return self._liveness.suspected

    @property
    def stale_reuses(self) -> int:
        return self._stale_reuses

    @property
    def stalled_rounds(self) -> int:
        return self._stalled_rounds

    @property
    def quarantined_payloads(self) -> int:
        return self._inbox.quarantined_total

    def resilience_summary(self) -> Dict:
        return {
            "stale_reuses": self._stale_reuses,
            "stalled_rounds": self._stalled_rounds,
            "quarantined_payloads": self._inbox.quarantined_total,
            "quarantined_by_agent": self._inbox.quarantined_by_agent,
            "conflicts_by_agent": self._inbox.conflicts_by_agent,
            "suspected": self._liveness.suspected,
            "reinstatements": self._liveness.reinstatements,
            "ignored_messages": self._ignored_messages,
            "eliminated": list(self._eliminated),
        }

    def eliminate_provably_faulty(self, agent_ids: Sequence[int]) -> List[int]:
        guilty = sorted(set(int(i) for i in agent_ids) & self._active)
        if not guilty:
            return []
        if len(guilty) > self._f:
            raise ProtocolViolationError(
                f"{len(guilty)} provably faulty agents exceed fault budget {self._f}"
            )
        for agent_id in guilty:
            self._active.remove(agent_id)
            self._eliminated.append(agent_id)
            self._liveness.forget(agent_id)
        self._n -= len(guilty)
        self._f -= len(guilty)
        self._filter = self._filter_factory(self._n, self._f)
        if self._telemetry:
            self._telemetry.emit(
                "conflict_elimination",
                round=self._round,
                agents=guilty,
                n=self._n,
                f=self._f,
            )
        return guilty

    # The three seams; each returns what the inline code computed.

    def _spoke(self, fresh: Set[int], quarantined_fresh: Set[int]) -> Set[int]:
        """The responders silence elimination spares."""
        return fresh

    def _observe_liveness(
        self, round_index: int, fresh: Set[int]
    ) -> Tuple[List[int], List[int]]:
        return self._liveness.observe(round_index, fresh)

    def _quorum(self) -> int:
        return self._f + 1

    def step_partial(self, messages: Sequence[GradientMessage]) -> np.ndarray:
        r = self._round
        policy = self._policy
        quarantined_now: List[int] = []
        quarantined_fresh: Set[int] = set()
        conflicted_now: List[int] = []
        for message in messages:
            if not isinstance(message, GradientMessage):
                raise ProtocolViolationError(
                    f"server inbox received a {type(message).__name__}"
                )
            if message.round_index > r:
                raise ProtocolViolationError(
                    f"message from agent {message.sender} claims future round "
                    f"{message.round_index}, server is in round {r}"
                )
            if message.sender not in self._active:
                self._ignored_messages += 1
                continue
            status = self._inbox.offer(
                message,
                dimension=self._dimension,
                quarantine_non_finite=policy.quarantine_non_finite,
            )
            if status == RoundInbox.QUARANTINED:
                quarantined_now.append(message.sender)
                if message.round_index == r:
                    quarantined_fresh.add(message.sender)
            elif status == RoundInbox.CONFLICT:
                conflicted_now.append(message.sender)

        if policy.eliminate_on_conflict and conflicted_now:
            self.eliminate_provably_faulty(conflicted_now)

        fresh = self._inbox.fresh_senders(r) & self._active
        if policy.eliminate_on_silence:
            for eliminated in self.eliminate_silent(
                sorted(self._spoke(fresh, quarantined_fresh))
            ):
                self._liveness.forget(eliminated)
        newly_suspected, reinstated = self._observe_liveness(r, fresh)

        ordered: List[GradientMessage] = []
        stale_reused: List[int] = []
        missing: List[int] = []
        for agent_id in sorted(self._active):
            found = self._inbox.latest(agent_id, r, policy.max_staleness)
            if found is None:
                missing.append(agent_id)
                continue
            found_round, message = found
            if found_round < r:
                stale_reused.append(agent_id)
            ordered.append(message)
        self._stale_reuses += len(stale_reused)

        quorum = self._quorum()
        k = len(ordered)
        if k < quorum:
            self._stalled_rounds += 1
            self._last_direction = np.zeros(self._dimension)
            if self._telemetry:
                self._telemetry.emit(
                    "stalled", round=r, responders=k, quorum=quorum
                )
            self._round += 1
        else:
            gradient_filter = (
                self._filter if k == self._n else self._filter_factory(k, self._f)
            )
            self._filtered_update(ordered, gradient_filter)

        if self._telemetry and (
            stale_reused or quarantined_now or newly_suspected or reinstated or missing
        ):
            self._telemetry.record_liveness(
                round_index=r,
                fresh=sorted(fresh & self._active),
                stale_reused=stale_reused,
                quarantined=sorted(quarantined_now),
                suspected=newly_suspected,
                reinstated=reinstated,
                missing=missing,
            )
        self._inbox.prune(self._round - policy.max_staleness)
        return self.estimate

    def checkpoint(self) -> Dict:
        return {
            "round": self._round,
            "estimate": [float(v).hex() for v in self._estimate],
            "last_direction": (
                None
                if self._last_direction is None
                else [float(v).hex() for v in self._last_direction]
            ),
            "n": self._n,
            "f": self._f,
            "active": sorted(self._active),
            "eliminated": list(self._eliminated),
            "inbox": self._inbox.state(),
            "liveness": self._liveness.state(),
            "counters": {
                "stale_reuses": self._stale_reuses,
                "stalled_rounds": self._stalled_rounds,
                "ignored_messages": self._ignored_messages,
            },
        }

    def restore(self, state: Dict) -> None:
        self._round = int(state["round"])
        self._estimate = np.array([float.fromhex(v) for v in state["estimate"]])
        self._last_direction = (
            None
            if state["last_direction"] is None
            else np.array([float.fromhex(v) for v in state["last_direction"]])
        )
        self._n = int(state["n"])
        self._f = int(state["f"])
        self._active = set(int(i) for i in state["active"])
        self._eliminated = [int(i) for i in state["eliminated"]]
        self._inbox.restore_state(state["inbox"])
        self._liveness.restore_state(state["liveness"])
        counters = state["counters"]
        self._stale_reuses = int(counters["stale_reuses"])
        self._stalled_rounds = int(counters["stalled_rounds"])
        self._ignored_messages = int(counters["ignored_messages"])
        self._filter = self._filter_factory(self._n, self._f)


class FixedRulesReferenceServer(ReferenceResilientDGDServer):
    """The frozen server under the two rules fixed since it was copied.

    - Where silence eliminates, a sender whose current-round payload was
      quarantined has spoken: the network damaged its reply, it did not
      withhold one. Liveness is then tracked only where silence does not
      eliminate, the one regime where an agent can be suspected.
    - A round stalls below ``max(f + 1, minimum_inputs())`` of its
      filter instead of handing the filter fewer rows than it needs.
    """

    def _spoke(self, fresh: Set[int], quarantined_fresh: Set[int]) -> Set[int]:
        return fresh | quarantined_fresh

    def _observe_liveness(
        self, round_index: int, fresh: Set[int]
    ) -> Tuple[List[int], List[int]]:
        if self._policy.eliminate_on_silence:
            return [], []
        return super()._observe_liveness(round_index, fresh)

    def _quorum(self) -> int:
        return max(self._f + 1, self._filter.minimum_inputs())


# ----------------------------------------------------------------------
# The peer-to-peer fault overlay
# ----------------------------------------------------------------------


def reference_degrade_agreed_rows(
    rows: List[np.ndarray],
    t: int,
    model: NetworkFaultModel,
    policy: ReferenceResiliencePolicy,
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
    server_class: Type[ReferenceResilientDGDServer] = ReferenceResilientDGDServer,
    **config_overrides,
) -> Trace:
    """``run_dgd`` over the reference networks, checkpoints and server.

    ``server_class`` picks the frozen server or its fixed-rules variant
    for the self-healing loop.
    """
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
    projection = config.projection or BoxSet.centered(dimension, 1000.0)
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

    if config.fault_model is not None or config.checkpoint_path is not None:
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
            server_class=server_class,
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
    server_class: Type[ReferenceResilientDGDServer],
) -> Trace:
    model = config.fault_model if config.fault_model is not None else NetworkFaultModel()
    policy = ReferenceResiliencePolicy.for_model(model)
    filter_name = getattr(gradient_filter, "name", type(gradient_filter).__name__)
    network = ReferencePartiallySynchronousNetwork(model, log_capacity=config.log_capacity)
    server = server_class(
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
        saved = reference_load_checkpoint(
            config.checkpoint_path, fingerprint, iterations
        )
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
