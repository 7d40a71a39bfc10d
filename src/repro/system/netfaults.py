"""Partially-synchronous network fault model.

The paper's convergence analysis assumes perfect synchrony: every honest
gradient arrives in its round, so silence alone proves faultiness. This
module drops that assumption in a controlled, *deterministic* way. A
:class:`PartiallySynchronousNetwork` can

- **drop** a message outright,
- **delay** it by a bounded number of rounds (the partial-synchrony bound
  ``B``),
- **duplicate** it (the copy possibly arriving later than the original),
- **reorder** deliveries within a round,
- **corrupt** a gradient payload in place (NaN-poison, Inf-poison, or a
  single bit-flip — what a flaky link or DMA error does to real traffic),
- model **stragglers** (periodic extra latency on an agent's uplink) and
  **crash-recovery** agents (an endpoint that is down for a window of
  rounds and then returns).

Every fault decision is a pure function of ``(seed, message coordinates)``
via :func:`repro.system.faultinjection.deterministic_draw` — the same
determinism discipline the infrastructure chaos harness uses. Two
consequences matter:

- a degraded run is exactly replayable from its seed, and
- a **checkpoint/resume** of a degraded run replays identical faults
  without persisting any RNG stream position (there is none).

Faults compose per agent through a :class:`FaultProfile`; the model applies
a sender's profile to its uplink traffic and a receiver's profile to its
downlink traffic, so "agent 3 is a straggler behind a lossy link" is one
profile attached to one id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.system.faultinjection import (
    deterministic_choice,
    deterministic_draw,
    deterministic_draw_array,
    deterministic_draw_rows,
    draw_key_hashes,
)
from repro.system.messages import GradientMessage, Message
from repro.system.network import DeliveryRecord, SynchronousNetwork
from repro.utils.validation import check_probability

__all__ = [
    "CORRUPTION_MODES",
    "ChurnWindow",
    "FaultProfile",
    "LinkFaultModel",
    "LinkFaultProfile",
    "NetworkFaultModel",
    "PartiallySynchronousNetwork",
    "PartitionWindow",
    "corrupt_gradient",
    "corrupt_payload_rows",
]

#: Supported payload corruption modes.
CORRUPTION_MODES = ("nan", "inf", "bitflip")


@dataclass(frozen=True)
class FaultProfile:
    """Composable per-agent network fault knobs.

    All probabilities are per message; all schedules are deterministic in
    the round index, in the style of the :mod:`repro.system.faultinjection`
    policies (``FailEveryNth`` and friends).

    Attributes
    ----------
    drop_prob:
        Probability a message is lost.
    delay_prob / max_delay:
        Probability a message is delayed, and the inclusive bound ``B`` on
        the delay in rounds (delays are uniform on ``{1, …, B}``). The
        bound is what makes the model *partially* synchronous rather than
        asynchronous.
    duplicate_prob:
        Probability the network re-delivers a second copy of the message
        (possibly with its own delay draw).
    corrupt_prob / corrupt_mode:
        Probability a gradient payload is corrupted in flight and how:
        ``"nan"`` poisons one coordinate with NaN, ``"inf"`` with ±Inf,
        ``"bitflip"`` flips one bit of one float64 (which may yield a
        plausible-but-wrong finite value — the nastiest case).
    straggle_every / straggle_delay:
        Deterministic straggler schedule: on every ``straggle_every``-th
        round (indices ``k−1, 2k−1, …``, matching ``FailEveryNth``) the
        agent's uplink is ``straggle_delay`` rounds late.
    crash_round / recover_round:
        Crash-recovery window: the endpoint is down (sends and receives
        nothing) for rounds in ``[crash_round, recover_round)``; with
        ``recover_round=None`` the crash is permanent.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: int = 0
    duplicate_prob: float = 0.0
    corrupt_prob: float = 0.0
    corrupt_mode: str = "nan"
    straggle_every: int = 0
    straggle_delay: int = 1
    crash_round: Optional[int] = None
    recover_round: Optional[int] = None

    def __post_init__(self):
        for name in ("drop_prob", "delay_prob", "duplicate_prob", "corrupt_prob"):
            check_probability(getattr(self, name), name=name)
        if self.max_delay < 0:
            raise InvalidParameterError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.delay_prob > 0 and self.max_delay < 1:
            raise InvalidParameterError(
                "delay_prob > 0 requires max_delay >= 1 (the partial-synchrony bound)"
            )
        if self.corrupt_mode not in CORRUPTION_MODES:
            raise InvalidParameterError(
                f"corrupt_mode must be one of {CORRUPTION_MODES}, got {self.corrupt_mode!r}"
            )
        if self.straggle_every < 0:
            raise InvalidParameterError(
                f"straggle_every must be >= 0, got {self.straggle_every}"
            )
        if self.straggle_every > 0 and self.straggle_delay < 1:
            raise InvalidParameterError(
                f"straggle_delay must be >= 1, got {self.straggle_delay}"
            )
        if self.crash_round is not None and self.crash_round < 0:
            raise InvalidParameterError(
                f"crash_round must be non-negative, got {self.crash_round}"
            )
        if self.recover_round is not None:
            if self.crash_round is None:
                raise InvalidParameterError("recover_round requires crash_round")
            if self.recover_round <= self.crash_round:
                raise InvalidParameterError(
                    f"recover_round ({self.recover_round}) must exceed "
                    f"crash_round ({self.crash_round})"
                )

    @property
    def is_null(self) -> bool:
        """Whether this profile injects no fault at all."""
        return (
            self.drop_prob == 0.0
            and self.delay_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.corrupt_prob == 0.0
            and self.straggle_every == 0
            and self.crash_round is None
        )

    @property
    def preserves_synchrony(self) -> bool:
        """Whether silence under this profile still proves faultiness.

        Any fault that can make an *honest* agent's reply miss its round —
        a drop, a delay, a straggle, a crash window — breaks the
        synchrony proof; duplication and corruption do not.
        """
        return (
            self.drop_prob == 0.0
            and self.delay_prob == 0.0
            and self.straggle_every == 0
            and self.crash_round is None
        )

    def is_down(self, round_index: int) -> bool:
        """Whether the endpoint is inside its crash-recovery window."""
        if self.crash_round is None or round_index < self.crash_round:
            return False
        return self.recover_round is None or round_index < self.recover_round

    def straggles_at(self, round_index: int) -> bool:
        """Whether the deterministic straggler schedule fires this round."""
        if self.straggle_every <= 0:
            return False
        return round_index % self.straggle_every == self.straggle_every - 1

    def worst_case_delay(self) -> int:
        """The largest delay (in rounds) this profile can inflict."""
        delay = self.max_delay if self.delay_prob > 0 else 0
        straggle = self.straggle_delay if self.straggle_every > 0 else 0
        return delay + straggle


#: The profile of an agent with no configured faults.
NULL_PROFILE = FaultProfile()


@dataclass(frozen=True)
class NetworkFaultModel:
    """Per-agent fault profiles plus the model-wide determinism seed.

    Attributes
    ----------
    profiles:
        Map from agent id to its :class:`FaultProfile`; absent agents get
        :data:`NULL_PROFILE`.
    seed:
        Seed of every deterministic draw the model makes.
    reorder:
        When set, each round's due deliveries are permuted by a seeded
        shuffle instead of arriving in canonical order.
    """

    profiles: Mapping[int, FaultProfile] = field(default_factory=dict)
    seed: int = 0
    reorder: bool = False

    def __post_init__(self):
        object.__setattr__(
            self,
            "profiles",
            {int(k): v for k, v in dict(self.profiles).items()},
        )
        for agent_id, profile in self.profiles.items():
            if not isinstance(profile, FaultProfile):
                raise InvalidParameterError(
                    f"profiles[{agent_id}] must be a FaultProfile, "
                    f"got {type(profile).__name__}"
                )

    @classmethod
    def uniform(
        cls,
        agent_ids: Iterable[int],
        profile: FaultProfile,
        seed: int = 0,
        reorder: bool = False,
    ) -> "NetworkFaultModel":
        """One profile applied to every listed agent."""
        return cls(
            profiles={int(i): profile for i in agent_ids}, seed=seed, reorder=reorder
        )

    def profile(self, agent_id: int) -> FaultProfile:
        return self.profiles.get(int(agent_id), NULL_PROFILE)

    @property
    def is_null(self) -> bool:
        """Whether the model injects no fault (perfect synchrony)."""
        return all(profile.is_null for profile in self.profiles.values())

    @property
    def preserves_synchrony(self) -> bool:
        """Whether silence is still proof of faultiness under this model."""
        return all(p.preserves_synchrony for p in self.profiles.values())

    def delay_bound(self) -> int:
        """The model-wide bound ``B`` on message delay, in rounds."""
        if not self.profiles:
            return 0
        return max(p.worst_case_delay() for p in self.profiles.values())

    def staleness_bound(self) -> int:
        """Worst-case age of an honest gradient when it finally arrives.

        A round-``t`` broadcast can reach an agent ``B`` rounds late and
        the reply can take another ``B`` rounds back, so the server may
        receive an honest gradient up to ``2B`` rounds after the round it
        was computed for. A model with drops (but no delays) still
        warrants a bound of one round of reuse, so a single lost reply
        does not cost an agent its round.
        """
        bound = 2 * self.delay_bound()
        if bound == 0 and not self.is_null:
            return 1
        return bound


def corrupt_gradient(
    gradient: np.ndarray, mode: str, seed: int, *key
) -> np.ndarray:
    """Deterministically corrupt one coordinate of a gradient payload.

    The damaged coordinate (and, for ``"bitflip"``, the damaged bit) is a
    pure function of ``(seed, key)``; the input array is never modified.
    """
    if mode not in CORRUPTION_MODES:
        raise InvalidParameterError(
            f"mode must be one of {CORRUPTION_MODES}, got {mode!r}"
        )
    damaged = np.array(gradient, dtype=float, copy=True)
    if damaged.size == 0:
        return damaged
    position = deterministic_choice(seed, 0, damaged.size - 1, "corrupt-pos", *key)
    if mode == "nan":
        damaged[position] = np.nan
    elif mode == "inf":
        sign = 1.0 if deterministic_draw(seed, "corrupt-sign", *key) < 0.5 else -1.0
        damaged[position] = sign * np.inf
    else:  # bitflip
        bit = deterministic_choice(seed, 0, 63, "corrupt-bit", *key)
        bits = damaged.view(np.uint64)
        bits[position] ^= np.uint64(1) << np.uint64(bit)
    return damaged


@dataclass(frozen=True)
class _InFlight:
    """One queued delivery: a message bound for ``receiver`` at ``due``."""

    due: int
    receiver: int
    sequence: int
    message: Message
    copy_index: int = 0


class PartiallySynchronousNetwork(SynchronousNetwork):
    """A round-based network whose deliveries obey a fault model.

    Unlike the synchronous parent — where :meth:`deliver` resolves a
    message immediately — this network separates **submission** from
    **collection**: :meth:`submit` applies the sender-or-receiver profile
    (drop, delay, duplicate, corrupt) and queues surviving copies;
    :meth:`collect` releases the copies due in the current round, in a
    deterministic (optionally seeded-shuffled) order. With a null fault
    model every submission is collectable in its own round in submission
    order, so the schedule degenerates to the synchronous one.

    Traffic accounting extends the parent's: ``messages_delayed``,
    ``messages_duplicated``, and ``messages_corrupted`` count fault
    activity, and the delivery log records each copy when it is collected.

    The queue (plus counters) round-trips through :meth:`state` /
    :meth:`restore_state` so a checkpointed run can resume with its
    in-flight messages intact; fault draws need no state because they are
    pure functions of the model seed.
    """

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
        """Queued copies not yet collected."""
        return len(self._queue)

    def traffic_summary(self) -> Dict[str, int]:
        summary = super().traffic_summary()
        summary.update(
            messages_delayed=self._messages_delayed,
            messages_duplicated=self._messages_duplicated,
            messages_corrupted=self._messages_corrupted,
        )
        return summary

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------

    def _endpoint_profile(self, message: Message, receiver: int) -> Tuple[int, FaultProfile]:
        """The agent-side endpoint whose profile governs this message.

        Server→agent traffic is shaped by the receiving agent's link;
        agent→server traffic by the sending agent's. (The trusted server
        itself is assumed reliable, as in the paper.)
        """
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
        """Hand one message to the network in ``current_round``.

        Applies the governing endpoint profile and queues zero, one, or
        two copies for future collection.
        """
        endpoint, profile = self._endpoint_profile(message, receiver)
        key = (endpoint, int(receiver), message.sender, message.round_index, current_round)
        seed = self._model.seed

        if profile.is_down(current_round):
            self._record_drop(message, receiver)
            return
        if profile.drop_prob > 0 and deterministic_draw(seed, "drop", *key) < profile.drop_prob:
            self._record_drop(message, receiver)
            return

        delay = 0
        if profile.straggle_every > 0 and message.sender >= 0 and profile.straggles_at(current_round):
            delay += profile.straggle_delay
        if profile.delay_prob > 0 and deterministic_draw(seed, "delay", *key) < profile.delay_prob:
            delay += deterministic_choice(seed, 1, profile.max_delay, "delay-len", *key)
        if delay > 0:
            self._messages_delayed += 1

        payload = message
        if (
            profile.corrupt_prob > 0
            and isinstance(message, GradientMessage)
            and deterministic_draw(seed, "corrupt", *key) < profile.corrupt_prob
        ):
            payload = GradientMessage(
                sender=message.sender,
                round_index=message.round_index,
                gradient=corrupt_gradient(
                    message.gradient, profile.corrupt_mode, seed, *key
                ),
            )
            self._messages_corrupted += 1

        self._enqueue(payload, receiver, current_round + delay, copy_index=0)

        if profile.duplicate_prob > 0 and deterministic_draw(seed, "dup", *key) < profile.duplicate_prob:
            extra = 0
            if profile.max_delay > 0:
                extra = deterministic_choice(seed, 0, profile.max_delay, "dup-delay", *key)
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

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------

    def collect(self, receiver: int, current_round: int) -> List[Message]:
        """Release the copies due for ``receiver`` by ``current_round``.

        Due copies arrive sorted by ``(message round, sender, submission
        sequence)`` — a canonical order so results are reproducible — or in
        a deterministic seeded shuffle when the model's ``reorder`` flag is
        set. Each released copy is logged and counted as delivered.
        """
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
                key=lambda i: deterministic_draw(
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

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """JSON-serializable snapshot of queue and counters.

        The delivery log is deliberately excluded: it is diagnostics, not
        execution state, and resumed runs only need counters to keep the
        traffic totals consistent.
        """
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
            # float(hex) round-trips every float64 bit pattern; plain JSON
            # floats cannot carry NaN/Inf, which corrupted payloads contain.
            return [float(v).hex() for v in np.asarray(message.gradient, dtype=float)]
        from repro.system.messages import EstimateBroadcast

        if isinstance(message, EstimateBroadcast):
            return [float(v).hex() for v in np.asarray(message.estimate, dtype=float)]
        return None

    def restore_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        from repro.system.messages import EstimateBroadcast

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
# Link-level faults (sparse-topology decentralized architecture)
# ----------------------------------------------------------------------
#
# The classes above model faults per *agent* — the right granularity for
# the server architecture, where every message shares one logical channel.
# On a sparse graph the failure unit is the *link*: one edge can be lossy
# while the rest of a neighborhood is clean, a cut can split the graph
# into components, and an agent can churn (leave and rejoin) without any
# Byzantine behaviour. ``LinkFaultModel`` expresses those modes with the
# same determinism discipline: every draw is a pure function of
# ``(seed, tag, round, sender, receiver)`` via the vectorized
# :func:`repro.system.faultinjection.deterministic_draw_array`, so a run
# over 10k edges costs a few array ops per round and replays exactly.

#: Integer draw-domain tags (the vectorized mixer keys on integers).
_LINK_TAG_DROP = 101
_LINK_TAG_DELAY_GATE = 102
_LINK_TAG_DELAY_LAG = 103
_LINK_TAG_CORRUPT = 104
_LINK_TAG_CORRUPT_POS = 105
_LINK_TAG_CORRUPT_SIGN = 106
_LINK_TAG_CORRUPT_BIT = 107
#: The draws every edge takes each round, in the order they are unpacked.
_LINK_ROUND_TAGS = (
    _LINK_TAG_DROP,
    _LINK_TAG_DELAY_GATE,
    _LINK_TAG_DELAY_LAG,
    _LINK_TAG_CORRUPT,
)


@dataclass(frozen=True)
class LinkFaultProfile:
    """Per-link fault knobs: drop, bounded delay, payload corruption.

    The link analogue of :class:`FaultProfile`. All probabilities are per
    message per round; delays are uniform on ``{1, …, max_delay}`` when
    the delay gate fires, preserving partial synchrony with bound
    ``max_delay``.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    max_delay: int = 0
    corrupt_prob: float = 0.0
    corrupt_mode: str = "nan"

    def __post_init__(self):
        for name in ("drop_prob", "delay_prob", "corrupt_prob"):
            check_probability(getattr(self, name), name=name)
        if self.max_delay < 0:
            raise InvalidParameterError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.delay_prob > 0 and self.max_delay < 1:
            raise InvalidParameterError(
                "delay_prob > 0 requires max_delay >= 1 (the partial-synchrony bound)"
            )
        if self.corrupt_mode not in CORRUPTION_MODES:
            raise InvalidParameterError(
                f"corrupt_mode must be one of {CORRUPTION_MODES}, got {self.corrupt_mode!r}"
            )

    @property
    def is_null(self) -> bool:
        return (
            self.drop_prob == 0.0
            and self.delay_prob == 0.0
            and self.corrupt_prob == 0.0
        )

    def worst_case_delay(self) -> int:
        return self.max_delay if self.delay_prob > 0 else 0


#: The profile of a link with no configured faults.
NULL_LINK_PROFILE = LinkFaultProfile()


@dataclass(frozen=True)
class PartitionWindow:
    """A scheduled graph cut: for rounds in ``[start, end)`` only edges
    *within* a group carry traffic.

    ``groups`` lists disjoint agent sets; agents in no listed group form
    one implicit rest group (so a two-way split needs only one listed
    group). Windows are closed-open in rounds, matching every other
    schedule in this module.
    """

    start: int
    end: int
    groups: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise InvalidParameterError(
                f"partition window needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        canonical = tuple(
            tuple(sorted(int(i) for i in group)) for group in self.groups
        )
        if not canonical or any(not group for group in canonical):
            raise InvalidParameterError("partition groups must be non-empty")
        seen: set = set()
        for group in canonical:
            for agent in group:
                if agent < 0:
                    raise InvalidParameterError(f"negative agent id {agent} in partition")
                if agent in seen:
                    raise InvalidParameterError(
                        f"agent {agent} appears in two partition groups"
                    )
                seen.add(agent)
        object.__setattr__(self, "groups", canonical)

    def active_at(self, round_index: int) -> bool:
        return self.start <= round_index < self.end

    def labels(self, n: int) -> np.ndarray:
        """Per-agent group label in ``[0, len(groups)]``; the implicit rest
        group gets label ``len(groups)``."""
        labels = np.full(int(n), len(self.groups), dtype=np.int64)
        for index, group in enumerate(self.groups):
            for agent in group:
                if agent >= n:
                    raise InvalidParameterError(
                        f"partition agent {agent} out of range for n={n}"
                    )
                labels[agent] = index
        return labels


@dataclass(frozen=True)
class ChurnWindow:
    """An agent that leaves at ``down_round`` and rejoins at ``up_round``.

    While down the agent neither sends, receives, nor steps — it is frozen,
    not Byzantine. ``up_round=None`` makes the departure permanent (a
    crash). Closed-open in rounds.
    """

    agent: int
    down_round: int
    up_round: Optional[int] = None

    def __post_init__(self):
        if self.agent < 0:
            raise InvalidParameterError(f"agent must be >= 0, got {self.agent}")
        if self.down_round < 0:
            raise InvalidParameterError(
                f"down_round must be >= 0, got {self.down_round}"
            )
        if self.up_round is not None and self.up_round <= self.down_round:
            raise InvalidParameterError(
                f"up_round ({self.up_round}) must exceed down_round ({self.down_round})"
            )

    def is_down(self, round_index: int) -> bool:
        if round_index < self.down_round:
            return False
        return self.up_round is None or round_index < self.up_round


@dataclass(frozen=True)
class LinkFaultModel:
    """Edge-granular faults: per-link profiles, partition schedule, churn.

    Attributes
    ----------
    default_profile:
        The :class:`LinkFaultProfile` applied to every edge without an
        override.
    link_profiles:
        ``{(sender, receiver): profile}`` overrides. Lookup tries the
        directed key first, then its reverse — so one entry faults an
        undirected edge, and two entries express an asymmetric link.
    partitions:
        :class:`PartitionWindow` schedule; at most one window may be
        active at any round (overlaps are rejected).
    churn:
        :class:`ChurnWindow` entries; an agent may have several disjoint
        windows.
    seed:
        Seed of every deterministic draw the model makes.
    """

    default_profile: LinkFaultProfile = NULL_LINK_PROFILE
    link_profiles: Mapping[Tuple[int, int], LinkFaultProfile] = field(
        default_factory=dict
    )
    partitions: Tuple[PartitionWindow, ...] = ()
    churn: Tuple[ChurnWindow, ...] = ()
    seed: int = 0

    def __post_init__(self):
        links = {}
        for key, profile in dict(self.link_profiles).items():
            u, v = (int(key[0]), int(key[1]))
            if u == v or u < 0 or v < 0:
                raise InvalidParameterError(f"invalid link key ({u}, {v})")
            if not isinstance(profile, LinkFaultProfile):
                raise InvalidParameterError(
                    f"link_profiles[{(u, v)}] must be a LinkFaultProfile, "
                    f"got {type(profile).__name__}"
                )
            links[(u, v)] = profile
        object.__setattr__(self, "link_profiles", links)
        windows = tuple(self.partitions)
        for window in windows:
            if not isinstance(window, PartitionWindow):
                raise InvalidParameterError(
                    f"partitions entries must be PartitionWindow, "
                    f"got {type(window).__name__}"
                )
        for a in range(len(windows)):
            for b in range(a + 1, len(windows)):
                if windows[a].start < windows[b].end and windows[b].start < windows[a].end:
                    raise InvalidParameterError(
                        f"partition windows [{windows[a].start}, {windows[a].end}) and "
                        f"[{windows[b].start}, {windows[b].end}) overlap"
                    )
        object.__setattr__(self, "partitions", windows)
        entries = tuple(self.churn)
        for entry in entries:
            if not isinstance(entry, ChurnWindow):
                raise InvalidParameterError(
                    f"churn entries must be ChurnWindow, got {type(entry).__name__}"
                )
        object.__setattr__(self, "churn", entries)

    # -- structure ------------------------------------------------------

    @property
    def is_null(self) -> bool:
        return (
            self.default_profile.is_null
            and all(p.is_null for p in self.link_profiles.values())
            and not self.partitions
            and not self.churn
        )

    def profile_for(self, sender: int, receiver: int) -> LinkFaultProfile:
        """The profile governing the directed link ``sender -> receiver``."""
        key = (int(sender), int(receiver))
        if key in self.link_profiles:
            return self.link_profiles[key]
        return self.link_profiles.get((key[1], key[0]), self.default_profile)

    def delay_bound(self) -> int:
        """The model-wide one-way delay bound ``B``, in rounds."""
        bound = self.default_profile.worst_case_delay()
        for profile in self.link_profiles.values():
            bound = max(bound, profile.worst_case_delay())
        return bound

    def staleness_bound(self) -> int:
        """Worst-case useful age of a neighbor state under this model.

        One-way traffic (states travel one hop), so the bound is ``B``; a
        model that only drops (or cuts/churns) still warrants one round of
        reuse so a single lost broadcast does not silence a neighbor.
        """
        bound = self.delay_bound()
        if bound == 0 and not self.is_null:
            return 1
        return bound

    def edge_parameters(
        self, senders: np.ndarray, receivers: np.ndarray
    ) -> Dict[str, object]:
        """Per-edge fault parameters for a fixed directed edge list.

        Everything the per-round draws need that does not change between
        rounds, computed once so :meth:`draw_link_faults` is pure array
        arithmetic:

        - the profile fields, filled from the default profile and then
          overwritten by ``link_profiles`` (directed key first, then its
          reverse); ``corrupt_mode_index`` indexes into
          :data:`CORRUPTION_MODES`;
        - ``draw_keys``: the hashed ``(sender, receiver)`` terms of the
          round's draws (:func:`~repro.system.faultinjection.draw_key_hashes`);
        - ``partition_cuts``: per partition window, the edges it cuts;
        - ``churn_edges``: per churn window, the edges touching its agent.
        """
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        num_edges = senders.shape[0]
        fields = {
            "drop_prob": np.empty(num_edges),
            "delay_prob": np.empty(num_edges),
            "max_delay": np.empty(num_edges, dtype=np.int64),
            "corrupt_prob": np.empty(num_edges),
            "corrupt_mode_index": np.empty(num_edges, dtype=np.int64),
        }

        def fill(edges, profile: LinkFaultProfile) -> None:
            fields["drop_prob"][edges] = profile.drop_prob
            fields["delay_prob"][edges] = profile.delay_prob
            fields["max_delay"][edges] = profile.max_delay
            fields["corrupt_prob"][edges] = profile.corrupt_prob
            fields["corrupt_mode_index"][edges] = CORRUPTION_MODES.index(
                profile.corrupt_mode
            )

        fill(slice(None), self.default_profile)
        # A key governs its own direction, and the reverse one unless that
        # direction has a key of its own.
        overrides = {(v, u): p for (u, v), p in self.link_profiles.items()}
        overrides.update(self.link_profiles)
        for (u, v), profile in overrides.items():
            fill((senders == u) & (receivers == v), profile)

        def group_of(agents: np.ndarray, window: PartitionWindow) -> np.ndarray:
            labels = np.full(agents.shape, len(window.groups), dtype=np.int64)
            for index, group in enumerate(window.groups):
                labels[np.isin(agents, group)] = index
            return labels

        return {
            **fields,
            "draw_keys": draw_key_hashes(2, senders, receivers),
            "partition_cuts": [
                group_of(senders, window) != group_of(receivers, window)
                for window in self.partitions
            ],
            "churn_edges": [
                (senders == window.agent) | (receivers == window.agent)
                for window in self.churn
            ],
        }

    # -- per-round draws ------------------------------------------------

    def down_mask(self, round_index: int, n: int) -> np.ndarray:
        """Boolean ``(n,)`` mask of agents inside a churn window this round."""
        mask = np.zeros(int(n), dtype=bool)
        for window in self.churn:
            if window.is_down(round_index):
                if window.agent >= n:
                    raise InvalidParameterError(
                        f"churn agent {window.agent} out of range for n={n}"
                    )
                mask[window.agent] = True
        return mask

    def draw_link_faults(
        self,
        round_index: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        params: Optional[Dict[str, object]] = None,
    ) -> Dict[str, np.ndarray]:
        """One round of link fault draws for a directed edge list.

        Returns ``{"dropped": bool(E,), "delay": int(E,), "corrupt":
        bool(E,)}``. Partition cuts and churn silences are folded into
        ``dropped``; ``delay`` is 0 for undelayed (or dropped) edges.
        Every draw is a pure function of ``(seed, tag, round, sender,
        receiver)`` — no state, exact replay. ``params`` must come from
        :meth:`edge_parameters` over the same edge list.
        """
        if params is None:
            params = self.edge_parameters(senders, receivers)
        drop_draw, gate_draw, lag_draw, corrupt_draw = deterministic_draw_rows(
            self.seed,
            [(tag, round_index) for tag in _LINK_ROUND_TAGS],
            params["draw_keys"],
        )
        dropped = drop_draw < params["drop_prob"]
        for window, cut in zip(self.partitions, params["partition_cuts"]):
            if window.active_at(round_index):
                dropped |= cut
        for window, touching in zip(self.churn, params["churn_edges"]):
            if window.is_down(round_index):
                dropped |= touching
        delay = np.where(
            (gate_draw < params["delay_prob"]) & ~dropped,
            1 + (lag_draw * np.maximum(params["max_delay"], 1)).astype(np.int64),
            0,
        )
        delay = np.minimum(delay, params["max_delay"])
        corrupt = (corrupt_draw < params["corrupt_prob"]) & ~dropped
        return {"dropped": dropped, "delay": delay, "corrupt": corrupt}


def corrupt_payload_rows(
    payloads: np.ndarray,
    mode_indices: np.ndarray,
    seed: int,
    round_index: int,
    senders: np.ndarray,
    receivers: np.ndarray,
) -> np.ndarray:
    """Vectorized in-flight corruption of ``(m, d)`` payload rows.

    The batch sibling of :func:`corrupt_gradient`: row ``i`` (the payload
    crossing edge ``senders[i] -> receivers[i]`` at ``round_index``) has
    one deterministically-chosen coordinate damaged according to
    ``CORRUPTION_MODES[mode_indices[i]]``. Returns a copy; the damaged
    coordinate, Inf sign, and flipped bit are pure functions of
    ``(seed, round, edge)``.
    """
    damaged = np.array(payloads, dtype=float, copy=True)
    if damaged.size == 0 or damaged.shape[0] == 0:
        return damaged
    m, d = damaged.shape
    senders = np.asarray(senders, dtype=np.int64)
    receivers = np.asarray(receivers, dtype=np.int64)
    mode_indices = np.asarray(mode_indices, dtype=np.int64)
    rows = np.arange(m)
    positions = (
        deterministic_draw_array(
            seed, _LINK_TAG_CORRUPT_POS, round_index, senders, receivers
        )
        * d
    ).astype(np.int64)
    nan_rows = mode_indices == CORRUPTION_MODES.index("nan")
    inf_rows = mode_indices == CORRUPTION_MODES.index("inf")
    bit_rows = mode_indices == CORRUPTION_MODES.index("bitflip")
    damaged[rows[nan_rows], positions[nan_rows]] = np.nan
    if inf_rows.any():
        signs = np.where(
            deterministic_draw_array(
                seed,
                _LINK_TAG_CORRUPT_SIGN,
                round_index,
                senders[inf_rows],
                receivers[inf_rows],
            )
            < 0.5,
            1.0,
            -1.0,
        )
        damaged[rows[inf_rows], positions[inf_rows]] = signs * np.inf
    if bit_rows.any():
        bits = (
            deterministic_draw_array(
                seed,
                _LINK_TAG_CORRUPT_BIT,
                round_index,
                senders[bit_rows],
                receivers[bit_rows],
            )
            * 64
        ).astype(np.uint64)
        view = damaged.view(np.uint64)
        view[rows[bit_rows], positions[bit_rows]] ^= np.uint64(1) << bits
    return damaged
