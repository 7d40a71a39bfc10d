"""Self-healing server runtime for the partially-synchronous fault model.

The synchronous :class:`~repro.system.server.DGDServer` is brittle by
design: a missing reply is proof of faultiness, a duplicate is a protocol
violation, and a NaN payload rides straight into the gradient filter. Under
the :mod:`repro.system.netfaults` model none of those inferences are sound
— an honest gradient can be late, replayed, or corrupted in flight. This
module provides the hardened runtime:

- :class:`RoundInbox` — deduplicates deliveries by payload digest (so the
  per-round gradient set is invariant under reordering and idempotent
  under duplication), validates payloads at the message boundary, and
  quarantines non-finite or wrong-shaped gradients before they can reach
  an aggregator whose norm-sort is undefined on NaN;
- :class:`LivenessTracker` — distinguishes *slow* from *provably faulty*:
  agents that miss deadlines accumulate suspicion instead of being
  eliminated, and are reinstated the moment a valid message arrives;
- :class:`ResiliencePolicy` — the tuning surface: bounded-staleness
  gradient reuse for stragglers, the suspicion threshold, whether silence
  still eliminates (it does exactly when the fault model preserves
  synchrony), and the partial-aggregation quorum;
- :class:`ResilientDGDServer` — per-round deadlines with partial
  aggregation: each round it aggregates the fresh gradients plus
  bounded-staleness reuses, re-invoking the ``FilterFactory`` for the
  reduced participant count ``(k, f)``, and stalls (no movement) rather
  than updating when fewer than ``f + 1`` gradients are available. Server
  state checkpoints to a JSON-serializable dict (float64 payloads encoded
  losslessly as hex) and restores bit-identically.

With a null fault model the hardened server reduces *exactly* to the
synchronous one — same elimination semantics, same filter invocations,
same update arithmetic via the shared ``DGDServer._filtered_update`` —
which the test suite pins bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.observability import TelemetryLike
from repro.optimization.projections import ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.messages import GradientMessage
from repro.system.netfaults import LinkFaultModel, NetworkFaultModel
from repro.system.server import DGDServer, FilterFactory

__all__ = [
    "ResiliencePolicy",
    "LivenessTracker",
    "NeighborhoodLiveness",
    "RoundInbox",
    "ResilientDGDServer",
]


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the hardened server trades liveness against safety.

    Attributes
    ----------
    max_staleness:
        How many rounds old a reused gradient may be. ``0`` disables
        reuse; under a fault model with delay bound ``B`` the natural
        value is ``2B`` (broadcast out plus reply back).
    suspicion_threshold:
        Consecutive missed deadlines before an agent is *suspected*.
        Suspicion is bookkeeping, not punishment — a suspected agent's
        messages are still accepted and it is reinstated on its next
        valid delivery.
    eliminate_on_silence:
        When set, a silent agent is eliminated exactly as in the
        synchronous protocol (silence is proof). Sound only when the
        fault model cannot delay or drop honest traffic;
        :meth:`for_model` sets it from the model's synchrony analysis.
    eliminate_on_conflict:
        When set, two *different finite* payloads from one sender in one
        round (equivocation) eliminate the sender. Off by default: a
        network that duplicates and bit-flips can manufacture exactly
        that evidence against an honest agent.
    quarantine_non_finite:
        When set (default), non-finite or wrong-shaped payloads are
        quarantined at the message boundary; otherwise they pass through
        to ``GradientFilter.sanitize`` as in the synchronous server.
        :meth:`for_model` sets it only when the model can corrupt
        payloads, so a null model keeps the synchronous behaviour.
    min_responders:
        Partial-aggregation quorum. Defaults to ``f + 1`` — with at most
        ``f`` Byzantine agents, any ``f + 1`` gradients still contain an
        honest one, which is the weakest premise under which a filtered
        step can point anywhere trustworthy.
    """

    max_staleness: int = 1
    suspicion_threshold: int = 2
    eliminate_on_silence: bool = True
    eliminate_on_conflict: bool = False
    quarantine_non_finite: bool = True
    min_responders: Optional[int] = None

    def __post_init__(self):
        if self.max_staleness < 0:
            raise InvalidParameterError(
                f"max_staleness must be >= 0, got {self.max_staleness}"
            )
        if self.suspicion_threshold < 1:
            raise InvalidParameterError(
                f"suspicion_threshold must be >= 1, got {self.suspicion_threshold}"
            )
        if self.min_responders is not None and self.min_responders < 1:
            raise InvalidParameterError(
                f"min_responders must be >= 1, got {self.min_responders}"
            )

    @classmethod
    def for_model(cls, model: NetworkFaultModel, **overrides) -> "ResiliencePolicy":
        """The policy matched to a fault model's synchrony analysis."""
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
    def for_link_model(
        cls, model: LinkFaultModel, **overrides
    ) -> "ResiliencePolicy":
        """The policy matched to a link-level fault model.

        Under link faults, silence on one edge never proves the *sender*
        faulty — the link, a partition, or churn explains it equally well
        — so ``eliminate_on_silence`` is sound only for the null model.
        ``max_staleness`` follows the model's one-way staleness bound
        (states travel a single hop in the decentralized architecture).
        """
        defaults = dict(
            max_staleness=model.staleness_bound(),
            eliminate_on_silence=model.is_null,
        )
        defaults.update(overrides)
        return cls(**defaults)


class LivenessTracker:
    """Per-agent deadline bookkeeping: live → suspected → reinstated.

    Suspicion is evidence of *slowness*, never proof of faultiness — in a
    partially-synchronous system only payload-level misbehaviour can be
    proven. The tracker therefore never removes an agent on its own; it
    reports transitions so the server (and telemetry) can act.
    """

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
        """Round of the agent's last fresh response (``-1`` if never)."""
        return self._last_seen.get(int(agent_id), -1)

    def forget(self, agent_id: int) -> None:
        """Stop tracking an (eliminated) agent."""
        agent_id = int(agent_id)
        self._misses.pop(agent_id, None)
        self._last_seen.pop(agent_id, None)
        self._suspected.discard(agent_id)

    def observe(
        self, round_index: int, responders: Iterable[int]
    ) -> Tuple[List[int], List[int]]:
        """Account one round's responders among all tracked agents.

        Returns ``(newly_suspected, reinstated)``, both sorted.
        """
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


class NeighborhoodLiveness:
    """Vectorized per-*link* liveness over a fixed directed edge list.

    The decentralized analogue of :class:`LivenessTracker`: where the
    server tracks ``n`` agents, a sparse graph must track ``E`` directed
    edges — agent ``j`` can be perfectly live toward one neighbor and
    silent toward another (asymmetric link faults, partitions). State is
    three flat arrays indexed by edge, so one round of accounting over
    10k edges is a handful of array ops.

    Like the agent tracker, suspicion is evidence of link *badness*,
    never proof of sender faultiness; a suspected edge is reinstated the
    moment it delivers again.
    """

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

    @property
    def num_edges(self) -> int:
        return int(self._senders.shape[0])

    @property
    def suspicion_threshold(self) -> int:
        return self._threshold

    @property
    def suspected(self) -> np.ndarray:
        """Boolean ``(E,)`` mask of currently suspected edges (a copy)."""
        return self._suspected.copy()

    @property
    def misses(self) -> np.ndarray:
        """Consecutive missed rounds per edge (a copy)."""
        return self._misses.copy()

    def last_seen(self) -> np.ndarray:
        """Round of each edge's last delivery (``-1`` if never; a copy)."""
        return self._last_seen.copy()

    def suspected_edges(self) -> List[Tuple[int, int]]:
        """Currently suspected ``(sender, receiver)`` pairs, sorted."""
        index = np.flatnonzero(self._suspected)
        return sorted(
            (int(self._senders[i]), int(self._receivers[i])) for i in index
        )

    def observe(self, round_index: int, delivered: np.ndarray) -> Tuple[int, int]:
        """Account one round of deliveries; ``delivered`` is bool ``(E,)``.

        Returns ``(newly_suspected, reinstated)`` edge counts.
        """
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
        """Edges that crossed into suspicion at the latest ``observe``."""
        return self._edges_of(self._last_newly)

    def last_reinstated_edges(self) -> List[Tuple[int, int]]:
        """Edges that delivered again at the latest ``observe``."""
        return self._edges_of(self._last_reinstated)

    def live_in_degree(self, n: int) -> np.ndarray:
        """Per-receiver count of currently unsuspected incoming edges.

        This is the dynamic ``k_i`` the decentralized engine feeds into
        its per-neighborhood ``(k_i, f_i)`` re-accounting.
        """
        counts = np.zeros(int(n), dtype=np.int64)
        np.add.at(counts, self._receivers[~self._suspected], 1)
        return counts

    def state(self) -> Dict:
        return {
            "threshold": self._threshold,
            "misses": self._misses.tolist(),
            "last_seen": self._last_seen.tolist(),
            "suspected": self._suspected.tolist(),
            "reinstatements": self.reinstatements,
        }

    def restore_state(self, state: Dict) -> None:
        self._threshold = int(state["threshold"])
        self._misses = np.asarray(state["misses"], dtype=np.int64)
        self._last_seen = np.asarray(state["last_seen"], dtype=np.int64)
        self._suspected = np.asarray(state["suspected"], dtype=bool)
        self.reinstatements = int(state["reinstatements"])


class RoundInbox:
    """Digest-deduplicated store of received gradients, round-indexed.

    The inbox's observable state is a pure function of the *set* of
    messages offered — independent of arrival order (permutation
    invariance) and of repeated deliveries (idempotence under duplicates).
    Both properties come from keying storage by
    ``(sender, round, payload digest)`` and resolving conflicting
    duplicates canonically (smallest digest wins).
    """

    #: offer() outcomes.
    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"
    CONFLICT = "conflict"
    QUARANTINED = "quarantined"

    def __init__(self):
        self._slots: Dict[Tuple[int, int], Dict[str, GradientMessage]] = {}
        self._quarantined: Dict[int, int] = {}
        self._conflicts: Dict[int, int] = {}

    @property
    def quarantined_by_agent(self) -> Dict[int, int]:
        """Quarantined payload counts per sender."""
        return dict(self._quarantined)

    @property
    def quarantined_total(self) -> int:
        return sum(self._quarantined.values())

    @property
    def conflicts_by_agent(self) -> Dict[int, int]:
        """Equivocation evidence: conflicting duplicate counts per sender."""
        return dict(self._conflicts)

    def offer(
        self,
        message: GradientMessage,
        dimension: Optional[int] = None,
        quarantine_non_finite: bool = True,
    ) -> str:
        """Ingest one delivery; returns the classification string."""
        if quarantine_non_finite:
            try:
                message.validate(dimension)
            except ProtocolViolationError:
                sender = int(message.sender)
                self._quarantined[sender] = self._quarantined.get(sender, 0) + 1
                return self.QUARANTINED
        key = (int(message.sender), int(message.round_index))
        slot = self._slots.setdefault(key, {})
        digest = message.payload_digest()
        if digest in slot:
            return self.DUPLICATE
        slot[digest] = message
        if len(slot) > 1:
            self._conflicts[key[0]] = self._conflicts.get(key[0], 0) + 1
            return self.CONFLICT
        return self.ACCEPTED

    def fresh_senders(self, round_index: int) -> Set[int]:
        """Senders with a stored gradient for exactly ``round_index``."""
        return {s for (s, r) in self._slots if r == int(round_index)}

    def latest(
        self, sender: int, round_index: int, max_staleness: int
    ) -> Optional[Tuple[int, GradientMessage]]:
        """The sender's newest gradient no older than ``max_staleness``.

        Returns ``(round, message)`` or ``None``. Among conflicting
        duplicates the copy with the smallest payload digest is the
        canonical one — an order-free rule every replay agrees on.
        """
        sender = int(sender)
        for r in range(int(round_index), int(round_index) - int(max_staleness) - 1, -1):
            if r < 0:
                break
            slot = self._slots.get((sender, r))
            if slot:
                return r, slot[min(slot)]
        return None

    def prune(self, before_round: int) -> None:
        """Discard gradients for rounds before ``before_round``."""
        self._slots = {
            key: slot for key, slot in self._slots.items() if key[1] >= before_round
        }

    def state(self) -> Dict:
        return {
            "slots": [
                {
                    "sender": sender,
                    "round_index": round_index,
                    "payloads": [
                        [float(v).hex() for v in slot[digest].gradient]
                        for digest in sorted(slot)
                    ],
                }
                for (sender, round_index), slot in sorted(self._slots.items())
            ],
            "quarantined": {str(k): v for k, v in self._quarantined.items()},
            "conflicts": {str(k): v for k, v in self._conflicts.items()},
        }

    def restore_state(self, state: Dict) -> None:
        self._slots = {}
        for entry in state["slots"]:
            for payload in entry["payloads"]:
                message = GradientMessage(
                    sender=int(entry["sender"]),
                    round_index=int(entry["round_index"]),
                    gradient=np.array([float.fromhex(v) for v in payload]),
                )
                slot = self._slots.setdefault(
                    (message.sender, message.round_index), {}
                )
                slot[message.payload_digest()] = message
        self._quarantined = {int(k): int(v) for k, v in state["quarantined"].items()}
        self._conflicts = {int(k): int(v) for k, v in state["conflicts"].items()}


class ResilientDGDServer(DGDServer):
    """A :class:`DGDServer` that survives partially-synchronous delivery.

    Each :meth:`step_partial` is one round deadline. Whatever arrived by
    the deadline — fresh gradients, late gradients from earlier rounds,
    duplicates, corrupted payloads — is deduplicated, validated, and
    classified. The update then aggregates the fresh set plus
    bounded-staleness reuses, re-invoking the filter factory at the
    reduced ``(k, f)`` when participation is partial, and stalls (holds
    the estimate) when fewer than the quorum responded.

    Elimination semantics are policy-driven: with
    ``eliminate_on_silence`` (sound only under preserved synchrony) the
    behaviour is the synchronous server's, bit for bit; otherwise silence
    only feeds the :class:`LivenessTracker` and every agent keeps its
    seat — "slow" is not "faulty".
    """

    def __init__(
        self,
        filter_factory: FilterFactory,
        step_sizes: StepSizeSchedule,
        projection: ConvexSet,
        x0,
        n: int,
        f: int,
        telemetry: TelemetryLike = None,
        policy: Optional[ResiliencePolicy] = None,
    ):
        super().__init__(
            filter_factory, step_sizes, projection, x0, n, f, telemetry=telemetry
        )
        self._policy = policy if policy is not None else ResiliencePolicy()
        self._dimension = int(self._estimate.shape[0])
        self._inbox = RoundInbox()
        self._liveness = LivenessTracker(range(n), self._policy.suspicion_threshold)
        self._stale_reuses = 0
        self._stalled_rounds = 0
        self._ignored_messages = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def policy(self) -> ResiliencePolicy:
        return self._policy

    @property
    def inbox(self) -> RoundInbox:
        return self._inbox

    @property
    def liveness(self) -> LivenessTracker:
        return self._liveness

    @property
    def suspected_agents(self) -> List[int]:
        return self._liveness.suspected

    @property
    def stale_reuses(self) -> int:
        """Rounds × agents where a bounded-staleness gradient was reused."""
        return self._stale_reuses

    @property
    def stalled_rounds(self) -> int:
        """Rounds skipped for lack of a quorum (estimate held)."""
        return self._stalled_rounds

    @property
    def quarantined_payloads(self) -> int:
        return self._inbox.quarantined_total

    def resilience_summary(self) -> Dict:
        """Roll-up of the hardening machinery's activity."""
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

    # ------------------------------------------------------------------
    # The hardened round
    # ------------------------------------------------------------------

    def eliminate_provably_faulty(self, agent_ids: Sequence[int]) -> List[int]:
        """Eliminate agents with payload-level proof of faultiness.

        Unlike silence, equivocation (when the policy trusts it) is
        evidence the agent itself produced; elimination decrements both
        ``n`` and ``f`` and rebuilds the filter, as in the paper's S1.
        """
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

    def step_partial(self, messages: Sequence[GradientMessage]) -> np.ndarray:
        """Run one round deadline from whatever the network delivered.

        Accepts messages for the current round *and* for earlier rounds
        (late arrivals); messages claiming future rounds are a protocol
        violation (nothing can outrun the broadcast). Returns the new —
        possibly unchanged — estimate.
        """
        r = self._round
        policy = self._policy
        quarantined_now: List[int] = []
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
            elif status == RoundInbox.CONFLICT:
                conflicted_now.append(message.sender)

        if policy.eliminate_on_conflict and conflicted_now:
            self.eliminate_provably_faulty(conflicted_now)

        fresh = self._inbox.fresh_senders(r) & self._active
        if policy.eliminate_on_silence:
            for eliminated in self.eliminate_silent(sorted(fresh)):
                self._liveness.forget(eliminated)
        newly_suspected, reinstated = self._liveness.observe(r, fresh)

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

        quorum = (
            policy.min_responders
            if policy.min_responders is not None
            else self._f + 1
        )
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

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict:
        """JSON-serializable snapshot of the full server state.

        Float64 vectors are encoded as hex strings (``float.hex``) so the
        round trip is bit-exact — including NaN/Inf payloads a corrupted
        in-flight gradient may carry.
        """
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
        """Restore a :meth:`checkpoint` snapshot, rebuilding the filter."""
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
