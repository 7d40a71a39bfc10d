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
- :class:`NeighborhoodLiveness` — distinguishes *slow* from *provably
  faulty* per directed link: a link that misses
  :data:`SUSPICION_THRESHOLD` consecutive deadlines is suspected instead
  of cut, and reinstated the moment it delivers again. The decentralized
  engine tracks the edges of its graph; the server tracks its ``n``
  agent→server edges. Suspicion is bookkeeping only: it feeds counters,
  telemetry and the resilience summary, and never changes a mix, a
  quorum or a staleness decision;
- :class:`ResilientDGDServer` — per-round deadlines with partial
  aggregation: each round it aggregates the fresh gradients plus
  bounded-staleness reuses, re-invoking the ``FilterFactory`` for the
  reduced participant count ``(k, f)``, and stalls (no movement) rather
  than updating when fewer gradients arrived than its filter needs, and
  never below ``f + 1``. Server state checkpoints to a JSON-serializable
  dict (float64 payloads encoded losslessly as hex) and restores
  bit-identically.

The server takes its rules from its
:class:`~repro.system.netfaults.NetworkFaultModel`: silence eliminates
while the model preserves synchrony, a reused gradient may be
``staleness_bound()`` rounds old, and payloads are quarantined when the
model corrupts. With a null fault model the hardened server therefore
reduces *exactly* to the synchronous one — same elimination semantics,
same filter invocations, same update arithmetic via the shared
``DGDServer._filtered_update`` — which the test suite pins bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.observability import TelemetryLike
from repro.optimization.projections import ConvexSet
from repro.optimization.step_sizes import StepSizeSchedule
from repro.system.messages import SERVER_ID, GradientMessage
from repro.system.netfaults import NetworkFaultModel
from repro.system.server import DGDServer, FilterFactory

__all__ = [
    "SUSPICION_THRESHOLD",
    "NeighborhoodLiveness",
    "RoundInbox",
    "ResilientDGDServer",
]

#: Consecutive missed deadlines before a link is suspected.
SUSPICION_THRESHOLD = 2


class NeighborhoodLiveness:
    """Vectorized per-*link* liveness over a fixed directed edge list.

    An agent can be perfectly live toward one neighbor and silent toward
    another (asymmetric link faults, partitions), so liveness is tracked
    per directed edge: ``E`` edges of a sparse graph, or the ``n``
    agent→server edges of the server. State is three flat arrays indexed
    by edge, so one round of accounting over 10k edges is a handful of
    array ops.

    Suspicion is evidence of link *badness*, never proof of sender
    faultiness; a suspected edge is reinstated the moment it delivers
    again. Nothing reads suspicion to decide a round: it is reported,
    not acted on.
    """

    def __init__(self, senders: np.ndarray, receivers: np.ndarray):
        self._senders = np.asarray(senders, dtype=np.int64).copy()
        self._receivers = np.asarray(receivers, dtype=np.int64).copy()
        if self._senders.shape != self._receivers.shape or self._senders.ndim != 1:
            raise InvalidParameterError(
                "senders and receivers must be 1-D arrays of equal length"
            )
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
    def suspected(self) -> np.ndarray:
        """Boolean ``(E,)`` mask of currently suspected edges (a copy)."""
        return self._suspected.copy()

    def last_seen(self) -> np.ndarray:
        """Round of each edge's last delivery (``-1`` if never; a copy)."""
        return self._last_seen.copy()

    def suspected_edges(self) -> List[Tuple[int, int]]:
        """Currently suspected ``(sender, receiver)`` pairs, sorted."""
        return self._edges_of(self._suspected)

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
        now_suspected = self._misses >= SUSPICION_THRESHOLD
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

    def state(self) -> Dict:
        return {
            "misses": self._misses.tolist(),
            "last_seen": self._last_seen.tolist(),
            "suspected": self._suspected.tolist(),
            "reinstatements": self.reinstatements,
        }

    def restore_state(self, state: Dict) -> None:
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

    Each :meth:`step_partial` is one round deadline; :meth:`step`, which
    the server loop calls, runs it. Whatever arrived by the deadline —
    fresh gradients, late gradients from earlier rounds, duplicates,
    corrupted payloads — is deduplicated, validated, and classified. The update then aggregates the fresh set plus
    bounded-staleness reuses, re-invoking the filter factory at the
    reduced ``(k, f)`` when participation is partial, and stalls (holds
    the estimate) when fewer gradients arrived than the filter needs.

    The rules come from ``fault_model`` (a null model when omitted).
    While it preserves synchrony, a silent agent is eliminated and the
    behaviour is the synchronous server's, bit for bit. Otherwise silence
    only feeds a :class:`NeighborhoodLiveness` over the ``n``
    agent→server edges, whose suspicions are reported and never acted
    on, and every agent keeps its seat — "slow" is not "faulty".
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
        fault_model: Optional[NetworkFaultModel] = None,
    ):
        super().__init__(
            filter_factory, step_sizes, projection, x0, n, f, telemetry=telemetry
        )
        model = fault_model if fault_model is not None else NetworkFaultModel()
        self._max_staleness = model.staleness_bound()
        self._eliminate_on_silence = model.preserves_synchrony
        self._quarantine = model.corrupts
        self._dimension = int(self._estimate.shape[0])
        self._inbox = RoundInbox()
        # Where silence eliminates, every agent left answered, so there is
        # nothing to suspect; elsewhere no agent is ever eliminated.
        self._liveness = (
            None
            if self._eliminate_on_silence
            else NeighborhoodLiveness(np.arange(n), np.full(n, SERVER_ID))
        )
        self._stale_reuses = 0
        self._stalled_rounds = 0
        self._ignored_messages = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def liveness(self) -> Optional[NeighborhoodLiveness]:
        """Per-agent liveness, or ``None`` where silence eliminates."""
        return self._liveness

    @property
    def suspected_agents(self) -> List[int]:
        if self._liveness is None:
            return []
        return np.flatnonzero(self._liveness.suspected).tolist()

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
            "suspected": self.suspected_agents,
            "reinstatements": (
                0 if self._liveness is None else self._liveness.reinstatements
            ),
            "ignored_messages": self._ignored_messages,
            "eliminated": list(self._eliminated),
        }

    # ------------------------------------------------------------------
    # The hardened round
    # ------------------------------------------------------------------

    def step(self, messages: Sequence[GradientMessage]) -> np.ndarray:
        """One round of the server loop: the hardened :meth:`step_partial`."""
        return self.step_partial(messages)

    def step_partial(self, messages: Sequence[GradientMessage]) -> np.ndarray:
        """Run one round deadline from whatever the network delivered.

        Accepts messages for the current round *and* for earlier rounds
        (late arrivals); messages claiming future rounds are a protocol
        violation (nothing can outrun the broadcast). Returns the new —
        possibly unchanged — estimate.
        """
        r = self._round
        quarantined_now: List[int] = []
        # Senders whose reply for this round the network damaged: they
        # spoke, so silence elimination spares them.
        quarantined_fresh: Set[int] = set()
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
                quarantine_non_finite=self._quarantine,
            )
            if status == RoundInbox.QUARANTINED:
                quarantined_now.append(message.sender)
                if message.round_index == r:
                    quarantined_fresh.add(message.sender)

        fresh = self._inbox.fresh_senders(r) & self._active
        newly = reinstated = 0
        if self._eliminate_on_silence:
            self.eliminate_silent(sorted(fresh | quarantined_fresh))
        else:
            delivered = np.zeros(self._liveness.num_edges, dtype=bool)
            delivered[list(fresh)] = True
            newly, reinstated = self._liveness.observe(r, delivered)

        ordered: List[GradientMessage] = []
        stale_reused: List[int] = []
        missing: List[int] = []
        for agent_id in sorted(self._active):
            found = self._inbox.latest(agent_id, r, self._max_staleness)
            if found is None:
                missing.append(agent_id)
                continue
            found_round, message = found
            if found_round < r:
                stale_reused.append(agent_id)
            ordered.append(message)
        self._stale_reuses += len(stale_reused)

        # With at most f Byzantine agents, any f + 1 gradients still
        # contain an honest one: the weakest premise under which a
        # filtered step can point anywhere trustworthy. The filter itself
        # may need more rows than that.
        quorum = max(self._f + 1, self._filter.minimum_inputs())
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
            stale_reused or quarantined_now or newly or reinstated or missing
        ):
            self._telemetry.record_liveness(
                round_index=r,
                fresh=sorted(fresh & self._active),
                stale_reused=stale_reused,
                quarantined=sorted(quarantined_now),
                suspected=[
                    agent for agent, _ in self._liveness.last_newly_suspected_edges()
                ] if newly else [],
                reinstated=[
                    agent for agent, _ in self._liveness.last_reinstated_edges()
                ] if reinstated else [],
                missing=missing,
            )
        self._inbox.prune(self._round - self._max_staleness)
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
            "liveness": None if self._liveness is None else self._liveness.state(),
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
        if self._liveness is not None:
            self._liveness.restore_state(state["liveness"])
        counters = state["counters"]
        self._stale_reuses = int(counters["stale_reuses"])
        self._stalled_rounds = int(counters["stalled_rounds"])
        self._ignored_messages = int(counters["ignored_messages"])
        self._filter = self._filter_factory(self._n, self._f)
