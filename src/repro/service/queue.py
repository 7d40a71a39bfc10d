"""Priority job queue with admission control.

The queue is the service's backpressure boundary. Admission control is
deliberately *rejecting*, not buffering: a server that accepts every job
eventually falls over with an unbounded backlog, so past the configured
bounds a submission fails fast with a structured
:class:`~repro.exceptions.AdmissionRejectedError` (HTTP 429 at the wire)
carrying the reason code, the bound that was hit, and the observed depth —
the client decides whether to back off, retry elsewhere, or drop.

Two bounds compose:

- ``max_depth`` — total jobs queued (running jobs do not count: they hold
  a slot, not a queue place);
- ``per_client`` — jobs one client may have queued **or** running, so a
  single noisy tenant cannot monopolize the service.

Ordering is by descending ``priority``, then submission order within a
priority level (a heap over ``(-priority, seq)``).

The queue is not thread-safe by design: the service confines it to the
event-loop thread (handlers and job slots both run there), which is the
cheapest correct concurrency discipline. Blocking work never touches the
queue — it happens in executor threads that report back via the loop.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set

from repro.exceptions import AdmissionRejectedError, InvalidParameterError
from repro.service.jobs import JobRecord

__all__ = ["JobQueue"]


class JobQueue:
    """Bounded priority queue of :class:`~repro.service.jobs.JobRecord`."""

    def __init__(self, max_depth: int = 64, per_client: int = 8):
        if max_depth <= 0:
            raise InvalidParameterError(
                f"max_depth must be positive, got {max_depth}"
            )
        if per_client <= 0:
            raise InvalidParameterError(
                f"per_client must be positive, got {per_client}"
            )
        self.max_depth = int(max_depth)
        self.per_client = int(per_client)
        self._heap: List = []
        self._records: Dict[str, JobRecord] = {}
        self._cancelled: Set[str] = set()
        self._active_per_client: Dict[str, int] = {}

    # -- inspection ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs currently queued (excludes running and cancelled)."""
        return len(self._records)

    def active_for(self, client: str) -> int:
        """Jobs ``client`` currently has queued or running."""
        return self._active_per_client.get(client, 0)

    def snapshot(self) -> Dict:
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "per_client": self.per_client,
            "clients": dict(sorted(self._active_per_client.items())),
        }

    # -- admission -----------------------------------------------------

    def submit(self, record: JobRecord) -> None:
        """Admit ``record`` or raise a structured rejection.

        Raises
        ------
        AdmissionRejectedError
            ``reason="queue-full"`` when the queue is at ``max_depth``;
            ``reason="client-cap"`` when the submitting client already has
            ``per_client`` jobs queued or running. Nothing is enqueued on
            rejection — the submission left no trace.
        """
        if self.depth >= self.max_depth:
            raise AdmissionRejectedError(
                reason="queue-full",
                detail=f"queue is at its depth bound ({self.max_depth})",
                limit=self.max_depth,
                queue_depth=self.depth,
            )
        client = record.spec.client
        if self.active_for(client) >= self.per_client:
            raise AdmissionRejectedError(
                reason="client-cap",
                detail=(
                    f"client {client!r} already has {self.active_for(client)} "
                    f"job(s) queued or running (cap {self.per_client})"
                ),
                limit=self.per_client,
                queue_depth=self.depth,
            )
        self.requeue(record)

    def requeue(self, record: JobRecord) -> None:
        """Enqueue bypassing admission — the restart-recovery path.

        A job the service already admitted must be re-enqueued after a
        crash even if the bounds have since tightened; rejecting it now
        would drop accepted work.
        """
        self._records[record.job_id] = record
        self._cancelled.discard(record.job_id)
        heapq.heappush(self._heap, (-record.spec.priority, record.seq,
                                    record.job_id))
        client = record.spec.client
        self._active_per_client[client] = self.active_for(client) + 1

    # -- scheduling ----------------------------------------------------

    def pop(self) -> Optional[JobRecord]:
        """Highest-priority queued job, or ``None`` when idle.

        The popped job stays charged against its client's cap until
        :meth:`finish` is called for it.
        """
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            if job_id in self._cancelled:
                self._cancelled.discard(job_id)
                continue
            record = self._records.pop(job_id, None)
            if record is not None:
                return record
        return None

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Remove a queued job; returns its record or ``None`` if unknown."""
        record = self._records.pop(job_id, None)
        if record is None:
            return None
        self._cancelled.add(job_id)
        self._release(record.spec.client)
        return record

    def finish(self, record: JobRecord) -> None:
        """Release the client-cap charge of a job that left the running set."""
        self._release(record.spec.client)

    def _release(self, client: str) -> None:
        count = self.active_for(client) - 1
        if count > 0:
            self._active_per_client[client] = count
        else:
            self._active_per_client.pop(client, None)
