"""Fault-tolerant parallel sweep executor for experiment grids.

The experiment modules were written as straight-line loops: readable, but a
robustness matrix over 9 filters × 7 attacks × 10 seeds is 630 independent
DGD executions that a laptop runs one at a time. :class:`SweepEngine`
provides the missing execution layer:

- **Batched replication.** Cells that differ only in their seed are one
  :func:`repro.system.batch.run_dgd_batch` call — the vectorized engine
  executes all replicate runs as stacked tensors, bit-identical to the
  sequential runner.
- **Process-pool fan-out.** Independent cell groups are scheduled onto a
  :class:`concurrent.futures.ProcessPoolExecutor` in contiguous chunks
  (one task per chunk keeps IPC overhead off the hot path). Results come
  back in submission order regardless of completion order.
- **Deterministic seed derivation.** Per-run seeds derive from one master
  seed through :func:`repro.utils.rng.spawn_rngs`, so a grid is a pure
  function of its declaration — rerunning it, resuming it, or running it
  with a different worker count yields the same numbers.
- **Checksummed on-disk trace cache.** Each cell's trace is stored under a
  SHA-256 hash of its full configuration, written atomically
  (write-then-rename) with an end-to-end content checksum. Truncated or
  bit-flipped entries are detected on read, discarded, and recomputed —
  corruption can cost time, never correctness. :meth:`SweepEngine.map_cached`
  owns the cache for every cached grid (regression cells, tournament
  matches, E17 topology cells): it resolves hits in the calling process
  before anything is dispatched, and the process that computes a cell
  stores it. Failed cells are never stored.

The engine is built to survive the faults infrastructure actually
exhibits, mirroring how CGE survives Byzantine gradients (the paper's own
subject). The failure ladder, applied per chunk:

1. **Retry with backoff.** A chunk whose worker raises, whose process
   dies (``BrokenProcessPool``), or which exceeds ``timeout`` seconds is
   retried up to ``retries`` times with exponential backoff and jitter.
   Timeouts and crashes poison the pool, so it is killed and rebuilt
   before resubmission; still-pending chunks are resubmitted to the fresh
   pool (workers are pure functions of their task, so re-execution is
   bit-identical).
2. **Degrade to in-process.** A chunk that keeps raising *soft*
   exceptions after all pool retries is rerun in-process one item at a
   time, so a single poison item cannot take down its chunk-mates.
   (Timed-out and hard-crashed chunks skip this step — re-executing a
   hang or an ``os._exit`` in the parent would take the engine down.)
3. **Quarantine.** Items that still fail become per-item error results
   (:class:`SweepCellResult` with ``failed=True, quarantined=True``)
   instead of aborting the grid — the sweep analogue of eliminating a
   Byzantine agent rather than crashing the protocol.

Every decision is recorded in a structured :class:`SweepEvents` log
(optionally mirrored to a JSONL file): retries, timeouts, pool rebuilds,
quarantines, cache hits/misses/corruptions, and per-chunk wall time.
``resume()`` re-executes a grid against its cache manifest, recomputing
only cells that never completed — the event log's cache-hit count is the
proof.

Everything submitted to the pool must be picklable; the engine verifies
this up front and transparently falls back to in-process execution (with
one warning per engine instance) when it is not, so ``parallel=True`` is
always safe to request.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import random
import sys
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as PoolTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.reporting import ExperimentResult
from repro.exceptions import CacheIntegrityError, InvalidParameterError, ReproError
from repro.observability.tracing import TraceContext
from repro.observability.exporters import (
    JSONLSink,
    MemorySink,
    count_events,
    load_jsonl,
)
from repro.utils.atomicio import read_json_checked, write_json_atomic
from repro.utils.rng import derive_seed, spawn_rngs
from repro.utils.validation import require_int, require_names, require_number

__all__ = [
    "SweepEngine",
    "SweepEvents",
    "SharedProcessPool",
    "RegressionGrid",
    "SweepCellResult",
    "derive_run_seeds",
    "parallel_map",
    "summarize_grid",
]


def derive_run_seeds(master_seed: int, count: int) -> List[int]:
    """``count`` independent integer run seeds derived from one master seed.

    Deterministic: the same master seed always yields the same sequence,
    and seed ``k`` does not depend on ``count`` (prefix-stable), so growing
    a sweep keeps every already-computed cell's seed — and therefore its
    cache entry — valid.
    """
    return [derive_seed(rng) for rng in spawn_rngs(int(master_seed), int(count))]


def _config_hash(payload: Dict) -> str:
    """Stable SHA-256 key for a cell configuration."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def _run_chunk(worker: Callable, items: Sequence) -> List:
    """Pool task body: apply ``worker`` to one contiguous chunk of items."""
    return [worker(item) for item in items]


class SweepEvents:
    """Structured, append-only event log for one engine's activity.

    Built on the observability layer's sinks
    (:mod:`repro.observability.exporters`), so sweep event logs and run
    telemetry streams share one schema — flat JSON objects with an
    ``"event"`` key, one per line — and one set of post-mortem tools:
    ``SweepEvents.load`` *is* :func:`~repro.observability.load_jsonl`, and
    either kind of stream can be counted or summarized interchangeably.
    With ``path`` given, each record is mirrored to disk the moment it is
    emitted, so a killed run leaves a readable prefix; the reader side
    skips unparsable lines — a truncated final line from a killed writer
    must not take the post-mortem down with it.

    Event vocabulary: ``chunk_done`` (with ``elapsed`` wall seconds),
    ``chunk_retry``, ``chunk_timeout``, ``chunk_crash``, ``chunk_degraded``,
    ``pool_rebuild``, ``fallback`` (pool → in-process), ``item_retry``,
    ``quarantine``, ``cache_hit``, ``cache_miss``, ``cache_corrupt``,
    ``cell_failed``, ``manifest``, ``resume``.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._memory = MemorySink()
        self._sinks = [self._memory]
        self._trace_fields: Optional[Dict[str, str]] = None
        if path is not None:
            # JSONLSink owns the file: each engine run starts a fresh log.
            self._sinks.append(JSONLSink(path))

    @property
    def records(self) -> List[Dict]:
        return self._memory.records

    def bind_trace(self, context: Optional["TraceContext"]) -> None:
        """Stamp subsequent records with ``context``'s trace lineage.

        The engine binds its own trace context here, so every event it
        logs (chunk_done, cache_hit, ...) references the engine's span in
        the reconstructed cross-process tree. Records that already carry
        ``trace_id`` (explicit span records) are left untouched.
        """
        self._trace_fields = (
            None if context is None
            else {"trace_id": context.trace_id, "span_id": context.span_id}
        )

    def emit(self, event: str, **fields) -> Dict:
        record = {"event": event, **fields}
        if self._trace_fields is not None and "trace_id" not in record:
            record.update(self._trace_fields)
        for sink in self._sinks:
            sink.emit(record)
        return record

    def counts(self) -> Dict[str, int]:
        """Event name → number of occurrences."""
        return count_events(self.records)

    def close(self) -> None:
        """Close the JSONL file; the in-memory log stays readable."""
        for sink in self._sinks:
            sink.close()

    load = staticmethod(load_jsonl)


@dataclass(frozen=True)
class RegressionGrid:
    """Declarative (filter × attack × f × seed) grid on redundant regression.

    The instance parameters (``n``, ``d``, ``redundancy_f``, ``noise_std``,
    ``instance_seed``) fix one
    :func:`repro.problems.linear_regression.make_redundant_regression`
    problem; the grid axes multiply out to
    ``len(filters) · len(attacks) · len(fault_counts) · num_seeds`` cells.
    Per-run seeds derive from ``master_seed`` via :func:`derive_run_seeds`.

    The grid checks its own fields when it is built: registered filter and
    buildable attack names, non-negative fault counts, at least one seed,
    agent, dimension and round, and an instance that can exist (``2f < n``
    and ``n − 2f >= d`` at :meth:`resolved_redundancy_f`). A grid whose
    cells cannot run, such as Bulyan at ``n = 6``, still builds; its cells
    fail one by one.
    """

    filters: Tuple[str, ...] = ("cge", "cwtm", "median", "average")
    attacks: Tuple[str, ...] = ("gradient-reverse", "random", "sign-flip", "zero")
    fault_counts: Tuple[int, ...] = (1,)
    num_seeds: int = 10
    master_seed: int = 20200803
    n: int = 6
    d: int = 2
    redundancy_f: Optional[int] = None
    noise_std: float = 0.0
    instance_seed: int = 20200803
    iterations: int = 300
    x0: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        from repro.aggregators.registry import available_filters
        from repro.attacks.registry import buildable_attacks
        from repro.experiments.common import check_regression_setup

        require_names("filters", self.filters, available_filters(), "filter")
        require_names("attacks", self.attacks, buildable_attacks(), "attack")
        counts = self.fault_counts
        if not isinstance(counts, (list, tuple)) or not counts or any(
            isinstance(c, bool) or not isinstance(c, int) or c < 0 for c in counts
        ):
            raise InvalidParameterError(
                "job parameter 'fault_counts' must be a non-empty list of "
                "non-negative integers"
            )
        for name, minimum in (("num_seeds", 1), ("n", 1), ("d", 1),
                              ("iterations", 1), ("master_seed", None),
                              ("instance_seed", None)):
            require_int(name, getattr(self, name), minimum)
        if self.redundancy_f is not None:
            require_int("redundancy_f", self.redundancy_f, 1)
        require_number("noise_std", self.noise_std)
        x0 = self.x0
        if x0 is not None and (not isinstance(x0, (list, tuple)) or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            or not math.isfinite(v) for v in x0
        )):
            raise InvalidParameterError(
                "job parameter 'x0' must be a list of finite numbers"
            )
        check_regression_setup(
            self.n, self.d, self.resolved_redundancy_f(), self.noise_std
        )
        if x0 is not None and len(x0) != self.d:
            raise InvalidParameterError(
                f"job parameter 'x0' must hold d={self.d} numbers, got {len(x0)}"
            )
        # Equal grids get equal cell keys however a number is spelled
        # (``0`` or ``0.0``, a tuple or a JSON list).
        object.__setattr__(self, "noise_std", float(self.noise_std))
        if x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in x0))

    def resolved_redundancy_f(self) -> int:
        """The instance's redundancy degree (defaults to the largest f swept)."""
        if self.redundancy_f is not None:
            return int(self.redundancy_f)
        return max(1, max(self.fault_counts))

    def seeds(self) -> List[int]:
        return derive_run_seeds(self.master_seed, self.num_seeds)


@dataclass
class SweepCellResult:
    """One executed grid cell."""

    filter_name: str
    attack_name: str
    f: int
    seed: int
    final_error: float = float("nan")
    final_estimate: Optional[np.ndarray] = None
    estimates: Optional[np.ndarray] = field(default=None, repr=False)
    error: Optional[str] = None
    cached: bool = False
    quarantined: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None


def _cell_cache_payload(grid_fields: Dict, filter_name: str, attack_name: str,
                        f: int, seed: int) -> Dict:
    """The exact configuration a cell's cache key is derived from.

    Excludes execution details (vectorized or ``run_dgd`` fallback, worker
    count, chunking, timeout, retries) on purpose: the batch engine is
    bit-identical to its fallback and the resilience machinery only
    re-executes pure work, so none of them can change the result.
    """
    return {
        "kind": "regression-dgd",
        "version": 1,
        **grid_fields,
        "filter": filter_name,
        "attack": attack_name,
        "f": f,
        "seed": seed,
    }


def _valid_cell_payload(payload) -> bool:
    """Does a cache document have the shape a cell payload must have?

    Guards the read path beyond the checksum: a legacy (pre-checksum)
    entry has no digest to verify, and single-bit corruption of a wrapper
    can demote a checksummed document to an apparently-legacy one — the
    shape check rejects both instead of poisoning results.
    """
    return isinstance(payload, dict) and all(
        key in payload for key in ("final_error", "final_estimate", "estimates")
    )


def _load_cache_entry(path: str, valid: Callable[[object], bool]) -> Optional[Dict]:
    """Read one cache entry; ``None`` means corrupt/invalid (recompute).

    Called by :meth:`SweepEngine.map_cached` for every cached grid;
    ``valid`` is the grid's own shape check (a checksummed document of the
    wrong shape, e.g. another grid's entry under a colliding key or a
    failed cell stored by an older engine, is as unusable as a truncated
    one). Never raises on bad content: truncated JSON, checksum
    mismatches, and shape violations all report as a miss, and the
    damaged file is removed so the rewrite is clean.
    """
    try:
        payload = read_json_checked(path)
    except CacheIntegrityError:
        payload = None
    if payload is not None and not valid(payload):
        payload = None
    if payload is None:
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    return payload


def _run_regression_group(task: Dict) -> List[Dict]:
    """Execute one (filter, attack, f) group across its seeds.

    Module-level (hence picklable) pool worker for
    :meth:`SweepEngine.map_cached`, which hands it only the group's
    uncached seeds; they run as one :func:`run_dgd_batch` call. Returns
    one JSON-safe payload per seed, in the task's seed order.
    """
    from repro.attacks.registry import make_attack
    from repro.experiments.common import regression_setup
    from repro.observability import Telemetry, TraceContext
    from repro.system.batch import run_dgd_batch
    from repro.system.runner import DGDConfig

    grid_fields = task["grid_fields"]
    filter_name, attack_name, f = task["filter"], task["attack"], task["f"]
    seeds = task["seeds"]
    telemetry_dir = task.get("telemetry_dir")
    trace_payload = task.get("trace")

    instance, faulty_ids, x_H = regression_setup(
        grid_fields["n"], grid_fields["d"], f, grid_fields["noise_std"],
        grid_fields["instance_seed"], redundancy_f=grid_fields["redundancy_f"],
    )
    behavior = make_attack(attack_name) if f > 0 else None
    config = DGDConfig(
        iterations=grid_fields["iterations"],
        gradient_filter=filter_name,
        faulty_ids=faulty_ids,
        f=f if f > 0 else None,
        x0=grid_fields["x0"],
        seed=0,
    )
    telemetry = None
    if telemetry_dir is not None:
        # One JSONL stream per (f, filter, attack) group, produced by the
        # worker that executes it (safe under the process pool: no two
        # workers share a group, hence a file). Cached cells never reach
        # a worker, so they emit nothing — telemetry records execution.
        stream = os.path.join(
            telemetry_dir, f"f{f}-{filter_name}-{attack_name}.jsonl"
        )
        group_name = f"group-f{f}-{filter_name}-{attack_name}"
        group_trace = None
        if trace_payload is not None:
            # The chunk context travelled across the process boundary
            # inside the task payload; derive this group's span under it
            # so the worker's stream links back to the job's tree.
            group_trace = TraceContext.from_payload(
                trace_payload
            ).child(group_name)
        telemetry = Telemetry(
            stream,
            byzantine_ids=faulty_ids,
            reference_point=x_H,
            trace=group_trace,
            trace_name=group_name if group_trace is not None else None,
        )
    try:
        traces = run_dgd_batch(
            instance.costs, behavior, config, seeds=seeds, telemetry=telemetry,
        )
    except (InvalidParameterError, ReproError) as exc:
        # Infeasible configuration (e.g. Bulyan's n >= 4f + 3): the whole
        # group fails identically for every seed.
        return [{"error": f"{type(exc).__name__}: {exc}"} for _ in seeds]
    finally:
        if telemetry is not None:
            telemetry.close()  # flush the trailing counters + summary
    return [
        {
            "final_error": float(np.linalg.norm(trace.final_estimate - x_H)),
            "final_estimate": trace.final_estimate.tolist(),
            "estimates": trace.estimates.tolist(),
        }
        for trace in traces
    ]


def _compute_and_store(worker: Callable, cache_dir: Optional[str],
                       task: Dict) -> List[Dict]:
    """Pool task body of :meth:`SweepEngine.map_cached`: compute, then store.

    Runs ``worker`` on a task cut down to its uncached seeds and writes
    each successful payload under its key (``task["keys"]``, parallel to
    ``task["seeds"]``) before returning, so a group's cells are on disk
    as soon as its worker finishes and a run killed later loses none of
    them. A failed cell (a payload with ``"error"``) is never stored: the
    next run recomputes it, so a fix takes effect.
    """
    payloads = worker(task)
    if cache_dir is not None:
        for key, payload in zip(task["keys"], payloads):
            if "error" not in payload:
                write_json_atomic(os.path.join(cache_dir, f"{key}.json"), payload)
    return payloads


class _PoolUnavailable(ReproError):
    """Internal: the process pool could not be (re)created at all.

    Distinct from chunk-level failures so :meth:`SweepEngine.map` can
    degrade the whole map to in-process execution without accidentally
    swallowing worker exceptions (note ``TimeoutError`` is an ``OSError``
    subclass on modern Pythons — a broad ``except OSError`` around the
    pool loop would eat quarantine re-raises).
    """


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung or dead workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown is best-effort
        pass
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass


class SharedProcessPool:
    """One process pool multiplexed across many :class:`SweepEngine` owners.

    The long-lived aggregation service runs one engine per job so that each
    job keeps its own event/telemetry streams and cache namespace, but a
    persistent server must not spawn one worker fleet per job. This handle
    is the explicit serialization layer: engines that share it take turns
    using one :class:`~concurrent.futures.ProcessPoolExecutor` — an engine
    acquires exclusive use for the duration of one pooled ``map``, and the
    failure ladder's kill/rebuild goes through :meth:`invalidate` so a
    rebuilt pool is visible to every sharer. Serialization makes the
    failure ladder sound under sharing: a pool is only ever killed by the
    engine currently using it, so no other engine can have futures in
    flight on the executor being torn down.

    Workers are spawned lazily on first use and survive between jobs
    (amortizing process start-up across the service's lifetime). After
    :meth:`close`, engines fall back to in-process execution — the same
    degradation path they take when a pool cannot be created at all.

    It is also the only place executors are built: an engine without a
    shared handle runs each pooled ``map`` on a private one, closed when
    the map ends.
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers <= 0:
            raise InvalidParameterError(
                f"max_workers must be positive, got {max_workers}"
            )
        self._max_workers = max_workers
        self._lock = threading.RLock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._rebuilds = 0

    @property
    def max_workers(self) -> Optional[int]:
        return self._max_workers

    @property
    def rebuilds(self) -> int:
        """How many times the failure ladder has replaced the executor."""
        return self._rebuilds

    @property
    def live_workers(self) -> int:
        """Count of worker processes currently alive.

        Deliberately lock-free: the health endpoints scrape this while an
        engine may hold the pool lock for an entire pooled map, and a
        monitoring read must never block on (or be blocked by) job
        execution. The racy read is fine — a worker set mid-churn yields
        a momentarily stale count, never a crash.
        """
        pool = self._pool
        if pool is None:
            return 0
        processes = getattr(pool, "_processes", None)
        if not processes:
            return 0
        try:
            return sum(1 for p in list(processes.values()) if p.is_alive())
        except Exception:  # pragma: no cover - interpreter-internal churn
            return 0

    def acquire(self) -> None:
        """Take exclusive use of the pool (blocks other sharers)."""
        self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def get(self, workers: int) -> ProcessPoolExecutor:
        """The live executor, created lazily. Caller must hold the lock."""
        if self._closed:
            raise _PoolUnavailable("shared pool is closed")
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers or workers
                )
            except (OSError, RuntimeError) as exc:
                raise _PoolUnavailable(f"{type(exc).__name__}: {exc}") from exc
        return self._pool

    def invalidate(self) -> None:
        """Kill the current executor so the next :meth:`get` rebuilds it.

        Called by the failure ladder after a hang or worker crash poisons
        the pool. Caller must hold the lock.
        """
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None
            self._rebuilds += 1

    def close(self) -> None:
        """Shut the pool down for good; engines degrade to in-process."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                _kill_pool(self._pool)
                self._pool = None

    def __enter__(self) -> "SharedProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _quarantined_group(exc: BaseException, task: Dict) -> List[Dict]:
    """Per-seed error payloads for a group the engine gave up on."""
    message = f"quarantined: {type(exc).__name__}: {exc}"
    return [{"error": message, "quarantined": True} for _ in task["seeds"]]


class SweepEngine:
    """Chunked, fault-tolerant process-pool executor with per-cell caching.

    Parameters
    ----------
    parallel:
        Fan work out over a process pool; ``False`` executes in-process
        (still batched, still cached, still retried/quarantined).
    max_workers:
        Pool size; defaults to ``os.cpu_count()`` capped at the number of
        scheduled chunks.
    cache_dir:
        Directory for the on-disk trace cache; ``None`` disables caching.
    timeout:
        Per-chunk wall-clock budget in seconds (pool mode only). A chunk
        exceeding it counts as one failed attempt; the pool is killed and
        rebuilt so a hung worker cannot wedge the grid. ``None`` waits
        forever (the pre-hardening behaviour).
    retries:
        Failed attempts allowed per chunk beyond the first, and per item
        on the in-process path. Exhausting them quarantines (with
        ``on_item_error``) or re-raises.
    retry_backoff:
        Base of the exponential backoff: retry ``k`` sleeps
        ``retry_backoff · 2^(k-1) · u`` seconds with jitter
        ``u ∈ [0.5, 1.5)`` to decorrelate contending retries.
    events:
        A :class:`SweepEvents` instance, a path for a JSONL event file, or
        ``None`` for an in-memory log (always available via ``.events``).
    worker_wrapper:
        Applied to the worker before execution — the seam the chaos suite
        uses to wrap grid workers in
        :class:`repro.system.faultinjection.FaultyWorker` without patching
        engine internals.
    chunk_size:
        Default chunk size for :meth:`map` (``None`` auto-sizes to a few
        chunks per worker).
    telemetry_dir:
        Directory for per-group run-telemetry JSONL streams. When set,
        every recomputed (f, filter, attack) group writes
        ``f{f}-{filter}-{attack}.jsonl`` with one ``"round"`` record per
        round per run slice (kept/eliminated agents, gradient norms, step
        size, distance to the group's honest minimizer) in the same event
        schema as :class:`SweepEvents`. Cache hits produce no telemetry —
        the stream records actual execution. ``None`` (default) disables.
    pool:
        A :class:`SharedProcessPool` to execute on instead of a private
        per-``map`` pool. Engines sharing one handle take turns using its
        workers (the aggregation service's execution substrate: one worker
        fleet, many per-job engines, each keeping its own events/telemetry
        streams and cache keys). ``max_workers`` is ignored when a shared
        pool is given — the handle fixes the fleet size.

    Thread safety
    -------------
    :meth:`map` and :meth:`map_cached` (and everything built on them) are
    serialized by an internal lock, so concurrent callers — the service's job slots, or any two
    threads sharing one engine — are safe and produce results bit-identical
    to running the same calls sequentially. Cross-engine pool sharing is
    serialized by the :class:`SharedProcessPool` handle itself.
    """

    def __init__(
        self,
        parallel: bool = True,
        max_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff: float = 0.05,
        events: Union[SweepEvents, str, None] = None,
        worker_wrapper: Optional[Callable[[Callable], Callable]] = None,
        chunk_size: Optional[int] = None,
        telemetry_dir: Optional[str] = None,
        pool: Optional[SharedProcessPool] = None,
        trace: Optional[TraceContext] = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise InvalidParameterError(
                f"max_workers must be positive, got {max_workers}"
            )
        if timeout is not None and timeout <= 0:
            raise InvalidParameterError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise InvalidParameterError(f"retries must be non-negative, got {retries}")
        if retry_backoff < 0:
            raise InvalidParameterError(
                f"retry_backoff must be non-negative, got {retry_backoff}"
            )
        self._parallel = bool(parallel)
        self._max_workers = max_workers
        self._cache_dir = cache_dir
        self._timeout = timeout
        self._retries = int(retries)
        self._retry_backoff = float(retry_backoff)
        self._worker_wrapper = worker_wrapper
        self._chunk_size = chunk_size
        self._events = events if isinstance(events, SweepEvents) else SweepEvents(events)
        self._warned: set = set()
        self._retry_rng = random.Random(0x5EED)
        self._shared_pool = pool
        self._map_lock = threading.RLock()
        self._telemetry_dir = telemetry_dir
        self._trace = trace
        self._trace_map_seq = 0
        if trace is not None:
            self._events.bind_trace(trace)
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
        if telemetry_dir is not None:
            os.makedirs(telemetry_dir, exist_ok=True)

    @property
    def parallel(self) -> bool:
        return self._parallel

    @property
    def shared_pool(self) -> Optional[SharedProcessPool]:
        return self._shared_pool

    @property
    def cache_dir(self) -> Optional[str]:
        return self._cache_dir

    @property
    def events(self) -> SweepEvents:
        return self._events

    @property
    def telemetry_dir(self) -> Optional[str]:
        return self._telemetry_dir

    @property
    def trace(self) -> Optional[TraceContext]:
        return self._trace

    # ------------------------------------------------------------------
    # Trace propagation
    # ------------------------------------------------------------------

    def _trace_chunk_contexts(
        self, count: int
    ) -> Optional[List[TraceContext]]:
        """Per-chunk child contexts for one ``map`` call, or ``None``.

        The map sequence number keys the derivation, so two maps on one
        engine (a run plus its resume) produce distinct chunk span ids
        while a *retry* of the same chunk within one map re-derives the
        same id (the reconstructor deduplicates re-executions).
        """
        if self._trace is None:
            return None
        self._trace_map_seq += 1
        seq = self._trace_map_seq
        return [
            self._trace.child(f"chunk-{index}", index=seq)
            for index in range(count)
        ]

    @staticmethod
    def _inject_trace(items: Sequence, context: TraceContext) -> List:
        """Copy dict items with the chunk context in their payload."""
        payload = context.to_payload()
        return [
            {**item, "trace": payload}
            if isinstance(item, dict) and "trace" not in item
            else item
            for item in items
        ]

    def _emit_chunk_span(
        self, context: TraceContext, index: int, ts: float, seconds: float
    ) -> None:
        self._events.emit(
            "span",
            name=f"chunk-{index}",
            seconds=seconds,
            ts=ts,
            **context.fields(),
        )

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------

    def _warn_once(self, key: str, message: str) -> None:
        """Emit ``message`` at most once per engine instance per ``key``,
        attributed to the first caller outside this module."""
        if key in self._warned:
            return
        self._warned.add(key)
        frame, stacklevel = sys._getframe(1), 2
        while frame is not None and frame.f_code.co_filename == __file__:
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(message, stacklevel=stacklevel)

    def _backoff(self, attempt: int) -> None:
        if self._retry_backoff <= 0:
            return
        jitter = 0.5 + self._retry_rng.random()
        time.sleep(self._retry_backoff * (2 ** max(0, attempt - 1)) * jitter)

    def _run_items_inprocess(
        self,
        worker: Callable,
        items: Sequence,
        on_item_error: Optional[Callable],
        retries: int,
    ) -> List:
        """Sequential per-item execution with retry and quarantine."""
        results: List = []
        for item in items:
            attempt = 0
            while True:
                try:
                    results.append(worker(item))
                    break
                except Exception as exc:
                    attempt += 1
                    if attempt > retries:
                        if on_item_error is None:
                            raise
                        self._events.emit(
                            "quarantine",
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=attempt,
                        )
                        results.append(on_item_error(exc, item))
                        break
                    self._events.emit(
                        "item_retry", attempt=attempt,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    self._backoff(attempt)
        return results

    def _quarantine_chunk(
        self,
        chunk: Sequence,
        exc: BaseException,
        on_item_error: Optional[Callable],
        chunk_index: int,
    ) -> List:
        if on_item_error is None:
            raise exc
        out = []
        for item in chunk:
            self._events.emit(
                "quarantine", chunk=chunk_index,
                error=f"{type(exc).__name__}: {exc}",
            )
            out.append(on_item_error(exc, item))
        return out

    def _map_pooled(
        self,
        worker: Callable,
        chunks: List[Sequence],
        workers: int,
        on_item_error: Optional[Callable],
        chunk_contexts: Optional[List[TraceContext]] = None,
    ) -> List:
        """Pool execution of ``chunks`` with the retry/rebuild/quarantine ladder.

        Each round submits every pending chunk and collects results in
        order. The first timeout or pool break in a round marks the pool
        for rebuild: completed chunks are salvaged (a salvaged chunk that
        actually *failed* is charged an attempt — its exception must never
        vanish into the rebuild), everything still running is resubmitted
        to a fresh pool without charging an attempt — only chunks that
        demonstrably failed pay one, so an innocent chunk queued behind a
        hang is never quarantined for it. Every round charges at least one
        attempt to some chunk, so the loop terminates.

        An engine without a shared pool runs the map on a private
        :class:`SharedProcessPool`, closed when the map ends.
        """
        results: Dict[int, List] = {}
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        handle = self._shared_pool or SharedProcessPool()
        handle.acquire()
        try:
            pool = handle.get(workers)
            while pending:
                futures: Dict[int, object] = {}
                submitted_at: Dict[int, float] = {}
                submitted_ts: Dict[int, float] = {}
                rebuild = False
                next_round: List[int] = []

                def charge_failure(index: int, exc: BaseException, event: str,
                                   **extra) -> None:
                    attempts[index] += 1
                    self._events.emit(
                        event, chunk=index, attempt=attempts[index], **extra
                    )
                    if attempts[index] > self._retries:
                        results[index] = self._quarantine_chunk(
                            chunks[index], exc, on_item_error, index
                        )
                    else:
                        next_round.append(index)

                for index in pending:
                    if rebuild:
                        next_round.append(index)
                        continue
                    try:
                        submitted_at[index] = time.perf_counter()
                        if chunk_contexts is not None:
                            submitted_ts[index] = time.time()
                        futures[index] = pool.submit(_run_chunk, worker, chunks[index])
                    except Exception as exc:
                        rebuild = True
                        charge_failure(
                            index, exc, "chunk_crash",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                for index in sorted(futures):
                    if rebuild:
                        # Salvage chunks that finished before the pool was
                        # marked dead; resubmit still-running ones,
                        # attempt-free. A chunk that is done but *failed*
                        # pays for its failure like any other: swallowing
                        # it here would let a deterministically-failing
                        # chunk loop through rebuilds forever without its
                        # exception ever surfacing or counting against
                        # ``retries``.
                        future = futures[index]
                        if future.done():
                            try:
                                results[index] = future.result(timeout=0)
                                elapsed = time.perf_counter() - submitted_at[index]
                                self._events.emit(
                                    "chunk_done", chunk=index,
                                    size=len(chunks[index]),
                                    attempt=attempts[index] + 1,
                                    elapsed=elapsed,
                                )
                                if chunk_contexts is not None:
                                    self._emit_chunk_span(
                                        chunk_contexts[index], index,
                                        submitted_ts[index], elapsed,
                                    )
                            except Exception as exc:
                                charge_failure(
                                    index, exc, "chunk_salvage_failed",
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                            continue
                        next_round.append(index)
                        continue
                    try:
                        results[index] = futures[index].result(timeout=self._timeout)
                        elapsed = time.perf_counter() - submitted_at[index]
                        self._events.emit(
                            "chunk_done", chunk=index, size=len(chunks[index]),
                            attempt=attempts[index] + 1,
                            elapsed=elapsed,
                        )
                        if chunk_contexts is not None:
                            self._emit_chunk_span(
                                chunk_contexts[index], index,
                                submitted_ts[index], elapsed,
                            )
                    except PoolTimeoutError:
                        rebuild = True
                        charge_failure(
                            index,
                            TimeoutError(
                                f"chunk exceeded timeout={self._timeout}s"
                            ),
                            "chunk_timeout",
                            timeout=self._timeout,
                        )
                    except BrokenExecutor as exc:
                        rebuild = True
                        charge_failure(
                            index, exc, "chunk_crash",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    except Exception as exc:
                        attempts[index] += 1
                        if attempts[index] > self._retries:
                            # Soft failure out of retries: isolate the poison
                            # item in-process (one attempt each).
                            self._events.emit(
                                "chunk_degraded", chunk=index,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                            results[index] = self._run_items_inprocess(
                                worker, chunks[index], on_item_error, retries=0
                            )
                            if chunk_contexts is not None:
                                self._emit_chunk_span(
                                    chunk_contexts[index], index,
                                    submitted_ts[index],
                                    time.perf_counter() - submitted_at[index],
                                )
                        else:
                            self._events.emit(
                                "chunk_retry", chunk=index, attempt=attempts[index],
                                error=f"{type(exc).__name__}: {exc}",
                            )
                            next_round.append(index)
                if rebuild and next_round:
                    self._events.emit("pool_rebuild", pending=len(next_round))
                    handle.invalidate()
                    pool = handle.get(workers)
                if next_round:
                    self._backoff(max(attempts[i] for i in next_round))
                pending = sorted(next_round)
        finally:
            if handle is not self._shared_pool:
                handle.close()
            handle.release()
        return [item for index in range(len(chunks)) for item in results[index]]

    # ------------------------------------------------------------------
    # Public execution API
    # ------------------------------------------------------------------

    def map(
        self,
        worker: Callable,
        items: Sequence,
        chunk_size: Optional[int] = None,
        on_item_error: Optional[Callable] = None,
    ) -> List:
        """Apply a picklable ``worker`` to every item, preserving order.

        Items are scheduled in contiguous chunks (one pool task per chunk)
        so that fine-grained grids do not pay one IPC round-trip per cell.
        Chunks ride the failure ladder documented on the class: bounded
        retries with backoff, pool rebuild on timeout/crash, degradation
        to in-process per-item execution, and — when ``on_item_error`` is
        given — quarantine via ``on_item_error(exc, item)`` in place of the
        item's result. Without ``on_item_error`` a persistent failure
        re-raises after the retries are spent.

        Workers must be effectively idempotent: a chunk interrupted by a
        timeout or crash is re-executed from scratch.

        Thread-safe: concurrent calls are serialized on an internal lock
        (shared mutable state — the event log, the retry RNG, the pool —
        admits one map at a time), so racing callers see exactly the
        results of some sequential ordering of their calls.
        """
        with self._map_lock:
            return self._map_locked(worker, items, chunk_size, on_item_error)

    def map_cached(
        self,
        worker: Callable,
        tasks: Sequence[Dict],
        keys: Sequence[Sequence[str]],
        valid: Callable[[object], bool],
        on_item_error: Optional[Callable] = None,
    ) -> List[List[Dict]]:
        """:meth:`map` over cached cells, with every hit resolved up front.

        ``tasks[i]["seeds"]`` lists task ``i``'s cells and ``keys[i]``
        their cache keys. Every cell is looked up here, in the calling
        process, before anything is dispatched: an entry must pass its
        checksum and the ``valid`` shape guard, a bad one is removed, and
        each cell logs one ``cache_hit``, ``cache_miss`` or
        ``cache_corrupt`` event carrying its ``key`` and ``seed``. Only
        tasks with a missing cell ride :meth:`map`'s failure ladder, each
        cut down to its missing seeds, so a fully cached grid never
        touches the pool. ``worker`` returns one payload per seed of the
        task it is given; :func:`_compute_and_store` stores every
        successful one where it was computed, and never a payload carrying
        ``"error"``. Returns one payload list per task, in seed order;
        served payloads carry ``cached=True``.
        """
        with self._map_lock:
            results: List[List[Optional[Dict]]] = []
            pending: List[Tuple[int, List[int]]] = []
            items: List[Dict] = []
            cache_dir = self._cache_dir
            for task, task_keys in zip(tasks, keys):
                seeds = task["seeds"]
                found: List[Optional[Dict]] = [None] * len(seeds)
                for index, (seed, key) in enumerate(zip(seeds, task_keys)):
                    if cache_dir is None:
                        break
                    path = os.path.join(cache_dir, f"{key}.json")
                    state = "miss"
                    if os.path.exists(path):
                        payload = _load_cache_entry(path, valid)
                        state = "corrupt" if payload is None else "hit"
                        if payload is not None:
                            found[index] = {**payload, "cached": True}
                    self._events.emit(f"cache_{state}", key=key, seed=seed)
                missing = [i for i, payload in enumerate(found) if payload is None]
                if missing:
                    pending.append((len(results), missing))
                    items.append({**task, "seeds": [seeds[i] for i in missing],
                                  "keys": [task_keys[i] for i in missing]})
                results.append(found)
            computed = self._map_locked(
                functools.partial(_compute_and_store, worker, cache_dir),
                items, None, on_item_error,
            )
            for (slot, missing), payloads in zip(pending, computed):
                for index, payload in zip(missing, payloads):
                    results[slot][index] = payload
            return results  # type: ignore[return-value]

    def _map_locked(
        self,
        worker: Callable,
        items: Sequence,
        chunk_size: Optional[int],
        on_item_error: Optional[Callable],
    ) -> List:
        items = list(items)
        if not items:
            return []
        if self._worker_wrapper is not None:
            worker = self._worker_wrapper(worker)
        use_pool = self._parallel and len(items) > 1
        if use_pool:
            try:
                pickle.dumps((worker, items))
            except Exception as exc:
                self._warn_once(
                    "unpicklable",
                    f"sweep work is not picklable ({type(exc).__name__}: {exc}); "
                    "running sequentially in-process",
                )
                self._events.emit(
                    "fallback", reason="unpicklable",
                    error=f"{type(exc).__name__}: {exc}",
                )
                use_pool = False
        if not use_pool:
            contexts = self._trace_chunk_contexts(1)
            if contexts is None:
                return self._run_items_inprocess(
                    worker, items, on_item_error, retries=self._retries
                )
            # Traced in-process execution is modelled as one chunk so the
            # span chain (engine -> chunk -> worker group) is identical
            # in shape to the pooled path.
            items = self._inject_trace(items, contexts[0])
            started_ts = time.time()
            started = time.perf_counter()
            results = self._run_items_inprocess(
                worker, items, on_item_error, retries=self._retries
            )
            self._emit_chunk_span(
                contexts[0], 0, started_ts, time.perf_counter() - started
            )
            return results
        workers = self._max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(items)))
        if chunk_size is None:
            chunk_size = self._chunk_size
        if chunk_size is None:
            # Aim for a few chunks per worker so stragglers rebalance.
            chunk_size = max(1, -(-len(items) // (4 * workers)))
        chunks = [items[i : i + chunk_size] for i in range(0, len(items), chunk_size)]
        workers = min(workers, len(chunks))
        contexts = self._trace_chunk_contexts(len(chunks))
        if contexts is not None:
            chunks = [
                self._inject_trace(chunk, context)
                for chunk, context in zip(chunks, contexts)
            ]
            items = [item for chunk in chunks for item in chunk]
        try:
            return self._map_pooled(
                worker, chunks, workers, on_item_error,
                chunk_contexts=contexts,
            )
        except _PoolUnavailable as exc:
            self._warn_once(
                "pool-unavailable",
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                "running sequentially in-process",
            )
            self._events.emit(
                "fallback", reason="pool-unavailable",
                error=f"{type(exc).__name__}: {exc}",
            )
            return self._run_items_inprocess(
                worker, items, on_item_error, retries=self._retries
            )

    # ------------------------------------------------------------------
    # Grid execution, manifest, resume
    # ------------------------------------------------------------------

    def _grid_cells(self, grid: RegressionGrid) -> List[Dict]:
        """Flat cell descriptors (declaration order) with their cache keys."""
        seeds = grid.seeds()
        grid_fields = self._grid_fields(grid)
        cells = []
        for f in grid.fault_counts:
            for filter_name in grid.filters:
                for attack_name in grid.attacks:
                    for seed in seeds:
                        cells.append(
                            {
                                "filter": filter_name,
                                "attack": attack_name,
                                "f": f,
                                "seed": seed,
                                "key": _config_hash(
                                    _cell_cache_payload(
                                        grid_fields, filter_name, attack_name,
                                        f, seed
                                    )
                                ),
                            }
                        )
        return cells

    @staticmethod
    def _grid_fields(grid: RegressionGrid) -> Dict:
        return {
            "n": grid.n,
            "d": grid.d,
            "redundancy_f": grid.resolved_redundancy_f(),
            "noise_std": grid.noise_std,
            "instance_seed": grid.instance_seed,
            "iterations": grid.iterations,
            "x0": list(grid.x0) if grid.x0 is not None else None,
        }

    def _grid_hash(self, grid: RegressionGrid) -> str:
        payload = {
            **self._grid_fields(grid),
            "filters": list(grid.filters),
            "attacks": list(grid.attacks),
            "fault_counts": list(grid.fault_counts),
            "num_seeds": grid.num_seeds,
            "master_seed": grid.master_seed,
        }
        return _config_hash(payload)[:16]

    def manifest_path(self, grid: RegressionGrid) -> Optional[str]:
        """Where the grid's resume manifest lives (``None`` without a cache)."""
        if self._cache_dir is None:
            return None
        return os.path.join(self._cache_dir, f"manifest-{self._grid_hash(grid)}.json")

    def grid_progress(self, grid: RegressionGrid) -> Dict:
        """Completion state of ``grid`` against the on-disk cache.

        Counts a cell as completed only when its entry exists *and* passes
        the checksum/shape verification, so a corrupt entry reads as
        pending. Pure inspection: computes nothing, mutates nothing.
        """
        cells = self._grid_cells(grid)
        completed = 0
        pending: List[str] = []
        for cell in cells:
            done = False
            if self._cache_dir is not None:
                path = os.path.join(self._cache_dir, f"{cell['key']}.json")
                if os.path.exists(path):
                    try:
                        done = _valid_cell_payload(read_json_checked(path))
                    except CacheIntegrityError:
                        done = False
            if done:
                completed += 1
            else:
                pending.append(cell["key"])
        return {
            "grid_hash": self._grid_hash(grid),
            "total": len(cells),
            "completed": completed,
            "pending": pending,
        }

    def _write_manifest(self, grid: RegressionGrid,
                        results: Sequence["SweepCellResult"]) -> None:
        path = self.manifest_path(grid)
        if path is None:
            return
        cells = self._grid_cells(grid)
        failed = [
            cell["key"]
            for cell, result in zip(cells, results)
            if result.failed
        ]
        manifest = {
            "grid_hash": self._grid_hash(grid),
            "grid": {
                **self._grid_fields(grid),
                "filters": list(grid.filters),
                "attacks": list(grid.attacks),
                "fault_counts": list(grid.fault_counts),
                "num_seeds": grid.num_seeds,
                "master_seed": grid.master_seed,
            },
            "cells": [cell["key"] for cell in cells],
            "failed": failed,
        }
        write_json_atomic(path, manifest)
        self._events.emit(
            "manifest", path=path, cells=len(cells), failed=len(failed)
        )

    def run_regression_grid(self, grid: RegressionGrid) -> List[SweepCellResult]:
        """Execute every cell of a :class:`RegressionGrid`.

        Cells are grouped by (f, filter, attack); each group's seeds run as
        one batched DGD execution, and groups fan out over the pool through
        the failure ladder — a group that cannot be computed after all
        retries is quarantined into per-seed failed cells rather than
        aborting the grid. Results are ordered by (f, filter, attack,
        seed) — the grid's declaration order — independent of scheduling.
        With a cache directory configured, a resume manifest is written
        after every run.
        """
        started_ts = time.time()
        started = time.perf_counter()
        seeds = grid.seeds()
        grid_fields = self._grid_fields(grid)
        tasks = [
            {
                "grid_fields": grid_fields,
                "filter": filter_name,
                "attack": attack_name,
                "f": f,
                "seeds": seeds,
                "telemetry_dir": self._telemetry_dir,
            }
            for f in grid.fault_counts
            for filter_name in grid.filters
            for attack_name in grid.attacks
        ]
        # _grid_cells lists the cells in task order, seed-minor.
        cell_keys = [cell["key"] for cell in self._grid_cells(grid)]
        width = len(seeds)
        keys = [cell_keys[i * width:(i + 1) * width] for i in range(len(tasks))]
        grouped_payloads = self.map_cached(
            _run_regression_group, tasks, keys, _valid_cell_payload,
            on_item_error=_quarantined_group,
        )
        results: List[SweepCellResult] = []
        for task, payloads in zip(tasks, grouped_payloads):
            for seed, payload in zip(seeds, payloads):
                cell = SweepCellResult(
                    filter_name=task["filter"],
                    attack_name=task["attack"],
                    f=task["f"],
                    seed=seed,
                    cached=bool(payload.get("cached", False)),
                    quarantined=bool(payload.get("quarantined", False)),
                )
                if "error" in payload:
                    cell.error = payload["error"]
                    self._events.emit(
                        "cell_failed",
                        filter=cell.filter_name, attack=cell.attack_name,
                        f=cell.f, seed=cell.seed, error=cell.error,
                        quarantined=cell.quarantined,
                    )
                else:
                    cell.final_error = float(payload["final_error"])
                    cell.final_estimate = np.asarray(payload["final_estimate"])
                    cell.estimates = np.asarray(payload["estimates"])
                results.append(cell)
        self._write_manifest(grid, results)
        if self._trace is not None:
            # The engine's own context *is* the sweep span; emitting it
            # after the grid closes the engine node in the span tree.
            self._events.emit(
                "span",
                name="sweep",
                seconds=time.perf_counter() - started,
                ts=started_ts,
                **self._trace.fields(),
            )
        return results

    def resume(self, grid: RegressionGrid) -> List[SweepCellResult]:
        """Re-execute ``grid``, recomputing only cells not already cached.

        This is the recovery path after an interrupted run (killed
        process, power loss, quarantined chunks): completed cells are
        served from the checksum-verified cache — the event log records
        one ``cache_hit`` per served cell and one ``cache_miss`` per
        recomputed cell, so the "only the missing work was redone" claim
        is checkable — and the manifest is rewritten to reflect the new
        state. Requires a cache directory.
        """
        if self._cache_dir is None:
            raise InvalidParameterError(
                "resume() requires a cache_dir; without one there is nothing "
                "to resume from"
            )
        progress = self.grid_progress(grid)
        self._events.emit(
            "resume",
            grid_hash=progress["grid_hash"],
            total=progress["total"],
            completed=progress["completed"],
            missing=len(progress["pending"]),
        )
        return self.run_regression_grid(grid)


def parallel_map(
    worker: Callable,
    items: Sequence,
    parallel: bool = False,
    max_workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List:
    """Order-preserving map with optional process-pool fan-out.

    Convenience wrapper used by the sweep-style experiment modules: with
    ``parallel=False`` (the default everywhere) this is a plain sequential
    map, byte-for-byte the old behaviour. Failures propagate immediately
    (``retries=0``) — experiment modules that want the resilience ladder
    construct a :class:`SweepEngine` explicitly.
    """
    engine = SweepEngine(parallel=parallel, max_workers=max_workers, retries=0)
    return engine.map(worker, items, chunk_size=chunk_size)


def summarize_grid(results: Sequence[SweepCellResult]) -> ExperimentResult:
    """Aggregate grid cells into a per-(f, filter, attack) summary table."""
    groups: Dict[Tuple[int, str, str], List[SweepCellResult]] = {}
    for cell in results:
        groups.setdefault((cell.f, cell.filter_name, cell.attack_name), []).append(cell)
    summary = ExperimentResult(
        experiment_id="SWEEP",
        title="Sweep grid summary",
        headers=["f", "filter", "attack", "seeds", "mean error", "std", "cached"],
    )
    for (f, filter_name, attack_name), cells in sorted(groups.items()):
        failed = [c for c in cells if c.failed]
        if failed:
            summary.rows.append(
                [f, filter_name, attack_name, len(cells), "n/a", "n/a",
                 sum(c.cached for c in cells)]
            )
            continue
        errors = np.asarray([c.final_error for c in cells])
        summary.rows.append(
            [f, filter_name, attack_name, len(cells),
             float(errors.mean()), float(errors.std()),
             sum(c.cached for c in cells)]
        )
    return summary
