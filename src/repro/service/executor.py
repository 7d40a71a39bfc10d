"""Job execution on one shared process pool.

One :class:`~repro.experiments.sweep.SharedProcessPool` is the service's
entire worker fleet. Each job gets its **own**
:class:`~repro.experiments.sweep.SweepEngine` pointed at that pool, which
buys the isolation/sharing split the service needs:

- *isolated per job*: the JSONL event stream (``events.jsonl`` — what the
  streaming status endpoint serves), optional run telemetry, and the
  failure ladder's retry/quarantine accounting;
- *shared across tenants*: the worker processes (amortized start-up, one
  fleet regardless of job count) and the sha256 cell cache directory — two
  clients sweeping overlapping grids pay for each cell once, and a job
  resumed after a crash recomputes only cells no one ever finished.

Each job also anchors a distributed trace: the record's deterministic
``trace_id`` becomes the root ``"job"`` span, the engine's context is its
``"sweep"`` child, and chunk payloads carry the lineage across the
process boundary (see :mod:`repro.observability.tracing`). Live cache and
latency counters are accumulated into the service's
:class:`~repro.observability.metrics.MetricsRegistry`.

Everything here is blocking by design; the server runs :meth:`execute` in
worker threads (``asyncio.to_thread``) and keeps its event loop free. The
engine's internal lock plus the shared pool's serialization make the
concurrent calls safe, and results bit-identical to batch execution.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.experiments.sweep import SharedProcessPool, SweepEngine
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import TraceContext
from repro.service.jobs import RUN_DEFAULTS, JobRecord, JobStore, grid_from_params

__all__ = ["JobExecutor"]


class JobExecutor:
    """Executes claimed jobs; owns the shared pool and the shared cache."""

    def __init__(
        self,
        store: JobStore,
        parallel: bool = True,
        pool_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = store
        self.cache_dir = os.path.join(store.root, "cache")
        os.makedirs(self.cache_dir, exist_ok=True)
        self._parallel = bool(parallel)
        self._timeout = timeout
        self._retries = int(retries)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._cache_hits_total = self.metrics.counter(
            "repro_cache_hits_total",
            "Cross-tenant cell-cache hits served by executed jobs",
        )
        self._cache_misses_total = self.metrics.counter(
            "repro_cache_misses_total",
            "Cross-tenant cell-cache misses (cells actually computed)",
        )
        self._active_lock = threading.Lock()
        self._active_handles: Dict[str, List] = {}
        self.pool: Optional[SharedProcessPool] = (
            SharedProcessPool(max_workers=pool_workers) if parallel else None
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()

    @property
    def cache_hits(self) -> int:
        """Cross-tenant cell-cache hits across every executed job."""
        return int(self._cache_hits_total.total())

    @property
    def cache_misses(self) -> int:
        """Cells actually computed (cache misses) across every job."""
        return int(self._cache_misses_total.total())

    # -- graceful-shutdown flush --------------------------------------

    def _register_handle(self, job_id: str, handle) -> None:
        with self._active_lock:
            self._active_handles.setdefault(job_id, []).append(handle)

    def _unregister_handles(self, job_id: str) -> None:
        with self._active_lock:
            self._active_handles.pop(job_id, None)

    def shutdown_flush(self) -> None:
        """Close every live per-job telemetry handle.

        Called by the server on SIGTERM / ``POST /shutdown`` *before* the
        pool is torn down: a job interrupted mid-execution still gets its
        trailing ``counters``/``summary`` records (and its root span, if
        traced) flushed to its stream instead of losing the tail.
        ``Telemetry.close`` is idempotent, so racing with the job thread's
        own ``finally`` close is harmless.
        """
        with self._active_lock:
            handles = [
                handle
                for per_job in self._active_handles.values()
                for handle in per_job
            ]
            self._active_handles.clear()
        for handle in handles:
            try:
                handle.close()
            except Exception:  # pragma: no cover - flush is best-effort
                pass

    # -- tracing -------------------------------------------------------

    @staticmethod
    def _trace_root(record: JobRecord) -> Optional[TraceContext]:
        """The job's root span context (``None`` for pre-tracing jobs)."""
        if not record.trace_id:
            return None
        return TraceContext.root(record.trace_id, name="job")

    def engine_for(self, record: JobRecord,
                   telemetry: bool = False) -> SweepEngine:
        """A fresh per-job engine on the shared pool and shared cache."""
        root = self._trace_root(record)
        return SweepEngine(
            parallel=self._parallel,
            pool=self.pool,
            cache_dir=self.cache_dir,
            timeout=self._timeout,
            retries=self._retries,
            events=self.store.events_path(record.job_id),
            telemetry_dir=(
                self.store.telemetry_dir(record.job_id) if telemetry else None
            ),
            trace=None if root is None else root.child("sweep"),
        )

    # -- dispatch ------------------------------------------------------

    def execute(self, record: JobRecord) -> Dict:
        """Run one job to completion; persist and return its result summary.

        Blocking. Raises on *infrastructure* failure (which the server
        maps to job state ``failed``); per-cell computation failures are
        data, not exceptions — they land in the result document exactly as
        the batch CLI reports them.
        """
        handler = {
            "sweep": self._execute_sweep,
            "run": self._execute_run,
            "bench": self._execute_bench,
        }.get(record.spec.kind)
        if handler is None:
            raise InvalidParameterError(
                f"unknown job kind {record.spec.kind!r}"
            )
        try:
            result = handler(record)
        finally:
            self._unregister_handles(record.job_id)
        self.store.write_result(record.job_id, result)
        return result.get("counts", {})

    # -- sweep ---------------------------------------------------------

    def _execute_sweep(self, record: JobRecord) -> Dict:
        grid = grid_from_params(record.spec.params)
        engine = self.engine_for(
            record, telemetry=bool(record.spec.params.get("telemetry", False))
        )
        root = self._trace_root(record)
        started_ts = time.time()
        started = time.perf_counter()
        try:
            # A restarted attempt is a resume: the event log then proves
            # how much of the grid was recovered from the shared cell cache.
            if record.attempts > 1:
                cells = engine.resume(grid)
            else:
                cells = engine.run_regression_grid(grid)
            if root is not None:
                # Close the root "job" span over the engine's own stream so
                # the whole tree reconstructs from the job directory alone.
                engine.events.emit(
                    "span",
                    name="job",
                    seconds=time.perf_counter() - started,
                    ts=started_ts,
                    **root.fields(),
                )
        finally:
            engine.events.close()
        counts = engine.events.counts()
        self._cache_hits_total.inc(counts.get("cache_hit", 0))
        self._cache_misses_total.inc(counts.get("cache_miss", 0))
        cell_rows = [
            {
                "filter": cell.filter_name,
                "attack": cell.attack_name,
                "f": cell.f,
                "seed": cell.seed,
                "final_error": cell.final_error,
                "final_estimate": (
                    None if cell.final_estimate is None
                    else np.asarray(cell.final_estimate).tolist()
                ),
                "error": cell.error,
                "cached": cell.cached,
                "quarantined": cell.quarantined,
            }
            for cell in cells
        ]
        return {
            "kind": "sweep",
            "cells": cell_rows,
            "counts": {
                "cells": len(cells),
                "failed": sum(cell.failed for cell in cells),
                "quarantined": sum(cell.quarantined for cell in cells),
                "cached": sum(cell.cached for cell in cells),
                "cache_hits": counts.get("cache_hit", 0),
                "cache_misses": counts.get("cache_miss", 0),
            },
            "events": counts,
        }

    # -- single run ----------------------------------------------------

    def _execute_run(self, record: JobRecord) -> Dict:
        from repro.analysis.metrics import final_error
        from repro.attacks.registry import make_attack
        from repro.experiments.common import regression_setup
        from repro.observability import Telemetry
        from repro.system.batch import run_dgd_batch

        params = {**RUN_DEFAULTS, **record.spec.params}
        iterations = int(params["iterations"])
        seed = int(params["seed"])
        instance, faulty, x_H = regression_setup(
            int(params["n"]), int(params["d"]), int(params["f"]),
            float(params["noise_std"]), seed,
        )
        behavior = make_attack(params["attack"]) if faulty else None
        root = self._trace_root(record)
        telemetry = Telemetry(
            self.store.events_path(record.job_id),
            byzantine_ids=faulty,
            reference_point=x_H,
            trace=root,
            trace_name="job" if root is not None else None,
        )
        self._register_handle(record.job_id, telemetry)
        try:
            # A batch of one is bit-identical to run_dgd at this seed, and
            # falls back to run_dgd itself where it cannot vectorize.
            (trace,) = run_dgd_batch(
                instance.costs,
                behavior,
                gradient_filter=params["filter"],
                faulty_ids=faulty,
                iterations=iterations,
                seeds=[seed],
                telemetry=telemetry,
            )
        finally:
            telemetry.close()
        error = final_error(trace, x_H)
        return {
            "kind": "run",
            "final_error": float(error),
            "final_estimate": trace.final_estimate.tolist(),
            "honest_minimizer": np.asarray(x_H).tolist(),
            "wall_time": float(trace.wall_time),
            "counts": {
                "iterations": iterations,
                "telemetry_records": telemetry.emitted,
            },
        }

    # -- bench ---------------------------------------------------------

    def _execute_bench(self, record: JobRecord) -> Dict:
        from repro.observability.perf import load_default_workloads, run_registered

        load_default_workloads()
        params = dict(record.spec.params)
        outcome = run_registered(
            params["name"],
            repeats=int(params.get("repeats", 1)),
            output_dir=self.store.job_dir(record.job_id),
        )
        timings = outcome.result.timings
        return {
            "kind": "bench",
            "name": params["name"],
            "artifact": outcome.path,
            "best_seconds": timings["best_seconds"],
            "mean_seconds": timings["mean_seconds"],
            "counts": {"repeats": int(params.get("repeats", 1))},
        }
