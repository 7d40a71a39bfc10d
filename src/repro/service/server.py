"""The ``repro serve`` asyncio HTTP service.

A deliberately small HTTP/1.1 implementation on ``asyncio`` streams — the
repository's only runtime dependency is numpy, so the wire layer is
stdlib-only. One request per connection (the server answers with
``Connection: close``), JSON bodies both ways, over a unix socket (the
default: filesystem permissions are the auth model) or a TCP port.

Endpoints
---------
``GET  /healthz``              liveness + job-state counts + cache/pool health
``GET  /stats``                queue/admission/pool/cache statistics
``GET  /metrics``              Prometheus text exposition (counters, gauges,
                               job-latency histogram)
``POST /jobs``                 submit a job; ``201`` with the record,
                               ``400`` on a malformed spec, ``429`` with a
                               structured admission rejection
``GET  /jobs``                 all job records (summaries)
``GET  /jobs/<id>``            one job record
``GET  /jobs/<id>/events``     the job's JSONL event/telemetry stream;
                               ``?follow=1`` keeps streaming until the job
                               reaches a terminal state
``GET  /jobs/<id>/result``     the result document (``409`` until terminal)
``POST /jobs/<id>/cancel``     cancel a queued job
``POST /shutdown``             graceful stop (used by tests and CI)

Concurrency model: handlers and the job-slot scheduler all run on the
event loop; every blocking step (job execution) is pushed to a worker
thread. Each slot drains the priority queue; each claimed job runs on a
per-job :class:`~repro.experiments.sweep.SweepEngine` multiplexed onto the
service-wide :class:`~repro.experiments.sweep.SharedProcessPool`.

Durability: job manifests are rewritten atomically at every transition, so
``kill -9`` at any instant is recoverable — on restart, jobs that were
queued or running are re-enqueued (in their original submission order,
bypassing admission control: they were already admitted once) and sweep
jobs resume against the shared cell cache, recomputing only cells that
never finished.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    AdmissionRejectedError,
    InvalidParameterError,
    ReproError,
)
from repro.observability.metrics import (
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
)
from repro.service.executor import JobExecutor
from repro.service.jobs import JobRecord, JobStore, validate_job_spec
from repro.service.queue import JobQueue
from repro.utils.atomicio import write_json_atomic

__all__ = ["ServiceConfig", "ReproService"]

#: Largest request body the server will read (a job spec is tiny).
_MAX_BODY = 1 << 20
#: Largest request line / header line.
_MAX_LINE = 16 * 1024


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to come up."""

    state_dir: str
    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: Optional[int] = None
    job_slots: int = 2
    pool_workers: Optional[int] = None
    max_queue: int = 64
    per_client: int = 8
    parallel: bool = True
    timeout: Optional[float] = None
    retries: int = 2
    job_ttl: Optional[float] = None

    def __post_init__(self):
        tcp = self.host is not None or self.port is not None
        if self.socket_path and tcp:
            raise InvalidParameterError(
                "give either a unix socket path or host/port, not both"
            )
        if not self.socket_path and not tcp:
            self.socket_path = os.path.join(self.state_dir, "repro.sock")
        if tcp and (self.host is None or self.port is None):
            raise InvalidParameterError("TCP serving needs both host and port")
        for name in ("job_slots", "pool_workers", "max_queue", "per_client"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise InvalidParameterError(
                    f"{name} must be positive, got {value}"
                )
        if self.timeout is not None and self.timeout <= 0:
            raise InvalidParameterError(
                f"timeout must be positive (seconds), got {self.timeout}"
            )
        if self.retries < 0:
            raise InvalidParameterError(
                f"retries must be non-negative, got {self.retries}"
            )
        if self.job_ttl is not None and self.job_ttl < 0:
            raise InvalidParameterError(
                f"job_ttl must be >= 0 (seconds), got {self.job_ttl}"
            )


class ReproService:
    """The long-lived aggregation service (queue + executor + HTTP)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        os.makedirs(config.state_dir, exist_ok=True)
        self.store = JobStore(config.state_dir)
        self.queue = JobQueue(
            max_depth=config.max_queue, per_client=config.per_client
        )
        self.metrics = MetricsRegistry()
        self.executor = JobExecutor(
            self.store,
            parallel=config.parallel,
            pool_workers=config.pool_workers,
            timeout=config.timeout,
            retries=config.retries,
            metrics=self.metrics,
        )
        self._requests_total = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by top-level path and method",
        )
        self._jobs_submitted_total = self.metrics.counter(
            "repro_jobs_submitted_total",
            "Jobs accepted past admission control",
        )
        self._admission_rejected_total = self.metrics.counter(
            "repro_admission_rejected_total",
            "Job submissions rejected by admission control, by reason",
        )
        self._jobs_completed_total = self.metrics.counter(
            "repro_jobs_completed_total",
            "Jobs that reached a terminal state in a job slot, by state",
        )
        self._job_latency = self.metrics.histogram(
            "repro_job_latency_seconds",
            "Wall-clock seconds from job start to terminal state",
        )
        #: Live view of every job this process knows (id → record).
        self.records: Dict[str, JobRecord] = {}
        self.started_at = time.time()
        self.recovered: List[str] = []
        self._wake = asyncio.Event()
        self._stopping = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._slots: List[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------

    def recover(self) -> List[str]:
        """Rebuild the job table from disk; re-enqueue interrupted jobs.

        Returns the ids of jobs that were queued or running when the
        previous process died — in submission order, enqueued past
        admission control (they were admitted once; a restart must not
        drop accepted work).
        """
        recovered = []
        if self.config.job_ttl is not None:
            self.prune_jobs()
        for record in self.store.load_all():
            self.records[record.job_id] = record
            if record.state in ("queued", "running"):
                record.state = "queued"
                record.error = None
                self.store.save(record)
                self.queue.requeue(record)
                recovered.append(record.job_id)
        self.recovered = recovered
        return recovered

    async def start(self) -> None:
        self.recover()
        if self.config.socket_path:
            # A stale socket file from a killed predecessor must not block
            # the restart — by construction only one server owns state_dir.
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port,
            )
        self._slots = [
            asyncio.create_task(self._job_slot(i))
            for i in range(self.config.job_slots)
        ]
        if self.config.job_ttl is not None:
            self._slots.append(asyncio.create_task(self._prune_loop()))
        if self.queue.depth:
            self._wake.set()

    async def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._slots:
            task.cancel()
        await asyncio.gather(*self._slots, return_exceptions=True)
        # Flush every live per-job telemetry stream before tearing the
        # pool down, then persist a final metrics snapshot: a SIGTERM
        # mid-job must not lose stream tails or the scrape state.
        self.executor.shutdown_flush()
        try:
            write_json_atomic(
                os.path.join(self.config.state_dir, "metrics.json"),
                self.metrics.snapshot(),
                checksum=False,
            )
        except OSError:
            pass  # snapshot is best-effort; shutdown must still finish
        self.executor.close()
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass

    async def serve_forever(self) -> None:
        """Start, then block until :meth:`stop` (or ``POST /shutdown``)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stopping.set)
            except (NotImplementedError, RuntimeError, OSError, ValueError):
                pass  # non-main threads / non-unix loops: ctrl-C still works
        try:
            await self._stopping.wait()
        finally:
            await self.stop()

    @property
    def bound_port(self) -> Optional[int]:
        """The TCP port actually bound (for ``port=0`` auto-assignment)."""
        if self._server is None or self.config.socket_path:
            return None
        return self._server.sockets[0].getsockname()[1]

    # -- job slots -----------------------------------------------------

    async def _job_slot(self, slot: int) -> None:
        """One consumer: claim → execute in a thread → persist the outcome."""
        while True:
            record = self.queue.pop()
            if record is None:
                self._wake.clear()
                await self._wake.wait()
                continue
            record.state = "running"
            record.attempts += 1
            record.started_at = time.time()
            self.store.save(record)
            try:
                summary = await asyncio.to_thread(self.executor.execute, record)
                record.state = "done"
                record.summary = dict(summary)
            except asyncio.CancelledError:
                # Shutdown mid-job: leave the manifest saying "running" so
                # the next recover() re-enqueues it.
                raise
            except BaseException as exc:
                record.state = "failed"
                record.error = f"{type(exc).__name__}: {exc}"
            record.finished_at = time.time()
            self.store.save(record)
            self.queue.finish(record)
            self._jobs_completed_total.inc(
                kind=record.spec.kind, state=record.state
            )
            if record.started_at is not None:
                self._job_latency.observe(
                    record.finished_at - record.started_at,
                    kind=record.spec.kind,
                )

    # -- job GC --------------------------------------------------------

    def prune_jobs(self) -> List[str]:
        """GC terminal jobs older than ``job_ttl``; returns pruned ids.

        Live state is kept consistent with the disk table: every pruned
        id is also dropped from the in-memory record map (pruned jobs are
        terminal, so they are never sitting in the queue or a job slot).
        """
        if self.config.job_ttl is None:
            return []
        pruned = self.store.prune(self.config.job_ttl)
        for job_id in pruned:
            self.records.pop(job_id, None)
        return pruned

    async def _prune_loop(self) -> None:
        """Periodic GC sweep; period tracks the ttl but stays responsive."""
        interval = max(min(self.config.job_ttl, 60.0), 0.05)
        while True:
            await asyncio.sleep(interval)
            try:
                self.prune_jobs()
            except OSError:
                pass  # a transient fs error must not kill the sweeper

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            await self._route(writer, method, path, query, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # a handler bug must not kill the server
            try:
                await self._respond(
                    writer, 500,
                    {"error": {"reason": "internal",
                               "detail": f"{type(exc).__name__}: {exc}"}},
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(reader) -> Optional[Tuple[str, str, Dict, Dict]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if len(line) > _MAX_LINE:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > _MAX_BODY:
            return None
        body: Dict = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = {"__malformed__": True}
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method, split.path, query, body

    @staticmethod
    async def _respond(writer, status: int, payload: Dict) -> None:
        reasons = {200: "OK", 201: "Created", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   409: "Conflict", 429: "Too Many Requests",
                   500: "Internal Server Error"}
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _respond_text(writer, status: int, body: str,
                            content_type: str) -> None:
        data = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    async def _respond_stream_head(self, writer) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, writer, method: str, path: str, query: Dict,
                     body: Dict) -> None:
        segments = [s for s in path.split("/") if s]
        self._requests_total.inc(
            path=segments[0] if segments else "/", method=method
        )
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, self._healthz())
        elif path == "/stats" and method == "GET":
            await self._respond(writer, 200, self._stats())
        elif path == "/metrics" and method == "GET":
            self._refresh_gauges()
            await self._respond_text(
                writer, 200, self.metrics.render_prometheus(),
                PROMETHEUS_CONTENT_TYPE,
            )
        elif path == "/shutdown" and method == "POST":
            await self._respond(writer, 200, {"stopping": True})
            self._stopping.set()
        elif segments[:1] == ["jobs"] and len(segments) == 1:
            if method == "POST":
                await self._submit(writer, body)
            elif method == "GET":
                await self._respond(writer, 200, {
                    "jobs": [r.to_payload()
                             for r in sorted(self.records.values(),
                                             key=lambda r: r.seq)],
                })
            else:
                await self._respond(writer, 405, _err("method", method))
        elif segments[:1] == ["jobs"] and len(segments) >= 2:
            record = self.records.get(segments[1])
            if record is None:
                await self._respond(
                    writer, 404, _err("unknown-job", segments[1]))
                return
            if len(segments) == 2 and method == "GET":
                await self._respond(writer, 200, record.to_payload())
            elif segments[2:] == ["events"] and method == "GET":
                await self._stream_events(writer, record,
                                          follow=query.get("follow") == "1")
            elif segments[2:] == ["result"] and method == "GET":
                await self._result(writer, record)
            elif segments[2:] == ["cancel"] and method == "POST":
                await self._cancel(writer, record)
            else:
                await self._respond(writer, 405, _err("method", method))
        else:
            await self._respond(writer, 404, _err("unknown-path", path))

    # -- handlers ------------------------------------------------------

    def _job_states(self) -> Dict[str, int]:
        states: Dict[str, int] = {}
        for record in self.records.values():
            states[record.state] = states.get(record.state, 0) + 1
        return states

    def _cache_health(self) -> Dict:
        hits = self.executor.cache_hits
        misses = self.executor.cache_misses
        total = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_ratio": (hits / total) if total else None,
        }

    def _pool_health(self) -> Dict:
        pool = self.executor.pool
        return {
            "shared": pool is not None,
            "max_workers": pool.max_workers if pool is not None else None,
            "rebuilds": pool.rebuilds if pool is not None else 0,
            "live_workers": pool.live_workers if pool is not None else 0,
        }

    def _refresh_gauges(self) -> None:
        """Set scrape-time gauges from live state, just before rendering."""
        gauges = self.metrics
        gauges.gauge(
            "repro_uptime_seconds", "Seconds since the service started",
        ).set(time.time() - self.started_at)
        gauges.gauge(
            "repro_queue_depth", "Jobs currently waiting in the queue",
        ).set(self.queue.depth)
        jobs = gauges.gauge(
            "repro_jobs", "Known jobs by state",
        )
        for state in ("queued", "running", "done", "failed", "cancelled"):
            jobs.set(0, state=state)
        for state, count in self._job_states().items():
            jobs.set(count, state=state)
        pool = self._pool_health()
        gauges.gauge(
            "repro_pool_rebuilds", "Shared process pool rebuilds",
        ).set(pool["rebuilds"])
        gauges.gauge(
            "repro_pool_live_workers", "Live shared-pool worker processes",
        ).set(pool["live_workers"])

    def _healthz(self) -> Dict:
        return {
            "ok": True,
            "uptime": time.time() - self.started_at,
            "jobs": self._job_states(),
            "recovered": list(self.recovered),
            "cache": self._cache_health(),
            "pool": self._pool_health(),
        }

    def _stats(self) -> Dict:
        cache_cells = sum(
            1 for name in os.listdir(self.executor.cache_dir)
            if name.endswith(".json") and not name.startswith("manifest")
        )
        cache = self._cache_health()
        cache.update({"dir": self.executor.cache_dir, "cells": cache_cells})
        return {
            "uptime": time.time() - self.started_at,
            "queue": self.queue.snapshot(),
            "job_slots": self.config.job_slots,
            "pool": self._pool_health(),
            "cache": cache,
        }

    async def _submit(self, writer, body: Dict) -> None:
        if body.get("__malformed__"):
            self._admission_rejected_total.inc(reason="malformed-json")
            await self._respond(
                writer, 400, _err("malformed-json", "request body"))
            return
        try:
            spec = validate_job_spec(body)
        except InvalidParameterError as exc:
            self._admission_rejected_total.inc(reason="invalid-spec")
            await self._respond(writer, 400, _err("invalid-spec", str(exc)))
            return
        record = self.store.create(spec)
        try:
            self.queue.submit(record)
        except AdmissionRejectedError as exc:
            self._admission_rejected_total.inc(reason=exc.reason)
            record.state = "cancelled"
            record.error = str(exc)
            record.finished_at = time.time()
            self.store.save(record)
            await self._respond(writer, 429, {
                "error": {
                    "reason": exc.reason,
                    "detail": exc.detail,
                    "limit": exc.limit,
                    "queue_depth": exc.queue_depth,
                },
            })
            return
        self.records[record.job_id] = record
        self._jobs_submitted_total.inc(kind=record.spec.kind)
        self._wake.set()
        await self._respond(writer, 201, record.to_payload())

    async def _result(self, writer, record: JobRecord) -> None:
        if record.state == "done":
            try:
                payload = await asyncio.to_thread(
                    self.store.load_result, record.job_id
                )
            except (ReproError, OSError) as exc:
                await self._respond(
                    writer, 500, _err("result-unreadable", str(exc)))
                return
            await self._respond(writer, 200, payload)
        elif record.state in ("failed", "cancelled"):
            await self._respond(writer, 409, _err(record.state,
                                                  record.error or ""))
        else:
            await self._respond(
                writer, 409, _err("not-finished", record.state))

    async def _cancel(self, writer, record: JobRecord) -> None:
        cancelled = self.queue.cancel(record.job_id)
        if cancelled is None:
            await self._respond(
                writer, 409,
                _err("not-cancellable",
                     f"job is {record.state}, only queued jobs cancel"))
            return
        record.state = "cancelled"
        record.finished_at = time.time()
        self.store.save(record)
        await self._respond(writer, 200, record.to_payload())

    async def _stream_events(self, writer, record: JobRecord,
                             follow: bool) -> None:
        """Serve the job's JSONL stream; ``follow`` tails until terminal."""
        path = self.store.events_path(record.job_id)
        await self._respond_stream_head(writer)
        offset = 0
        while True:
            chunk = b""
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            if chunk:
                offset += len(chunk)
                writer.write(chunk)
                await writer.drain()
            if not follow:
                break
            live = self.records.get(record.job_id)
            if live is None or live.terminal:
                break
            await asyncio.sleep(0.05)


def _err(reason: str, detail: str) -> Dict:
    return {"error": {"reason": reason, "detail": str(detail)}}
