"""The library-wide run-telemetry handle.

:class:`Telemetry` is the single instrumentation seam every execution layer
accepts (``run_dgd``, ``run_dgd_batch``, the server, the peer-to-peer
protocol, the sweep engine's workers): counters, wall-clock spans
(``with tel.span("round"): ...``), and structured per-round records of what
the gradient filter actually did — which agents survived the cut, how many
of the eliminated agents were truly Byzantine, the spread of gradient
norms, the step size, and the distance to a reference point (``x_H``) when
one is known. That per-round elimination view is the quantity the paper's
convergence condition ``α = 1 − (f/n)(1 + 2μ/γ) > 0`` reasons about, and
the quantity follow-up filter comparisons measure.

Telemetry is **opt-in and zero-overhead when disabled**: every entry point
defaults to :data:`NULL_TELEMETRY`, whose operations are no-ops, whose
spans are a shared do-nothing context manager, and which is *falsy* — hot
paths guard record construction with ``if telemetry:`` so a disabled run
executes exactly the pre-telemetry instruction stream (the bit-identity
suites pin this down).

A closed handle writes nothing more: records emitted after
:meth:`Telemetry.close` (say, by a job thread that runs on after a shutdown
flush closed its handle) are dropped and counted on ``Telemetry.dropped``,
so a stream always ends with its ``summary``. Telemetry never changes a
run's numbers, so the run itself carries on.

Records share one schema with the sweep engine's
:class:`~repro.experiments.sweep.SweepEvents` log: flat JSON objects with
an ``"event"`` key, mirrored to JSONL the moment they are emitted. See
:mod:`repro.observability.exporters` for sinks and roll-ups.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.observability.exporters import (
    JSONLSink,
    MemorySink,
    TelemetrySink,
    _assemble_summary,
)
from repro.observability.tracing import TraceContext

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "TelemetryLike",
    "ensure_telemetry",
]


class _NullSpan:
    """Shared do-nothing context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: falsy, and every operation is a no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) is the default for
    every ``telemetry=`` parameter in the library, so instrumented code
    never needs ``if telemetry is not None`` checks — ``if telemetry:``
    is both the truthiness guard and the cheapest possible disable switch.
    """

    __slots__ = ()

    enabled = False

    def __bool__(self) -> bool:
        return False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def increment(self, name: str, by: int = 1) -> None:
        pass

    def emit(self, event: str, **fields) -> None:
        pass

    def record_round(self, **fields) -> None:
        pass

    def record_liveness(self, **fields) -> None:
        pass

    def span_durations(self, name: str) -> List[float]:
        return []

    def all_span_durations(self) -> Dict[str, List[float]]:
        return {}

    def annotate(self, **fields) -> None:
        pass

    def summary(self) -> Dict:
        return {}

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTelemetry":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The process-wide disabled-telemetry singleton.
NULL_TELEMETRY = NullTelemetry()


class _Span:
    """Times one ``with`` block and reports it to its telemetry handle.

    On a traced handle, entering derives a deterministic child
    :class:`~repro.observability.tracing.TraceContext` (parented on the
    innermost open span) and pushes it on the handle's span stack, so
    records emitted inside the block carry this span's lineage. Untraced
    handles skip all of that — the emitted span record is byte-identical
    to the pre-tracing schema.
    """

    __slots__ = ("_telemetry", "_name", "_start", "_context", "_ts")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Span":
        tel = self._telemetry
        self._context = None
        self._ts = None
        if tel._trace is not None:
            tel._span_seq += 1
            self._context = tel._current_trace_context().child(
                self._name, index=tel._span_seq
            )
            tel._trace_stack.append(self._context)
            self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        seconds = time.perf_counter() - self._start
        tel = self._telemetry
        if self._context is not None:
            stack = tel._trace_stack
            if stack and stack[-1] is self._context:
                stack.pop()
        tel._record_span(
            self._name, seconds, context=self._context, ts=self._ts
        )
        return False


def _id_list(ids: Iterable) -> List[int]:
    return [int(i) for i in ids]


class Telemetry:
    """Live telemetry handle: counters, spans, and per-round records.

    Parameters
    ----------
    sink:
        Where records go: a :class:`TelemetrySink`, a filesystem path
        (JSONL stream), a sequence of sinks, or ``None`` for an in-memory
        sink. The handle also keeps running aggregates, so
        :meth:`summary` works regardless of the sink choice.
    byzantine_ids:
        Ground-truth Byzantine agent ids. Set automatically by the
        runners (they know ``faulty_ids``); used to score each round's
        eliminations into true/false positives.
    reference_point:
        Optional reference (typically the honest minimizer ``x_H``);
        when set, every round record carries ``distance_to_ref``.
    trace:
        Optional :class:`~repro.observability.tracing.TraceContext`
        binding this handle into a distributed trace. When set, every
        span record carries deterministic ``trace_id``/``span_id``/
        ``parent_span_id`` lineage plus a wall-clock ``ts``, and every
        other record references the innermost open span. When unset
        (the default), emitted records are byte-identical to the
        untraced schema.
    trace_name:
        When set together with ``trace``, the handle times its own
        lifetime and emits a span record under ``trace``'s own context
        at :meth:`close` — this is how a pool worker registers the span
        that parents everything it emitted.
    """

    enabled = True

    def __init__(
        self,
        sink: Union[TelemetrySink, str, os.PathLike, Sequence, None] = None,
        *,
        byzantine_ids: Iterable = (),
        reference_point=None,
        trace: Optional[TraceContext] = None,
        trace_name: Optional[str] = None,
    ):
        self._sinks: List[TelemetrySink] = self._coerce_sinks(sink)
        self.counters: Dict[str, int] = {}
        self._span_durations: Dict[str, List[float]] = {}
        self._rounds = 0
        self._elim_tp = 0
        self._elim_fp = 0
        self._elim_fn = 0
        self.emitted = 0
        self.dropped = 0
        self._lock = threading.RLock()
        self._byzantine: set = set(_id_list(byzantine_ids))
        self._reference = (
            None if reference_point is None
            else np.asarray(reference_point, dtype=float)
        )
        self.annotations: Dict[str, object] = {}
        self._trace = trace
        self._trace_name = trace_name
        self._trace_stack: List[TraceContext] = []
        self._span_seq = 0
        self._born_ts = time.time() if trace is not None else None
        self._born_perf = time.perf_counter() if trace is not None else None
        self._closed = False

    @property
    def trace(self) -> Optional[TraceContext]:
        """The handle's root trace context (``None`` when untraced)."""
        return self._trace

    def _current_trace_context(self) -> TraceContext:
        return self._trace_stack[-1] if self._trace_stack else self._trace

    @staticmethod
    def _coerce_sinks(sink) -> List[TelemetrySink]:
        if sink is None:
            return [MemorySink()]
        if isinstance(sink, TelemetrySink):
            return [sink]
        if isinstance(sink, (str, os.PathLike)):
            return [JSONLSink(os.fspath(sink))]
        if isinstance(sink, Sequence):
            sinks = list(sink)
            if not sinks or not all(isinstance(s, TelemetrySink) for s in sinks):
                raise InvalidParameterError(
                    "sink sequence must contain only TelemetrySink instances"
                )
            return sinks
        raise InvalidParameterError(
            f"sink must be a TelemetrySink, path, or sequence of sinks, "
            f"got {type(sink).__name__}"
        )

    def __bool__(self) -> bool:
        return True

    @property
    def records(self) -> List[Dict]:
        """Records of the first in-memory sink (empty for JSONL-only)."""
        for sink in self._sinks:
            if isinstance(sink, MemorySink):
                return sink.records
        return []

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def emit(self, event: str, **fields) -> Dict:
        """Emit one schema record (``{"event": event, **fields}``).

        On a traced handle, records that do not already carry lineage are
        stamped with the innermost open span's ``trace_id``/``span_id``
        (span records stamp their own context in :meth:`_record_span`).
        After :meth:`close` the record is dropped and counted on
        :attr:`dropped` instead.
        """
        return self._emit_record({"event": event, **fields})

    def _emit_record(self, record: Dict) -> Dict:
        if self._trace is not None and "trace_id" not in record:
            context = self._current_trace_context()
            record["trace_id"] = context.trace_id
            record["span_id"] = context.span_id
        with self._lock:
            if self._closed:
                self.dropped += 1
                return record
            for sink in self._sinks:
                sink.emit(record)
            self.emitted += 1
        return record

    def increment(self, name: str, by: int = 1) -> None:
        """Bump a named counter (reported in :meth:`summary` and on close)."""
        self.counters[name] = self.counters.get(name, 0) + int(by)

    def span(self, name: str) -> _Span:
        """Context manager timing one named region of work."""
        return _Span(self, name)

    def _record_span(
        self,
        name: str,
        seconds: float,
        context: Optional[TraceContext] = None,
        ts: Optional[float] = None,
    ) -> None:
        self._span_durations.setdefault(name, []).append(seconds)
        if context is None:
            self.emit("span", name=name, seconds=seconds)
        else:
            self.emit(
                "span", name=name, seconds=seconds, ts=ts, **context.fields()
            )

    def span_durations(self, name: str) -> List[float]:
        """All recorded durations (seconds) of the named span, in order.

        Backed by the handle's running aggregates, so it works regardless
        of the sink choice (a JSONL-only handle still answers). The
        benchmark harness and the scaling experiment read timings back
        through this instead of re-parsing the record stream.
        """
        return list(self._span_durations.get(name, []))

    def all_span_durations(self) -> Dict[str, List[float]]:
        """Span name → recorded durations, as independent copies."""
        return {name: list(vals) for name, vals in self._span_durations.items()}

    def annotate(
        self, *, byzantine_ids=None, reference_point=None, **fields
    ) -> None:
        """Attach ground truth the execution layer knows (runners call this).

        Extra keyword fields (architecture, topology, aggregation, ...)
        are descriptive annotations kept on :attr:`annotations`.
        Previously only :class:`NullTelemetry` accepted them, so a live
        handle attached to the decentralized runner raised ``TypeError``.
        """
        if byzantine_ids is not None:
            self._byzantine = set(_id_list(byzantine_ids))
        if reference_point is not None:
            self._reference = np.asarray(reference_point, dtype=float)
        if fields:
            self.annotations.update(fields)

    def record_round(
        self,
        *,
        round_index: int,
        filter_name: str,
        step_size: float,
        gradient_norms,
        agent_ids: Optional[Sequence[int]] = None,
        kept_ids=None,
        estimate=None,
        seeds: Optional[Sequence] = None,
    ) -> Union[Dict, List[Dict]]:
        """Record one protocol round's filter outcome for each of ``K`` runs.

        ``gradient_norms`` is ``(K, n)``: row ``k`` holds run ``k``'s
        gradient norms. ``kept_ids`` is ``(K, n_kept)``, each run's
        surviving agent set (``None`` for filters without row-elimination
        semantics, e.g. coordinate-wise ones — such rounds carry norm/step
        data but do not contribute to elimination precision/recall).
        ``estimate`` is ``(K, d)``. ``agent_ids`` maps gradient columns to
        agent ids, the same for every run, and defaults to ``0..n-1``.
        With ``seeds`` given, record ``k`` also carries ``run=k`` and
        ``seed=seeds[k]``.

        Norm statistics come from one sort of all ``K`` rows, and the
        shared part of the elimination scoring is done once per round; each
        record holds the bytes a one-run computation gives. Returns the
        ``K`` records, or, for 1-D inputs (one run), that run's record.
        """
        norms = np.asarray(gradient_norms, dtype=float)
        single = norms.ndim == 1
        norms = norms.reshape(-1, norms.shape[-1])
        K, n = norms.shape
        # np.median's bytes: the middle value, or the mean of the middle two.
        ordered = np.sort(norms, axis=1)
        half = n // 2
        medians = ordered[:, half] if n % 2 else (ordered[:, half - 1] + ordered[:, half]) / 2
        lows, highs = ordered[:, 0], ordered[:, -1]
        if np.isnan(highs).any():
            # A NaN sorts last; np.min and np.median return it for its row.
            lows = np.where(np.isnan(highs), highs, lows)
            medians = np.where(np.isnan(highs), highs, medians)
        lows, medians, highs = lows.tolist(), medians.tolist(), highs.tolist()
        kept = None
        if kept_ids is not None:
            kept = np.atleast_2d(np.asarray(kept_ids, dtype=np.intp)).tolist()
            eliminated, caught, surviving = self._score_eliminations(
                kept, range(n) if agent_ids is None else agent_ids
            )
        distances = None
        if estimate is not None and self._reference is not None:
            offsets = np.atleast_2d(np.asarray(estimate, dtype=float)) - self._reference
            # One dot per run: the bytes np.linalg.norm gives one vector.
            distances = [math.sqrt(row.dot(row)) for row in offsets]
        step = float(step_size)
        records = []
        for k in range(K):
            record: Dict = {
                "event": "round",
                "round": int(round_index),
                "filter": str(filter_name),
                "step_size": step,
                "grad_norm_min": lows[k],
                "grad_norm_median": medians[k],
                "grad_norm_max": highs[k],
            }
            if kept is not None:
                record["kept"] = kept[k]
                record["eliminated"] = eliminated[k]
                record["eliminated_byzantine"] = caught[k]
                record["surviving_byzantine"] = surviving[k]
            if distances is not None:
                record["distance_to_ref"] = distances[k]
            if seeds is not None:
                seed = seeds[k]
                record["run"] = k
                record["seed"] = (
                    int(seed) if isinstance(seed, (int, np.integer)) else str(seed)
                )
            records.append(self._emit_record(record))
        self._rounds += K
        return records[0] if single else records

    def _score_eliminations(self, kept_sets: List[List[int]], present) -> tuple:
        """Each run's eliminated list, and how many Byzantine agents it
        caught and let survive.

        A run's eliminated list is the sorted set ``present − kept``, and a
        Byzantine agent counts only when present. Adds the round's
        confusion counts to the handle's running totals.
        """
        present = sorted(set(_id_list(present)))
        byzantine_present = len(self._byzantine.intersection(present))
        eliminated, caught, surviving = [], [], []
        for kept in kept_sets:
            kept_set = set(kept)
            out = [agent for agent in present if agent not in kept_set]
            hits = len(self._byzantine.intersection(out))
            eliminated.append(out)
            caught.append(hits)
            surviving.append(byzantine_present - hits)
            self._elim_tp += hits
            self._elim_fp += len(out) - hits
            self._elim_fn += byzantine_present - hits
        return eliminated, caught, surviving

    def record_liveness(
        self,
        *,
        round_index: int,
        fresh: Sequence[int] = (),
        stale_reused: Sequence[int] = (),
        quarantined: Sequence[int] = (),
        suspected: Sequence[int] = (),
        reinstated: Sequence[int] = (),
        missing: Sequence[int] = (),
    ) -> Dict:
        """Record one round's liveness/staleness/quarantine outcome.

        Emitted by the partially-synchronous runtime
        (:class:`repro.system.healing.ResilientDGDServer`) whenever a
        round deviated from the synchronous ideal: an agent's gradient
        was reused stale, a payload was quarantined at the message
        boundary, or an agent's suspicion state changed. Each id list
        also bumps the matching counter (``stale_reuses``,
        ``quarantined_payloads``, ``suspicions``, ``reinstatements``,
        ``missed_deadlines``), so the roll-up in :meth:`summary` carries
        the totals.
        """
        for counter, ids in (
            ("stale_reuses", stale_reused),
            ("quarantined_payloads", quarantined),
            ("suspicions", suspected),
            ("reinstatements", reinstated),
            ("missed_deadlines", missing),
        ):
            if ids:
                self.increment(counter, len(tuple(ids)))
        return self.emit(
            "liveness",
            round=int(round_index),
            fresh=_id_list(fresh),
            stale_reused=_id_list(stale_reused),
            quarantined=_id_list(quarantined),
            suspected=_id_list(suspected),
            reinstated=_id_list(reinstated),
            missing=_id_list(missing),
        )

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------

    def summary(self) -> Dict:
        """Roll-up of the handle's running aggregates.

        Structurally identical to
        :func:`repro.observability.exporters.summarize_records` applied to
        the emitted record stream (the test suite pins the equivalence),
        but available even when the only sink is a JSONL file.
        """
        return _assemble_summary(
            self._rounds,
            self._span_durations,
            self._elim_tp,
            self._elim_fp,
            self._elim_fn,
            dict(self.counters),
        )

    def close(self) -> None:
        """Flush counters and the final summary, then close the sinks.

        Idempotent. The trailing ``counters`` and ``summary`` records make
        a JSONL stream self-describing: :func:`summarize_records` over the
        re-loaded stream reproduces :meth:`summary` without the live
        handle.
        """
        with self._lock:
            if self._closed:
                return
            if self._trace is not None and self._trace_name is not None:
                # Register the handle's own lifetime as a span under its
                # root context, so streams written by a pool worker
                # contribute the node that parents their "run"/"round"
                # spans in the reconstructed cross-process tree.
                self._record_span(
                    self._trace_name,
                    time.perf_counter() - self._born_perf,
                    context=self._trace,
                    ts=self._born_ts,
                )
            if self.counters:
                self.emit("counters", **self.counters)
            self.emit("summary", **self.summary())
            self._closed = True
            for sink in self._sinks:
                sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


#: Anything the ``telemetry=`` parameters accept.
TelemetryLike = Union[None, Telemetry, NullTelemetry, str, os.PathLike]


def ensure_telemetry(telemetry: TelemetryLike) -> Union[Telemetry, NullTelemetry]:
    """Coerce a ``telemetry=`` argument into a usable handle.

    ``None`` (the library-wide default) yields the shared
    :data:`NULL_TELEMETRY`; a path yields a :class:`Telemetry` streaming
    to that JSONL file; an existing handle passes through unchanged.
    """
    if telemetry is None:
        return NULL_TELEMETRY
    if isinstance(telemetry, (Telemetry, NullTelemetry)):
        return telemetry
    if isinstance(telemetry, (str, os.PathLike)):
        return Telemetry(telemetry)
    raise InvalidParameterError(
        f"telemetry must be None, a Telemetry handle, or a path, "
        f"got {type(telemetry).__name__}"
    )
