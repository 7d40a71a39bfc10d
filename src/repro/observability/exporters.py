"""Telemetry sinks and roll-ups.

A telemetry *record* is a flat JSON object with an ``"event"`` key — the
same schema :class:`repro.experiments.sweep.SweepEvents` uses for the sweep
engine's event log, so run telemetry and sweep events are interchangeable
for loading, counting, and post-mortem tooling. Two sinks are provided:

- :class:`MemorySink` keeps records in a list (tests, ``summary()`` without
  touching disk);
- :class:`JSONLSink` mirrors each record to disk as one JSON line the
  moment it is emitted, following the durability discipline of
  :mod:`repro.utils.atomicio`: every line goes to the kernel in one write,
  so a killed process leaves a readable prefix, and :func:`load_jsonl`
  skips a torn final line instead of failing the post-mortem. Point-in-time
  documents (summaries) go through :func:`write_summary_atomic`, which is
  the checksummed write-then-rename path of
  :func:`repro.utils.atomicio.write_json_atomic`.

:func:`summarize_records` rolls a record stream (live or re-loaded from a
JSONL file) up into the quantities the profiling workflow reports: p50/p95
span latencies, rounds per second, and elimination precision/recall of the
gradient filter against the ground-truth Byzantine set.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.utils.atomicio import write_json_atomic

__all__ = [
    "TelemetrySink",
    "MemorySink",
    "JSONLSink",
    "load_jsonl",
    "count_events",
    "summarize_records",
    "write_summary_atomic",
]


class TelemetrySink:
    """Destination for telemetry records (one flat dict per event)."""

    def emit(self, record: Dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; emitting after close is an error."""


class MemorySink(TelemetrySink):
    """Keeps every record in an in-memory list."""

    def __init__(self) -> None:
        self.records: List[Dict] = []

    def emit(self, record: Dict) -> None:
        self.records.append(record)


class JSONLSink(TelemetrySink):
    """Appends each record to ``path`` as one JSON line.

    The file is truncated and opened once, on construction (each stream
    owns its file, as the sweep event log does), and stays open until
    :meth:`close`. Records are serialized with sorted keys so streams are
    diffable; numpy scalars and arrays are coerced to plain JSON types.

    The file is unbuffered: each line reaches the kernel in one write,
    followed by a flush, and no user-space buffer ever
    holds part of a line, so a process forked while the file is open (a
    pool worker) inherits no pending bytes, and a reader or a post-mortem
    after a kill sees only whole lines plus at most one torn final line,
    which :func:`load_jsonl` skips.

    Thread-safe: emits and :meth:`close` are serialized on a per-sink lock,
    so a sink shared by racing writers (the aggregation service's job
    slots) never interleaves partial lines, and an emit either writes its
    whole line or, once the sink is closed, raises ``ValueError``.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._file = open(path, "wb", buffering=0)

    def emit(self, record: Dict) -> None:
        data = (_ENCODER.encode(record) + "\n").encode("utf-8")
        with self._lock:
            self._file.write(data)
            self._file.flush()

    def close(self) -> None:
        """Close the file; idempotent."""
        with self._lock:
            self._file.close()


def _json_default(value: Any):
    """Coerce numpy scalars/arrays into JSON-native types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


#: ``json.dumps(record, sort_keys=True, default=_json_default)``, built once.
_ENCODER = json.JSONEncoder(sort_keys=True, default=_json_default)


def load_jsonl(path: str) -> List[Dict]:
    """Parse a JSONL record file, skipping malformed (truncated) lines."""
    records: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def count_events(records: Iterable[Dict]) -> Dict[str, int]:
    """Event name → number of occurrences."""
    totals: Dict[str, int] = {}
    for record in records:
        event = record.get("event", "?")
        totals[event] = totals.get(event, 0) + 1
    return totals


def _percentile(values: List[float], q: float) -> float:
    """Percentile that tolerates an empty sample (0.0) instead of raising."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def summarize_records(records: Iterable[Dict]) -> Dict:
    """Roll a telemetry record stream up into the profiling summary.

    Works on a live record list or on records re-loaded from a JSONL file
    via :func:`load_jsonl` — :meth:`repro.observability.Telemetry.summary`
    produces the identical structure from its running aggregates, and the
    equivalence is pinned by the observability test suite.

    Returns a dict with:

    - ``"rounds"``: number of per-round records;
    - ``"spans"``: per span name, ``{"count", "p50", "p95", "total"}``
      (seconds);
    - ``"rounds_per_sec"``: rounds divided by the total time attributed to
      the ``"round"`` span (falling back to the ``"run"`` span), ``None``
      when no timing was recorded;
    - ``"elimination"``: aggregate confusion counts of filter elimination
      against the ground-truth Byzantine set, with ``precision`` (of the
      eliminated agents, how many were Byzantine) and ``recall`` (of the
      Byzantine agents present, how many were eliminated); ``None`` values
      where the denominator is empty;
    - ``"counters"``: merged counter totals from ``counters`` records.
    """
    rounds = 0
    durations: Dict[str, List[float]] = {}
    tp = fp = fn = 0
    counters: Dict[str, int] = {}
    for record in records:
        event = record.get("event")
        if event == "round":
            rounds += 1
            if record.get("eliminated") is not None:
                tp += int(record.get("eliminated_byzantine", 0))
                fp += len(record["eliminated"]) - int(
                    record.get("eliminated_byzantine", 0)
                )
                fn += int(record.get("surviving_byzantine", 0))
        elif event == "span":
            # Tolerate partial span records (a torn line salvaged by
            # load_jsonl, or a foreign stream): skip rather than raise.
            if record.get("name") is None or record.get("seconds") is None:
                continue
            durations.setdefault(record["name"], []).append(
                float(record["seconds"])
            )
        elif event == "counters":
            for name, value in record.items():
                if name == "event":
                    continue
                counters[name] = counters.get(name, 0) + int(value)
    return _assemble_summary(rounds, durations, tp, fp, fn, counters)


def _assemble_summary(
    rounds: int,
    durations: Dict[str, List[float]],
    tp: int,
    fp: int,
    fn: int,
    counters: Dict[str, int],
) -> Dict:
    """Shared summary assembly for live telemetry and re-loaded records."""
    # An empty stream (or one whose span lists are empty) must roll up to
    # an explicit empty summary, never an exception: post-mortems run this
    # on whatever a killed process left behind.
    spans = {
        name: {
            "count": len(values),
            "p50": _percentile(values, 50),
            "p95": _percentile(values, 95),
            "total": float(sum(values)),
        }
        for name, values in sorted(durations.items())
        if values
    }
    rounds_per_sec: Optional[float] = None
    for clock in ("round", "run"):
        total = spans.get(clock, {}).get("total", 0.0)
        if rounds and total > 0:
            rounds_per_sec = rounds / total
            break
    return {
        "rounds": rounds,
        "spans": spans,
        "rounds_per_sec": rounds_per_sec,
        "elimination": {
            "true_positives": tp,
            "false_positives": fp,
            "false_negatives": fn,
            "precision": tp / (tp + fp) if tp + fp else None,
            "recall": tp / (tp + fn) if tp + fn else None,
        },
        "counters": dict(sorted(counters.items())),
    }


def write_summary_atomic(path: str, summary: Dict) -> str:
    """Persist a summary via the checksummed atomic-write path."""
    return write_json_atomic(path, summary)
