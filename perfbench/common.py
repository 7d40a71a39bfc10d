"""Shared pieces of the benchmark: paths, statistics, the layer tracer.

Nothing here imports the program under test at module level, so the
entry point can report a missing ``src/repro`` tree before any import
fails.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout root (the directory that holds ``BENCHMARK.json``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where the program's sources live in the checkout.
SRC = os.path.join(ROOT, "src")
#: Scratch area for state dirs and checkpoints, relative to ``ROOT``.
#: Relative on purpose: unix socket paths are limited to ~107 bytes.
WORK = ".perfbench"


def program_present() -> bool:
    """Whether the checkout holds the program's sources."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's ``src`` tree."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def load_spec() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------

#: Median seconds one ``calibration_round`` took on the 2-core VM the
#: benchmark was sized on; the speed that timings are scaled back to.
REFERENCE_ROUND_S = 0.0225

_calibration_input = []


def calibration_round() -> float:
    """Time one fixed round of numpy and interpreter work, in seconds.

    The work is benchmark code, never the program's, so a change to the
    program cannot move it. On the VM the benchmark was sized on, the
    same work ran up to 1.7x slower for stretches of tens of seconds
    (CPU time, not steal); timing this round next to the workload and
    dividing it out cut the run-to-run spread of 30 s windows threefold.
    """
    import numpy as np

    if not _calibration_input:
        _calibration_input.append(
            np.random.default_rng(0).normal(size=(1024, 9, 8)))
    began = time.perf_counter()
    x = _calibration_input[0]
    for _ in range(10):
        np.partition(x, 2, axis=1)
        np.sort(x, axis=1)
        np.einsum("nkd,nkd->nk", x, x)
        x = x * 0.999 + 0.001
    table: Dict[int, int] = {}
    for i in range(40000):
        table[i % 97] = table.get(i % 97, 0) + i
    np.stack([np.zeros(4) + i for i in range(600)]).mean(axis=0)
    return time.perf_counter() - began


def slowdown(rounds: int = 1) -> float:
    """How many times slower than the reference the machine runs now.

    Benchmark timings are reported in reference seconds: measured
    seconds divided by the slowdown measured next to them.
    """
    return median([calibration_round() for _ in range(rounds)]) \
        / REFERENCE_ROUND_S


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 1].

    ``inf`` entries (failed operations) sort last; a percentile that
    touches one is ``inf``.
    """
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = (len(ordered) - 1) * q
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if math.isinf(ordered[high]) and fraction > 0 or math.isinf(ordered[low]):
        return float("inf")
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def latency_metrics(latencies: Sequence[float]) -> Dict[str, float]:
    """The gated latency pair: mean and p80 (``inf`` marks a failure).

    The median is printed but not gated: in ``serve_mix`` it falls
    between job-kind clusters and moved by 0.27 of itself across seeds.
    p80 is the highest percentile with ten samples beyond it at the
    50-95 operations a run makes.
    """
    return {
        "latency_mean_s": sum(latencies) / len(latencies)
        if latencies else float("nan"),
        "latency_p80_s": percentile(latencies, 0.8),
    }


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-percentile."""
    return count - 1 - int(math.floor((count - 1) * q)) if count else 0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class Check:
    """One output-correctness check."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class WorkloadResult:
    """Everything one workload run reports.

    ``end_to_end`` holds the metrics named in ``BENCHMARK.json``;
    ``named`` the workload-specific end-to-end figures printed next to
    them; ``per_layer`` the traced run's layer metrics; ``report`` the
    traced run's human-readable report lines.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    checks: List[Check] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    named: List[Tuple[str, float, str]] = field(default_factory=list)
    per_layer: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(check.ok for check in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


def fmt(value: float) -> str:
    if isinstance(value, float) and (math.isinf(value) or math.isnan(value)):
        return str(value)
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{value:.0f}"
    return f"{value:.6g}"


# ----------------------------------------------------------------------
# layer tracer (library workloads)
# ----------------------------------------------------------------------


class LayerTracer:
    """Wraps named functions from the outside and records busy time.

    Each wrapped call adds its self time — its duration minus the part
    covered by wrapped calls nested inside it — to its layer, so self
    times summed over every layer count each instant once. ``observe``
    hooks turn call arguments or results into counts (edges drawn, bytes
    written, ...).

    Patches are made on the attribute the calling module actually looks
    up (``module.function`` or ``Class.method``) and undone by
    :meth:`restore`.
    """

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            tracer._stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = tracer._stack.pop()
                tracer.self_s[layer] += elapsed - nested
                tracer.calls[layer] += 1
                if tracer._stack:
                    tracer._stack[-1] += elapsed
            if observe is not None:
                observe(tracer.counts, args, kwargs, result)
            return result

        return traced

    def replace(self, owner, attribute: str,
                factory: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attribute`` to ``factory(original)`` until restore."""
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, factory(original))

    def patch(self, owner, attribute: str, layer: str,
              observe: Optional[Callable] = None) -> None:
        self.replace(owner, attribute,
                     lambda original: self.wrap(layer, original, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def snapshot(self) -> Dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


# ----------------------------------------------------------------------
# library workloads: timed passes and the traced report
# ----------------------------------------------------------------------


def timed_passes(names: Sequence[str], run: Callable, describe: Callable,
                 seconds: float, tracer: Optional[LayerTracer] = None) -> Dict:
    """Run whole passes over ``names`` until ``seconds`` have elapsed.

    ``run(name)`` is the timed call; ``describe(name, result)`` turns its
    result into a record outside the timed region. Each pass starts with
    a calibration round, and each run records its wall time both as
    measured (``wall``) and in reference seconds (``ref_wall``). A run
    that raises is recorded as a failure with infinite wall time.
    """
    runs: List[Dict] = []
    calibration_round()  # first-use allocations stay out of the timing
    start = time.perf_counter()
    deadline = start + seconds
    while not runs or time.perf_counter() < deadline:
        factor = slowdown()
        for name in names:
            began = time.perf_counter()
            try:
                result = run(name)
            except Exception as exc:  # a failed run is data, not a crash
                runs.append({"name": name, "wall": float("inf"),
                             "ref_wall": float("inf"),
                             "error": f"{type(exc).__name__}: {exc}"})
                continue
            wall = time.perf_counter() - began
            runs.append({"name": name, "wall": wall,
                         "ref_wall": wall / factor, "slowdown": factor,
                         **describe(name, result)})
    phase = {"runs": runs, "seconds": time.perf_counter() - start}
    if tracer is not None:
        phase["tracer"] = tracer.snapshot()
    return phase


def machine_lines(phase: Dict, raw: Dict[str, float],
                  unit: str) -> List[Tuple[str, float, str]]:
    """Named figures for the machine speed the timed phase ran at."""
    factors = [r["slowdown"] for r in phase["runs"] if "slowdown" in r]
    return [
        ("runs", len(phase["runs"]), "count"),
        ("slowdown vs reference (median)", median(factors), "x"),
        ("throughput as measured", raw["throughput_per_s"], unit),
        ("latency_mean as measured", raw["latency_mean_s"], "s"),
    ]


def layer_table(layers: Dict[str, float],
                described: Dict[str, Tuple[str, str]]) -> List[str]:
    """Report lines: each per-layer metric, its unit, what it should move."""
    lines = [f"{'metric':32} {'value':>14} {'unit':6}  moves"]
    for name, (unit, moves) in described.items():
        lines.append(f"{name:32} {fmt(layers[name]):>14} {unit:6}  {moves}")
    return lines


def coverage(result: WorkloadResult, covered: float, wall: float,
             engine: float) -> None:
    """Check that wrapped layers plus engine self time fill the traced
    wall time; a hot path outside every wrapper would show as a gap."""
    share = covered / wall if wall else 0.0
    result.report.append(
        f"coverage: wrapped layers + engine self time = {covered:.3f} s of "
        f"{wall:.3f} s traced wall ({share:.1%}; stated share >= 95%); "
        f"engine self time alone {engine / wall if wall else 0.0:.1%}"
        + ("" if share >= 0.95 else " -> GAP"))
    result.check("self-time coverage", share >= 0.95,
                 f"{share:.1%} of traced wall time")


def overhead(result: WorkloadResult, untraced: Dict[str, float],
             traced: Dict[str, float]) -> None:
    """Report tracing overhead: traced minus untraced end-to-end metrics."""
    for name, plain in untraced.items():
        delta = traced[name] - plain
        result.report.append(
            f"tracing overhead {name}: traced {traced[name]:.6g} - untraced "
            f"{plain:.6g} = {delta:+.6g} ({delta / plain:+.1%})")
