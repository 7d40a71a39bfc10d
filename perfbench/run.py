#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

Usage (from the checkout root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Prints every end-to-end metric by name and unit, the output checks, and
(with ``--trace 1``) the per-layer report; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Exits 1 when an output check fails and 2 when the program
cannot be run at all (e.g. no ``src/repro`` tree in the checkout). See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    WORK,
    WorkloadResult,
    fmt,
    load_spec,
    program_present,
)

WORKLOADS = ("serve_mix", "decentralized_n1024", "message_passing")


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> WorkloadResult:
    if name == "serve_mix":
        import serve_mix

        return serve_mix.run(seed, seconds, trace)
    import library

    return library.run(name, seed, seconds, trace)


def _metrics(result: WorkloadResult, spec: dict, trace: bool) -> dict:
    """The JSON metrics block: every end-to-end metric, or with trace
    every per-layer metric. A layer this workload never calls, or a
    percentile with no samples, reads 0."""
    if not trace:
        return {m["name"]: {"value": result.end_to_end[m["name"]],
                            "unit": m["unit"]} for m in spec["end_to_end"]}
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    undeclared = sorted(set(result.per_layer) - set(declared))
    if undeclared:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{undeclared}")
    metrics = {}
    for name, unit in declared.items():
        value = result.per_layer.get(name, 0.0)
        metrics[name] = {"value": value if math.isfinite(value) else 0.0,
                         "unit": unit}
    return metrics


def _print_result(result: WorkloadResult, spec: dict, trace: bool) -> None:
    print(f"== {result.workload}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in result.end_to_end.items():
        print(f"  {name:34} {fmt(value):>16} {units.get(name, '')}")
    for name, value, unit in result.named:
        print(f"  {name:34} {fmt(value):>16} {unit}")
    share = result.failed / result.attempted if result.attempted else 0.0
    print(f"  {'failed_share':34} {fmt(share):>16} ratio "
          f"({result.failed} of {result.attempted} operations)")
    for check in result.checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name}: "
              f"{check.detail}")
    if trace:
        print(f"-- traced report: {result.workload}")
        for line in result.report:
            print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: run_seconds "
                        "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program sources under {ROOT}/src/repro; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    os.chdir(ROOT)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, seconds, bool(args.trace))
            _print_result(result, spec, bool(args.trace))
            results.append(result)
    finally:
        shutil.rmtree(os.path.join(ROOT, WORK), ignore_errors=True)
    if len(results) == 1:
        metrics = _metrics(results[0], spec, bool(args.trace))
    else:
        metrics = {
            f"{result.workload}.{name}": value
            for result in results
            for name, value in _metrics(result, spec, bool(args.trace)).items()
        }
    correct = all(result.correct for result in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
