"""Parent side of the library workloads: fresh processes, setup, memory.

A library workload runs in child processes (``libchild.py``) so that
set-up time covers interpreter start, imports and lazy first-use work,
and peak memory is that of a process running only the program under
test. Set-up is measured in ``SETUP_REPEATS`` fresh processes, each
scaled to reference seconds by a calibration taken just before it, and
the median reported; the last process goes on to the timed phase.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import threading
import time

from common import ROOT, WorkloadResult, median, program_env, slowdown

SETUP_REPEATS = 3
SETUP_CALIBRATION_ROUNDS = 5
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "libchild.py")


class ChildFailed(RuntimeError):
    """A workload child process crashed or printed no result."""


def _child(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool):
    """One child run: (setup seconds, stdout after the ready line, rusage)."""
    command = [sys.executable, CHILD, workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if setup_only:
        command.append("--setup-only")
    began = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, text=True)
    limit = 60.0 if setup_only else 60.0 + 2 * seconds
    watchdog = threading.Timer(limit, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        rest = proc.stdout.read()
        # wait4 rather than wait: it returns the child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(
            f"{workload} child exited {proc.returncode} "
            f"(ready line {ready.strip()!r})"
        )
    return setup_s, rest, usage


def run(workload: str, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    module = importlib.import_module(workload)
    setups = []
    for index in range(SETUP_REPEATS):
        timed = index == SETUP_REPEATS - 1
        factor = slowdown(rounds=SETUP_CALIBRATION_ROUNDS)
        setup_s, rest, usage = _child(workload, seed, seconds, trace,
                                      setup_only=not timed)
        setups.append(setup_s / factor)
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed(f"{workload} child printed no result")
    payload = json.loads(lines[-1])
    result = WorkloadResult(workload)
    result.end_to_end["setup_s"] = median(setups)
    # ru_maxrss is in KiB on Linux.
    result.end_to_end["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    module.summarize(payload, result, trace)
    result.named.append(("setup_s samples", len(setups), "count"))
    return result
