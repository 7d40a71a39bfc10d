"""Reproducer: a followed event stream must end when its job ends.

``GET /jobs/<id>/events?follow=1`` — the path behind ``repro status
--events --follow`` — never reaches EOF if the shared pool forks its
workers while the stream is open: the forked workers inherit the
stream's connection socket, so the server closing its end does not close
the connection. The benchmark's load generator polls ``GET /jobs/<id>``
instead for that reason.

The test is a strict expected failure: the change that fixes the defect
must flip it. Run it from the checkout root with
``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.exceptions import ServiceError  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

#: How long after its job ends a followed stream may stay open.
EOF_BOUND_S = 10.0


def _descendants(pid: int):
    children = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                    ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
            if ppid == pid:
                children.append(int(name))
    return children


@pytest.fixture
def service(tmp_path):
    state = tmp_path / "state"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    client = ServiceClient(socket_path=str(state / "repro.sock"),
                           timeout=EOF_BOUND_S)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.healthz()
            break
        except ServiceError:
            if time.monotonic() > deadline or proc.poll() is not None:
                proc.kill()
                pytest.fail("repro serve did not come up")
            time.sleep(0.05)
    try:
        yield client
    finally:
        workers = _descendants(proc.pid)
        try:
            client.shutdown()
            proc.wait(timeout=30)
        except (ServiceError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        for pid in workers:
            try:
                os.kill(pid, 9)
            except OSError:
                pass


@pytest.mark.xfail(
    strict=True,
    raises=TimeoutError,
    reason="follow stream never reaches EOF when the shared pool forks "
    "while it is open: the forked workers inherit the connection socket",
)
def test_follow_stream_ends_when_pool_spawns_during_it(service):
    # A run job long enough to still be streaming when the pool forks.
    run = service.submit("run", {"iterations": 5000, "filter": "cge"})
    stream = service.events(run["job_id"], follow=True)
    next(stream)  # the stream is open and being served
    # The service's first multi-group sweep job spawns the shared pool now.
    sweep = service.submit("sweep", {"filters": ["cge", "cwtm"],
                                     "attacks": ["zero", "random"],
                                     "num_seeds": 2, "iterations": 50})
    assert service.wait(sweep["job_id"], timeout=60)["state"] == "done"
    assert service.healthz()["pool"]["live_workers"] > 0
    assert service.job(run["job_id"])["state"] == "running"
    remaining = sum(1 for _ in stream)  # TimeoutError if EOF never comes
    assert service.job(run["job_id"])["state"] == "done"
    assert remaining > 0
