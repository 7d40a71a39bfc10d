"""End-to-end tests for the long-lived aggregation service.

In-process tests run a real :class:`ReproService` on a background event
loop and talk to it over its unix socket with the real client — the full
wire path. The crash test runs ``repro serve`` as a subprocess, kills it
with SIGKILL mid-run, restarts it over the same state directory, and
proves resumed jobs recompute only cells the cache never saw.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import AdmissionRejectedError, ServiceError
from repro.experiments.sweep import RegressionGrid, SweepEngine
from repro.service import ReproService, ServiceClient, ServiceConfig

SWEEP_PARAMS = {
    "filters": ["cge"],
    "attacks": ["gradient-reverse", "zero"],
    "fault_counts": [1],
    "num_seeds": 2,
    "iterations": 25,
    "master_seed": 11,
}


class ServiceHarness:
    """A live service on a background loop + a client for its socket."""

    def __init__(self, state_dir, **config_kwargs):
        import asyncio

        config_kwargs.setdefault("parallel", False)
        config_kwargs.setdefault("job_slots", 2)
        self.config = ServiceConfig(state_dir=str(state_dir), **config_kwargs)
        self.service = ReproService(self.config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_until_complete,
            args=(self.service.serve_forever(),), daemon=True)
        self._thread.start()
        self.client = ServiceClient(socket_path=self.config.socket_path,
                                    timeout=10)
        deadline = time.monotonic() + 10
        while True:
            try:
                self.client.healthz()
                break
            except ServiceError:
                if time.monotonic() > deadline:
                    raise RuntimeError("service never came up")
                time.sleep(0.02)

    def stop(self):
        try:
            self.client.shutdown()
        except ServiceError:
            pass
        self._thread.join(timeout=15)
        assert not self._thread.is_alive(), "service did not stop"


@pytest.fixture
def harness(tmp_path):
    h = ServiceHarness(tmp_path / "state")
    yield h
    h.stop()


class TestServiceEndToEnd:
    def test_run_job_lifecycle(self, harness):
        record = harness.client.submit(
            "run", {"n": 6, "d": 2, "f": 1, "iterations": 30, "seed": 4})
        assert record["state"] == "queued"
        final = harness.client.wait(record["job_id"], timeout=120)
        assert final["state"] == "done"
        assert final["attempts"] == 1
        result = harness.client.result(record["job_id"])
        assert result["kind"] == "run"
        assert result["final_error"] >= 0.0
        assert result["counts"]["telemetry_records"] > 0

    def test_sweep_job_bit_identical_to_direct_engine(self, harness):
        record = harness.client.submit("sweep", SWEEP_PARAMS)
        final = harness.client.wait(record["job_id"], timeout=240)
        assert final["state"] == "done", final.get("error")
        result = harness.client.result(record["job_id"])
        direct = SweepEngine(parallel=False).run_regression_grid(
            RegressionGrid(
                filters=("cge",), attacks=("gradient-reverse", "zero"),
                fault_counts=(1,), num_seeds=2, iterations=25,
                master_seed=11,
            )
        )
        assert len(result["cells"]) == len(direct)
        for got, ref in zip(result["cells"], direct):
            assert (got["filter"], got["attack"], got["f"], got["seed"]) == (
                ref.filter_name, ref.attack_name, ref.f, ref.seed)
            assert got["final_error"] == ref.final_error
            assert got["final_estimate"] == ref.final_estimate.tolist()

    def test_events_endpoint_serves_parseable_jsonl(self, harness):
        record = harness.client.submit("sweep", SWEEP_PARAMS)
        harness.client.wait(record["job_id"], timeout=240)
        events = list(harness.client.events(record["job_id"]))
        assert events, "sweep produced no events"
        assert all("event" in e for e in events)
        names = {e["event"] for e in events}
        assert names & {"cache_miss", "chunk_done", "map_inprocess"} or names

    def test_invalid_spec_rejected_400(self, harness):
        with pytest.raises(ServiceError, match="invalid-spec"):
            harness.client.submit("sweep", {"bogus": 1})
        with pytest.raises(ServiceError, match="unknown job kind"):
            harness.client.submit("mystery", {})

    def test_attack_needing_arguments_rejected_400(self, harness):
        # constant-bias needs a bias vector; admitting it would fail the run
        # job and quarantine every sweep cell.
        for kind, params in (("run", {"attack": "constant-bias"}),
                             ("sweep", {"attacks": ["constant-bias"]})):
            with pytest.raises(ServiceError, match="invalid-spec") as excinfo:
                harness.client.submit(kind, params)
            assert excinfo.value.status == 400

    def test_result_before_completion_conflicts(self, harness, tmp_path):
        # a job that was never submitted
        with pytest.raises(ServiceError):
            harness.client.result("j99999-deadbeef")

    def test_unknown_job_404(self, harness):
        with pytest.raises(ServiceError, match="unknown-job"):
            harness.client.job("j99999-deadbeef")

    def test_job_listing(self, harness):
        a = harness.client.submit("run", {"iterations": 20})
        b = harness.client.submit("run", {"iterations": 21})
        listed = [j["job_id"] for j in harness.client.jobs()]
        assert listed == [a["job_id"], b["job_id"]]

    def test_failed_job_reports_error(self, harness):
        # valid spec, infeasible configuration at execution time: Bulyan-
        # style constraints don't apply here, so use a bench with a valid
        # name but force failure via an unsatisfiable run: n=2 with f=1
        # leaves too few honest agents for a unique minimizer.
        record = harness.client.submit(
            "run", {"n": 2, "d": 2, "f": 1, "iterations": 10})
        final = harness.client.wait(record["job_id"], timeout=60)
        assert final["state"] == "failed"
        assert final["error"]

    def test_cross_tenant_cache_sharing(self, harness):
        first = harness.client.submit("sweep", SWEEP_PARAMS, client="alice")
        harness.client.wait(first["job_id"], timeout=240)
        second = harness.client.submit("sweep", SWEEP_PARAMS, client="bob")
        harness.client.wait(second["job_id"], timeout=240)
        result = harness.client.result(second["job_id"])
        assert result["counts"]["cache_hits"] == result["counts"]["cells"]
        assert result["counts"]["cache_misses"] == 0


class TestAdmissionOverTheWire:
    def test_queue_full_is_structured_429(self, tmp_path):
        harness = ServiceHarness(tmp_path / "state", max_queue=1, job_slots=1)
        try:
            # keep the single slot busy so queued jobs pile up
            harness.client.submit("sweep", dict(SWEEP_PARAMS,
                                                iterations=4000))
            harness.client.submit("run", {"iterations": 10})
            with pytest.raises(AdmissionRejectedError) as info:
                harness.client.submit("run", {"iterations": 10})
            assert info.value.reason == "queue-full"
            assert info.value.limit == 1
            assert info.value.status == 429
        finally:
            harness.stop()

    def test_client_cap_is_structured_429(self, tmp_path):
        harness = ServiceHarness(tmp_path / "state", per_client=1,
                                 job_slots=1)
        try:
            harness.client.submit("sweep", dict(SWEEP_PARAMS,
                                                iterations=4000),
                                  client="greedy")
            with pytest.raises(AdmissionRejectedError) as info:
                harness.client.submit("run", {"iterations": 10},
                                      client="greedy")
            assert info.value.reason == "client-cap"
            # other clients still get in
            harness.client.submit("run", {"iterations": 10}, client="other")
        finally:
            harness.stop()


def _start_server(state_dir, sock):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir",
         str(state_dir), "--job-slots", "2", "--pool-workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    client = ServiceClient(socket_path=sock, timeout=5)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.healthz()
            return proc
        except ServiceError:
            if proc.poll() is not None or time.monotonic() > deadline:
                output = proc.stdout.read().decode()
                proc.kill()
                raise RuntimeError(f"server did not come up:\n{output}")
            time.sleep(0.05)


def _cache_cells(state_dir):
    cache = os.path.join(str(state_dir), "cache")
    if not os.path.isdir(cache):
        return 0
    return len([f for f in os.listdir(cache)
                if f.endswith(".json") and not f.startswith("manifest")])


def _descendants(pid):
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    by_parent = {}
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        by_parent.setdefault(ppid, []).append(int(entry))
    frontier = [pid]
    while frontier:
        children = by_parent.get(frontier.pop(), [])
        pids.extend(children)
        frontier.extend(children)
    return pids


def _alive(pid):
    # Running or sleeping counts; exited or zombie (unreaped orphan) does
    # not — zombies keep their /proc entry but can no longer write cells.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _start_time(pid):
    # Clock ticks since boot at which ``pid`` started: with the pid it
    # identifies one process even if the pid is later reused.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return None


def _identities(pids):
    return [(pid, _start_time(pid)) for pid in pids]


def _reap(processes, timeout=10.0):
    """SIGKILL each ``(pid, start time)`` still running after ``timeout`` s.

    A killed server's pool workers are reparented to init and ignore
    SIGTERM, so nothing else stops them.
    """
    deadline = time.monotonic() + timeout
    while True:
        processes = [(pid, start) for pid, start in processes
                     if start is not None and _alive(pid)
                     and _start_time(pid) == start]
        if not processes or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    for pid, _ in processes:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


class TestKillDashNineResume:
    def test_killed_server_resumes_without_recomputing_cached_cells(
            self, tmp_path):
        state = tmp_path / "state"
        sock = str(state / "repro.sock")
        proc = _start_server(state, sock)
        client = ServiceClient(socket_path=sock, timeout=10)
        spawned = []  # every server's descendants, reaped at the end
        try:
            ids = []
            for i, filt in enumerate(["cge", "cwtm"]):
                rec = client.submit("sweep", {
                    "filters": [filt],
                    "attacks": ["gradient-reverse", "random", "sign-flip",
                                "zero"],
                    "fault_counts": [1], "num_seeds": 2,
                    "iterations": 30000, "master_seed": 50 + i,
                }, client=f"tenant{i}")
                ids.append(rec["job_id"])

            # let some groups finish, then SIGKILL mid-run
            deadline = time.monotonic() + 60
            while _cache_cells(state) < 2:
                assert time.monotonic() < deadline, "no cells finished"
                time.sleep(0.25)
            workers = _descendants(proc.pid)
            spawned += _identities(workers)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()

            # Orphaned pool workers finish their in-flight chunk, flush
            # its cells, then exit on call-queue EOF. Wait for them to
            # die before snapshotting — a plain fixed-interval check can
            # declare the cache stable while a slow chunk is mid-compute.
            deadline = time.monotonic() + 90
            while any(_alive(p) for p in workers):
                if time.monotonic() > deadline:
                    break
                time.sleep(0.25)
            previous, stable = -1, 0
            while stable < 3:
                current = _cache_cells(state)
                stable = stable + 1 if current == previous else 0
                previous = current
                time.sleep(1.0)
            cached_before_restart = _cache_cells(state)

            proc = _start_server(state, sock)
            health = client.healthz()
            assert set(health["recovered"]) >= {
                jid for jid in ids
                if json.load(open(
                    os.path.join(str(state), "jobs", jid, "job.json")
                ))["payload"]["state"] == "queued"
            }

            total_hits = total_misses = total_cells = 0
            for jid in ids:
                final = client.wait(jid, timeout=300, poll=0.5)
                assert final["state"] == "done", final.get("error")
                result = client.result(jid)
                counts = result["counts"]
                assert counts["failed"] == 0
                assert counts["quarantined"] == 0
                total_hits += counts["cache_hits"]
                total_misses += counts["cache_misses"]
                total_cells += counts["cells"]
                # every per-job event stream is valid JSONL
                events = list(client.events(jid))
                assert events and all("event" in e for e in events)

            assert total_cells == 16
            assert total_hits + total_misses == total_cells
            # THE durability claim: no cell that survived the kill was
            # recomputed, and everything else was.
            assert total_hits == cached_before_restart

            # resumed results are bit-identical to a direct batch run
            for i, jid in enumerate(ids):
                direct = SweepEngine(parallel=False).run_regression_grid(
                    RegressionGrid(
                        filters=(["cge", "cwtm"][i],),
                        attacks=("gradient-reverse", "random", "sign-flip",
                                 "zero"),
                        fault_counts=(1,), num_seeds=2, iterations=30000,
                        master_seed=50 + i,
                    )
                )
                cells = client.result(jid)["cells"]
                for got, ref in zip(cells, direct):
                    assert got["final_error"] == ref.final_error
                    assert got["final_estimate"] == (
                        ref.final_estimate.tolist())
        finally:
            spawned += _identities(_descendants(proc.pid))
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
            _reap(spawned)


class TestJobPruning:
    """``JobStore.prune`` GC: old terminal jobs go, everything else stays."""

    @staticmethod
    def _spec(seed):
        from repro.service.jobs import validate_job_spec

        return validate_job_spec(
            {"kind": "run", "params": {"n": 6, "seed": seed}}
        )

    def test_prune_removes_old_terminal_jobs_only(self, tmp_path):
        from repro.service.jobs import JobStore

        store = JobStore(str(tmp_path))
        now = time.time()

        old_done = store.create(self._spec(1))
        old_done.state = "done"
        old_done.finished_at = now - 1000
        store.save(old_done)
        store.write_result(old_done.job_id, {"ok": True})

        old_failed = store.create(self._spec(2))
        old_failed.state = "failed"
        old_failed.finished_at = now - 1000
        store.save(old_failed)

        fresh_done = store.create(self._spec(3))
        fresh_done.state = "done"
        fresh_done.finished_at = now
        store.save(fresh_done)

        queued = store.create(self._spec(4))  # queued, however old
        queued.submitted_at = now - 10_000
        store.save(queued)

        running = store.create(self._spec(5))
        running.state = "running"
        running.started_at = now - 10_000
        store.save(running)

        pruned = store.prune(ttl=500, now=now)
        assert pruned == [old_done.job_id, old_failed.job_id]
        # pruned manifests (and their whole job directories) are gone
        for job_id in pruned:
            assert not os.path.exists(store.job_dir(job_id))
            assert not os.path.exists(store.manifest_path(job_id))
        # live and queued jobs survive, and fresh terminal jobs do too
        survivors = {record.job_id for record in store.load_all()}
        assert survivors == {
            fresh_done.job_id, queued.job_id, running.job_id
        }

    def test_prune_ttl_zero_collects_every_terminal_job(self, tmp_path):
        from repro.service.jobs import JobStore

        store = JobStore(str(tmp_path))
        done = store.create(self._spec(1))
        done.state = "cancelled"
        done.finished_at = time.time()
        store.save(done)
        queued = store.create(self._spec(2))
        assert store.prune(ttl=0) == [done.job_id]
        assert {r.job_id for r in store.load_all()} == {queued.job_id}

    def test_negative_ttl_rejected(self, tmp_path):
        from repro.exceptions import InvalidParameterError
        from repro.service.jobs import JobStore

        with pytest.raises(InvalidParameterError, match="ttl"):
            JobStore(str(tmp_path)).prune(ttl=-1)
        with pytest.raises(InvalidParameterError, match="job_ttl"):
            ServiceConfig(state_dir=str(tmp_path), job_ttl=-5)

    def test_live_service_prunes_finished_jobs(self, tmp_path):
        # ttl long enough for client.wait to observe the terminal state
        # before the GC sweep collects it, short enough to test the sweep
        harness = ServiceHarness(tmp_path / "state", job_ttl=1.0)
        try:
            record = harness.client.submit(
                "run", {"n": 6, "d": 2, "f": 1, "iterations": 20, "seed": 1}
            )
            final = harness.client.wait(record["job_id"], timeout=60)
            assert final["state"] == "done"
            job_dir = harness.service.store.job_dir(record["job_id"])
            deadline = time.monotonic() + 10
            while os.path.exists(job_dir):
                assert time.monotonic() < deadline, "job never pruned"
                time.sleep(0.05)
            # the in-memory table follows the disk table
            deadline = time.monotonic() + 10
            while any(j["job_id"] == record["job_id"]
                      for j in harness.client.jobs()):
                assert time.monotonic() < deadline, "record never dropped"
                time.sleep(0.05)
        finally:
            harness.stop()
