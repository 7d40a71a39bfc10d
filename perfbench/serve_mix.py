"""Workload ``serve_mix``: a closed loop of two clients against ``repro serve``.

The server runs with default settings (2 job slots, a shared pool of
``nproc`` workers) on a fresh state directory. Load comes from this
process: two clients (the main thread and one more thread), each
submitting its next job only once its previous job is terminal, as
``repro submit --wait`` does, so at most two connections are open.

We have no recorded traffic, so the job mix is modelled on the
repository's own defaults. Jobs are dealt from a seeded deck in blocks
of ten: three ``run`` jobs (CLI defaults n=6, d=2, f=1, 500 rounds,
filter and attack from the registry), five new ``sweep`` grids (2
filters from the CLI defaults x 2 attacks from the CLI defaults plus
``alie``, ``ipm``, ``mimic``; f=1, 8 seeds, n=6, 300 rounds, a fresh
master seed) and two resubmissions of a grid dealt at least four jobs
earlier, which its cell cache then serves.

Job cost is heavy-tailed: a run job with ``geomed`` or ``gmom`` costs
about seven times one with any other filter, and a grid with ``alie``
several times one without (per-slice forging calls ``scipy.stats``).
So the kinds, filters and attacks follow one fixed seeded deal (see
``build_deck``), with the heavy draws at fixed positions: every sixth
run job, two of every seven new grids.

This is the only workload that goes through HTTP, admission, the queue,
the executor, the shared pool, cell-cache writes and reads, and the
batch engine.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from common import (
    ROOT,
    WORK,
    WorkloadResult,
    latency_metrics,
    layer_table,
    median,
    overhead,
    percentile,
    program_env,
    samples_beyond,
    use_program,
)

#: ``repro sweep`` / ``repro submit sweep`` default filters and attacks,
#: plus the attacks E10 adds.
SWEEP_FILTERS = ("cge", "cwtm", "median", "average")
SWEEP_ATTACKS = ("gradient-reverse", "random", "sign-flip", "zero",
                 "alie", "ipm", "mimic")
#: Registry filters usable at the run-job defaults (bulyan needs
#: n >= 4f + 3 = 7), split by cost, and the attacks ``repro run`` offers
#: (the other four registry attacks need constructor arguments).
RUN_FILTERS_HEAVY = ("geomed", "gmom")
RUN_FILTERS_LIGHT = ("average", "cge", "clipping", "cwtm", "krum", "median",
                     "mom", "multikrum", "signsgd", "sum")
RUN_ATTACKS = ("alie", "gradient-reverse", "ipm", "mimic", "random",
               "sign-flip", "zero")
#: Positions of the heavy draws: one run job in six, two grids in seven.
HEAVY_RUN_EVERY = 6
ALIE_GRID_PATTERN = (False, True, False, False, True, False, False)
BLOCK = ("run",) * 3 + ("sweep",) * 5 + ("resubmit",) * 2
MIX_SEED = 20200803
RESUBMIT_GAP = 4
POLL_S = 0.05
SETUP_REPEATS = 3
#: Cells recomputed in-process after the timed phase.
RECOMPUTE_SAMPLE = 4
#: Sweep grid constants (what ``repro submit sweep`` sends by default).
GRID = {"fault_counts": [1], "num_seeds": 8, "n": 6, "d": 2,
        "noise_std": 0.0, "iterations": 300}
RUN = {"n": 6, "d": 2, "f": 1, "noise_std": 0.02, "iterations": 500}
TERMINAL = ("done", "failed", "cancelled")


# ----------------------------------------------------------------------
# the job deck
# ----------------------------------------------------------------------


def _cycle(rng, items: Sequence) -> Iterator:
    """Endless shuffled passes over ``items``."""
    while True:
        for index in rng.permutation(len(items)):
            yield items[index]


def build_deck(seed: int, length: int) -> List[Dict]:
    """The job sequence: the mix from ``MIX_SEED``, the grids from ``seed``.

    Job kinds, filters, attacks, run jobs' instance seeds and which grid
    a resubmission repeats follow one fixed deal, so every seed measures
    the same mix: job costs are heavy-tailed, and a ``geomed`` run job's
    cost alone varies sevenfold with its instance seed, so a seeded mix
    made the deal, not the program, dominate the run-to-run spread. The
    seed picks every grid's master seed, hence every cell computed and
    cached; the batch engine's cost does not depend on it.
    """
    rng = np.random.default_rng(MIX_SEED)
    values = np.random.default_rng([seed, 6])
    pairs = list(itertools.combinations(SWEEP_ATTACKS, 2))
    filter_pairs = _cycle(rng, list(itertools.combinations(SWEEP_FILTERS, 2)))
    attack_pairs = {
        heavy: _cycle(rng, [p for p in pairs if ("alie" in p) == heavy])
        for heavy in (False, True)
    }
    run_filters = {True: _cycle(rng, RUN_FILTERS_HEAVY),
                   False: _cycle(rng, RUN_FILTERS_LIGHT)}
    run_attacks = _cycle(rng, RUN_ATTACKS)
    deck: List[Dict] = []
    grids: List[int] = []
    runs = 0
    while len(deck) < length:
        for kind in rng.permutation(BLOCK):
            if kind == "resubmit":
                eligible = [i for i in grids if i <= len(deck) - RESUBMIT_GAP]
                if eligible:
                    source = int(rng.choice(eligible))
                    deck.append({"kind": "sweep", "resubmit_of": source,
                                 "params": deck[source]["params"]})
                    continue
                kind = "sweep"
            if kind == "sweep":
                heavy = ALIE_GRID_PATTERN[len(grids) % len(ALIE_GRID_PATTERN)]
                grids.append(len(deck))
                deck.append({"kind": "sweep", "params": {
                    "filters": list(next(filter_pairs)),
                    "attacks": list(next(attack_pairs[heavy])),
                    "master_seed": int(values.integers(0, 2**31 - 1)),
                    **GRID,
                }})
            else:
                runs += 1
                heavy = runs % HEAVY_RUN_EVERY == 0
                deck.append({"kind": "run", "params": {
                    "filter": next(run_filters[heavy]),
                    "attack": next(run_attacks),
                    "seed": int(rng.integers(0, 2**31 - 1)),
                    **RUN,
                }})
    return deck


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------


def _descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (pool workers), from /proc."""
    parents: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Server:
    """One ``repro serve`` process on a fresh state directory."""

    def __init__(self, tag: str):
        from repro.service.client import ServiceClient

        self.state_dir = os.path.join(WORK, f"serve-{os.getpid()}-{tag}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        self.socket = os.path.join(self.state_dir, "repro.sock")
        self._log = open(os.path.join(self.state_dir, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", self.state_dir],
            cwd=ROOT, env=program_env(), stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(socket_path=self.socket, timeout=60.0)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        from repro.exceptions import ServiceError

        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode}; see "
                    f"{self.state_dir}/serve.log")
            if os.path.exists(self.socket):
                try:
                    if self.client.healthz().get("ok"):
                        return
                except ServiceError:
                    pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not become healthy")
            time.sleep(0.01)

    def run_job(self, kind: str, params: Dict) -> Dict:
        record = self.client.submit(kind, params, client="setup")
        final = self.client.wait(record["job_id"], timeout=120.0, poll=POLL_S)
        if final["state"] != "done":
            raise RuntimeError(f"warm-up {kind} job ended {final['state']}: "
                               f"{final.get('error')}")
        return final

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return max(_peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """Graceful shutdown; then make sure no worker outlives it."""
        from repro.exceptions import ServiceError

        workers = _descendants(self.proc.pid)
        try:
            self.client.shutdown()
        except ServiceError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.perf_counter() + 10
        while any(_alive(pid) for pid in workers):
            if time.perf_counter() > deadline:
                for pid in workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
                break
            time.sleep(0.05)
        self._log.close()


def _start_ready(tag: str):
    """Start a server and bring it to the ready-to-time state.

    Ready means: healthz answered, a run job with ALIE done (the server
    process imports ``scipy.stats``) and a sweep job done (the pool
    spawns, forked after that import, so its workers inherit it).
    """
    began = time.perf_counter()
    server = Server(tag)
    try:
        server.wait_healthy()
        server.run_job("run", {**RUN, "filter": "cge", "attack": "alie",
                               "iterations": 20, "seed": 1})
        server.run_job("sweep", {**GRID, "filters": ["cge", "cwtm"],
                                 "attacks": ["alie"], "num_seeds": 2,
                                 "iterations": 20, "master_seed": 1})
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - began


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------


def _phase(server: Server, deck: List[Dict], seconds: float,
           telemetry: bool) -> Dict:
    """Two closed-loop clients until ``seconds`` pass; drain, then stop."""
    from repro.exceptions import AdmissionRejectedError, ServiceError
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    cursor = iter(range(len(deck)))
    finished = [threading.Event() for _ in deck]
    outcomes: List[Dict] = []
    started = time.time()
    deadline = time.perf_counter() + seconds

    def client_loop(name: str) -> None:
        client = ServiceClient(socket_path=server.socket, timeout=60.0)
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor)
            job = deck[index]
            source = job.get("resubmit_of")
            if source is not None:
                finished[source].wait(timeout=120)
            params = dict(job["params"])
            if job["kind"] == "sweep":
                params["telemetry"] = telemetry
            outcome = {"index": index, "kind": job["kind"],
                       "resubmit_of": source, "client": name}
            sent = time.time()
            began = time.perf_counter()
            try:
                record = client.submit(job["kind"], params, client=name)
                outcome["rtt"] = time.perf_counter() - began
                final = client.wait(record["job_id"], timeout=120.0,
                                    poll=POLL_S)
                outcome.update(record=final, state=final["state"],
                               latency=final["finished_at"] - sent)
            except AdmissionRejectedError as exc:
                outcome.update(state="refused", error=str(exc),
                               latency=float("inf"))
            except ServiceError as exc:
                outcome.update(state="error", error=str(exc),
                               latency=float("inf"))
            finished[index].set()
            with lock:
                outcomes.append(outcome)

    errors: List[BaseException] = []

    def second_client() -> None:
        try:
            client_loop("client-1")
        except BaseException as exc:  # re-raised below, in this thread
            errors.append(exc)

    other = threading.Thread(target=second_client)
    other.start()
    try:
        client_loop("client-0")
    finally:
        other.join()
    if errors:
        raise errors[0]
    ends = [o["record"]["finished_at"] for o in outcomes if "record" in o]
    return {
        "outcomes": sorted(outcomes, key=lambda o: o["index"]),
        "seconds": (max(ends) if ends else time.time()) - started,
    }


def _job_events(server: Server, job_id: str) -> List[Dict]:
    from repro.observability.exporters import load_jsonl

    path = os.path.join(server.state_dir, "jobs", job_id, "events.jsonl")
    return load_jsonl(path) if os.path.exists(path) else []


def _end_to_end(phase: Dict) -> Dict[str, float]:
    outcomes = phase["outcomes"]
    terminal = [o for o in outcomes if o.get("state") in TERMINAL]
    return {
        "throughput_per_s": len(terminal) / phase["seconds"],
        **latency_metrics(_latencies(phase)),
    }


def _latencies(phase: Dict) -> List[float]:
    """Send-to-finish seconds per job; a job not done is infinitely slow."""
    return [o["latency"] if o.get("state") == "done" else float("inf")
            for o in phase["outcomes"]]


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def _check(server: Server, phases: Sequence[Dict],
           seed: int, result: WorkloadResult) -> None:
    outcomes = [o for phase in phases for o in phase["outcomes"]]
    bad = [o for o in outcomes if o.get("state") != "done"]
    result.attempted = len(outcomes)
    result.check("every job done", not bad,
                 f"{len(outcomes) - len(bad)} of {len(outcomes)} done"
                 + (f"; first other: {bad[0]}" if bad else ""))
    documents = {}
    for outcome in outcomes:
        if outcome.get("state") == "done":
            job_id = outcome["record"]["job_id"]
            documents[job_id] = server.client.result(job_id)
            outcome["job_id"] = job_id
    failed = {id(o) for o in bad}

    def fail(outcome, why):
        failed.add(id(outcome))
        return f"{outcome['record']['job_id']}: {why}"

    problems = []
    done = [o for o in outcomes if o.get("state") == "done"]
    for outcome in outcomes:
        if outcome.get("state") != "done":
            continue
        document = documents[outcome["job_id"]]
        if outcome["kind"] == "run":
            if not math.isfinite(document["final_error"]):
                problems.append(fail(outcome, "non-finite final_error"))
            continue
        counts = document["counts"]
        if counts["failed"] or counts["quarantined"]:
            problems.append(fail(outcome, f"cells failed/quarantined {counts}"))
    result.check("run final_error finite; sweep cells neither failed nor "
                 "quarantined", not problems,
                 "; ".join(problems[:3]) or f"{len(done)} result documents")

    # A resubmitted grid is served from the cache and must match the grid
    # it repeats cell for cell.
    mismatched = []
    resubmits = 0
    for phase in phases:
        by_index = {o["index"]: o for o in phase["outcomes"]}
        for outcome in phase["outcomes"]:
            source = by_index.get(outcome.get("resubmit_of"))
            if outcome.get("state") != "done" or source is None \
                    or source.get("state") != "done":
                continue
            resubmits += 1
            mine = documents[outcome["job_id"]]
            theirs = documents[source["job_id"]]
            same = [c["final_estimate"] for c in mine["cells"]] == \
                [c["final_estimate"] for c in theirs["cells"]]
            if not same or mine["counts"]["cache_misses"]:
                mismatched.append(fail(outcome, "differs from its source grid"))
    result.check("resubmitted grids equal their source, all from cache",
                 not mismatched,
                 "; ".join(mismatched[:3]) or f"{resubmits} resubmissions")

    # A seeded sample of freshly computed cells, recomputed in-process.
    fresh = [(o, cell) for o in outcomes
             if o.get("state") == "done" and o["kind"] == "sweep"
             and o["resubmit_of"] is None
             for cell in documents[o["job_id"]]["cells"]]
    rng = np.random.default_rng([seed, 7])
    picks = rng.choice(len(fresh), size=min(RECOMPUTE_SAMPLE, len(fresh)),
                       replace=False) if fresh else []
    differing = []
    for pick in picks:
        outcome, cell = fresh[int(pick)]
        if _recompute(cell) != cell["final_estimate"]:
            differing.append(fail(outcome, f"cell {cell['filter']}/"
                                  f"{cell['attack']}/seed {cell['seed']}"))
    result.check("sampled cells equal an in-process run_dgd_batch "
                 "recompute bit for bit", bool(len(picks)) and not differing,
                 "; ".join(differing[:3])
                 or f"{len(picks)} of {len(fresh)} fresh cells recomputed")
    result.failed = len(failed)


def _recompute(cell: Dict) -> List[float]:
    """The cell's final estimate from ``run_dgd_batch`` in this process,
    built the way the sweep's pool worker builds it."""
    from repro.attacks.registry import make_attack
    from repro.problems.linear_regression import make_redundant_regression
    from repro.system.batch import run_dgd_batch
    from repro.system.runner import DGDConfig

    f = int(cell["f"])
    instance = make_redundant_regression(
        n=GRID["n"], d=GRID["d"], f=max(GRID["fault_counts"]),
        noise_std=GRID["noise_std"], seed=20200803,  # RegressionGrid default
    )
    config = DGDConfig(iterations=GRID["iterations"],
                       gradient_filter=cell["filter"],
                       faulty_ids=tuple(range(f)), f=f, seed=0)
    traces = run_dgd_batch(instance.costs, make_attack(cell["attack"]),
                           config, seeds=[int(cell["seed"])])
    return traces[0].final_estimate.tolist()


# ----------------------------------------------------------------------
# the traced report
# ----------------------------------------------------------------------

#: per-layer metric -> (unit, the end-to-end metric it should move)
LAYERS = {
    "service.submit_rtt_p50_s": ("s", "latency_mean_s"),
    "service.refused": ("count", "failed_share"),
    "service.queue_wait_p50_s": ("s", "latency_p80_s"),
    "service.run_job_busy_p50_s": ("s", "latency_mean_s, throughput_per_s"),
    "service.sweep_job_busy_p50_s": ("s", "latency_mean_s, throughput_per_s"),
    "service.run_telemetry_records": ("count", "latency_mean_s"),
    "sweep.chunk_busy_s": ("s", "throughput_per_s"),
    "sweep.chunks": ("count", "throughput_per_s"),
    "sweep.overhead_p50_s": ("s", "latency_mean_s"),
    "cache.hits": ("count", "throughput_per_s"),
    "cache.misses": ("count", "throughput_per_s"),
    "cache.hit_share": ("ratio", "throughput_per_s"),
    "cache.hit_job_busy_p50_s": ("s", "latency_mean_s"),
    "batch.round_p50_s": ("s", "throughput_per_s"),
    "sweep.retries": ("count", "failed_share"),
    "sweep.pool_rebuilds": ("count", "failed_share"),
    "sweep.quarantined": ("count", "failed_share"),
}


def _layers(server: Server, phase: Dict, result: WorkloadResult) -> None:
    from repro.observability.perf.export import (
        build_span_tree,
        collect_trace_records,
    )

    done = [o for o in phase["outcomes"] if o.get("state") == "done"]
    runs = [o for o in done if o["kind"] == "run"]
    sweeps = [o for o in done if o["kind"] == "sweep"]

    def busy(o):
        return o["record"]["finished_at"] - o["record"]["started_at"]

    chunk_elapsed, overheads, rounds = [], [], []
    events: Dict[str, int] = {}
    covered = spanned = 0.0
    for outcome in sweeps:
        job_id = outcome["record"]["job_id"]
        elapsed = []
        for record in _job_events(server, job_id):
            name = record.get("event")
            events[name] = events.get(name, 0) + 1
            if name == "chunk_done":
                elapsed.append(float(record["elapsed"]))
        chunk_elapsed.extend(elapsed)
        # One pooled map per job: its chunks run side by side, so the
        # job's chunk time is its slowest chunk.
        overheads.append(busy(outcome) - max(elapsed, default=0.0))
        for root in build_span_tree(collect_trace_records(
                os.path.join(server.state_dir, "jobs", job_id))):
            if root.name == "job":
                covered += root.seconds
                spanned += busy(outcome)
            rounds.extend(node.seconds for node in root.walk()
                          if node.name == "round")
    summaries = [o["record"]["summary"] for o in sweeps]
    hits = sum(s.get("cache_hits", 0) for s in summaries)
    misses = sum(s.get("cache_misses", 0) for s in summaries)
    cached_jobs = [busy(o) for o, s in zip(sweeps, summaries)
                   if s.get("cache_misses", 0) == 0]
    outcomes = phase["outcomes"]
    layers = {
        "service.submit_rtt_p50_s": median([o["rtt"] for o in outcomes
                                            if "rtt" in o]),
        "service.refused": sum(o.get("state") == "refused" for o in outcomes),
        "service.queue_wait_p50_s": median([
            o["record"]["started_at"] - o["record"]["submitted_at"]
            for o in done]),
        "service.run_job_busy_p50_s": median([busy(o) for o in runs]),
        "service.sweep_job_busy_p50_s": median([busy(o) for o in sweeps]),
        "service.run_telemetry_records": (
            sum(o["record"]["summary"]["telemetry_records"] for o in runs)
            / len(runs) if runs else 0.0),
        "sweep.chunk_busy_s": sum(chunk_elapsed),
        "sweep.chunks": len(chunk_elapsed),
        "sweep.overhead_p50_s": median(overheads),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "cache.hit_job_busy_p50_s": median(cached_jobs),
        "batch.round_p50_s": median(rounds),
        "sweep.retries": events.get("chunk_retry", 0)
        + events.get("item_retry", 0),
        "sweep.pool_rebuilds": events.get("pool_rebuild", 0),
        "sweep.quarantined": events.get("quarantine", 0),
    }
    result.per_layer.update(layers)
    lines = result.report
    lines.append(f"traced jobs: {len(outcomes)} ({len(runs)} run, "
                 f"{len(sweeps)} sweep of which {len(cached_jobs)} fully "
                 f"cached); {len(rounds)} batch round spans")
    lines.extend(layer_table(layers, LAYERS))
    coverage = covered / spanned if spanned else 0.0
    lines.append(
        f"coverage: traced job spans cover {covered:.3f} s of {spanned:.3f} s "
        f"sweep-job busy time ({coverage:.1%}; stated share >= 90%); the "
        "rest is result and manifest writes and thread hand-off"
        + ("" if coverage >= 0.9 else " -> GAP")
    )
    result.check("self-time coverage", coverage >= 0.9,
                 f"{coverage:.1%} of traced sweep-job busy time")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    use_program()
    os.makedirs(WORK, exist_ok=True)
    result = WorkloadResult("serve_mix")
    setups = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
                server = None
            server, setup_s = _start_ready(str(attempt))
            setups.append(setup_s)
        # Enough cards for the fastest plausible rate, with room to spare.
        length = int(20 * seconds) + 40
        plain = _phase(server, build_deck(seed, length),
                       seconds / 2 if trace else seconds, telemetry=False)
        phases = [plain]
        if trace:
            # Fresh master seeds, so the traced half starts from a cold
            # cache exactly like the untraced one.
            traced = _phase(server, build_deck(seed + 1_000_003, length),
                            seconds / 2, telemetry=True)
            phases.append(traced)
        result.end_to_end["setup_s"] = median(setups)
        result.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
        result.end_to_end.update(_end_to_end(plain))
        _check(server, phases, seed, result)
        if trace:
            _layers(server, traced, result)
            overhead(result, _end_to_end(plain), _end_to_end(traced))
    finally:
        if server is not None:
            server.stop()
    outcomes = plain["outcomes"]
    latencies = _latencies(plain)
    kinds = [o["kind"] if o["resubmit_of"] is None else "resubmit"
             for o in outcomes]
    result.named += [
        ("jobs_per_s", result.end_to_end["throughput_per_s"], "jobs/s"),
        ("job_latency_p50_s", median(latencies), "s"),
        ("job_latency_p90_s", percentile(latencies, 0.9), "s"),
        ("jobs", len(outcomes), "count"),
        ("jobs beyond p80", samples_beyond(len(outcomes), 0.8), "count"),
        ("jobs beyond p90", samples_beyond(len(outcomes), 0.9), "count"),
    ] + [(f"{kind} jobs", kinds.count(kind), "count")
         for kind in ("run", "sweep", "resubmit")] + [
        ("setup_s samples", len(setups), "count"),
    ]
    return result
