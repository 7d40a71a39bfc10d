"""Grid-level chaos tests: the sweep engine under injected infrastructure faults.

The contract under test: whatever the infrastructure does — workers
raising, worker processes dying, chunks hanging, cache entries corrupted,
runs killed mid-grid — every cell the engine reports as succeeded is
bit-identical to a fault-free sequential run, persistent failures are
quarantined instead of aborting the grid, and ``resume()`` recomputes only
the cells that never completed (proven by event-log cache-hit counts).
"""

import os
import shutil

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.sweep import RegressionGrid, SweepEngine, summarize_grid
from repro.experiments.topology_resilience import run_topology_resilience
from repro.experiments.tournament import (
    AttackSpec,
    TournamentConfig,
    run_tournament,
)
from repro.system.faultinjection import (
    CrashOnCalls,
    FailEveryNth,
    FailMatching,
    FailOnCalls,
    FaultyWorker,
    HangOnCalls,
    corrupt_cache_entry,
)
from repro.utils.atomicio import read_json_checked, write_json_atomic

GRID = RegressionGrid(
    filters=("cge", "average"),
    attacks=("gradient-reverse", "zero"),
    num_seeds=2,
    iterations=20,
)


@pytest.fixture(scope="module")
def reference_cells():
    """Fault-free, sequential, uncached execution — the ground truth."""
    return SweepEngine(parallel=False, retries=0).run_regression_grid(GRID)


def assert_cells_equal(cells, reference):
    assert len(cells) == len(reference)
    for cell, ref in zip(cells, reference):
        assert (cell.filter_name, cell.attack_name, cell.f, cell.seed) == (
            ref.filter_name, ref.attack_name, ref.f, ref.seed
        )
        assert not cell.failed, cell.error
        assert cell.final_error == ref.final_error
        assert np.array_equal(cell.estimates, ref.estimates)


def cache_entries(cache_dir):
    return sorted(
        name for name in os.listdir(cache_dir)
        if name.endswith(".json") and not name.startswith("manifest")
    )


class TestChaosGrids:
    def test_transient_worker_failures_bit_identical(self, tmp_path,
                                                     reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailEveryNth(4)], counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_retry", 0) >= 1
        assert "quarantine" not in counts

    def test_worker_process_crash_bit_identical(self, tmp_path, reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [CrashOnCalls((0,))], counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_crash", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_hung_chunk_times_out_bit_identical(self, tmp_path, reference_cells):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1, timeout=1.5,
            worker_wrapper=lambda w: FaultyWorker(
                w, [HangOnCalls((0,), duration=6.0)],
                counter_dir=str(tmp_path / "calls"),
            ),
        )
        cells = engine.run_regression_grid(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts.get("chunk_timeout", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_persistent_failure_quarantined_inprocess(self, reference_cells):
        engine = SweepEngine(
            parallel=False, retries=1, retry_backoff=0.01,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailMatching("'filter': 'average'")]
            ),
        )
        cells = engine.run_regression_grid(GRID)
        good = [c for c in cells if c.filter_name == "cge"]
        bad = [c for c in cells if c.filter_name == "average"]
        assert_cells_equal(
            good, [c for c in reference_cells if c.filter_name == "cge"]
        )
        assert all(c.failed and c.quarantined for c in bad)
        assert all("quarantined" in c.error for c in bad)
        assert engine.events.counts()["quarantine"] >= 1
        # The grid still summarizes; quarantined groups render as n/a.
        rows = {(r[1], r[2]): r for r in summarize_grid(cells).rows}
        assert rows[("average", "zero")][4] == "n/a"
        assert isinstance(rows[("cge", "zero")][4], float)

    def test_persistent_failure_degrades_then_quarantines_in_pool(
        self, reference_cells
    ):
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=1, retry_backoff=0.01,
            chunk_size=1,
            worker_wrapper=lambda w: FaultyWorker(
                w, [FailMatching("'filter': 'average'")]
            ),
        )
        cells = engine.run_regression_grid(GRID)
        good = [c for c in cells if c.filter_name == "cge"]
        bad = [c for c in cells if c.filter_name == "average"]
        assert_cells_equal(
            good, [c for c in reference_cells if c.filter_name == "cge"]
        )
        assert all(c.failed and c.quarantined for c in bad)
        counts = engine.events.counts()
        assert counts.get("chunk_degraded", 0) >= 1
        assert counts.get("quarantine", 0) >= 1


class TestCacheIntegrity:
    TINY = RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=2,
                          iterations=15)

    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "garbage"])
    def test_corrupt_entry_recomputed_not_poisoned(self, tmp_path, mode):
        cache = str(tmp_path / f"cache-{mode}")
        reference = SweepEngine(
            parallel=False, cache_dir=cache
        ).run_regression_grid(self.TINY)
        corrupt_cache_entry(cache, index=0, mode=mode, seed=1)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine.run_regression_grid(self.TINY)
        assert_cells_equal(cells, reference)
        counts = engine.events.counts()
        assert counts["cache_corrupt"] == 1
        assert counts["cache_hit"] == len(reference) - 1
        # The corrupt entry was rewritten: a third run is all hits.
        engine3 = SweepEngine(parallel=False, cache_dir=cache)
        engine3.run_regression_grid(self.TINY)
        assert engine3.events.counts()["cache_hit"] == len(reference)

    def test_legacy_unchecksummed_entries_still_hit(self, tmp_path):
        # Entries written by the pre-hardening engine (bare payloads) must
        # keep serving hits rather than being recomputed wholesale.
        import json

        cache = str(tmp_path / "cache")
        engine = SweepEngine(parallel=False, cache_dir=cache)
        first = engine.run_regression_grid(self.TINY)
        for name in cache_entries(cache):
            path = os.path.join(cache, name)
            payload = json.loads(open(path).read())["payload"]
            with open(path, "w") as handle:
                json.dump(payload, handle)
        engine2 = SweepEngine(parallel=False, cache_dir=cache)
        cells = engine2.run_regression_grid(self.TINY)
        assert_cells_equal(cells, first)
        assert engine2.events.counts()["cache_hit"] == len(first)


class TestResume:
    def test_resume_recomputes_only_missing_cells(self, tmp_path,
                                                  reference_cells):
        cache = str(tmp_path / "cache")
        SweepEngine(parallel=False, cache_dir=cache).run_regression_grid(GRID)
        entries = cache_entries(cache)
        killed = entries[:3]  # simulate a run killed before these completed
        for name in killed:
            os.remove(os.path.join(cache, name))
        engine = SweepEngine(parallel=False, cache_dir=cache)
        progress = engine.grid_progress(GRID)
        assert progress["total"] == len(reference_cells)
        assert progress["completed"] == len(reference_cells) - len(killed)
        cells = engine.resume(GRID)
        assert_cells_equal(cells, reference_cells)
        counts = engine.events.counts()
        assert counts["resume"] == 1
        assert counts["cache_hit"] == len(reference_cells) - len(killed)
        assert counts["cache_miss"] == len(killed)
        # After resume the grid is complete: a further resume is all hits.
        engine2 = SweepEngine(parallel=False, cache_dir=cache)
        engine2.resume(GRID)
        assert engine2.events.counts()["cache_hit"] == len(reference_cells)
        assert engine2.events.counts().get("cache_miss", 0) == 0

    def test_resume_requires_cache_dir(self):
        with pytest.raises(InvalidParameterError, match="cache_dir"):
            SweepEngine(parallel=False).resume(GRID)

    def test_manifest_written_with_grid_inventory(self, tmp_path):
        cache = str(tmp_path / "cache")
        engine = SweepEngine(parallel=False, cache_dir=cache)
        engine.run_regression_grid(self_grid := TestCacheIntegrity.TINY)
        from repro.utils.atomicio import read_json_checked

        manifest = read_json_checked(engine.manifest_path(self_grid))
        assert manifest["grid"]["num_seeds"] == self_grid.num_seeds
        assert len(manifest["cells"]) == self_grid.num_seeds
        assert manifest["failed"] == []


class TestAcceptanceScenario:
    """ISSUE 2 acceptance: crashes + a hang + a corrupt cache entry, at once."""

    GRID = RegressionGrid(
        filters=("cge", "average", "median"),
        attacks=("gradient-reverse", "zero"),
        num_seeds=2,
        iterations=20,
    )

    def test_chaos_sweep_completes_bit_identical(self, tmp_path):
        cache = str(tmp_path / "cache")
        # Fault-free sequential seeding run: ground truth + warm cache.
        seeding = SweepEngine(parallel=False, cache_dir=cache)
        reference = seeding.run_regression_grid(self.GRID)
        # A run killed after its first group: only that group's two cells
        # reached the disk, and one of them is damaged. Cache hits never
        # reach a worker, so the other five groups give the chaos-wrapped
        # workers something to run.
        keys = [cell["key"] for cell in seeding._grid_cells(self.GRID)]
        for key in keys[2:]:
            os.remove(os.path.join(cache, f"{key}.json"))
        corrupt_cache_entry(cache, index=0, mode="bitflip", seed=7)

        # Chaos pass: 1-in-5 worker raises, one hard process crash, one
        # hung chunk, against the damaged cache. retries=4 covers the
        # worst case where every injected fault lands on the same chunk.
        policies = [
            FailEveryNth(5),
            CrashOnCalls((3,)),
            HangOnCalls((2,), duration=6.0),
        ]
        engine = SweepEngine(
            parallel=True, max_workers=2, retries=4, retry_backoff=0.01,
            chunk_size=1, timeout=1.5, cache_dir=cache,
            events=str(tmp_path / "events.jsonl"),
            worker_wrapper=lambda w: FaultyWorker(
                w, policies, counter_dir=str(tmp_path / "calls")
            ),
        )
        cells = engine.run_regression_grid(self.GRID)

        # Every cell completed (nothing quarantined) and is bit-identical
        # to the fault-free run.
        assert_cells_equal(cells, reference)
        counts = engine.events.counts()
        assert "quarantine" not in counts
        # The faults really fired and were really survived...
        disruptions = (
            counts.get("chunk_retry", 0)
            + counts.get("chunk_timeout", 0)
            + counts.get("chunk_crash", 0)
        )
        assert disruptions >= 2
        assert counts.get("pool_rebuild", 0) >= 1
        # ...and only the damaged and the missing cells were recomputed.
        assert counts["cache_corrupt"] == 1
        assert counts["cache_hit"] == 1
        assert counts["cache_miss"] == len(reference) - 2
        # The JSONL mirror survives for post-mortems.
        from repro.experiments.sweep import SweepEvents

        assert SweepEvents.load(str(tmp_path / "events.jsonl")) == engine.events.records


def _grid_case(engine, failing):
    # Bulyan needs n >= 4f + 3 = 7 gradients; the instance has n = 6.
    grid = RegressionGrid(filters=("bulyan" if failing else "average", "cge"),
                          attacks=("zero",), num_seeds=2, iterations=15)
    cells = engine.run_regression_grid(grid)
    outputs = [(c.filter_name, c.seed, c.error,
                None if c.failed else c.estimates.tolist()) for c in cells]
    return outputs, [c.failed for c in cells], grid


def _tournament_case(engine, failing):
    config = TournamentConfig(
        name="cache", filters=("bulyan" if failing else "average", "cge"),
        attacks=(AttackSpec.with_params("zero", "zero"),), rounds=1,
        num_seeds=2, iterations=15, n=6,
    )
    payload = run_tournament(config, engine)
    outputs = {key: value for key, value in payload.items()
               if key not in ("provenance", "execution")}
    failed = [m["outcome"] == "error" for m in payload["rounds"][0]["matches"]]
    return outputs, failed, None


def _topology_case(engine, failing):
    result = run_topology_resilience(
        variants=(("ring", {"hops": 1}), ("complete", {})), fault_counts=(0,),
        fault_models=("clean",), n=8, iterations=15, engine=engine,
    )
    return result.rows, [False] * len(result.rows), None


CALLERS = {"grid": _grid_case, "tournament": _tournament_case,
           "topology": _topology_case}


def _cache_events(engine):
    return [r for r in engine.events.records if r["event"].startswith("cache_")]


class TestEngineOwnedCache:
    """The grid, the tournament and E17 share map_cached's cache rules."""

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_warm_run_all_hits_one_event_per_cell(self, tmp_path, caller):
        cache = str(tmp_path / "cache")
        cold_engine = SweepEngine(parallel=False, cache_dir=cache)
        cold, failed, _ = CALLERS[caller](cold_engine, failing=False)
        engine = SweepEngine(parallel=False, cache_dir=cache)
        warm, _, _ = CALLERS[caller](engine, failing=False)
        assert warm == cold
        cold_events, warm_events = _cache_events(cold_engine), _cache_events(engine)
        assert len(warm_events) == len(failed)
        assert {r["event"] for r in cold_events} == {"cache_miss"}
        assert {r["event"] for r in warm_events} == {"cache_hit"}
        assert [(r["key"], r["seed"]) for r in warm_events] == [
            (r["key"], r["seed"]) for r in cold_events
        ]
        assert len({r["key"] for r in warm_events}) == len(warm_events)

    @pytest.mark.parametrize("caller", ["grid", "tournament"])
    def test_failed_cell_never_stored(self, tmp_path, caller):
        cache = str(tmp_path / "cache")
        engine = SweepEngine(parallel=False, cache_dir=cache)
        _, failed, grid = CALLERS[caller](engine, failing=True)
        keys = [r["key"] for r in _cache_events(engine)]
        bad = [key for key, fail in zip(keys, failed) if fail]
        assert bad and len(bad) < len(keys)
        for key in bad:
            assert not os.path.exists(os.path.join(cache, f"{key}.json"))
        if grid is not None:
            assert keys == [cell["key"] for cell in engine._grid_cells(grid)]
            progress = engine.grid_progress(grid)
            assert progress["pending"] == bad
            assert progress["completed"] == len(keys) - len(bad)
        rerun = SweepEngine(parallel=False, cache_dir=cache)
        CALLERS[caller](rerun, failing=True)
        states = {r["key"]: r["event"] for r in _cache_events(rerun)}
        assert [key for key in keys if states[key] == "cache_miss"] == bad
        assert all(states[key] == "cache_hit" for key in keys if key not in bad)

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_error_entry_reads_as_corrupt(self, tmp_path, caller):
        cache = str(tmp_path / "cache")
        cold_engine = SweepEngine(parallel=False, cache_dir=cache)
        cold, _, _ = CALLERS[caller](cold_engine, failing=False)
        victim = _cache_events(cold_engine)[0]["key"]
        path = os.path.join(cache, f"{victim}.json")
        # What an older engine stored for a failed regression cell.
        write_json_atomic(path, {"error": "InvalidParameterError: stale"})
        engine = SweepEngine(parallel=False, cache_dir=cache)
        warm, _, _ = CALLERS[caller](engine, failing=False)
        assert warm == cold
        states = [(r["event"], r["key"]) for r in _cache_events(engine)]
        assert states[0] == ("cache_corrupt", victim)
        assert {event for event, _ in states[1:]} == {"cache_hit"}
        assert "error" not in read_json_checked(path)


class TestRoundHookInjection:
    """Mid-execution fault injection through run_dgd_batch's round hook."""

    def test_raising_hook_aborts_then_clean_rerun_is_bit_identical(self):
        from repro.exceptions import InjectedFault
        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.batch import run_dgd_batch
        from repro.system.runner import DGDConfig

        instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=1)
        config = DGDConfig(iterations=30, gradient_filter="cge", f=1,
                           faulty_ids=(0,), seed=0)
        from repro.attacks.registry import make_attack

        behavior = make_attack("gradient-reverse")
        seen = []

        def hook(t):
            seen.append(t)
            if t == 9:
                raise InjectedFault("mid-run fault")

        with pytest.raises(InjectedFault):
            run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2],
                          round_hook=hook)
        assert seen == list(range(10))
        # A clean re-execution is unaffected by the aborted attempt.
        clean = run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2])
        again = run_dgd_batch(instance.costs, behavior, config, seeds=[1, 2])
        for a, b in zip(clean, again):
            assert np.array_equal(a.estimates, b.estimates)

    def test_hook_sees_every_round(self):
        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.batch import run_dgd_batch
        from repro.system.runner import DGDConfig

        instance = make_redundant_regression(n=4, d=2, f=1, noise_std=0.0, seed=1)
        rounds = []
        run_dgd_batch(instance.costs, None,
                      DGDConfig(iterations=12, gradient_filter="average"),
                      seeds=[0], round_hook=rounds.append)
        assert rounds == list(range(12))


class _FakeDoneFuture:
    """A future that is already done; ``result()`` replays its outcome."""

    def __init__(self, value=None, exc=None):
        self._value = value
        self._exc = exc

    def done(self):
        return True

    def result(self, timeout=None):
        if self._exc is not None:
            raise self._exc
        return self._value


class _ScriptedPool:
    """Fake executor: per-chunk scripted outcomes, synchronous execution.

    ``script`` maps a chunk's first item to either an exception instance
    (``result()`` raises it) or ``None`` (compute the chunk for real).
    The script applies to this pool only — a rebuilt pool gets a fresh
    (usually empty) script, which is exactly how a transient
    infrastructure fault looks to the failure ladder.
    """

    def __init__(self, script):
        self._script = dict(script)

    def submit(self, fn, worker, chunk):
        outcome = self._script.get(chunk[0])
        if isinstance(outcome, BaseException):
            return _FakeDoneFuture(exc=outcome)
        try:
            return _FakeDoneFuture(value=fn(worker, chunk))
        except BaseException as exc:  # surfaces at result(), like a real pool
            return _FakeDoneFuture(exc=exc)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def _times_ten(x):
    return x * 10


def _fail_on_one(x):
    if x == 1:
        raise ValueError("always fails")
    return x * 10


class TestSalvagePathChargesFailures:
    """Regression: the pool-rebuild salvage path must never swallow a
    done-but-failed chunk's exception (it used to resubmit it attempt-free,
    so a deterministically failing chunk cycled through rebuilds forever
    with no event, no attempt charged, and no quarantine)."""

    @staticmethod
    def _engine_with_pools(monkeypatch, pools, **kwargs):
        from repro.experiments import sweep as sweep_module

        engine = SweepEngine(parallel=True, max_workers=2, chunk_size=1,
                             retry_backoff=0.0, **kwargs)
        queue = list(pools)
        # Every executor is built in SharedProcessPool.get.
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor",
                            lambda max_workers: queue.pop(0))
        return engine

    def test_salvaged_failure_charged_and_retried(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        # Round 1: chunk [0] breaks the pool (rebuild), chunk [1] is done
        # but failed — the salvage path must charge it. Round 2 (fresh
        # pool, empty script): everything computes.
        pools = [
            _ScriptedPool({0: BrokenExecutor("worker died"),
                           1: ValueError("poisoned chunk")}),
            _ScriptedPool({}),
        ]
        engine = self._engine_with_pools(monkeypatch, pools, retries=2)
        results = engine.map(_times_ten, [0, 1, 2])
        assert results == [0, 10, 20]
        counts = engine.events.counts()
        assert counts.get("chunk_salvage_failed", 0) == 1
        assert counts.get("pool_rebuild", 0) == 1
        salvage = [r for r in engine.events.records
                   if r["event"] == "chunk_salvage_failed"]
        assert salvage[0]["attempt"] == 1
        assert "ValueError: poisoned chunk" in salvage[0]["error"]

    def test_persistent_salvaged_failure_quarantines(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        # Chunk [0] breaks the pool every round, so chunk [1] — whose
        # worker genuinely fails — is only ever seen by the salvage path.
        # With retries=1 both must reach quarantine after two charged
        # attempts instead of looping attempt-free forever.
        pools = [
            _ScriptedPool({0: BrokenExecutor("worker died")}),
            _ScriptedPool({0: BrokenExecutor("worker died again")}),
            _ScriptedPool({}),
        ]
        engine = self._engine_with_pools(monkeypatch, pools, retries=1)
        quarantined = []
        results = engine.map(
            _fail_on_one, [0, 1, 2],
            on_item_error=lambda exc, item: quarantined.append((item, exc)) or -1,
        )
        assert results == [-1, -1, 20]
        assert sorted(item for item, _ in quarantined) == [0, 1]
        failure = dict(quarantined)[1]
        assert "always fails" in str(failure)
        counts = engine.events.counts()
        assert counts.get("chunk_salvage_failed", 0) == 2
