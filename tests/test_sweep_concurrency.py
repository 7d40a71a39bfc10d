"""Concurrency contracts for the sweep layer (the service's substrate).

The long-lived aggregation service multiplexes many jobs onto shared
machinery, so these properties carry the whole design:

- racing ``SweepEngine.map`` calls on one engine produce results
  bit-identical to running them sequentially (the engine's internal lock
  serializes whole maps; scheduling never leaks into results);
- engines sharing one :class:`SharedProcessPool` stay bit-identical to
  engines with private pools, and cache cells written by one sharer are
  served to the other;
- concurrent writers on one :class:`JSONLSink` never interleave partial
  lines — every line of the stream parses, and none go missing.
"""

import json
import threading
import time
import warnings

import numpy as np
import pytest

from repro.experiments.sweep import (
    RegressionGrid,
    SharedProcessPool,
    SweepEngine,
)
from repro.observability import JSONLSink, load_jsonl

GRID_A = RegressionGrid(filters=("cge",), attacks=("gradient-reverse", "zero"),
                        num_seeds=2, iterations=25, master_seed=7)
GRID_B = RegressionGrid(filters=("cwtm",), attacks=("sign-flip",),
                        num_seeds=3, iterations=25, master_seed=8)


def _square(x):
    return x * x


def _run_in_threads(*targets):
    failures = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as exc:  # surface into the test thread
                failures.append(exc)
        return inner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


class TestRacingMapCalls:
    def test_racing_maps_bit_identical_to_sequential(self):
        engine = SweepEngine(parallel=True, max_workers=2, chunk_size=2,
                             retry_backoff=0.0)
        items_a = list(range(40))
        items_b = list(range(100, 160))
        sequential_a = [_square(x) for x in items_a]
        sequential_b = [_square(x) for x in items_b]
        out = {}
        _run_in_threads(
            lambda: out.__setitem__("a", engine.map(_square, items_a)),
            lambda: out.__setitem__("b", engine.map(_square, items_b)),
        )
        assert out["a"] == sequential_a
        assert out["b"] == sequential_b

    def test_racing_grids_on_one_engine_bit_identical(self, tmp_path):
        solo = SweepEngine(parallel=False)
        expect_a = solo.run_regression_grid(GRID_A)
        expect_b = solo.run_regression_grid(GRID_B)

        engine = SweepEngine(parallel=True, max_workers=2,
                             cache_dir=str(tmp_path / "cache"))
        out = {}
        _run_in_threads(
            lambda: out.__setitem__("a", engine.run_regression_grid(GRID_A)),
            lambda: out.__setitem__("b", engine.run_regression_grid(GRID_B)),
        )
        for got, expected in ((out["a"], expect_a), (out["b"], expect_b)):
            assert len(got) == len(expected)
            for cell, ref in zip(got, expected):
                assert not cell.failed, cell.error
                assert cell.final_error == ref.final_error
                assert np.array_equal(cell.estimates, ref.estimates)


class TestSharedPool:
    def test_shared_pool_engines_bit_identical(self, tmp_path):
        solo = SweepEngine(parallel=False)
        expect_a = solo.run_regression_grid(GRID_A)
        expect_b = solo.run_regression_grid(GRID_B)

        with SharedProcessPool(max_workers=2) as pool:
            engine_a = SweepEngine(parallel=True, pool=pool,
                                   cache_dir=str(tmp_path / "cache"))
            engine_b = SweepEngine(parallel=True, pool=pool,
                                   cache_dir=str(tmp_path / "cache"))
            out = {}
            _run_in_threads(
                lambda: out.__setitem__(
                    "a", engine_a.run_regression_grid(GRID_A)),
                lambda: out.__setitem__(
                    "b", engine_b.run_regression_grid(GRID_B)),
            )
        for got, expected in ((out["a"], expect_a), (out["b"], expect_b)):
            for cell, ref in zip(got, expected):
                assert not cell.failed, cell.error
                assert cell.final_error == ref.final_error
                assert np.array_equal(cell.estimates, ref.estimates)

    def test_cache_cells_shared_between_pool_sharers(self, tmp_path):
        cache = str(tmp_path / "cache")
        with SharedProcessPool(max_workers=2) as pool:
            first = SweepEngine(parallel=True, pool=pool, cache_dir=cache)
            first.run_regression_grid(GRID_A)
            second = SweepEngine(parallel=True, pool=pool, cache_dir=cache)
            cells = second.run_regression_grid(GRID_A)
        assert all(cell.cached for cell in cells)
        counts = second.events.counts()
        assert counts.get("cache_hit", 0) == len(cells)
        assert counts.get("cache_miss", 0) == 0

    def test_cached_grid_does_not_wait_for_a_busy_pool(self, tmp_path):
        # Hits are resolved before dispatch: a fully cached grid returns
        # while another job holds the shared pool.
        cache = str(tmp_path / "cache")
        held, release = threading.Event(), threading.Event()

        def hold():
            pool.acquire()
            held.set()
            release.wait()
            pool.release()

        with SharedProcessPool(max_workers=2) as pool:
            SweepEngine(parallel=True, pool=pool,
                        cache_dir=cache).run_regression_grid(GRID_A)
            engine = SweepEngine(parallel=True, pool=pool, cache_dir=cache)
            out = {}
            holder = threading.Thread(target=hold)
            runner = threading.Thread(target=lambda: out.__setitem__(
                "cells", engine.run_regression_grid(GRID_A)))
            holder.start()
            assert held.wait(timeout=10)
            try:
                runner.start()
                runner.join(timeout=1.0)
                finished = not runner.is_alive()
            finally:
                release.set()
                holder.join(timeout=10)
                runner.join(timeout=60)
            assert not holder.is_alive() and not runner.is_alive()
        assert finished, "a fully cached grid waited for the busy pool"
        assert all(cell.cached for cell in out["cells"])
        assert "chunk_done" not in engine.events.counts()

    def test_closed_pool_refuses_new_work(self):
        pool = SharedProcessPool(max_workers=1)
        pool.close()
        engine = SweepEngine(parallel=True, pool=pool)
        # The failure ladder degrades to in-process execution rather than
        # failing the map outright.
        assert engine.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_fallback_warns_once_at_its_caller(self):
        pool = SharedProcessPool(max_workers=1)
        pool.close()
        calls = (
            lambda engine: engine.map(_square, [1, 2, 3]),
            lambda engine: engine.run_regression_grid(GRID_A),
        )
        for call in calls:
            engine = SweepEngine(parallel=True, pool=pool)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                call(engine)
                call(engine)
            fallbacks = [w for w in caught
                         if "process pool unavailable" in str(w.message)]
            assert len(fallbacks) == 1
            assert fallbacks[0].filename == __file__


class TestJSONLSinkConcurrency:
    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        sink = JSONLSink(path)
        writers, per_writer = 8, 200
        payload = "x" * 512  # long lines make torn writes observable

        def writer(wid):
            def emit_all():
                for i in range(per_writer):
                    sink.emit({"event": "tick", "writer": wid, "i": i,
                               "payload": payload})
            return emit_all

        _run_in_threads(*[writer(w) for w in range(writers)])
        sink.close()

        with open(path) as handle:
            lines = handle.readlines()
        assert len(lines) == writers * per_writer
        records = [json.loads(line) for line in lines]  # every line parses
        seen = {(r["writer"], r["i"]) for r in records}
        assert len(seen) == writers * per_writer  # none lost, none duplicated
        # the tolerant reader agrees
        assert len(load_jsonl(path)) == writers * per_writer

    def test_close_racing_emit_leaves_only_whole_lines(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        sink = JSONLSink(path)
        writers = 4
        written = [0] * writers
        refused = [False] * writers
        start = threading.Barrier(writers + 1)

        def writer(wid):
            def emit_until_closed():
                start.wait()
                for i in range(20000):
                    try:
                        sink.emit({"event": "tick", "writer": wid, "i": i,
                                   "payload": "x" * 512})
                    except ValueError:  # the sink is closed
                        refused[wid] = True
                        return
                    written[wid] += 1
            return emit_until_closed

        def closer():
            start.wait()
            time.sleep(0.02)
            sink.close()

        _run_in_threads(*[writer(w) for w in range(writers)], closer)
        sink.close()  # idempotent
        assert all(refused)
        with open(path) as handle:
            lines = handle.readlines()
        assert all(line.endswith("\n") for line in lines)
        records = [json.loads(line) for line in lines]  # every line parses
        assert len(records) == sum(written)
        for wid in range(writers):
            mine = [r["i"] for r in records if r["writer"] == wid]
            assert mine == list(range(written[wid]))
        with pytest.raises(ValueError):
            sink.emit({"event": "late"})
