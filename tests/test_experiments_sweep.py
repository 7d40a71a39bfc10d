"""Tests for the parallel sweep executor and its experiment-layer wiring."""

import functools
import json
import os
import warnings

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments import run_fault_sweep, run_robustness_matrix, summarize_over_seeds
from repro.experiments.sweep import (
    RegressionGrid,
    SweepEngine,
    derive_run_seeds,
    parallel_map,
    summarize_grid,
)
from repro.problems.linear_regression import make_redundant_regression
from repro.system.runner import run_dgd


def _square(x):
    return x * x


def _tiny_fault_sweep(seed):
    return run_fault_sweep(
        fault_counts=(0, 1), iterations=20, filters=("cge",), seed=seed
    )


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_run_seeds(7, 4) == derive_run_seeds(7, 4)

    def test_prefix_stable(self):
        # Growing a sweep must not invalidate already-computed cells.
        assert derive_run_seeds(7, 3) == derive_run_seeds(7, 6)[:3]

    def test_master_seed_matters(self):
        assert derive_run_seeds(7, 3) != derive_run_seeds(8, 3)


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(-20, 20))
        assert parallel_map(_square, items, parallel=True, max_workers=2) == [
            _square(x) for x in items
        ]

    def test_sequential_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_unpicklable_worker_falls_back_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = parallel_map(lambda x: x + 1, [1, 2], parallel=True)
        assert result == [2, 3]
        assert any("picklable" in str(w.message) for w in caught)

    def test_empty(self):
        assert parallel_map(_square, [], parallel=True) == []


class TestSweepEngine:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError, match="max_workers"):
            SweepEngine(max_workers=0)

    @pytest.mark.parametrize("fields", [
        {"fault_counts": (-1,)},
        {"num_seeds": 0},
    ])
    def test_grid_checks_its_fields(self, fields):
        with pytest.raises(InvalidParameterError):
            RegressionGrid(**fields)

    def test_grid_matches_direct_run_dgd(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge",), attacks=("gradient-reverse",), fault_counts=(1,),
            num_seeds=2, iterations=30,
        )
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        cells = engine.run_regression_grid(grid)
        instance = make_redundant_regression(
            n=grid.n, d=grid.d, f=1, noise_std=grid.noise_std, seed=grid.instance_seed
        )
        from repro.attacks.registry import make_attack

        for cell in cells:
            trace = run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                gradient_filter="cge",
                faulty_ids=(0,),
                f=1,
                iterations=grid.iterations,
                seed=cell.seed,
            )
            assert np.array_equal(cell.estimates, trace.estimates)

    def test_cache_round_trip(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge", "average"), attacks=("zero",), num_seeds=3, iterations=25
        )
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        first = engine.run_regression_grid(grid)
        assert not any(cell.cached for cell in first)
        entries = [e for e in os.listdir(tmp_path) if not e.startswith("manifest")]
        assert len(entries) == len(first)
        second = engine.run_regression_grid(grid)
        assert all(cell.cached for cell in second)
        for a, b in zip(first, second):
            assert a.final_error == b.final_error
            assert np.array_equal(a.estimates, b.estimates)

    def test_cache_recomputes_only_changed_cells(self, tmp_path):
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        base = RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=2,
                              iterations=25)
        engine.run_regression_grid(base)
        files_before = set(os.listdir(tmp_path))
        grown = RegressionGrid(filters=("cge", "average"), attacks=("zero",),
                               num_seeds=2, iterations=25)
        cells = engine.run_regression_grid(grown)
        by_filter = {c.filter_name: c.cached for c in cells}
        assert by_filter["cge"] is True  # reused
        assert by_filter["average"] is False  # fresh
        assert files_before < set(os.listdir(tmp_path))

    def test_cache_entries_are_json(self, tmp_path):
        engine = SweepEngine(parallel=False, cache_dir=str(tmp_path))
        engine.run_regression_grid(
            RegressionGrid(filters=("cge",), attacks=("zero",), num_seeds=1,
                           iterations=10)
        )
        (entry,) = [e for e in os.listdir(tmp_path) if not e.startswith("manifest")]
        with open(os.path.join(tmp_path, entry)) as handle:
            document = json.load(handle)
        # Entries are checksum-wrapped: {"sha256": ..., "payload": ...}.
        assert document["sha256"]
        payload = document["payload"]
        assert "final_error" in payload and "estimates" in payload

    def test_infeasible_filter_reported_per_cell(self):
        engine = SweepEngine(parallel=False)
        cells = engine.run_regression_grid(
            RegressionGrid(filters=("bulyan",), attacks=("zero",), num_seeds=2,
                           iterations=10)
        )
        assert all(cell.failed for cell in cells)
        assert "Bulyan" in cells[0].error

    def test_parallel_equals_inprocess(self, tmp_path):
        grid = RegressionGrid(
            filters=("cge", "cwtm"), attacks=("gradient-reverse", "sign-flip"),
            num_seeds=2, iterations=25,
        )
        inproc = SweepEngine(parallel=False).run_regression_grid(grid)
        pooled = SweepEngine(parallel=True, max_workers=2).run_regression_grid(grid)
        for a, b in zip(inproc, pooled):
            assert (a.filter_name, a.attack_name, a.f, a.seed) == (
                b.filter_name, b.attack_name, b.f, b.seed
            )
            assert np.array_equal(a.estimates, b.estimates)

    def test_backend_parity(self):
        # cge runs vectorized; the stateful clipping filter takes the batch
        # engine's run_dgd fallback. Both must equal run_dgd cell by cell.
        from repro.attacks.registry import make_attack

        grid = RegressionGrid(filters=("cge", "clipping"), attacks=("random",),
                              num_seeds=2, iterations=25)
        cells = SweepEngine(parallel=False).run_regression_grid(grid)
        instance = make_redundant_regression(
            n=grid.n, d=grid.d, f=1, noise_std=grid.noise_std, seed=grid.instance_seed
        )
        assert [c.filter_name for c in cells] == ["cge", "cge", "clipping", "clipping"]
        for cell in cells:
            assert not cell.failed
            trace = run_dgd(
                instance.costs,
                make_attack("random"),
                gradient_filter=cell.filter_name,
                faulty_ids=(0,),
                f=1,
                iterations=grid.iterations,
                seed=cell.seed,
            )
            assert np.array_equal(cell.estimates, trace.estimates)
            assert np.array_equal(cell.final_estimate, trace.final_estimate)

    def test_summarize_grid(self):
        cells = SweepEngine(parallel=False).run_regression_grid(
            RegressionGrid(filters=("cge", "bulyan"), attacks=("zero",), num_seeds=2,
                           iterations=10)
        )
        summary = summarize_grid(cells)
        rows = {(row[1], row[2]): row for row in summary.rows}
        assert rows[("bulyan", "zero")][4] == "n/a"
        assert isinstance(rows[("cge", "zero")][4], float)


class TestExperimentWiring:
    def test_robustness_matrix_parallel_matches(self):
        kwargs = dict(filters=("cge", "average"), attacks=("zero",), iterations=20)
        assert (
            run_robustness_matrix(**kwargs).rows
            == run_robustness_matrix(
                **kwargs, parallel=True, max_workers=2
            ).rows
        )

    def test_multiseed_parallel_matches(self):
        sequential = summarize_over_seeds(_tiny_fault_sweep, [1, 2])
        pooled = summarize_over_seeds(
            _tiny_fault_sweep, [1, 2], parallel=True, max_workers=2
        )
        assert sequential.rows == pooled.rows

    def test_multiseed_partial_is_picklable(self):
        make = functools.partial(_tiny_fault_sweep)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summarize_over_seeds(make, [1, 2], parallel=True, max_workers=2)
        assert not any("picklable" in str(w.message) for w in caught)


# ----------------------------------------------------------------------
# Property-based guarantees (hypothesis)
# ----------------------------------------------------------------------

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.experiments.sweep import _cell_cache_payload, _config_hash  # noqa: E402

#: Canonical instance fields as produced by SweepEngine._grid_fields.
BASE_FIELDS = {
    "n": 6,
    "d": 2,
    "redundancy_f": 1,
    "noise_std": 0.0,
    "instance_seed": 20200803,
    "iterations": 300,
    "x0": None,
}


def _key(fields=BASE_FIELDS, filter_name="cge", attack="zero", f=1, seed=0):
    return _config_hash(_cell_cache_payload(fields, filter_name, attack, f, seed))


class TestSeedDerivationProperties:
    """derive_run_seeds is prefix-stable for *every* (master, count) pair,
    not just the handful of examples tested above — growing any sweep must
    preserve every already-cached cell's seed."""

    @given(
        master=st.integers(min_value=0, max_value=2**32 - 1),
        a=st.integers(min_value=0, max_value=40),
        b=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_prefix_stability_universal(self, master, a, b):
        lo, hi = sorted((a, b))
        assert derive_run_seeds(master, hi)[:lo] == derive_run_seeds(master, lo)

    @given(
        masters=st.lists(
            st.integers(min_value=0, max_value=2**32 - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_masters_give_distinct_streams(self, masters):
        first, second = masters
        assert derive_run_seeds(first, 4) != derive_run_seeds(second, 4)

    @given(
        master=st.integers(min_value=0, max_value=2**32 - 1),
        count=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_seeds_within_a_stream_are_distinct(self, master, count):
        seeds = derive_run_seeds(master, count)
        assert len(set(seeds)) == len(seeds)


class TestCacheKeyProperties:
    """Cache-key hashing is injective over the cell configuration: any
    semantic change produces a new key (no stale hits), and no change —
    including dict insertion order — keeps the key (no spurious misses)."""

    def test_default_payload_unchanged(self):
        # A literal key: caches and resume manifests written by earlier
        # versions must keep hitting.
        grid_fields = {"n": 6, "d": 2, "redundancy_f": 1, "noise_std": 0.0,
                       "instance_seed": 1, "iterations": 50, "x0": None}
        payload = _cell_cache_payload(grid_fields, "cge", "zero", 1, 7)
        assert _config_hash(payload) == "b0b34d4008d02582f0fce6b9286079a6"

    def test_number_spelling_does_not_change_keys(self):
        # An int and a float spelling of one number make one grid, so both
        # hit the same cell-cache entries.
        from repro.service.jobs import grid_from_params

        engine = SweepEngine(parallel=False)

        def keys(grid):
            return [cell["key"] for cell in engine._grid_cells(grid)]

        assert keys(grid_from_params({"noise_std": 0})) == keys(
            grid_from_params({"noise_std": 0.0})
        )
        sent = json.loads(json.dumps({"x0": [1, 2]}))
        assert keys(RegressionGrid(x0=(1, 2))) == keys(grid_from_params(sent))

    @given(
        field=st.sampled_from(
            ["n", "d", "redundancy_f", "instance_seed", "iterations"]
        ),
        value=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_changing_any_instance_field_changes_key(self, field, value):
        assume(value != BASE_FIELDS[field])
        assert _key({**BASE_FIELDS, field: value}) != _key()

    @given(noise=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_changing_noise_std_changes_key(self, noise):
        assume(noise != 0.0)
        assert _key({**BASE_FIELDS, "noise_std": noise}) != _key()

    @given(
        filter_name=st.sampled_from(["cge", "cwtm", "median", "average"]),
        attack=st.sampled_from(
            ["zero", "random", "sign-flip", "gradient-reverse"]
        ),
        f=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_axis_coordinates_are_injective(self, filter_name, attack, f, seed):
        reference = _key()
        candidate = _key(
            filter_name=filter_name, attack=attack, f=f, seed=seed
        )
        is_same_cell = (filter_name, attack, f, seed) == ("cge", "zero", 1, 0)
        assert (candidate == reference) == is_same_cell

    @given(
        x0=st.one_of(
            st.none(),
            st.lists(
                st.floats(
                    min_value=-100, max_value=100,
                    allow_nan=False, allow_subnormal=False,
                ),
                min_size=1, max_size=4,
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_start_point_distinguishes_keys(self, x0):
        assume(x0 != BASE_FIELDS["x0"])
        assert _key({**BASE_FIELDS, "x0": x0}) != _key()

    @given(order=st.permutations(sorted(BASE_FIELDS)))
    @settings(max_examples=40, deadline=None)
    def test_key_independent_of_field_insertion_order(self, order):
        shuffled = {name: BASE_FIELDS[name] for name in order}
        assert _key(shuffled) == _key()
