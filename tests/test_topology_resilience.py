"""Tests for E17 (topology vs. redundancy) and its cached cell layer."""

import os

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.topology_resilience import (
    DEFAULT_VARIANTS,
    FAULT_MODELS,
    _spread_faulty,
    full_local_rank_costs,
    run_topology_resilience,
)
from repro.system.faultinjection import corrupt_cache_entry
from repro.utils.atomicio import write_json_atomic

SMALL_GRID = dict(
    variants=(("ring", {"hops": 2}), ("complete", {})),
    fault_counts=(0, 2),
    fault_models=("clean", "drops"),
    n=16,
    d=2,
    iterations=80,
)


class TestHelpers:
    def test_spread_faulty_is_spread_and_sorted(self):
        ids = _spread_faulty(24, 4)
        assert ids == sorted(set(ids))
        assert len(ids) == 4
        gaps = np.diff(ids + [ids[0] + 24])
        assert gaps.min() >= 24 // 4 - 1
        assert _spread_faulty(24, 0) == []

    def test_full_local_rank_costs_share_exact_minimizer(self):
        costs, x_star = full_local_rank_costs(6, 3, 11)
        assert len(costs) == 6
        for cost in costs:
            assert np.allclose(cost.gradient(x_star), 0.0, atol=1e-12)
        again, _ = full_local_rank_costs(6, 3, 11)
        assert np.array_equal(costs[0].gradient(np.zeros(3)),
                              again[0].gradient(np.zeros(3)))


class TestExperiment:
    def test_grid_shape_and_values(self):
        result = run_topology_resilience(**SMALL_GRID)
        assert result.experiment_id == "E17"
        assert len(result.rows) == 2 * 2 * 2
        # fault-free complete graph converges tightest; every clean ring
        # cell beats its chaotic sibling is NOT guaranteed, but all cells
        # must be finite and feasibility fully satisfied on these variants
        for row in result.rows:
            assert row[4] == "16/16"
            assert np.isfinite(row[5])
        rendered = result.render()
        assert "topology-cell" in "\n".join(result.notes)
        assert "ring(hops=2)" in rendered

    def test_warm_cache_is_pure_hits_and_identical(self, tmp_path):
        cache = str(tmp_path / "cells")
        cold = run_topology_resilience(cache_dir=cache, **SMALL_GRID)
        warm = run_topology_resilience(cache_dir=cache, **SMALL_GRID)
        assert [r[5] for r in cold.rows] == [r[5] for r in warm.rows]
        assert "8 from cache" in warm.notes[-1]
        assert "0 from cache" in cold.notes[-1]

    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "foreign"])
    def test_damaged_cache_entry_recomputed(self, tmp_path, mode):
        cache = str(tmp_path / "cells")
        cold = run_topology_resilience(cache_dir=cache, **SMALL_GRID)
        if mode == "foreign":
            # A checksummed regression-grid cell under an E17 key passes
            # the sweep's shape check but not E17's: it must be discarded.
            victim = os.path.join(cache, sorted(os.listdir(cache))[0])
            write_json_atomic(victim, {"final_error": 0.0,
                                       "final_estimate": [0.0, 0.0],
                                       "estimates": [[0.0, 0.0]]})
        else:
            corrupt_cache_entry(cache, index=0, mode=mode, seed=1)
        warm = run_topology_resilience(cache_dir=cache, **SMALL_GRID)
        assert warm.rows == cold.rows
        assert "7 from cache" in warm.notes[-1]
        # The damaged entry was rewritten: a third run is all hits.
        again = run_topology_resilience(cache_dir=cache, **SMALL_GRID)
        assert "8 from cache" in again.notes[-1]

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(InvalidParameterError, match="fault model"):
            run_topology_resilience(fault_models=("clean", "meteor"))

    def test_default_grid_is_registered_shape(self):
        # the CLI's zero-arg E17 entry uses these defaults
        assert len(DEFAULT_VARIANTS) == 6
        assert set(FAULT_MODELS) == {"clean", "drops", "chaos"}

    def test_marginal_ring_degrades_gracefully_not_catastrophically(self):
        # hops=1 with spread f=2 leaves marginal deg = 2f_i neighborhoods:
        # bounded plume near the Byzantine agents, not divergence
        result = run_topology_resilience(
            variants=(("ring", {"hops": 1}), ("ring", {"hops": 2})),
            fault_counts=(2,),
            fault_models=("clean",),
            n=24,
            iterations=250,
        )
        marginal, healthy = result.rows[0][5], result.rows[1][5]
        assert healthy < 0.02
        assert healthy < marginal < 1.0
