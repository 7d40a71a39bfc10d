"""Tests for the sparse-topology decentralized DGD engine.

Covers validation, fault-free determinism and convergence, Byzantine
robustness of the per-neighborhood aggregations, link-level fault
injection (drops / delays / corruption), partition-then-heal
reconciliation, churn freezing, and the n=1024 acceptance scenario on
ring and random-regular graphs under combined Byzantine + link faults.
"""

import numpy as np
import pytest

from repro.attacks.simple import GradientReverse
from repro.exceptions import InvalidParameterError, TopologyInfeasibilityError
from repro.experiments.topology_resilience import full_local_rank_costs
from repro.system.decentralized import (
    DECENTRALIZED_AGGREGATIONS,
    run_decentralized_dgd,
)
from repro.system.netfaults import (
    ChurnWindow,
    LinkFaultModel,
    LinkFaultProfile,
    PartitionWindow,
)
from repro.system.topology import (
    make_topology,
    random_regular_topology,
    ring_topology,
)

CHAOS_PROFILE = LinkFaultProfile(
    drop_prob=0.05, delay_prob=0.1, max_delay=2, corrupt_prob=0.01
)


def _small_instance(n=12, d=3, instance_seed=7):
    return full_local_rank_costs(n, d, instance_seed)


class TestValidation:
    def test_costs_length_must_match_topology(self):
        costs, _ = _small_instance(n=12)
        with pytest.raises(InvalidParameterError, match="12"):
            run_decentralized_dgd(costs[:-1], ring_topology(12, hops=2))

    def test_unknown_aggregation_rejected(self):
        costs, _ = _small_instance()
        with pytest.raises(InvalidParameterError, match="aggregation"):
            run_decentralized_dgd(
                costs, ring_topology(12, hops=2), aggregation="krum"
            )

    def test_negative_iterations_rejected_zero_accepted(self):
        costs, _ = _small_instance()
        topology = ring_topology(12, hops=2)
        with pytest.raises(InvalidParameterError, match="iterations"):
            run_decentralized_dgd(costs, topology, iterations=-1)
        # As in run_dgd: zero rounds record the start only.
        result = run_decentralized_dgd(costs, topology, iterations=0)
        assert result.mean_trajectory.shape == (1, 3)
        assert np.array_equal(result.final_states, np.zeros((12, 3)))

    def test_per_agent_x0_checked(self):
        costs, _ = _small_instance()
        topology = ring_topology(12, hops=2)
        x0 = np.zeros((12, 3))
        x0[4, 1] = np.inf
        with pytest.raises(InvalidParameterError, match="x0 contains non-finite"):
            run_decentralized_dgd(costs, topology, x0=x0, iterations=2)
        with pytest.raises(ValueError, match="x0 must have 12 rows"):
            run_decentralized_dgd(costs, topology, x0=np.zeros((11, 3)), iterations=2)

    def test_out_of_range_faulty_ids_rejected(self):
        costs, _ = _small_instance()
        for bad in ([12], [-1]):
            with pytest.raises(InvalidParameterError, match="faulty"):
                run_decentralized_dgd(
                    costs, ring_topology(12, hops=2), faulty_ids=bad,
                    behavior=GradientReverse(),
                )

    def test_faulty_agents_require_behavior(self):
        costs, _ = _small_instance()
        with pytest.raises(InvalidParameterError, match="behavior"):
            run_decentralized_dgd(
                costs, ring_topology(12, hops=2), faulty_ids=[0]
            )

    def test_infeasible_neighborhood_raises_structured_error(self):
        costs, _ = _small_instance(n=6)
        # faulty {0, 2, 4} on a 1-hop ring: every honest agent has both
        # neighbors Byzantine, violating deg_i >= 2 f_i everywhere.
        with pytest.raises(TopologyInfeasibilityError) as excinfo:
            run_decentralized_dgd(
                costs, ring_topology(6, hops=1), faulty_ids=[0, 2, 4],
                behavior=GradientReverse(),
            )
        assert excinfo.value.agents == [1, 3, 5]

    def test_validate_feasibility_false_runs_degraded(self):
        costs, _ = _small_instance(n=6)
        result = run_decentralized_dgd(
            costs, ring_topology(6, hops=1), faulty_ids=[0, 2, 4],
            behavior=GradientReverse(), iterations=20,
            validate_feasibility=False,
        )
        assert result.counters["degraded_agent_rounds"] > 0

    def test_mean_aggregation_skips_feasibility_check(self):
        costs, _ = _small_instance(n=6)
        result = run_decentralized_dgd(
            costs, ring_topology(6, hops=1), faulty_ids=[0, 2, 4],
            behavior=GradientReverse(), aggregation="mean", iterations=5,
        )
        assert result.aggregation == "mean"

    def test_aggregation_registry(self):
        assert set(DECENTRALIZED_AGGREGATIONS) == {"cwtm", "cge", "mean"}


class TestFaultFree:
    def test_seed_deterministic_bitwise(self):
        costs, _ = _small_instance()
        topology = ring_topology(12, hops=2)
        a = run_decentralized_dgd(costs, topology, iterations=80, seed=4)
        b = run_decentralized_dgd(costs, topology, iterations=80, seed=4)
        assert np.array_equal(a.final_states, b.final_states)
        assert np.array_equal(a.mean_trajectory, b.mean_trajectory)

    @pytest.mark.parametrize("aggregation", DECENTRALIZED_AGGREGATIONS)
    def test_converges_to_common_minimizer(self, aggregation):
        costs, x_star = _small_instance()
        result = run_decentralized_dgd(
            costs, ring_topology(12, hops=2), aggregation=aggregation,
            iterations=300, seed=0,
        )
        assert result.max_honest_distance_to(x_star) < 0.05

    def test_recorded_state_shapes(self):
        costs, _ = _small_instance(n=12, d=3)
        result = run_decentralized_dgd(
            costs, ring_topology(12, hops=2), iterations=40, seed=0,
            record_states=True,
        )
        assert result.states.shape == (41, 12, 3)
        assert result.mean_trajectory.shape == (41, 3)
        assert result.final_states.shape == (12, 3)
        assert np.array_equal(result.states[-1], result.final_states)


class TestByzantineRobustness:
    @pytest.mark.parametrize("aggregation", ["cwtm", "cge"])
    def test_robust_aggregations_survive_gradient_reverse(self, aggregation):
        costs, x_star = _small_instance()
        topology = random_regular_topology(12, 6, seed=2)
        result = run_decentralized_dgd(
            costs, topology, aggregation=aggregation, faulty_ids=[0, 6],
            behavior=GradientReverse(strength=2.0), iterations=300, seed=1,
        )
        assert result.max_honest_distance_to(x_star) < 0.05

    def test_mean_aggregation_is_not_robust(self):
        costs, x_star = _small_instance()
        topology = random_regular_topology(12, 6, seed=2)
        result = run_decentralized_dgd(
            costs, topology, aggregation="mean", faulty_ids=[0, 6],
            behavior=GradientReverse(strength=2.0), iterations=300, seed=1,
        )
        assert result.max_honest_distance_to(x_star) > 0.5

    def test_uniform_budget_override(self):
        costs, x_star = _small_instance()
        topology = random_regular_topology(12, 6, seed=2)
        result = run_decentralized_dgd(
            costs, topology, faulty_ids=[0], local_budgets=1,
            behavior=GradientReverse(strength=2.0), iterations=300, seed=1,
        )
        assert result.budgets.tolist() == [1] * 12
        assert result.max_honest_distance_to(x_star) < 0.05


class TestLinkFaults:
    def test_counters_and_determinism_under_chaos(self):
        costs, x_star = _small_instance()
        topology = ring_topology(12, hops=2)
        model = LinkFaultModel(default_profile=CHAOS_PROFILE, seed=9)
        a = run_decentralized_dgd(
            costs, topology, iterations=150, seed=2, link_faults=model
        )
        b = run_decentralized_dgd(
            costs, topology, iterations=150, seed=2, link_faults=model
        )
        assert np.array_equal(a.final_states, b.final_states)
        for key in ("dropped_edges", "delayed_edges", "corrupted_edges"):
            assert a.counters[key] > 0
            assert a.counters[key] == b.counters[key]
        # corrupted payloads are quarantined, never aggregated
        assert a.counters["quarantined"] == a.counters["corrupted_edges"]
        assert np.isfinite(a.final_states).all()
        assert a.max_honest_distance_to(x_star) < 0.1

    def test_drops_trigger_bounded_stale_reuse(self):
        costs, _ = _small_instance()
        model = LinkFaultModel(
            default_profile=LinkFaultProfile(drop_prob=0.3), seed=1
        )
        result = run_decentralized_dgd(
            costs, ring_topology(12, hops=2), iterations=100, seed=0,
            link_faults=model,
        )
        assert result.counters["stale_reuses"] > 0
        assert result.extra["max_staleness"] == model.staleness_bound()

    def test_per_edge_profile_overrides_default(self):
        costs, _ = _small_instance()
        model = LinkFaultModel(
            link_profiles={(0, 1): LinkFaultProfile(drop_prob=1.0)}, seed=0
        )
        result = run_decentralized_dgd(
            costs, ring_topology(12, hops=1), iterations=30, seed=0,
            link_faults=model,
        )
        # exactly the (0,1)/(1,0) directed pair drops, every round
        assert result.counters["dropped_edges"] == 2 * 30


class TestPartitionThenHeal:
    def _run(self, record_states=False):
        costs, x_star = full_local_rank_costs(32, 4, 11)
        window = PartitionWindow(
            start=20, end=60, groups=(tuple(range(16)),)
        )
        model = LinkFaultModel(partitions=(window,), seed=5)
        result = run_decentralized_dgd(
            costs, ring_topology(32, hops=2), iterations=120, seed=2,
            link_faults=model, record_states=record_states,
        )
        return result, x_star

    def test_heals_to_common_minimizer_deterministically(self):
        a, x_star = self._run()
        b, _ = self._run()
        assert np.array_equal(a.final_states, b.final_states)
        assert a.max_honest_distance_to(x_star) < 0.02
        assert a.counters["dropped_edges"] > 0  # the cut edges

    def test_components_optimize_independently_during_partition(self):
        result, x_star = self._run(record_states=True)
        # mid-partition both sides keep making progress toward x* (full
        # local rank: every component shares the minimizer)
        mid = result.states[40]
        early = result.states[20]
        for group in (list(range(16)), list(range(16, 32))):
            assert (
                np.linalg.norm(mid[group] - x_star, axis=1).max()
                < np.linalg.norm(early[group] - x_star, axis=1).max()
            )


class TestChurn:
    def test_down_agent_freezes_then_recovers(self):
        costs, x_star = full_local_rank_costs(32, 4, 11)
        model = LinkFaultModel(
            churn=(ChurnWindow(agent=7, down_round=10, up_round=30),), seed=4
        )
        result = run_decentralized_dgd(
            costs, ring_topology(32, hops=2), iterations=120, seed=2,
            link_faults=model, record_states=True,
        )
        down = result.states[10:31, 7]
        assert (down == down[0]).all()  # frozen while down
        assert result.counters["frozen_agent_rounds"] == 20
        assert result.max_honest_distance_to(x_star) < 0.02

    def test_permanent_churn_excludes_agent(self):
        costs, x_star = full_local_rank_costs(32, 4, 11)
        model = LinkFaultModel(
            churn=(ChurnWindow(agent=7, down_round=10),), seed=4
        )
        result = run_decentralized_dgd(
            costs, ring_topology(32, hops=2), iterations=120, seed=2,
            link_faults=model, record_states=True,
        )
        assert (result.states[10:, 7] == result.states[10, 7]).all()
        alive = [i for i in result.honest_ids if i != 7]
        distances = result.distances_to(x_star)
        assert distances[alive].max() < 0.02


class TestScaleAcceptance:
    """The issue's n=1024 bar: combined Byzantine + link faults."""

    FAULTY = list(range(5, 1024, 52))  # 20 agents, spread

    def _run(self, topology):
        costs, x_star = full_local_rank_costs(1024, 8, 11)
        model = LinkFaultModel(default_profile=CHAOS_PROFILE, seed=3)
        result = run_decentralized_dgd(
            costs, topology, aggregation="cwtm", faulty_ids=self.FAULTY,
            behavior=GradientReverse(strength=2.0), iterations=300, seed=1,
            link_faults=model,
        )
        return result, x_star

    def test_ring_converges_under_combined_faults(self):
        result, x_star = self._run(make_topology("ring", 1024, hops=2))
        assert result.max_honest_distance_to(x_star) < 0.1

    def test_random_regular_converges_under_combined_faults(self):
        result, x_star = self._run(
            make_topology("random-regular", 1024, seed=0, degree=8)
        )
        assert result.max_honest_distance_to(x_star) < 0.05
