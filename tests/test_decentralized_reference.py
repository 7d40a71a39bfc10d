"""The decentralized engine against its reference loop, byte for byte.

``run_decentralized_dgd`` computes once per run everything in a round
that depends only on the topology, the fault budgets and the link-fault
model: the hashed per-edge draw keys, the per-edge fault parameters, the
gather table layout and, without link faults, the whole mixing plan. No
arithmetic is reordered, so every output must equal the straightforward
loop in :mod:`tests.decentralized_reference` exactly — final and recorded
states, the honest-mean trajectory, fault counters, ``extra`` and the
``round``/``agent_health`` telemetry records.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attacks.adaptive import ALittleIsEnough
from repro.attacks.simple import GradientReverse
from repro.experiments.topology_resilience import full_local_rank_costs
from repro.observability import Telemetry
from repro.optimization.cost_functions import HuberCost
from repro.system.decentralized import run_decentralized_dgd
from repro.system.faultinjection import (
    deterministic_draw_array,
    deterministic_draw_rows,
    draw_key_hashes,
)
from repro.system.netfaults import (
    CORRUPTION_MODES,
    ChurnWindow,
    LinkFaultModel,
    LinkFaultProfile,
    PartitionWindow,
)
from repro.system.topology import make_topology
from tests.decentralized_reference import (
    reference_draw_link_faults,
    reference_run_decentralized_dgd,
)

CHAOS = LinkFaultProfile(drop_prob=0.1, delay_prob=0.2, max_delay=2, corrupt_prob=0.05)


def _assert_identical(ref, ref_tel, new, new_tel):
    for name in ("final_states", "mean_trajectory", "budgets"):
        a, b = getattr(ref, name), getattr(new, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    if ref.states is None:
        assert new.states is None
    else:
        assert ref.states.tobytes() == new.states.tobytes()
    assert ref.counters == new.counters
    assert ref.extra == new.extra
    assert (ref.honest_ids, ref.faulty_ids) == (new.honest_ids, new.faulty_ids)

    def records(tel):
        return [r for r in tel.records if r["event"] in ("round", "agent_health")]

    assert repr(records(ref_tel)) == repr(records(new_tel))
    assert records(new_tel)


def _compare(costs, topology, **kwargs):
    ref_tel, new_tel = Telemetry(), Telemetry()
    ref = reference_run_decentralized_dgd(
        costs, topology, telemetry=ref_tel, **kwargs
    )
    new = run_decentralized_dgd(costs, topology, telemetry=new_tel, **kwargs)
    _assert_identical(ref, ref_tel, new, new_tel)
    return new


def _chaos_model(n, seed=5, profile=CHAOS, partition=False, churn=False):
    return LinkFaultModel(
        default_profile=profile,
        partitions=(
            (PartitionWindow(start=10, end=18, groups=(tuple(range(n // 2)),)),)
            if partition else ()
        ),
        churn=(
            (ChurnWindow(agent=1, down_round=12, up_round=20),
             ChurnWindow(agent=n - 2, down_round=30))
            if churn else ()
        ),
        seed=seed,
    )


# (topology name, n, params) -> every agent has at least one edge.
TOPOLOGIES = {
    "ring": ("ring", 24, {"hops": 2}),
    "random-regular": ("random-regular", 30, {"degree": 6}),
    "scale-free": ("scale-free", 30, {"attach": 3}),  # unequal degrees
    "complete": ("complete", 12, {}),
}


def _topology(key, seed=3):
    name, n, params = TOPOLOGIES[key]
    return make_topology(name, n, seed=seed, **params)


CASES = {
    # id: (topology, aggregation, faulty, behavior, link model factory, extra kwargs)
    "ring-cwtm-clean": (
        "ring", "cwtm", [5, 17], GradientReverse(strength=2.0), None, {},
    ),
    "ring-cge-chaos-alie": (
        "ring", "cge", [5, 17], ALittleIsEnough(), _chaos_model, {},
    ),
    "rr-cwtm-chaos-reverse": (
        "random-regular", "cwtm", [2, 11, 23], GradientReverse(strength=2.0),
        _chaos_model, {"record_states": True},
    ),
    "rr-mean-clean": ("random-regular", "mean", [], None, None, {}),
    "scalefree-cge-clean-reverse": (
        "scale-free", "cge", [0], GradientReverse(strength=2.0), None,
        {"record_states": True},
    ),
    "scalefree-mean-chaos": ("scale-free", "mean", [], None, _chaos_model, {}),
    "complete-cwtm-partition-churn": (
        "complete", "cwtm", [3], ALittleIsEnough(),
        lambda n: _chaos_model(n, partition=True, churn=True), {},
    ),
    "complete-cge-partition-churn": (
        "complete", "cge", [], None,
        lambda n: _chaos_model(n, partition=True, churn=True),
        {"record_states": True},
    ),
    "ring-mean-partition-churn": (
        "ring", "mean", [9], GradientReverse(strength=2.0),
        lambda n: _chaos_model(n, partition=True, churn=True), {},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_reference(case):
    topology_key, aggregation, faulty, behavior, model, extra = CASES[case]
    topology = _topology(topology_key)
    costs, _ = full_local_rank_costs(topology.n, 3, 7)
    _compare(
        costs, topology, aggregation=aggregation, faulty_ids=faulty,
        behavior=behavior, iterations=60, seed=2,
        link_faults=model(topology.n) if model else None, **extra,
    )


def test_asymmetric_link_overrides_match_reference():
    topology = _topology("ring")
    costs, _ = full_local_rank_costs(topology.n, 3, 7)
    model = LinkFaultModel(
        default_profile=LinkFaultProfile(drop_prob=0.05),
        link_profiles={
            (0, 1): LinkFaultProfile(drop_prob=0.9),  # 0 -> 1 only
            (1, 0): LinkFaultProfile(delay_prob=0.5, max_delay=3),
            (4, 3): LinkFaultProfile(corrupt_prob=0.5, corrupt_mode="inf"),
            (7, 9): LinkFaultProfile(drop_prob=1.0),  # and 9 -> 7
            (50, 51): LinkFaultProfile(drop_prob=1.0),  # not an edge
        },
        seed=8,
    )
    result = _compare(
        costs, topology, aggregation="cwtm", faulty_ids=[12],
        behavior=GradientReverse(strength=2.0), iterations=60, seed=1,
        link_faults=model,
    )
    assert result.counters["corrupted_edges"] > 0


@pytest.mark.parametrize(
    "mode", CORRUPTION_MODES, ids=lambda mode: f"quarantine-{mode}"
)
def test_each_corruption_mode_matches_reference(mode):
    topology = _topology("random-regular")
    costs, _ = full_local_rank_costs(topology.n, 4, 5)
    profile = LinkFaultProfile(
        drop_prob=0.05, delay_prob=0.2, max_delay=2, corrupt_prob=0.2,
        corrupt_mode=mode,
    )
    result = _compare(
        costs, topology, aggregation="cwtm", faulty_ids=[4],
        behavior=ALittleIsEnough(), iterations=40, seed=3,
        link_faults=_chaos_model(topology.n, seed=11, profile=profile),
    )
    assert result.counters["corrupted_edges"] > 0
    assert result.extra["max_staleness"] == 2
    if mode != "bitflip":
        # NaN and Inf payloads never reach the mix.
        assert result.counters["quarantined"] == result.counters["corrupted_edges"]


@pytest.mark.parametrize("faulted", [False, True], ids=["clean", "chaos"])
def test_degraded_agents_without_feasibility_check_match_reference(faulted):
    topology = _topology("scale-free")
    costs, _ = full_local_rank_costs(topology.n, 3, 7)
    x0 = np.random.default_rng(0).standard_normal((topology.n, 3))
    result = _compare(
        costs, topology, aggregation="cge", local_budgets=2, iterations=40,
        seed=4, x0=x0, validate_feasibility=False,
        link_faults=_chaos_model(topology.n) if faulted else None,
    )
    assert result.counters["degraded_agent_rounds"] > 0


def test_non_quadratic_costs_match_reference():
    topology = _topology("ring")
    targets = np.random.default_rng(1).standard_normal((topology.n, 2))
    costs = [HuberCost(target) for target in targets]
    _compare(
        costs, topology, aggregation="cwtm", local_budgets=1, iterations=30,
        seed=0, link_faults=_chaos_model(topology.n),
    )


# ----------------------------------------------------------------------
# The repository benchmark's configs a, b, c (n = 1024, one seed)
# ----------------------------------------------------------------------

N, D, BYZANTINE, ITERATIONS = 1024, 8, 20, 100


def _benchmark_configs(seed=0):
    rng = np.random.default_rng([seed, 1024])
    topo_seed, cost_seed, fault_seed, run_seed = (
        int(v) for v in rng.integers(0, 2**31 - 1, size=4)
    )
    spacing = N // BYZANTINE - 1
    offset = int(rng.integers(0, N - spacing * (BYZANTINE - 1)))
    faulty = list(range(offset, N, spacing))[:BYZANTINE]
    chaotic = LinkFaultProfile(
        drop_prob=0.05, delay_prob=0.1, max_delay=2, corrupt_prob=0.01
    )
    cut = int(rng.integers(0, N // 2))
    churned = sorted(int(a) for a in rng.choice(
        [i for i in range(N) if i not in faulty], size=3, replace=False))
    partitioned = LinkFaultModel(
        default_profile=chaotic,
        partitions=(PartitionWindow(
            start=ITERATIONS // 4, end=ITERATIONS // 4 + 5,
            groups=(tuple(range(cut, cut + N // 2)),)),),
        churn=tuple(ChurnWindow(agent=a, down_round=ITERATIONS // 3,
                                up_round=ITERATIONS // 3 + 4)
                    for a in churned),
        seed=fault_seed,
    )
    rr8 = make_topology("random-regular", N, seed=topo_seed, degree=8)
    ring = make_topology("ring", N, seed=topo_seed, hops=2)
    common = dict(faulty_ids=faulty, iterations=ITERATIONS, seed=run_seed)
    return cost_seed, {
        "a": (rr8, dict(aggregation="cwtm", behavior=GradientReverse(strength=2.0),
                        link_faults=LinkFaultModel(default_profile=chaotic,
                                                   seed=fault_seed), **common)),
        "b": (ring, dict(aggregation="cge", behavior=ALittleIsEnough(),
                         link_faults=partitioned, **common)),
        "c": (rr8, dict(aggregation="cwtm", behavior=GradientReverse(strength=2.0),
                        link_faults=None, **common)),
    }


@pytest.mark.parametrize("config", ["a", "b", "c"])
def test_benchmark_config_matches_reference(config):
    cost_seed, configs = _benchmark_configs()
    costs, _ = full_local_rank_costs(N, D, instance_seed=cost_seed)
    topology, kwargs = configs[config]
    _compare(costs, topology, **kwargs)


# ----------------------------------------------------------------------
# The hoisted draw is the definition, bit for bit
# ----------------------------------------------------------------------

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64 + 5),
    tags=st.lists(int64s, min_size=1, max_size=5),
    round_index=st.integers(min_value=0, max_value=2**62),
    edges=st.lists(st.tuples(int64s, int64s), max_size=16),
)
@example(seed=2**63, tags=[101, 102, 103, 104], round_index=0,
         edges=[(-1, 3), (5, -(2**63)), (2**63 - 1, 0)])
@example(seed=2**64 - 1, tags=[0], round_index=0, edges=[])
def test_hoisted_draw_equals_deterministic_draw_array(seed, tags, round_index, edges):
    senders = np.array([e[0] for e in edges], dtype=np.int64)
    receivers = np.array([e[1] for e in edges], dtype=np.int64)
    rows = deterministic_draw_rows(
        seed, [(tag, round_index) for tag in tags],
        draw_key_hashes(2, senders, receivers),
    )
    assert rows.shape == (len(tags), len(edges))
    for tag, row in zip(tags, rows):
        expected = deterministic_draw_array(seed, tag, round_index, senders, receivers)
        assert row.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    round_index=st.integers(min_value=0, max_value=40),
    overrides=st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
        st.builds(
            LinkFaultProfile,
            drop_prob=st.sampled_from([0.0, 0.3, 1.0]),
            delay_prob=st.sampled_from([0.0, 0.5]),
            max_delay=st.integers(1, 3),
            corrupt_prob=st.sampled_from([0.0, 0.4]),
            corrupt_mode=st.sampled_from(CORRUPTION_MODES),
        ),
        max_size=6,
    ),
)
def test_draw_link_faults_equals_reference(seed, round_index, overrides):
    model = LinkFaultModel(
        default_profile=CHAOS,
        link_profiles=overrides,
        partitions=(PartitionWindow(start=5, end=20, groups=((0, 2, 4),)),),
        churn=(ChurnWindow(agent=3, down_round=10, up_round=30),),
        seed=seed,
    )
    # Every agent 0..7 has edges, where the reference is valid.
    senders = np.repeat(np.arange(8), 7)
    receivers = np.array([v for u in range(8) for v in range(8) if v != u])
    got = model.draw_link_faults(round_index, senders, receivers)
    want = reference_draw_link_faults(model, round_index, senders, receivers)
    for key in ("dropped", "delay", "corrupt"):
        assert got[key].dtype == want[key].dtype
        assert got[key].tobytes() == want[key].tobytes(), key
