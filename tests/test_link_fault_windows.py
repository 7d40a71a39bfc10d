"""Link-fault windows are checked against the topology's agent count.

Partition and churn windows name agents. ``run_decentralized_dgd``
rejects an agent outside ``[0, n)`` before round 0, and the per-round
draws accept every valid agent — including one with no edges, which the
directed edge list alone cannot see.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.experiments.topology_resilience import full_local_rank_costs
from repro.system.decentralized import run_decentralized_dgd
from repro.system.netfaults import ChurnWindow, LinkFaultModel, PartitionWindow
from repro.system.topology import Topology

#: 8 agents: a ring over agents 0-6, agent 7 isolated.
N = 8
RING_0_TO_6 = Topology(N, [(i, (i + 1) % 7) for i in range(7)], name="ring7+1")


def _run(model, iterations=60):
    costs, _ = full_local_rank_costs(N, 2, 3)
    return run_decentralized_dgd(
        costs, RING_0_TO_6, iterations=iterations, seed=0, link_faults=model
    )


def test_churn_of_an_isolated_agent_runs_to_the_end():
    result = _run(LinkFaultModel(
        churn=(ChurnWindow(agent=7, down_round=5, up_round=8),), seed=1
    ))
    assert result.counters["frozen_agent_rounds"] == 3
    assert result.mean_trajectory.shape == (61, 2)


def test_partition_naming_an_isolated_agent_runs_to_the_end():
    result = _run(LinkFaultModel(
        partitions=(PartitionWindow(start=10, end=20, groups=((0, 1, 7),)),),
        seed=1,
    ))
    assert result.counters["dropped_edges"] > 0  # the cut ring edges
    assert np.isfinite(result.final_states).all()


@pytest.mark.parametrize("model, kind", [
    (LinkFaultModel(churn=(ChurnWindow(agent=99, down_round=50),)), "churn"),
    (LinkFaultModel(partitions=(
        PartitionWindow(start=50, end=55, groups=((0, 99),)),)), "partition"),
])
def test_window_agent_beyond_the_topology_fails_before_round_zero(model, kind):
    with pytest.raises(InvalidParameterError,
                       match=f"{kind} agent 99 out of range for n=8"):
        _run(model, iterations=1)


def test_draws_accept_a_window_agent_without_edges():
    model = LinkFaultModel(
        partitions=(PartitionWindow(start=0, end=5, groups=((0, 1, 7),)),),
        churn=(ChurnWindow(agent=7, down_round=0),),
        seed=2,
    )
    nbr, valid = RING_0_TO_6.neighbor_matrix()
    receivers, slots = np.nonzero(valid)
    senders = nbr[receivers, slots]
    draws = model.draw_link_faults(3, senders, receivers)
    cut = np.isin(senders, (0, 1)) != np.isin(receivers, (0, 1))
    assert np.array_equal(draws["dropped"], cut)
