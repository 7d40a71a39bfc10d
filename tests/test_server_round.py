"""The server loop's round-level calls, and the checks of a run's set-up.

``run_dgd`` drives either network and server pair through the same calls:
``network.broadcast``, ``network.gather`` and ``server.step``. These tests
pin what those calls do on each pair, and that a bad ``iterations`` fails
at the boundary in both server engines (``run_dgd`` and
``run_dgd_batch``), which share their set-up.
"""

import numpy as np
import pytest

from repro.aggregators.registry import make_filter
from repro.attacks.simple import GradientReverse
from repro.exceptions import InvalidParameterError
from repro.optimization.projections import BoxSet
from repro.optimization.step_sizes import DiminishingStepSize
from repro.problems.linear_regression import make_redundant_regression
from repro.system.batch import run_dgd_batch
from repro.system.healing import ResilientDGDServer
from repro.system.messages import SERVER_ID, EstimateBroadcast, GradientMessage
from repro.system.netfaults import (
    FaultProfile,
    NetworkFaultModel,
    PartiallySynchronousNetwork,
)
from repro.system.network import SynchronousNetwork
from repro.system.runner import run_dgd
from repro.system.server import fixed_filter_factory


def _estimate(round_index):
    return EstimateBroadcast(
        sender=SERVER_ID, round_index=round_index, estimate=np.zeros(2)
    )


def _gradient(sender, round_index):
    return GradientMessage(
        sender=sender,
        round_index=round_index,
        gradient=np.array([1.0 + sender, -float(round_index)]),
    )


def _key(message):
    """A message's identity, NaN payloads included."""
    payload = getattr(message, "gradient", getattr(message, "estimate", None))
    return message.sender, message.round_index, np.asarray(payload).tobytes()


class TestSynchronousNetworkRound:
    def test_broadcast_gives_each_receiver_one_copy(self):
        network = SynchronousNetwork()
        message = _estimate(0)
        delivered = network.broadcast(message, [0, 1, 2], 0)
        assert sorted(delivered) == [0, 1, 2]
        assert all(len(copies) == 1 and copies[0] is message
                   for copies in delivered.values())
        assert network.messages_delivered == 3
        assert [(r.receiver, r.dropped) for r in network.log] == [
            (0, False), (1, False), (2, False)
        ]

    def test_gather_delivers_every_message(self):
        network = SynchronousNetwork()
        messages = [_gradient(i, 0) for i in range(3)]
        assert network.gather(messages, SERVER_ID, 0) == messages
        assert network.messages_delivered == 3


class TestPartiallySynchronousNetworkRound:
    def test_down_receiver_gets_no_entry_and_keeps_its_copies(self):
        # Agent 1's downlink delays every copy by one round, and agent 1
        # is down in rounds 1 and 2.
        model = NetworkFaultModel(profiles={1: FaultProfile(
            delay_prob=1.0, max_delay=1, crash_round=1, recover_round=3
        )})
        network = PartiallySynchronousNetwork(model)
        first = network.broadcast(_estimate(0), [0, 1], 0)
        assert [m.round_index for m in first[0]] == [0]
        assert first[1] == []
        for t in (1, 2):
            delivered = network.broadcast(_estimate(t), [0, 1], t)
            assert sorted(delivered) == [0]
            assert [m.round_index for m in delivered[0]] == [t]
            # Round 0's copy for agent 1 waits; round t's copy is dropped.
            assert network.pending_count == 1
        assert network.messages_dropped == 2
        back = network.broadcast(_estimate(3), [0, 1], 3)
        assert [m.round_index for m in back[1]] == [0]
        assert network.pending_count == 1  # round 3's copy, due in round 4

    def test_round_calls_match_submit_and_collect_by_hand(self):
        chaotic = FaultProfile(drop_prob=0.2, delay_prob=0.3, max_delay=2,
                               duplicate_prob=0.3, corrupt_prob=0.2)
        profiles = {i: chaotic for i in range(4)}
        profiles[2] = FaultProfile(drop_prob=0.2, crash_round=2, recover_round=4)
        model = NetworkFaultModel(profiles=profiles, seed=3, reorder=True)
        by_call = PartiallySynchronousNetwork(model)
        by_hand = PartiallySynchronousNetwork(model)
        receivers = [0, 1, 2, 3]
        for t in range(8):
            delivered = by_call.broadcast(_estimate(t), receivers, t)
            for receiver in receivers:
                by_hand.submit(_estimate(t), receiver, t)
            expected = {
                receiver: by_hand.collect(receiver, t)
                for receiver in receivers
                if not model.profile(receiver).is_down(t)
            }
            assert sorted(delivered) == sorted(expected)
            for receiver, copies in expected.items():
                assert [_key(m) for m in delivered[receiver]] == [
                    _key(m) for m in copies
                ]

            replies = [_gradient(i, t) for i in receivers]
            gathered = by_call.gather(replies, SERVER_ID, t)
            for message in replies:
                by_hand.submit(message, SERVER_ID, t)
            assert [_key(m) for m in gathered] == [
                _key(m) for m in by_hand.collect(SERVER_ID, t)
            ]
        assert by_call.traffic_summary() == by_hand.traffic_summary()
        assert by_call.log == by_hand.log
        assert by_call.state() == by_hand.state()


def test_resilient_server_step_is_step_partial():
    model = NetworkFaultModel.uniform(range(4), FaultProfile(drop_prob=0.1))
    servers = [
        ResilientDGDServer(
            fixed_filter_factory(make_filter("cge", f=1)),
            DiminishingStepSize(c=0.1),
            BoxSet.centered(2, 10.0),
            np.zeros(2),
            n=4,
            f=1,
            fault_model=model,
        )
        for _ in range(2)
    ]
    for t in range(3):
        messages = [_gradient(i, t) for i in range(4 - t)]
        servers[0].step(messages)
        servers[1].step_partial(messages)
    assert np.array_equal(servers[0].estimate, servers[1].estimate)
    assert servers[0].resilience_summary() == servers[1].resilience_summary()
    assert servers[0].suspected_agents == [3]


@pytest.fixture(scope="module")
def costs():
    return make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=0).costs


@pytest.mark.parametrize("engine", [run_dgd, run_dgd_batch])
@pytest.mark.parametrize("iterations", [-1, 2.5, "10", None])
def test_bad_iterations_fail_at_the_boundary(costs, engine, iterations):
    with pytest.raises(InvalidParameterError, match="iterations"):
        engine(costs, GradientReverse(), faulty_ids=(0,), iterations=iterations)


@pytest.mark.parametrize("engine", [run_dgd, run_dgd_batch])
@pytest.mark.parametrize("iterations", [0, np.int64(3)])
def test_zero_and_numpy_iterations_are_accepted(costs, engine, iterations):
    result = engine(costs, GradientReverse(), faulty_ids=(0,), iterations=iterations)
    trace = result[0] if isinstance(result, list) else result
    assert trace.estimates.shape == (int(iterations) + 1, 2)
    assert trace.directions.shape == (int(iterations), 2)
