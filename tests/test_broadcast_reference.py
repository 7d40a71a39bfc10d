"""The broadcast simulator and peer-to-peer DGD against their reference loops.

``byzantine_broadcast`` queues each signed message once per round with a
bitmask of its recipients, and ``run_peer_to_peer_dgd`` computes each
honest gradient once per round. Messages still reach their recipients in
the order of the one-entry-per-recipient simulator in
:mod:`tests.broadcast_reference`, so every output must equal it byte for
byte: message and round counts, each honest node's delivered value, and
for peer-to-peer runs the estimate trajectory, the final per-agent
estimates, ``extra`` and the ``round`` telemetry records.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregators.registry import make_filter
from repro.attacks.adaptive import ALittleIsEnough
from repro.attacks.simple import GradientReverse
from repro.observability import Telemetry
from repro.problems.linear_regression import make_redundant_regression
from repro.system.broadcast import (
    ByzantineSenderStrategy,
    EquivocatingSender,
    SilentSender,
    StaggeredEquivocator,
    byzantine_broadcast,
)
from repro.system.netfaults import FaultProfile, NetworkFaultModel
from repro.system.peer_to_peer import run_peer_to_peer_dgd
from tests.broadcast_reference import (
    reference_byzantine_broadcast,
    reference_run_peer_to_peer_dgd,
)


class RandomValueSender(ByzantineSenderStrategy):
    """A different random value, or silence, for each recipient, addressed
    in a shuffled order (the order decides which message the adversary
    reveals last)."""

    def __init__(self, seed, dimension, silence=0.2):
        self._seed = seed
        self._dimension = dimension
        self._silence = silence

    def initial_messages(self, sender, recipients, rng):
        draws = np.random.default_rng(self._seed)
        out = {}
        for node in draws.permutation(recipients).tolist():
            if draws.random() < self._silence:
                out[node] = None
            else:
                out[node] = draws.normal(size=self._dimension)
        return out


def _strategy(kind, faulty, sender, seed, dimension):
    a = np.arange(1.0, dimension + 1.0)
    if kind == "equivocate":
        return EquivocatingSender(a, -a)
    if kind == "silent":
        return SilentSender()
    if kind == "staggered":
        return StaggeredEquivocator(a, 2 * a, colluders=[i for i in faulty if i != sender][:1])
    if kind == "random":
        return RandomValueSender(seed, dimension)
    return None


def _value_bytes(value):
    return None if value is None else (value.shape, value.tobytes())


def _assert_same_broadcast(ref, new):
    assert (new.messages_sent, new.rounds) == (ref.messages_sent, ref.rounds)
    assert list(new.delivered) == list(ref.delivered)
    for node, value in ref.delivered.items():
        assert _value_bytes(new.delivered[node]) == _value_bytes(value), node
    assert _value_bytes(new.agreed_value) == _value_bytes(ref.agreed_value)


@st.composite
def broadcast_cases(draw):
    n = draw(st.integers(1, 13))
    f = draw(st.integers(0, (n - 1) // 3))
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), max_size=f)))
    sender_faulty = bool(faulty) and draw(st.booleans())
    if sender_faulty:
        sender = draw(st.sampled_from(faulty))
    else:
        sender = draw(st.sampled_from([i for i in range(n) if i not in faulty]))
    kind = draw(st.sampled_from(["honest", "equivocate", "silent", "staggered", "random"]))
    return {
        "n": n,
        "f": f,
        "faulty": faulty,
        "sender": sender,
        "kind": kind,
        "withholding": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
        "dimension": draw(st.integers(1, 3)),
    }


class TestBroadcastMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(case=broadcast_cases())
    def test_every_output_matches(self, case):
        dimension = case["dimension"]
        value = np.random.default_rng(case["seed"]).normal(size=dimension)
        strategy = _strategy(case["kind"], case["faulty"], case["sender"], case["seed"], dimension)
        kwargs = dict(
            faulty=case["faulty"],
            sender_strategy=strategy,
            relay_withholding=case["withholding"],
        )
        args = (case["n"], case["f"], case["sender"], value)
        ref = reference_byzantine_broadcast(*args, **kwargs)
        new = byzantine_broadcast(*args, **kwargs)
        _assert_same_broadcast(ref, new)

    @pytest.mark.parametrize("withholding", [True, False])
    def test_staggered_reveal_after_equivocation(self, withholding):
        # n=13, f=4: the revealed message is the last one the adversary saw.
        a = np.array([1.0, -1.0])
        for sender, colluders in ((0, [3]), (3, [0, 11]), (11, [12])):
            kwargs = dict(
                faulty=[0, 3, 11, 12],
                sender_strategy=StaggeredEquivocator(a, -a, colluders=colluders),
                relay_withholding=withholding,
            )
            _assert_same_broadcast(
                reference_byzantine_broadcast(13, 4, sender, None, **kwargs),
                byzantine_broadcast(13, 4, sender, None, **kwargs),
            )


def _assert_same_run(ref, ref_tel, new, new_tel):
    assert ref.estimates.dtype == new.estimates.dtype
    assert ref.estimates.tobytes() == new.estimates.tobytes()
    assert list(ref.per_agent_final) == list(new.per_agent_final)
    for agent, final in ref.per_agent_final.items():
        assert final.tobytes() == new.per_agent_final[agent].tobytes(), agent
    assert ref.broadcast_messages == new.broadcast_messages
    assert ref.extra == new.extra
    assert (ref.honest_ids, ref.faulty_ids) == (new.honest_ids, new.faulty_ids)
    assert ref.agreement_verified == new.agreement_verified

    def records(tel):
        return [r for r in tel.records if r["event"] == "round"]

    assert repr(records(ref_tel)) == repr(records(new_tel))
    assert records(new_tel)


def _compare(costs, gradient_filter, **kwargs):
    ref_tel, new_tel = Telemetry(), Telemetry()
    ref = reference_run_peer_to_peer_dgd(costs, gradient_filter, telemetry=ref_tel, **kwargs)
    new = run_peer_to_peer_dgd(costs, gradient_filter, telemetry=new_tel, **kwargs)
    _assert_same_run(ref, ref_tel, new, new_tel)
    return new


def _fault_model(n, seed=7):
    return NetworkFaultModel.uniform(
        range(n),
        FaultProfile(drop_prob=0.1, delay_prob=0.2, max_delay=2, corrupt_prob=0.05),
        seed=seed,
    )


ATTACKS = {"alie": ALittleIsEnough, "reverse": lambda: GradientReverse(strength=2.0)}


@pytest.mark.parametrize("fault_model", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("equivocate", [True, False], ids=["equivocate", "plain"])
@pytest.mark.parametrize("attack", sorted(ATTACKS))
@pytest.mark.parametrize("filter_name", ["cge", "cwtm", "average"])
def test_peer_to_peer_matches_reference(filter_name, attack, equivocate, fault_model):
    n, f = 7, 2
    instance = make_redundant_regression(n=n, d=3, f=f, noise_std=0.0, seed=11)
    _compare(
        instance.costs,
        make_filter(filter_name, f=f),
        faulty_ids=[1, 5],
        behavior=ATTACKS[attack](),
        iterations=40,
        seed=3,
        equivocate=equivocate,
        fault_model=_fault_model(n) if fault_model else None,
    )


def test_fault_free_peer_to_peer_matches_reference():
    instance = make_redundant_regression(n=5, d=2, f=1, noise_std=0.0, seed=4)
    _compare(instance.costs, make_filter("average", f=0), iterations=30, seed=1)


def _benchmark_p2p_inputs(seed):
    """The repository benchmark's ``message_passing`` p2p configuration:
    ALIE against CGE, n=10, d=4, f=3, equivocating senders under a
    uniform fault model, 300 rounds, inputs derived from ``seed``."""
    n, n_server, d, f = 10, 12, 4, 3
    rng = np.random.default_rng([seed, 12])
    instance_seed, fault_seed, _, p2p_seed = (
        int(v) for v in rng.integers(0, 2**31 - 1, size=4)
    )
    rng.choice(n_server, size=f, replace=False)  # the server paths' placement
    faulty = sorted(int(i) for i in rng.choice(n, size=f, replace=False))
    instance = make_redundant_regression(n=n, d=d, f=f, noise_std=0.0, seed=instance_seed)
    return instance.costs, dict(
        faulty_ids=faulty,
        behavior=ALittleIsEnough(),
        iterations=300,
        seed=p2p_seed,
        equivocate=True,
        fault_model=NetworkFaultModel.uniform(
            range(n),
            FaultProfile(drop_prob=0.05, delay_prob=0.1, max_delay=2, corrupt_prob=0.02),
            seed=fault_seed,
        ),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_p2p_configuration_matches_reference(seed):
    costs, kwargs = _benchmark_p2p_inputs(seed)
    result = _compare(costs, make_filter("cge", f=3), **kwargs)
    assert result.broadcast_messages == 265_800

