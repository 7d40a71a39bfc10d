"""Tests for the Dolev–Strong Byzantine broadcast simulation."""

import numpy as np
import pytest

from repro.exceptions import InfeasibleConfigurationError, InvalidParameterError
from repro.system.broadcast import (
    ByzantineSenderStrategy,
    EquivocatingSender,
    SilentSender,
    StaggeredEquivocator,
    byzantine_broadcast,
)


class TestHonestSender:
    def test_validity(self):
        value = np.array([1.0, -2.0])
        result = byzantine_broadcast(n=4, f=1, sender=0, value=value)
        assert np.allclose(result.agreed_value, value)
        for delivered in result.delivered.values():
            assert np.allclose(delivered, value)

    def test_validity_with_faulty_relays(self):
        value = np.array([3.0])
        result = byzantine_broadcast(n=7, f=2, sender=0, value=value, faulty=[5, 6])
        assert np.allclose(result.agreed_value, value)
        assert set(result.delivered) == {0, 1, 2, 3, 4}

    def test_rounds_is_f_plus_one(self):
        result = byzantine_broadcast(n=7, f=2, sender=0, value=np.zeros(1), faulty=[5, 6])
        assert result.rounds == 3

    def test_f_zero_single_round(self):
        result = byzantine_broadcast(n=3, f=0, sender=1, value=np.ones(2))
        assert result.rounds == 1
        assert np.allclose(result.agreed_value, 1.0)


class FixedSender(ByzantineSenderStrategy):
    """Send fixed per-recipient values, exactly as given."""

    def __init__(self, messages):
        self._messages = messages

    def initial_messages(self, sender, recipients, rng):
        return dict(self._messages)


class TestFaultySender:
    def test_equivocation_reaches_agreement(self):
        a, b = np.array([1.0]), np.array([2.0])
        result = byzantine_broadcast(
            n=4, f=1, sender=0, value=None, faulty=[0],
            sender_strategy=EquivocatingSender(a, b),
        )
        # All honest nodes agree (on ⊥, since two values circulate).
        assert result.agreed_value is None
        assert set(result.delivered) == {1, 2, 3}

    def test_silent_sender_agreement_on_bottom(self):
        result = byzantine_broadcast(
            n=4, f=1, sender=0, value=None, faulty=[0],
            sender_strategy=SilentSender(),
        )
        assert result.agreed_value is None

    def test_staggered_equivocation_still_agrees(self):
        # The classic attack: second value revealed only through colluders
        # in the last round. Dolev-Strong must still reach agreement.
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        result = byzantine_broadcast(
            n=7, f=2, sender=0, value=None, faulty=[0, 1],
            sender_strategy=StaggeredEquivocator(a, b, colluders=[1]),
        )
        assert set(result.delivered) == {2, 3, 4, 5, 6}
        # Agreement is asserted inside the primitive; reaching here means it held.

    def test_faulty_sender_behaving_honestly(self):
        # A faulty sender may follow the protocol; then its value is delivered.
        value = np.array([5.0])
        result = byzantine_broadcast(n=4, f=1, sender=0, value=value, faulty=[0])
        assert np.allclose(result.agreed_value, value)

    def test_same_non_finite_value_to_everyone_is_agreement(self):
        # Agreement is on bit patterns: NaN != NaN must not read as a split.
        value = np.array([np.nan, 1.0])
        result = byzantine_broadcast(
            n=4, f=1, sender=1, value=None, faulty=[1],
            sender_strategy=FixedSender({node: value for node in range(4)}),
        )
        assert set(result.delivered) == {0, 2, 3}
        for delivered in result.delivered.values():
            assert delivered.tobytes() == value.tobytes()
        assert result.agreed_value.tobytes() == value.tobytes()


class TestValidation:
    def test_peer_fault_bound_enforced(self):
        with pytest.raises(InfeasibleConfigurationError):
            byzantine_broadcast(n=3, f=1, sender=0, value=np.zeros(1))

    def test_too_many_faulty_rejected(self):
        with pytest.raises(InvalidParameterError):
            byzantine_broadcast(n=7, f=1, sender=0, value=np.zeros(1), faulty=[1, 2])

    def test_sender_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            byzantine_broadcast(n=4, f=1, sender=9, value=np.zeros(1))

    @pytest.mark.parametrize(
        "n, f, faulty", [(4, 1, [9]), (4, 1, [4]), (4, 1, [-1]), (7, 2, [0, 7])]
    )
    def test_faulty_ids_out_of_range(self, n, f, faulty):
        # Unchecked, such an id counts toward f while every node runs honest.
        with pytest.raises(InvalidParameterError, match="faulty ids"):
            byzantine_broadcast(n=n, f=f, sender=0, value=np.zeros(1), faulty=faulty)

    @pytest.mark.parametrize("stray", [4, 9, -1])
    def test_strategy_recipient_out_of_range(self, stray):
        # Unchecked, such a recipient is dropped without a trace.
        messages = {node: np.ones(1) for node in range(4)}
        messages[stray] = np.ones(1)
        with pytest.raises(InvalidParameterError, match="outside"):
            byzantine_broadcast(
                n=4, f=1, sender=1, value=None, faulty=[1],
                sender_strategy=FixedSender(messages),
            )

    def test_honest_sender_needs_value(self):
        with pytest.raises(InvalidParameterError):
            byzantine_broadcast(n=4, f=1, sender=0, value=None)

    def test_message_accounting_positive(self):
        result = byzantine_broadcast(n=4, f=1, sender=0, value=np.zeros(1))
        assert result.messages_sent >= 4
