"""Tests for protocol messages and the synchronous network.

The synchronous network never drops; its drop accounting is exercised
through the partially-synchronous subclass, whose fault model does.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, ProtocolViolationError
from repro.system.messages import SERVER_ID, EstimateBroadcast, GradientMessage
from repro.system.netfaults import (
    FaultProfile,
    NetworkFaultModel,
    PartiallySynchronousNetwork,
)
from repro.system.network import SynchronousNetwork

#: Every message agent 7 sends is lost.
LOSSY_SEVEN = NetworkFaultModel(profiles={7: FaultProfile(drop_prob=1.0)})


class TestMessages:
    def test_estimate_broadcast_validates_payload(self):
        msg = EstimateBroadcast(sender=SERVER_ID, round_index=3, estimate=[1.0, 2.0])
        assert msg.round_index == 3
        assert msg.estimate.shape == (2,)

    def test_estimate_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            EstimateBroadcast(sender=SERVER_ID, round_index=0, estimate=[np.nan])

    def test_estimate_rejects_matrix(self):
        with pytest.raises(InvalidParameterError):
            EstimateBroadcast(sender=SERVER_ID, round_index=0, estimate=np.zeros((2, 2)))

    def test_gradient_message_allows_non_finite_payload(self):
        # A Byzantine sender controls its bytes; the filter sanitizes later.
        msg = GradientMessage(sender=2, round_index=0, gradient=[np.inf, 1.0])
        assert msg.gradient.shape == (2,)

    def test_negative_round_rejected(self):
        with pytest.raises(InvalidParameterError):
            GradientMessage(sender=0, round_index=-1, gradient=[0.0])

    def test_size_accounting_scales_with_dimension(self):
        small = GradientMessage(sender=0, round_index=0, gradient=np.zeros(2))
        large = GradientMessage(sender=0, round_index=0, gradient=np.zeros(100))
        assert large.size_bytes() > small.size_bytes()

    def test_messages_are_immutable(self):
        msg = GradientMessage(sender=0, round_index=0, gradient=[1.0])
        with pytest.raises(Exception):
            msg.sender = 5

    def test_is_finite_flags_corrupt_payloads(self):
        assert GradientMessage(sender=0, round_index=0, gradient=[1.0, 2.0]).is_finite
        assert not GradientMessage(sender=0, round_index=0, gradient=[np.nan]).is_finite
        assert not GradientMessage(sender=0, round_index=0, gradient=[np.inf]).is_finite

    def test_validate_accepts_clean_payload_and_chains(self):
        msg = GradientMessage(sender=0, round_index=0, gradient=[1.0, 2.0])
        assert msg.validate(2) is msg

    def test_validate_rejects_non_finite(self):
        msg = GradientMessage(sender=3, round_index=1, gradient=[np.nan, 0.0])
        with pytest.raises(ProtocolViolationError, match="agent 3"):
            msg.validate(2)

    def test_validate_rejects_dimension_mismatch(self):
        msg = GradientMessage(sender=0, round_index=0, gradient=[1.0, 2.0])
        with pytest.raises(ProtocolViolationError, match="dimension"):
            msg.validate(3)

    def test_payload_digest_tracks_payload_bytes_only(self):
        a = GradientMessage(sender=0, round_index=0, gradient=[1.0, 2.0])
        b = GradientMessage(sender=5, round_index=9, gradient=[1.0, 2.0])
        c = GradientMessage(sender=0, round_index=0, gradient=[1.0, 2.5])
        assert a.payload_digest() == b.payload_digest()
        assert a.payload_digest() != c.payload_digest()


class TestNetwork:
    def _msg(self, sender=0, round_index=0):
        return GradientMessage(sender=sender, round_index=round_index, gradient=[1.0])

    def test_delivery_and_accounting(self):
        net = SynchronousNetwork()
        delivered = net.deliver(self._msg(), receiver=SERVER_ID)
        assert delivered is not None
        assert net.messages_delivered == 1
        assert net.bytes_delivered > 0
        assert len(net.log) == 1
        assert not net.log[0].dropped

    def test_broadcast_reaches_all(self):
        net = SynchronousNetwork()
        msg = EstimateBroadcast(sender=SERVER_ID, round_index=0, estimate=[0.0])
        delivered = net.broadcast(msg, receivers=[0, 1, 2])
        assert set(delivered) == {0, 1, 2}
        assert net.messages_delivered == 3

    def test_gather(self):
        net = SynchronousNetwork()
        received = net.gather([self._msg(0), self._msg(1)], receiver=SERVER_ID)
        assert len(received) == 2

    def test_drops_are_per_sender_and_logged(self):
        net = PartiallySynchronousNetwork(LOSSY_SEVEN)
        net.submit(self._msg(sender=7), SERVER_ID, 0)
        net.submit(self._msg(sender=1), SERVER_ID, 0)
        assert [m.sender for m in net.collect(SERVER_ID, 0)] == [1]
        assert net.messages_dropped == 1
        assert [record.dropped for record in net.log] == [True, False]

    def test_log_capacity_bounds_memory(self):
        net = SynchronousNetwork(log_capacity=5)
        for _ in range(10):
            net.deliver(self._msg(), SERVER_ID)
        assert len(net.log) == 5
        assert net.messages_delivered == 10

    def test_invalid_probability_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultProfile(drop_prob=1.5)

    def test_dropped_bytes_are_accounted(self):
        net = PartiallySynchronousNetwork(LOSSY_SEVEN)
        msg = self._msg(sender=7)
        net.submit(msg, SERVER_ID, 0)
        assert net.bytes_dropped == msg.size_bytes()
        assert net.bytes_delivered == 0
        summary = net.traffic_summary()
        assert summary["messages_dropped"] == 1
        assert summary["bytes_dropped"] == msg.size_bytes()
