"""Unit tests for link-level fault primitives and per-edge liveness.

The determinism contract under test: every draw — drop, delay, corrupt,
corruption coordinate — is a pure function of ``(seed, tag, round,
sender, receiver)``, so any schedule replays exactly from its
declaration with no RNG stream state.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.system.faultinjection import deterministic_draw_array
from repro.optimization.cost_functions import QuadraticCost
from repro.system.decentralized import run_decentralized_dgd
from repro.system.healing import SUSPICION_THRESHOLD, NeighborhoodLiveness
from repro.system.netfaults import (
    ChurnWindow,
    LinkFaultModel,
    LinkFaultProfile,
    PartitionWindow,
    corrupt_payload_rows,
)
from repro.system.topology import make_topology


class TestDeterministicDrawArray:
    def test_pure_function_of_seed_and_keys(self):
        edges = np.arange(1000)
        a = deterministic_draw_array(7, 3, edges, edges * 2)
        b = deterministic_draw_array(7, 3, edges, edges * 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, deterministic_draw_array(8, 3, edges, edges * 2))
        assert not np.array_equal(a, deterministic_draw_array(7, 4, edges, edges * 2))

    def test_range_and_spread(self):
        draws = deterministic_draw_array(0, 1, np.arange(10_000))
        assert ((draws >= 0.0) & (draws < 1.0)).all()
        # splitmix64 output should look uniform, not clumped
        assert abs(draws.mean() - 0.5) < 0.02

    def test_broadcasting_and_scalar_keys(self):
        out = deterministic_draw_array(1, np.arange(4)[:, None], np.arange(3))
        assert out.shape == (4, 3)
        scalar = deterministic_draw_array(1, 5, 6)
        assert np.isscalar(scalar) or scalar.shape == ()

    def test_negative_keys_are_valid(self):
        out = deterministic_draw_array(2, np.array([-1, -2, 3]))
        assert ((out >= 0.0) & (out < 1.0)).all()

    def test_requires_a_key(self):
        with pytest.raises(InvalidParameterError):
            deterministic_draw_array(0)


class TestLinkFaultProfile:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            LinkFaultProfile(drop_prob=1.5)
        with pytest.raises(InvalidParameterError):
            LinkFaultProfile(max_delay=-1)
        with pytest.raises(InvalidParameterError, match="max_delay"):
            LinkFaultProfile(delay_prob=0.5)  # delay without a bound
        with pytest.raises(InvalidParameterError, match="corrupt_mode"):
            LinkFaultProfile(corrupt_prob=0.1, corrupt_mode="scramble")

    def test_null_and_delay_bound(self):
        assert LinkFaultProfile().is_null
        assert LinkFaultProfile().worst_case_delay() == 0
        chaotic = LinkFaultProfile(delay_prob=0.2, max_delay=3)
        assert not chaotic.is_null
        assert chaotic.worst_case_delay() == 3
        # a configured but gated-off delay does not extend the bound
        assert LinkFaultProfile(drop_prob=0.1, max_delay=5).worst_case_delay() == 0


class TestWindows:
    def test_partition_canonicalizes_and_validates(self):
        window = PartitionWindow(start=2, end=5, groups=((3, 1, 2),))
        assert window.groups == ((1, 2, 3),)
        assert not window.active_at(1) and window.active_at(2)
        assert window.active_at(4) and not window.active_at(5)
        labels = window.labels(6)
        assert labels.tolist() == [1, 0, 0, 0, 1, 1]  # rest group = 1
        with pytest.raises(InvalidParameterError, match="two partition groups"):
            PartitionWindow(start=0, end=2, groups=((0, 1), (1, 2)))
        with pytest.raises(InvalidParameterError):
            PartitionWindow(start=3, end=3, groups=((0,),))
        with pytest.raises(InvalidParameterError, match="out of range"):
            PartitionWindow(start=0, end=1, groups=((9,),)).labels(4)

    def test_churn_window_semantics(self):
        window = ChurnWindow(agent=3, down_round=5, up_round=8)
        assert [window.is_down(r) for r in (4, 5, 7, 8)] == [
            False, True, True, False,
        ]
        permanent = ChurnWindow(agent=3, down_round=5)
        assert permanent.is_down(10_000)
        with pytest.raises(InvalidParameterError):
            ChurnWindow(agent=3, down_round=5, up_round=5)


class TestLinkFaultModel:
    def test_overlapping_partitions_rejected(self):
        a = PartitionWindow(start=0, end=10, groups=((0,),))
        b = PartitionWindow(start=5, end=15, groups=((1,),))
        with pytest.raises(InvalidParameterError, match="overlap"):
            LinkFaultModel(partitions=(a, b))

    def test_profile_lookup_directed_then_reverse_then_default(self):
        asym = LinkFaultProfile(drop_prob=0.9)
        shared = LinkFaultProfile(drop_prob=0.4)
        model = LinkFaultModel(
            default_profile=LinkFaultProfile(drop_prob=0.1),
            link_profiles={(0, 1): asym, (2, 3): shared},
        )
        assert model.profile_for(0, 1) is asym
        assert model.profile_for(1, 0) is asym  # reverse fallback
        assert model.profile_for(3, 2) is shared
        assert model.profile_for(4, 5).drop_prob == 0.1

    def test_staleness_bound_tiers(self):
        assert LinkFaultModel().staleness_bound() == 0
        drops_only = LinkFaultModel(
            default_profile=LinkFaultProfile(drop_prob=0.2)
        )
        assert drops_only.staleness_bound() == 1
        delayed = LinkFaultModel(
            default_profile=LinkFaultProfile(delay_prob=0.2, max_delay=3)
        )
        assert delayed.staleness_bound() == 3

    def test_draws_are_deterministic_and_respect_masks(self):
        model = LinkFaultModel(
            default_profile=LinkFaultProfile(
                drop_prob=0.3, delay_prob=0.4, max_delay=2, corrupt_prob=0.3
            ),
            seed=11,
        )
        senders = np.repeat(np.arange(20), 19)
        receivers = np.concatenate(
            [[v for v in range(20) if v != u] for u in range(20)]
        )
        a = model.draw_link_faults(5, senders, receivers)
        b = model.draw_link_faults(5, senders, receivers)
        for key in ("dropped", "delay", "corrupt"):
            assert np.array_equal(a[key], b[key])
        assert not np.array_equal(
            a["dropped"], model.draw_link_faults(6, senders, receivers)["dropped"]
        )
        # dropped edges are neither delayed nor corrupted
        assert (a["delay"][a["dropped"]] == 0).all()
        assert not (a["corrupt"] & a["dropped"]).any()
        assert a["delay"].max() <= 2

    def test_partition_cut_and_churn_fold_into_dropped(self):
        model = LinkFaultModel(
            partitions=(PartitionWindow(start=0, end=10, groups=((0, 1),)),),
            churn=(ChurnWindow(agent=3, down_round=0),),
            seed=0,
        )
        senders = np.array([0, 1, 0, 2, 3, 2])
        receivers = np.array([1, 0, 2, 0, 2, 4])
        active = model.draw_link_faults(5, senders, receivers)
        # intra-group (0<->1) survives; cross-group and churned drop
        assert active["dropped"].tolist() == [False, False, True, True, True, False]
        healed = model.draw_link_faults(10, senders, receivers)
        assert healed["dropped"].tolist() == [False, False, False, False, True, False]


class TestCorruptPayloadRows:
    def _edges(self, m):
        return np.arange(m), np.arange(m) + 100

    def test_pure_function_and_copy_semantics(self):
        payloads = np.ones((4, 6))
        senders, receivers = self._edges(4)
        modes = np.zeros(4, dtype=np.int64)  # nan
        a = corrupt_payload_rows(payloads, modes, 3, 7, senders, receivers)
        b = corrupt_payload_rows(payloads, modes, 3, 7, senders, receivers)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert np.isfinite(payloads).all()  # input untouched
        assert (np.isnan(a).sum(axis=1) == 1).all()  # one coordinate per row

    def test_modes(self):
        payloads = np.ones((3, 5))
        senders, receivers = self._edges(3)
        modes = np.array([0, 1, 2], dtype=np.int64)  # nan, inf, bitflip
        out = corrupt_payload_rows(payloads, modes, 1, 2, senders, receivers)
        assert np.isnan(out[0]).sum() == 1
        assert np.isinf(out[1]).sum() == 1
        assert np.isfinite(out[2]).all()
        assert (out[2] != payloads[2]).sum() == 1  # one bit-flipped coord

    def test_empty_rows_roundtrip(self):
        out = corrupt_payload_rows(
            np.empty((0, 4)), np.empty(0, dtype=np.int64), 0, 0,
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        )
        assert out.shape == (0, 4)


class TestNeighborhoodLiveness:
    def _tracker(self):
        senders = np.array([0, 1, 2, 0])
        receivers = np.array([1, 2, 0, 2])
        return NeighborhoodLiveness(senders, receivers), 4

    def test_suspicion_after_threshold_and_reinstatement(self):
        tracker, num_edges = self._tracker()
        silent_edge = np.array([False, True, True, True])
        for round_index in range(SUSPICION_THRESHOLD - 1):
            newly, reinstated = tracker.observe(round_index, silent_edge)
            assert (newly, reinstated) == (0, 0)
        newly, _ = tracker.observe(SUSPICION_THRESHOLD - 1, silent_edge)
        assert newly == 1
        assert tracker.suspected_edges() == [(0, 1)]
        # one delivery reinstates immediately
        newly, reinstated = tracker.observe(
            SUSPICION_THRESHOLD, np.ones(num_edges, dtype=bool)
        )
        assert (newly, reinstated) == (0, 1)
        assert tracker.suspected_edges() == []
        assert tracker.reinstatements == 1

    def test_suspicion_names_the_silent_edge(self):
        tracker, num_edges = self._tracker()
        for round_index in range(SUSPICION_THRESHOLD):
            tracker.observe(round_index, np.array([True, True, False, True]))
        assert tracker.suspected_edges() == [(2, 0)]

    def test_state_roundtrip(self):
        tracker, num_edges = self._tracker()
        tracker.observe(0, np.array([False, False, True, True]))
        snapshot = tracker.state()
        other, _ = self._tracker()
        other.restore_state(snapshot)
        other.observe(1, np.zeros(num_edges, dtype=bool))
        tracker.observe(1, np.zeros(num_edges, dtype=bool))
        assert other.suspected_edges() == tracker.suspected_edges() != []
        assert np.array_equal(other.last_seen(), tracker.last_seen())

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            NeighborhoodLiveness(np.array([0, 1]), np.array([1]))
        with pytest.raises(InvalidParameterError):
            NeighborhoodLiveness(np.zeros((2, 2)), np.zeros((2, 2)))
        tracker, _ = self._tracker()
        with pytest.raises(InvalidParameterError, match="shape"):
            tracker.observe(0, np.array([True]))


class TestPolicyForLinkModel:
    def test_matches_model_bounds(self):
        # The engine reuses a neighbor state up to the model's one-way
        # staleness bound, and none without a model.
        topology = make_topology("ring", 8, seed=0, hops=1)
        costs = [QuadraticCost(np.eye(2), np.full(2, float(i))) for i in range(8)]
        delayed = LinkFaultModel(
            default_profile=LinkFaultProfile(delay_prob=0.2, max_delay=3)
        )
        lossy = LinkFaultModel(default_profile=LinkFaultProfile(drop_prob=0.5))
        for model, staleness in (
            (delayed, 3), (lossy, 1), (LinkFaultModel(), 0), (None, 0)
        ):
            if model is not None:
                assert model.staleness_bound() == staleness
            result = run_decentralized_dgd(
                costs, topology, aggregation="mean", iterations=3, link_faults=model
            )
            assert result.extra["max_staleness"] == staleness

