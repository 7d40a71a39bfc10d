"""Tests for the self-healing DGD runtime.

Pins the three headline guarantees of the partially-synchronous engine:

- **zero-fault bit-identity** — with no fault profile the hardened server
  and peer-to-peer loop reproduce the synchronous implementations
  bit-for-bit, telemetry round records included;
- **chaos acceptance** — under bounded delay + duplication + NaN
  corruption + a crash-recovery agent, DGD+CGE on a 2f-redundant instance
  still converges near the honest minimizer and no honest agent is ever
  permanently eliminated;
- **durable resume** — a checkpointed run killed mid-flight resumes
  bit-identically to the uninterrupted trajectory.
"""

import numpy as np
import pytest

from repro.aggregators.registry import make_filter
from repro.analysis.metrics import final_error
from repro.analysis.serialization import load_trace, save_trace
from repro.attacks.base import ByzantineBehavior
from repro.attacks.registry import make_attack
from repro.exceptions import ProtocolViolationError
from repro.observability import MemorySink, Telemetry
from repro.problems.linear_regression import make_redundant_regression
from repro.system.healing import ResiliencePolicy, ResilientDGDServer
from repro.system.messages import GradientMessage
from repro.system.netfaults import FaultProfile, NetworkFaultModel
from repro.system.peer_to_peer import run_peer_to_peer_dgd
from repro.system.runner import run_dgd
from repro.system.server import DGDServer, fixed_filter_factory
from repro.utils.atomicio import read_json_checked


N, D, F = 6, 2, 1
FAULTY = (0,)


@pytest.fixture(scope="module")
def instance():
    return make_redundant_regression(n=N, d=D, f=F, noise_std=0.0, seed=9)


@pytest.fixture(scope="module")
def x_H(instance):
    return instance.honest_minimizer([i for i in range(N) if i not in FAULTY])


def _chaos_model(seed=13):
    """The acceptance grid: delay ≤ 2, duplicates, NaN corruption, one
    crash-recovery honest agent."""
    return NetworkFaultModel(
        profiles={
            1: FaultProfile(delay_prob=0.3, max_delay=2),
            2: FaultProfile(duplicate_prob=0.4, corrupt_prob=0.15, corrupt_mode="nan"),
            3: FaultProfile(delay_prob=0.2, max_delay=1, duplicate_prob=0.2),
            4: FaultProfile(crash_round=20, recover_round=35),
            5: FaultProfile(straggle_every=5, straggle_delay=2),
        },
        seed=seed,
    )


def _round_records(telemetry):
    return [r for r in telemetry.records if r.get("event") == "round"]


class TestZeroFaultBitIdentity:
    def test_server_trajectory_and_telemetry(self, instance):
        sync_tel = Telemetry(MemorySink())
        psn_tel = Telemetry(MemorySink())
        sync = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=60,
            seed=5,
            telemetry=sync_tel,
        )
        hardened = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=60,
            seed=5,
            telemetry=psn_tel,
            fault_model=NetworkFaultModel(),
        )
        assert np.array_equal(sync.estimates, hardened.estimates)
        assert np.array_equal(sync.directions, hardened.directions)
        assert sync.eliminated == hardened.eliminated
        assert hardened.extra["resilience"]["stale_reuses"] == 0
        assert hardened.extra["resilience"]["stalled_rounds"] == 0
        # Telemetry round records (everything but timing) are identical too.
        assert _round_records(sync_tel) == _round_records(psn_tel)

    def test_server_with_crash_agent(self, instance):
        sync = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            f=2,
            crash_rounds={5: 20},
            iterations=50,
            seed=5,
        )
        hardened = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            f=2,
            crash_rounds={5: 20},
            iterations=50,
            seed=5,
            fault_model=NetworkFaultModel(),
        )
        assert np.array_equal(sync.estimates, hardened.estimates)
        assert sync.eliminated == hardened.eliminated == [5]

    def test_null_model_delivers_every_broadcast(self):
        # 2nT, as on the synchronous network: the broadcast copies addressed
        # to Byzantine agents are delivered to the adversary.
        n, f, iterations = 12, 3, 60
        costs = make_redundant_regression(
            n=n, d=D, f=f, noise_std=0.0, seed=9
        ).costs
        kwargs = dict(
            gradient_filter="cge", faulty_ids=(0, 1, 2), f=f,
            iterations=iterations, seed=5,
        )
        sync = run_dgd(costs, make_attack("gradient-reverse"), **kwargs)
        hardened = run_dgd(
            costs, make_attack("gradient-reverse"),
            fault_model=NetworkFaultModel(), **kwargs,
        )
        assert hardened.messages_delivered == sync.messages_delivered
        assert hardened.messages_delivered == 2 * n * iterations
        assert hardened.bytes_delivered == sync.bytes_delivered

    def test_non_finite_forgery_reaches_sanitize(self, instance):
        # A null model cannot corrupt payloads, so a forged NaN is the
        # sender's doing: it goes to GradientFilter.sanitize as on the
        # synchronous server, not to quarantine (which would then eliminate
        # the sender as silent).
        class NaNForgery(ByzantineBehavior):
            name = "nan-forgery"

            def forge(self, context):
                forged = -context.true_faulty_gradients()
                forged[:, 0] = np.nan
                return forged

        kwargs = dict(
            gradient_filter="cwtm", faulty_ids=FAULTY, iterations=40, seed=5
        )
        sync = run_dgd(instance.costs, NaNForgery(), **kwargs)
        hardened = run_dgd(
            instance.costs, NaNForgery(), fault_model=NetworkFaultModel(),
            **kwargs,
        )
        assert np.array_equal(sync.estimates, hardened.estimates)
        assert sync.eliminated == hardened.eliminated == []
        assert not ResiliencePolicy.for_model(
            NetworkFaultModel()
        ).quarantine_non_finite
        assert ResiliencePolicy.for_model(_chaos_model()).quarantine_non_finite

    def test_peer_to_peer(self, instance):
        base = run_peer_to_peer_dgd(
            instance.costs,
            make_filter("cge", f=F),
            faulty_ids=FAULTY,
            behavior=make_attack("gradient-reverse"),
            iterations=40,
            seed=5,
        )
        hardened = run_peer_to_peer_dgd(
            instance.costs,
            make_filter("cge", f=F),
            faulty_ids=FAULTY,
            behavior=make_attack("gradient-reverse"),
            iterations=40,
            seed=5,
            fault_model=NetworkFaultModel(),
        )
        assert np.array_equal(base.estimates, hardened.estimates)
        assert hardened.extra["degraded"]["stale_reuses"] == 0
        assert hardened.extra["degraded"]["zero_filled"] == 0


class TestChaosAcceptance:
    def test_cge_converges_and_no_honest_agent_eliminated(self, instance, x_H):
        baseline = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=400,
            seed=5,
        )
        degraded = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=400,
            seed=5,
            fault_model=_chaos_model(),
        )
        base_err = final_error(baseline, x_H)
        deg_err = final_error(degraded, x_H)
        # Degradation costs accuracy but stays within the fault-free
        # neighbourhood (a constant factor plus the staleness floor).
        assert deg_err < max(5.0 * base_err, 0.15)
        # No honest agent is ever permanently eliminated.
        assert degraded.eliminated == []
        resilience = degraded.extra["resilience"]
        assert resilience["quarantined_by_agent"].keys() <= {2}
        # The crash-recovery agent was suspected while down, then reinstated.
        assert 4 not in resilience["suspected"]
        assert resilience["reinstatements"] >= 1

    def test_chaos_run_is_exactly_replayable(self, instance):
        runs = [
            run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                gradient_filter="cge",
                faulty_ids=FAULTY,
                iterations=80,
                seed=5,
                fault_model=_chaos_model(),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].estimates, runs[1].estimates)
        assert runs[0].extra["traffic"] == runs[1].extra["traffic"]
        assert runs[0].extra["resilience"] == runs[1].extra["resilience"]

    def test_peer_to_peer_under_chaos(self, instance, x_H):
        baseline = run_peer_to_peer_dgd(
            instance.costs,
            make_filter("cge", f=F),
            faulty_ids=FAULTY,
            behavior=make_attack("gradient-reverse"),
            iterations=300,
            seed=5,
        )
        degraded = run_peer_to_peer_dgd(
            instance.costs,
            make_filter("cge", f=F),
            faulty_ids=FAULTY,
            behavior=make_attack("gradient-reverse"),
            iterations=300,
            seed=5,
            fault_model=_chaos_model(),
        )
        assert degraded.agreement_verified
        base_err = float(np.linalg.norm(baseline.estimates[-1] - x_H))
        deg_err = float(np.linalg.norm(degraded.estimates[-1] - x_H))
        # Degradation stays within the fault-free neighbourhood: stale
        # reuse of agreed values barely perturbs the trajectory.
        assert deg_err < base_err + 0.05
        assert degraded.extra["degraded"]["quarantined"] > 0

    def test_total_blackout_stalls_instead_of_diverging(self, instance):
        model = NetworkFaultModel.uniform(
            range(N), FaultProfile(crash_round=0, recover_round=5), seed=3
        )
        trace = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=30,
            seed=5,
            fault_model=model,
        )
        resilience = trace.extra["resilience"]
        assert resilience["stalled_rounds"] >= 5
        # The estimate holds still through the blackout.
        for t in range(5):
            assert np.array_equal(trace.estimates[t], trace.estimates[0])
            assert np.array_equal(trace.directions[t], np.zeros(D))
        # And the run recovers movement afterwards.
        assert not np.array_equal(trace.estimates[-1], trace.estimates[0])
        assert trace.eliminated == []


class TestCheckpointResume:
    def _config(self, path=None):
        return dict(
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=60,
            seed=5,
            fault_model=_chaos_model(),
            checkpoint_path=path,
            checkpoint_every=10,
        )

    def test_kill_and_resume_is_bit_identical(self, instance, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.json")
        uninterrupted = run_dgd(
            instance.costs, make_attack("gradient-reverse"), **self._config()
        )

        class Killed(RuntimeError):
            pass

        def killer(t, _server):
            if t == 33:
                raise Killed()

        with pytest.raises(Killed):
            run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                round_hook=killer,
                **self._config(ckpt),
            )
        resumed = run_dgd(
            instance.costs, make_attack("gradient-reverse"), **self._config(ckpt)
        )
        assert resumed.extra["resumed_from_round"] == 30
        assert np.array_equal(uninterrupted.estimates, resumed.estimates)
        assert np.array_equal(uninterrupted.directions, resumed.directions)

    def test_no_copy_addressed_to_the_adversary_stays_queued(
        self, instance, tmp_path
    ):
        ckpt = str(tmp_path / "run.ckpt.json")
        run_dgd(instance.costs, make_attack("gradient-reverse"), **self._config(ckpt))
        queue = read_json_checked(ckpt, require_checksum=True)["network"]["queue"]
        assert [e for e in queue if e["receiver"] in FAULTY] == []

    def test_corrupt_checkpoint_restarts_fresh(self, instance, tmp_path):
        ckpt = tmp_path / "run.ckpt.json"
        clean = run_dgd(
            instance.costs, make_attack("gradient-reverse"), **self._config(str(ckpt))
        )
        ckpt.write_text(ckpt.read_text()[:-40])  # truncate → checksum mismatch
        with pytest.warns(UserWarning, match="corrupt checkpoint"):
            rerun = run_dgd(
                instance.costs,
                make_attack("gradient-reverse"),
                **self._config(str(ckpt)),
            )
        assert rerun.extra["resumed_from_round"] == 0
        assert np.array_equal(clean.estimates, rerun.estimates)

    def test_mismatched_configuration_is_rejected(self, instance, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.json")
        run_dgd(instance.costs, make_attack("gradient-reverse"), **self._config(ckpt))
        other = dict(self._config(ckpt), seed=6)
        with pytest.warns(UserWarning, match="different configuration"):
            rerun = run_dgd(instance.costs, make_attack("gradient-reverse"), **other)
        assert rerun.extra["resumed_from_round"] == 0

    def test_completed_checkpoint_extends_into_longer_run(self, instance, tmp_path):
        ckpt = str(tmp_path / "run.ckpt.json")
        run_dgd(instance.costs, make_attack("gradient-reverse"), **self._config(ckpt))
        longer = dict(self._config(ckpt), iterations=80)
        extended = run_dgd(
            instance.costs, make_attack("gradient-reverse"), **longer
        )
        assert extended.extra["resumed_from_round"] == 60
        full = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            **dict(self._config(), iterations=80),
        )
        assert np.array_equal(extended.estimates, full.estimates)


class TestResilientServerUnits:
    def _server(self, policy=None, n=4, f=1):
        from repro.optimization.projections import BoxSet
        from repro.optimization.step_sizes import DiminishingStepSize

        return ResilientDGDServer(
            fixed_filter_factory(make_filter("cge", f=f)),
            DiminishingStepSize(c=0.1),
            BoxSet.centered(2, 10.0),
            np.zeros(2),
            n=n,
            f=f,
            policy=policy,
        )

    def _msg(self, sender, round_index, values):
        return GradientMessage(
            sender=sender, round_index=round_index, gradient=np.asarray(values, float)
        )

    def test_future_round_message_rejected(self):
        server = self._server()
        with pytest.raises(ProtocolViolationError):
            server.step_partial([self._msg(0, 3, [1.0, 1.0])])

    def test_duplicates_are_idempotent_in_step(self):
        policy = ResiliencePolicy(eliminate_on_silence=False, max_staleness=1)
        one = self._server(policy)
        two = self._server(policy)
        messages = [self._msg(i, 0, [1.0 + i, -1.0]) for i in range(4)]
        one.step_partial(messages)
        two.step_partial(messages + messages[:2])  # replayed copies
        assert np.array_equal(one.estimate, two.estimate)

    def test_quorum_stalls_and_partial_aggregates(self):
        policy = ResiliencePolicy(eliminate_on_silence=False, max_staleness=0)
        server = self._server(policy)
        before = server.estimate
        server.step_partial([self._msg(0, 0, [1.0, 1.0])])  # k=1 < quorum 2
        assert server.stalled_rounds == 1
        assert np.array_equal(server.estimate, before)
        # Three of four respond: partial aggregation moves the estimate.
        server.step_partial([self._msg(i, 1, [1.0, 1.0]) for i in range(3)])
        assert server.stalled_rounds == 1
        assert not np.array_equal(server.estimate, before)

    def test_suspicion_and_reinstatement(self):
        policy = ResiliencePolicy(
            eliminate_on_silence=False, max_staleness=0, suspicion_threshold=2
        )
        server = self._server(policy)
        for r in range(2):
            server.step_partial([self._msg(i, r, [1.0, 0.0]) for i in range(3)])
        assert server.suspected_agents == [3]
        server.step_partial(
            [self._msg(i, 2, [1.0, 0.0]) for i in range(4)]
        )
        assert server.suspected_agents == []
        assert server.liveness.reinstatements == 1

    def test_conflict_elimination_when_policy_trusts_it(self):
        policy = ResiliencePolicy(
            eliminate_on_silence=False, eliminate_on_conflict=True, max_staleness=1
        )
        server = self._server(policy)
        messages = [self._msg(i, 0, [1.0, 0.0]) for i in range(4)]
        messages.append(self._msg(0, 0, [9.0, 9.0]))  # equivocation by agent 0
        server.step_partial(messages)
        assert server.eliminated_agents == [0]
        assert server.n == 3 and server.f == 0

    def test_validate_payloads_flag_on_synchronous_server(self):
        from repro.optimization.projections import BoxSet
        from repro.optimization.step_sizes import DiminishingStepSize

        server = DGDServer.with_fixed_filter(
            make_filter("cge", f=1),
            DiminishingStepSize(c=0.1),
            BoxSet.centered(2, 10.0),
            np.zeros(2),
            n=2,
            f=1,
        )
        server.validate_payloads = True
        bad = [
            self._msg(0, 0, [np.nan, 0.0]),
            self._msg(1, 0, [1.0, 0.0]),
        ]
        with pytest.raises(ProtocolViolationError):
            server.step(bad)

    def test_checkpoint_restore_round_trip(self):
        policy = ResiliencePolicy(eliminate_on_silence=False, max_staleness=2)
        server = self._server(policy)
        for r in range(3):
            server.step_partial([self._msg(i, r, [1.0, float(i)]) for i in range(3)])
        clone = self._server(policy)
        clone.restore(server.checkpoint())
        assert np.array_equal(clone.estimate, server.estimate)
        assert clone.round_index == server.round_index
        assert clone.resilience_summary() == server.resilience_summary()
        # Both servers evolve identically afterwards.
        nxt = [self._msg(i, 3, [0.5, 0.5]) for i in range(4)]
        assert np.array_equal(server.step_partial(nxt), clone.step_partial(nxt))


class TestTraceAccounting:
    def test_drop_totals_round_trip_through_npz(self, instance, tmp_path):
        model = NetworkFaultModel.uniform(
            range(N), FaultProfile(drop_prob=0.2), seed=2
        )
        trace = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=30,
            seed=5,
            fault_model=model,
        )
        assert trace.messages_dropped > 0
        assert trace.bytes_dropped > 0
        path = save_trace(trace, tmp_path / "trace.npz")
        loaded = load_trace(path)
        assert loaded.messages_dropped == trace.messages_dropped
        assert loaded.bytes_dropped == trace.bytes_dropped

    def test_synchronous_trace_reports_zero_drops(self, instance):
        trace = run_dgd(
            instance.costs,
            make_attack("gradient-reverse"),
            gradient_filter="cge",
            faulty_ids=FAULTY,
            iterations=10,
            seed=5,
        )
        assert trace.messages_dropped == 0
        assert trace.bytes_dropped == 0
