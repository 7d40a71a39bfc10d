"""Tests for the run-telemetry layer (``repro.observability``).

Covers the sink/exporter machinery, the live handle's per-round records
and roll-ups, the zero-overhead (bit-identity) guarantee of the disabled
default across all execution engines, and the acceptance criterion: a
fault-sweep cell's JSONL elimination records reconstruct the CGE kept-set
computed by :meth:`ComparativeGradientElimination.kept_indices`.
"""

import json
import os

import numpy as np
import pytest

from repro.aggregators import ComparativeGradientElimination
from repro.aggregators.base import GradientFilter
from repro.attacks import GradientReverse, SignFlip, make_attack
from repro.exceptions import InvalidParameterError
from repro.observability import (
    JSONLSink,
    MemorySink,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetrySink,
    count_events,
    ensure_telemetry,
    load_jsonl,
    summarize_records,
    write_summary_atomic,
)
from repro.problems.linear_regression import make_redundant_regression
from repro.system.batch import run_dgd_batch
from repro.system.peer_to_peer import run_peer_to_peer_dgd
from repro.system.runner import run_dgd
from repro.utils.atomicio import read_json_checked


@pytest.fixture(scope="module")
def instance():
    return make_redundant_regression(n=6, d=2, f=1, noise_std=0.02, seed=0)


class TestNullTelemetry:
    def test_falsy_and_shared(self):
        assert not NULL_TELEMETRY
        assert not NullTelemetry()
        assert NULL_TELEMETRY.enabled is False

    def test_all_operations_are_noops(self):
        tel = NULL_TELEMETRY
        with tel.span("anything"):
            pass
        tel.increment("x")
        tel.emit("event", a=1)
        tel.record_round(round_index=0)
        tel.annotate(byzantine_ids=[1])
        assert tel.summary() == {}
        tel.close()

    def test_span_is_shared_instance(self):
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")

    def test_context_manager(self):
        with NULL_TELEMETRY as tel:
            assert tel is NULL_TELEMETRY


class TestEnsureTelemetry:
    def test_none_gives_null_singleton(self):
        assert ensure_telemetry(None) is NULL_TELEMETRY

    def test_handles_pass_through(self):
        tel = Telemetry()
        assert ensure_telemetry(tel) is tel
        assert ensure_telemetry(NULL_TELEMETRY) is NULL_TELEMETRY

    def test_path_becomes_jsonl_stream(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = ensure_telemetry(path)
        assert isinstance(tel, Telemetry)
        tel.emit("hello")
        assert load_jsonl(path) == [{"event": "hello"}]

    def test_rejects_other_types(self):
        with pytest.raises(InvalidParameterError):
            ensure_telemetry(42)


class TestSinks:
    def test_default_sink_is_memory(self):
        tel = Telemetry()
        tel.emit("a", x=1)
        assert tel.records == [{"event": "a", "x": 1}]

    def test_jsonl_round_trip_with_numpy_values(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry(path)
        tel.emit("a", i=np.int64(3), f=np.float64(0.5), v=np.array([1.0, 2.0]))
        assert load_jsonl(path) == [{"event": "a", "i": 3, "f": 0.5, "v": [1.0, 2.0]}]

    def test_jsonl_truncates_on_init(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "stale"}\n')
        JSONLSink(str(path))
        assert load_jsonl(str(path)) == []

    def test_load_skips_torn_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n{"event": "b", "x"')
        assert load_jsonl(str(path)) == [{"event": "a"}]

    def test_multiple_sinks_fan_out(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        memory = MemorySink()
        tel = Telemetry([memory, JSONLSink(path)])
        tel.emit("a")
        assert memory.records == [{"event": "a"}]
        assert load_jsonl(path) == [{"event": "a"}]
        assert tel.records is memory.records

    def test_sink_sequence_must_contain_sinks(self):
        with pytest.raises(InvalidParameterError):
            Telemetry([MemorySink(), "not-a-sink"])
        with pytest.raises(InvalidParameterError):
            Telemetry([])

    def test_base_sink_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TelemetrySink().emit({})

    def test_count_events(self):
        records = [{"event": "a"}, {"event": "a"}, {"event": "b"}, {}]
        assert count_events(records) == {"a": 2, "b": 1, "?": 1}


class TestTelemetryHandle:
    def test_truthy(self):
        assert Telemetry()

    def test_counters(self):
        tel = Telemetry()
        tel.increment("retries")
        tel.increment("retries", by=2)
        assert tel.counters == {"retries": 3}
        assert tel.summary()["counters"] == {"retries": 3}

    def test_span_records_duration_and_event(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        spans = [r for r in tel.records if r["event"] == "span"]
        assert len(spans) == 1
        assert spans[0]["name"] == "work"
        assert spans[0]["seconds"] >= 0.0
        assert tel.summary()["spans"]["work"]["count"] == 1

    def test_record_round_elimination_scoring(self):
        tel = Telemetry(byzantine_ids=[0, 5])
        record = tel.record_round(
            round_index=3,
            filter_name="cge",
            step_size=0.1,
            gradient_norms=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            kept_ids=[1, 2, 3, 5],
        )
        assert record["kept"] == [1, 2, 3, 5]
        assert record["eliminated"] == [0, 4]
        assert record["eliminated_byzantine"] == 1  # agent 0
        assert record["surviving_byzantine"] == 1  # agent 5
        assert record["grad_norm_min"] == 1.0
        assert record["grad_norm_median"] == 3.5
        assert record["grad_norm_max"] == 6.0
        elimination = tel.summary()["elimination"]
        assert elimination["true_positives"] == 1
        assert elimination["false_positives"] == 1
        assert elimination["false_negatives"] == 1
        assert elimination["precision"] == 0.5
        assert elimination["recall"] == 0.5

    def test_record_round_with_agent_id_mapping(self):
        # Rows need not be agent ids: with agents (2, 4, 6) present, the
        # kept/eliminated sets are reported in agent-id space.
        tel = Telemetry(byzantine_ids=[6])
        record = tel.record_round(
            round_index=0,
            filter_name="cge",
            step_size=0.1,
            gradient_norms=[1.0, 2.0, 3.0],
            agent_ids=[2, 4, 6],
            kept_ids=[2, 4],
        )
        assert record["eliminated"] == [6]
        assert record["eliminated_byzantine"] == 1
        assert record["surviving_byzantine"] == 0

    def test_record_round_without_kept_ids_has_no_elimination(self):
        tel = Telemetry(byzantine_ids=[0])
        record = tel.record_round(
            round_index=0,
            filter_name="median",
            step_size=0.1,
            gradient_norms=[1.0, 2.0],
        )
        assert "kept" not in record and "eliminated" not in record
        elimination = tel.summary()["elimination"]
        assert elimination["precision"] is None
        assert elimination["recall"] is None

    def test_distance_to_reference(self):
        tel = Telemetry(reference_point=[1.0, 1.0])
        record = tel.record_round(
            round_index=0,
            filter_name="cge",
            step_size=0.1,
            gradient_norms=[1.0],
            estimate=[4.0, 5.0],
        )
        assert record["distance_to_ref"] == pytest.approx(5.0)

    def test_annotate_overrides_ground_truth(self):
        tel = Telemetry()
        tel.annotate(byzantine_ids=[1], reference_point=[0.0])
        record = tel.record_round(
            round_index=0, filter_name="cge", step_size=0.1,
            gradient_norms=[1.0, 2.0], kept_ids=[0], estimate=[3.0],
        )
        assert record["eliminated_byzantine"] == 1
        assert record["distance_to_ref"] == pytest.approx(3.0)

    def test_close_is_idempotent_and_self_describing(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry(path)
        tel.increment("hits", by=2)
        tel.emit("noise")
        tel.close()
        tel.close()
        records = load_jsonl(path)
        assert count_events(records) == {"noise": 1, "counters": 1, "summary": 1}
        assert records[-1]["event"] == "summary"

    def test_context_manager_closes(self):
        with Telemetry() as tel:
            tel.emit("a")
        assert tel.records[-1]["event"] == "summary"

    def test_summary_matches_summarize_records(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tel = Telemetry([MemorySink(), JSONLSink(path)], byzantine_ids=[0])
        tel.increment("cache_miss")
        for t in range(4):
            with tel.span("round"):
                tel.record_round(
                    round_index=t, filter_name="cge", step_size=0.1,
                    gradient_norms=[1.0, 2.0, 3.0], kept_ids=[1, 2],
                )
        live = tel.summary()
        # Counters reach the record stream only on close; everything else
        # agrees already.
        pre_close = summarize_records(tel.records)
        assert pre_close == {**live, "counters": {}}
        tel.close()  # flushes the counters record, then a post-mortem agrees
        assert summarize_records(tel.records) == live
        assert summarize_records(load_jsonl(path)) == live
        assert live["rounds"] == 4
        assert live["rounds_per_sec"] > 0
        assert live["counters"] == {"cache_miss": 1}

    def test_write_summary_atomic_round_trips(self, tmp_path):
        path = str(tmp_path / "summary.json")
        tel = Telemetry()
        tel.record_round(
            round_index=0, filter_name="cge", step_size=0.1, gradient_norms=[1.0]
        )
        write_summary_atomic(path, tel.summary())
        assert read_json_checked(path) == tel.summary()

    def test_percentiles_match_numpy(self):
        durations = [0.1, 0.2, 0.3, 0.4, 0.5]
        records = [
            {"event": "span", "name": "round", "seconds": s} for s in durations
        ]
        spans = summarize_records(records)["spans"]["round"]
        assert spans["p50"] == pytest.approx(np.percentile(durations, 50))
        assert spans["p95"] == pytest.approx(np.percentile(durations, 95))
        assert spans["total"] == pytest.approx(sum(durations))


class TestClosedHandle:
    def test_closed_handle_writes_nothing_more(self, instance, tmp_path):
        # A shutdown flush may close a job's handle while its run goes on:
        # the stream must still end with its summary.
        path = str(tmp_path / "run.jsonl")
        honest = [1, 2, 3, 4, 5]
        tel = Telemetry(path, reference_point=instance.honest_minimizer(honest))

        def close_at_round_9(t, server):
            if t == 9:
                tel.close()

        kwargs = dict(gradient_filter="cge", faulty_ids=(0,), iterations=20, seed=1)
        traced = run_dgd(instance.costs, GradientReverse(), telemetry=tel,
                         round_hook=close_at_round_9, **kwargs)
        untraced = run_dgd(instance.costs, GradientReverse(), **kwargs)
        with open(path) as handle:
            lines = handle.read().splitlines()
        assert json.loads(lines[-1])["event"] == "summary"
        assert tel.emitted == len(lines)
        # Rounds 10-19 each lost a filter span, a round record and a round
        # span, and the run lost its run span.
        assert tel.dropped == 10 * 3 + 1
        assert np.array_equal(traced.estimates, untraced.estimates)
        assert np.array_equal(traced.directions, untraced.directions)

    def test_emit_after_close_is_counted_not_written(self):
        memory = MemorySink()
        tel = Telemetry(memory)
        tel.close()
        tel.emit("late")
        tel.record_round(round_index=0, filter_name="cge", step_size=0.1,
                         gradient_norms=[[1.0, 2.0]], kept_ids=[[0]])
        assert [r["event"] for r in memory.records] == ["summary"]
        assert (tel.emitted, tel.dropped) == (1, 2)


class TestRunnerTelemetry:
    def test_disabled_run_is_bit_identical(self, instance):
        kwargs = dict(
            gradient_filter="cge", faulty_ids=(0,), iterations=40, seed=1
        )
        baseline = run_dgd(instance.costs, GradientReverse(), **kwargs)
        enabled = run_dgd(
            instance.costs, GradientReverse(), telemetry=Telemetry(), **kwargs
        )
        assert np.array_equal(baseline.estimates, enabled.estimates)
        assert np.array_equal(baseline.directions, enabled.directions)

    def test_round_records(self, instance):
        honest = [1, 2, 3, 4, 5]
        tel = Telemetry(reference_point=instance.honest_minimizer(honest))
        run_dgd(
            instance.costs, GradientReverse(), gradient_filter="cge",
            faulty_ids=(0,), iterations=30, seed=1, telemetry=tel,
        )
        rounds = [r for r in tel.records if r["event"] == "round"]
        assert len(rounds) == 30
        for record in rounds:
            assert record["filter"] == "cge"
            assert len(record["kept"]) == 5  # n - f survivors
            assert record["step_size"] > 0
            assert record["grad_norm_min"] <= record["grad_norm_median"]
            assert record["grad_norm_median"] <= record["grad_norm_max"]
            assert record["distance_to_ref"] >= 0
        # The runner annotates the handle with the true Byzantine set.
        elimination = tel.summary()["elimination"]
        assert elimination["true_positives"] + elimination["false_negatives"] == 30

    def test_span_structure(self, instance):
        tel = Telemetry()
        run_dgd(
            instance.costs, None, gradient_filter="average",
            iterations=10, seed=0, telemetry=tel,
        )
        spans = tel.summary()["spans"]
        assert spans["run"]["count"] == 1
        assert spans["round"]["count"] == 10
        assert spans["filter"]["count"] == 10

    def test_jsonl_path_accepted_directly(self, instance, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_dgd(
            instance.costs, None, gradient_filter="average",
            iterations=5, seed=0, telemetry=path,
        )
        assert count_events(load_jsonl(path))["round"] == 5


class TestBatchTelemetry:
    def test_disabled_batch_is_bit_identical(self, instance):
        kwargs = dict(
            gradient_filter="cge", faulty_ids=(0,), iterations=30,
            seeds=[1, 2, 3],
        )
        baseline = run_dgd_batch(instance.costs, GradientReverse(), **kwargs)
        enabled = run_dgd_batch(
            instance.costs, GradientReverse(), telemetry=Telemetry(), **kwargs
        )
        for before, after in zip(baseline, enabled):
            assert np.array_equal(before.estimates, after.estimates)

    def test_one_record_per_round_per_run(self, instance):
        tel = Telemetry()
        run_dgd_batch(
            instance.costs, GradientReverse(), gradient_filter="cge",
            faulty_ids=(0,), iterations=20, seeds=[1, 2, 3], telemetry=tel,
        )
        rounds = [r for r in tel.records if r["event"] == "round"]
        assert len(rounds) == 60
        assert {r["run"] for r in rounds} == {0, 1, 2}
        assert all("seed" in r for r in rounds)

    def test_batch_kept_sets_match_sequential(self, instance):
        # The batched CGE kernel and the sequential server must report the
        # same per-round elimination decisions for the same seed.
        batch_tel = Telemetry()
        run_dgd_batch(
            instance.costs, GradientReverse(), gradient_filter="cge",
            faulty_ids=(0,), iterations=15, seeds=[7], telemetry=batch_tel,
        )
        seq_tel = Telemetry()
        run_dgd(
            instance.costs, GradientReverse(), gradient_filter="cge",
            faulty_ids=(0,), iterations=15, seed=7, telemetry=seq_tel,
        )
        batch_rounds = [r for r in batch_tel.records if r["event"] == "round"]
        seq_rounds = [r for r in seq_tel.records if r["event"] == "round"]
        assert len(batch_rounds) == len(seq_rounds) == 15
        for b, s in zip(batch_rounds, seq_rounds):
            assert b["kept"] == s["kept"]
            assert b["eliminated"] == s["eliminated"]


class TestPeerToPeerTelemetry:
    def test_disabled_is_bit_identical_and_records_flow(self):
        instance = make_redundant_regression(n=7, d=2, f=1, noise_std=0.0, seed=0)
        cge = ComparativeGradientElimination(1)
        kwargs = dict(
            faulty_ids=(0,), behavior=GradientReverse(), iterations=5, seed=2
        )
        baseline = run_peer_to_peer_dgd(instance.costs, cge, **kwargs)
        tel = Telemetry()
        enabled = run_peer_to_peer_dgd(
            instance.costs, cge, telemetry=tel, **kwargs
        )
        assert np.array_equal(baseline.estimates, enabled.estimates)
        rounds = [r for r in tel.records if r["event"] == "round"]
        assert len(rounds) == 5
        assert all(len(r["kept"]) == 6 for r in rounds)
        spans = tel.summary()["spans"]
        assert spans["broadcast"]["count"] == 5
        assert spans["filter"]["count"] == 5


class _MatrixRecorder(GradientFilter):
    """Test filter wrapper that keeps each round's sanitized input matrix."""

    name = "matrix-recorder"
    stateful = True

    def __init__(self, inner: GradientFilter):
        super().__init__(inner.f)
        self.inner = inner
        self.matrices = []

    def minimum_inputs(self) -> int:
        return self.inner.minimum_inputs()

    def _aggregate(self, gradients: np.ndarray) -> np.ndarray:
        self.matrices.append(gradients.copy())
        return self.inner._aggregate(gradients)


class TestSweepTelemetry:
    def test_fault_sweep_records_reconstruct_cge_kept_set(self, tmp_path):
        # Acceptance criterion: run a fault-sweep cell with telemetry
        # enabled, then re-derive every round's gradient matrix and check
        # the JSONL "kept" sets against what
        # ComparativeGradientElimination.kept_indices computes on it.
        from repro.experiments.sweep import RegressionGrid, SweepEngine

        grid = RegressionGrid(
            filters=("cge",), attacks=("sign-flip",), fault_counts=(1,),
            num_seeds=2, master_seed=7, n=6, d=2, noise_std=0.0, iterations=25,
        )
        telemetry_dir = str(tmp_path / "telemetry")
        engine = SweepEngine(parallel=False, telemetry_dir=telemetry_dir)
        cells = engine.run_regression_grid(grid)
        assert not any(cell.failed for cell in cells)

        stream = os.path.join(telemetry_dir, "f1-cge-sign-flip.jsonl")
        records = load_jsonl(stream)
        rounds = [r for r in records if r["event"] == "round"]
        assert len(rounds) == grid.num_seeds * grid.iterations

        instance = make_redundant_regression(
            n=grid.n, d=grid.d, f=grid.resolved_redundancy_f(),
            noise_std=grid.noise_std, seed=grid.instance_seed,
        )
        cge = ComparativeGradientElimination(1)
        # The recording wrapper must replay the sweep's trajectory exactly,
        # so pin the step schedule the sweep's default inference chose for
        # CGE (the wrapper would otherwise infer a mean-scale schedule).
        from repro.system.runner import _default_schedule

        schedule = _default_schedule(instance.costs, cge)
        for run_index, seed in enumerate(grid.seeds()):
            recorder = _MatrixRecorder(ComparativeGradientElimination(1))
            run_dgd(
                instance.costs, make_attack("sign-flip"),
                gradient_filter=recorder, faulty_ids=(0,), f=1,
                iterations=grid.iterations, seed=seed,
                step_sizes=schedule,
            )
            run_rounds = sorted(
                (r for r in rounds if r["run"] == run_index),
                key=lambda r: r["round"],
            )
            assert len(run_rounds) == grid.iterations == len(recorder.matrices)
            for record, matrix in zip(run_rounds, recorder.matrices):
                expected = [int(i) for i in cge.kept_indices(matrix)]
                assert record["kept"] == expected
                assert record["eliminated"] == sorted(set(range(6)) - set(expected))
        # With f=1 and agent 0 faulty under sign-flip, the stream's
        # roll-up scores elimination against the true Byzantine set.
        elimination = summarize_records(records)["elimination"]
        total = grid.num_seeds * grid.iterations
        assert elimination["true_positives"] + elimination["false_negatives"] == total

    def test_sweep_results_unchanged_by_telemetry(self, tmp_path):
        from repro.experiments.sweep import RegressionGrid, SweepEngine

        grid = RegressionGrid(
            filters=("cge",), attacks=("zero",), fault_counts=(1,),
            num_seeds=2, master_seed=3, n=6, d=2, iterations=20,
        )
        plain = SweepEngine(parallel=False).run_regression_grid(grid)
        instrumented = SweepEngine(
            parallel=False, telemetry_dir=str(tmp_path / "telemetry")
        ).run_regression_grid(grid)
        for before, after in zip(plain, instrumented):
            assert before.final_error == after.final_error
            assert np.array_equal(before.final_estimate, after.final_estimate)

    def test_sequential_backend_tags_run_starts(self, tmp_path):
        # The stateful clipping filter runs on the batch engine's
        # per-seed run_dgd fallback, which tags each run's slice.
        from repro.experiments.sweep import RegressionGrid, SweepEngine

        grid = RegressionGrid(
            filters=("clipping",), attacks=("zero",), fault_counts=(1,),
            num_seeds=2, master_seed=3, n=6, d=2, iterations=10,
        )
        telemetry_dir = str(tmp_path / "telemetry")
        SweepEngine(
            parallel=False, telemetry_dir=telemetry_dir
        ).run_regression_grid(grid)
        records = load_jsonl(os.path.join(telemetry_dir, "f1-clipping-zero.jsonl"))
        counts = count_events(records)
        assert counts["run_start"] == 2
        assert counts["round"] == 20
        starts = [r for r in records if r["event"] == "run_start"]
        assert [r["run"] for r in starts] == [0, 1]
        assert all(r["reason"] for r in starts)

    def test_sweep_events_share_schema_with_telemetry(self, tmp_path):
        # A sweep event log and a telemetry stream are interchangeable for
        # the post-mortem tooling: same loader, same counting.
        from repro.experiments.sweep import SweepEvents

        path = str(tmp_path / "events.jsonl")
        events = SweepEvents(path)
        events.emit("chunk_done", chunk=0)
        events.emit("cache_hit", f=1)
        assert SweepEvents.load is not None
        assert SweepEvents.load(path) == events.records
        assert count_events(load_jsonl(path)) == events.counts()
