"""Unit tests for the service's queue, specs, and durable job store."""

import os

import pytest

from repro.exceptions import AdmissionRejectedError, InvalidParameterError
from repro.service import (
    JobQueue,
    JobRecord,
    JobSpec,
    JobStore,
    ServiceConfig,
    grid_from_params,
    validate_job_spec,
)


def _record(store, kind="run", params=None, client="anonymous", priority=0):
    spec = validate_job_spec({
        "kind": kind, "params": params or {}, "client": client,
        "priority": priority,
    })
    return store.create(spec)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown job kind"):
            validate_job_spec({"kind": "mystery"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InvalidParameterError, match="bogus"):
            validate_job_spec({"kind": "sweep", "params": {"bogus": 1}})

    def test_unregistered_filter_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown filter"):
            validate_job_spec({"kind": "sweep",
                               "params": {"filters": ["nope"]}})

    def test_unregistered_attack_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown attack"):
            validate_job_spec({"kind": "run", "params": {"attack": "nope"}})

    def test_ill_typed_value_rejected(self):
        with pytest.raises(InvalidParameterError, match="num_seeds"):
            validate_job_spec({"kind": "sweep",
                               "params": {"num_seeds": "ten"}})
        with pytest.raises(InvalidParameterError, match="num_seeds"):
            validate_job_spec({"kind": "sweep", "params": {"num_seeds": 0}})

    @pytest.mark.parametrize("kind, params", [
        ("run", {"n": 4, "f": 4}),
        ("sweep", {"x0": ["a", "b"]}),
        ("sweep", {"x0": [1, 2, 3]}),
        ("sweep", {"n": 6, "d": 5}),
        ("sweep", {"noise_std": -0.5}),
        ("run", {"filter": "bulyan"}),
    ])
    def test_unbuildable_instance_rejected(self, kind, params):
        # Each of these used to be admitted and then fail in the executor
        # (the run job) or in every cell (the sweeps).
        with pytest.raises(InvalidParameterError):
            validate_job_spec({"kind": kind, "params": params})

    def test_instance_checks_follow_executor_defaults(self):
        # A sweep's instance f is its largest fault count, as in
        # RegressionGrid.resolved_redundancy_f; a run's is its own f.
        validate_job_spec({"kind": "sweep", "params": {"x0": [1, 2]}})
        validate_job_spec({"kind": "sweep", "params": {"n": 7, "d": 5}})
        with pytest.raises(InvalidParameterError, match="n - 2f >= d"):
            validate_job_spec({"kind": "sweep",
                               "params": {"n": 7, "d": 4, "fault_counts": [2]}})
        validate_job_spec({"kind": "run", "params": {"n": 4, "f": 0, "d": 4}})
        with pytest.raises(InvalidParameterError, match="2f < n"):
            validate_job_spec({"kind": "run", "params": {"f": 3}})

    def test_bench_requires_registered_name(self):
        with pytest.raises(InvalidParameterError):
            validate_job_spec({"kind": "bench",
                               "params": {"name": "no-such-bench"}})

    def test_valid_sweep_spec_round_trips_to_grid(self):
        spec = validate_job_spec({
            "kind": "sweep",
            "params": {"filters": ["cge"], "attacks": ["zero"],
                       "fault_counts": [1], "num_seeds": 2,
                       "iterations": 10, "telemetry": True},
        })
        grid = grid_from_params(spec.params)
        assert grid.filters == ("cge",)
        assert grid.attacks == ("zero",)
        assert grid.num_seeds == 2

    def test_spec_hash_stable_and_order_independent(self):
        a = JobSpec("run", {"n": 6, "seed": 1})
        b = JobSpec("run", {"seed": 1, "n": 6})
        assert a.spec_hash() == b.spec_hash()
        assert a.spec_hash() != JobSpec("run", {"n": 6, "seed": 2}).spec_hash()


class TestAdmissionControl:
    def test_depth_bound_rejects_with_structured_error(self, tmp_path):
        store = JobStore(str(tmp_path))
        queue = JobQueue(max_depth=2, per_client=10)
        queue.submit(_record(store))
        queue.submit(_record(store))
        with pytest.raises(AdmissionRejectedError) as info:
            queue.submit(_record(store))
        assert info.value.reason == "queue-full"
        assert info.value.limit == 2
        assert info.value.queue_depth == 2
        assert info.value.status == 429

    def test_per_client_cap_counts_running_jobs(self, tmp_path):
        store = JobStore(str(tmp_path))
        queue = JobQueue(max_depth=10, per_client=2)
        queue.submit(_record(store, client="alice"))
        queue.submit(_record(store, client="alice"))
        running = queue.pop()  # still charged to alice while running
        with pytest.raises(AdmissionRejectedError) as info:
            queue.submit(_record(store, client="alice"))
        assert info.value.reason == "client-cap"
        # other clients are unaffected
        queue.submit(_record(store, client="bob"))
        # finishing releases the charge
        queue.finish(running)
        queue.submit(_record(store, client="alice"))

    def test_priority_order_then_submission_order(self, tmp_path):
        store = JobStore(str(tmp_path))
        queue = JobQueue()
        low = _record(store, priority=0)
        high = _record(store, priority=5)
        low2 = _record(store, priority=0)
        for record in (low, high, low2):
            queue.submit(record)
        assert queue.pop().job_id == high.job_id
        assert queue.pop().job_id == low.job_id
        assert queue.pop().job_id == low2.job_id
        assert queue.pop() is None

    def test_cancel_removes_queued_job(self, tmp_path):
        store = JobStore(str(tmp_path))
        queue = JobQueue()
        record = _record(store, client="alice")
        queue.submit(record)
        assert queue.cancel(record.job_id) is record
        assert queue.pop() is None
        assert queue.active_for("alice") == 0
        assert queue.cancel(record.job_id) is None

    def test_requeue_bypasses_admission(self, tmp_path):
        store = JobStore(str(tmp_path))
        queue = JobQueue(max_depth=1)
        queue.submit(_record(store))
        # recovery path: already-admitted work re-enters past the bound
        queue.requeue(_record(store))
        assert queue.depth == 2


class TestServiceConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("pool_workers", 0), ("max_queue", 0), ("per_client", 0),
        ("retries", -1), ("timeout", 0),
    ])
    def test_rejects_unusable_value(self, tmp_path, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            ServiceConfig(state_dir=str(tmp_path), **{field: value})

    def test_queue_bounds_raise_structured_error(self):
        with pytest.raises(InvalidParameterError, match="max_depth"):
            JobQueue(max_depth=0)
        with pytest.raises(InvalidParameterError, match="per_client"):
            JobQueue(per_client=0)


class TestJobStore:
    def test_manifest_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = _record(store, kind="sweep",
                         params={"filters": ["cge"], "num_seeds": 2},
                         client="alice", priority=3)
        record.state = "running"
        record.attempts = 1
        store.save(record)
        loaded = store.load(record.job_id)
        assert loaded.to_payload() == record.to_payload()
        assert loaded.spec.client == "alice"
        assert loaded.spec.priority == 3

    def test_load_all_in_submission_order_skips_corrupt(self, tmp_path):
        store = JobStore(str(tmp_path))
        first = _record(store)
        second = _record(store)
        third = _record(store)
        with open(store.manifest_path(second.job_id), "w") as handle:
            handle.write("{torn")
        loaded = store.load_all()
        assert [r.job_id for r in loaded] == [first.job_id, third.job_id]

    def test_sequence_numbers_survive_restart(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = _record(store)
        assert record.seq == 1
        reopened = JobStore(str(tmp_path))
        assert reopened.next_seq() == 2

    def test_result_round_trip(self, tmp_path):
        store = JobStore(str(tmp_path))
        record = _record(store)
        store.write_result(record.job_id, {"kind": "run", "final_error": 0.5})
        assert store.load_result(record.job_id)["final_error"] == 0.5
        assert os.path.exists(store.result_path(record.job_id))
