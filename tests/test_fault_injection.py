"""Chaos harness unit tests: fault policies, atomic IO, and engine.map.

Each injectable failure mode (worker raises, worker process dies, worker
hangs, cache truncated/bit-flipped, transient pickle failure) is driven
through the layer that must survive it. Grid-level scenarios live in
``tests/test_sweep_resilience.py``.
"""

import json
import os
import pickle
import time
import warnings

import numpy as np
import pytest

from repro.exceptions import CacheIntegrityError, InjectedFault, InvalidParameterError
from repro.experiments.sweep import SweepEngine, SweepEvents
from repro.system.faultinjection import (
    CallCounter,
    CrashOnCalls,
    FailEveryNth,
    FailMatching,
    FailOnCalls,
    FaultyWorker,
    HangOnCalls,
    RandomFaults,
    TransientlyUnpicklable,
    corrupt_cache_entry,
    corrupt_json_file,
)
from repro.utils.atomicio import (
    payload_checksum,
    read_json_checked,
    write_json_atomic,
)


def _double(x):
    return 2 * x


class TestAtomicIO:
    def test_checksummed_round_trip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        payload = {"a": [1, 2.5, None], "b": "text"}
        write_json_atomic(path, payload)
        assert read_json_checked(path) == payload

    def test_wrapper_format_on_disk(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"x": 1})
        document = json.loads(open(path).read())
        assert set(document) == {"sha256", "payload"}
        assert document["sha256"] == payload_checksum({"x": 1})

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_json_atomic(str(tmp_path / "doc.json"), {"x": 1})
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_unchecksummed_write(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"x": 1}, checksum=False)
        assert json.loads(open(path).read()) == {"x": 1}

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"key": list(range(100))})
        corrupt_json_file(path, mode="truncate")
        with pytest.raises(CacheIntegrityError, match="malformed"):
            read_json_checked(path)

    def test_bitflipped_file_rejected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"key": list(range(100))})
        corrupt_json_file(path, mode="bitflip", seed=3)
        with pytest.raises(CacheIntegrityError):
            read_json_checked(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"x": 1})
        corrupt_json_file(path, mode="garbage")
        with pytest.raises(CacheIntegrityError, match="malformed"):
            read_json_checked(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CacheIntegrityError, match="cannot read"):
            read_json_checked(str(tmp_path / "absent.json"))

    def test_legacy_unwrapped_payload_readable(self, tmp_path):
        # Pre-checksum cache entries were bare payloads; they still load.
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as handle:
            json.dump({"final_error": 0.5}, handle)
        assert read_json_checked(path) == {"final_error": 0.5}
        with pytest.raises(CacheIntegrityError, match="no integrity checksum"):
            read_json_checked(path, require_checksum=True)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with open(path, "w") as handle:
            json.dump({"sha256": "0" * 64, "payload": {"x": 1}}, handle)
        with pytest.raises(CacheIntegrityError, match="checksum mismatch"):
            read_json_checked(path)

    def test_checksum_is_canonical(self):
        assert payload_checksum({"a": 1, "b": 2}) == payload_checksum({"b": 2, "a": 1})

    @pytest.mark.parametrize("checksum", [True, False])
    def test_unencodable_value_leaves_no_file(self, tmp_path, checksum):
        path = str(tmp_path / "doc.json")
        with pytest.raises(TypeError):
            write_json_atomic(
                path, {"a": [1.0, 2.0], "b": np.float32(3.0)}, checksum=checksum
            )
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("checksum", [True, False])
    @pytest.mark.parametrize(
        "payload",
        [
            {"values": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300]},
            {"text": "naïve ✓ \u2028 \"quoted\"\n", "ключ": ["é", ""]},
            {"ints": {0: "zero", 7: [1, 2]}, "flags": [True, False, None]},
            {"nested": {"a": [[], {}, [{}], {"b": [[[]]]}]}, "empty": {}},
            [],
            {},
        ],
    )
    def test_bytes_match_json_dump(self, tmp_path, payload, checksum):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, payload, checksum=checksum)
        document = (
            {"sha256": payload_checksum(payload), "payload": payload}
            if checksum
            else payload
        )
        expected = tmp_path / "expected.json"
        with open(expected, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert open(path, "rb").read() == expected.read_bytes()
        read_back = read_json_checked(path, require_checksum=checksum)
        assert json.dumps(read_back) == json.dumps(payload)


class TestCallCounter:
    def test_monotone_and_unique(self, tmp_path):
        counter = CallCounter(str(tmp_path / "calls"))
        assert [counter.claim() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert counter.value() == 5

    def test_shared_across_instances(self, tmp_path):
        directory = str(tmp_path / "calls")
        assert CallCounter(directory).claim() == 0
        assert CallCounter(directory).claim() == 1

    def test_value_without_directory(self, tmp_path):
        assert CallCounter(str(tmp_path / "never-created")).value() == 0


class TestPolicies:
    def test_fail_every_nth(self):
        policy = FailEveryNth(3)
        for index in (0, 1, 3, 4, 6):
            policy.apply(index, None)
        for index in (2, 5, 8):
            with pytest.raises(InjectedFault):
                policy.apply(index, None)

    def test_fail_every_nth_validates(self):
        with pytest.raises(InvalidParameterError):
            FailEveryNth(0)

    def test_fail_on_calls(self):
        policy = FailOnCalls((1, 4))
        policy.apply(0, None)
        with pytest.raises(InjectedFault):
            policy.apply(4, None)

    def test_fail_matching_is_item_keyed(self):
        policy = FailMatching("poison")
        policy.apply(0, {"name": "fine"})
        with pytest.raises(InjectedFault):
            policy.apply(0, {"name": "poison"})
        with pytest.raises(InjectedFault):  # persists across retries
            policy.apply(99, {"name": "poison"})

    def test_hang_on_calls_sleeps(self):
        policy = HangOnCalls((1,), duration=0.2)
        start = time.perf_counter()
        policy.apply(0, None)
        assert time.perf_counter() - start < 0.1
        start = time.perf_counter()
        policy.apply(1, None)
        assert time.perf_counter() - start >= 0.2

    def test_random_faults_deterministic(self):
        policy = RandomFaults(rate=0.5, seed=7)
        decisions = []
        for index in range(50):
            try:
                policy.apply(index, None)
                decisions.append(False)
            except InjectedFault:
                decisions.append(True)
        replay = []
        for index in range(50):
            try:
                RandomFaults(rate=0.5, seed=7).apply(index, None)
                replay.append(False)
            except InjectedFault:
                replay.append(True)
        assert decisions == replay
        assert any(decisions) and not all(decisions)

    def test_random_faults_extremes_and_validation(self):
        RandomFaults(rate=0.0).apply(0, None)  # never fires
        with pytest.raises(InjectedFault):
            RandomFaults(rate=1.0).apply(0, None)
        with pytest.raises(InvalidParameterError):
            RandomFaults(rate=1.5)

    def test_policies_are_picklable(self):
        policies = (
            FailEveryNth(5), FailOnCalls((1,)), FailMatching("x"),
            HangOnCalls((2,), 0.1), CrashOnCalls((3,)), RandomFaults(0.2, seed=1),
        )
        assert pickle.loads(pickle.dumps(policies)) == policies


class TestFaultyWorker:
    def test_applies_policies_with_shared_counter(self, tmp_path):
        worker = FaultyWorker(
            _double, [FailOnCalls((1,))], counter_dir=str(tmp_path / "calls")
        )
        assert worker(3) == 6  # call 0
        with pytest.raises(InjectedFault):
            worker(4)  # call 1
        assert worker(4) == 8  # call 2: the retry succeeds

    def test_local_counter_fallback(self):
        worker = FaultyWorker(_double, [FailOnCalls((0,))])
        with pytest.raises(InjectedFault):
            worker(1)
        assert worker(1) == 2

    def test_picklable_and_counter_survives_round_trip(self, tmp_path):
        directory = str(tmp_path / "calls")
        worker = FaultyWorker(_double, [FailOnCalls((1,))], counter_dir=directory)
        clone = pickle.loads(pickle.dumps(worker))
        assert clone(3) == 6  # claims global call 0
        with pytest.raises(InjectedFault):
            worker(3)  # claims global call 1 — counter is shared state


class TestTransientlyUnpicklable:
    def test_transient_then_recovers(self, tmp_path):
        worker = TransientlyUnpicklable(_double, failures=2,
                                        state_dir=str(tmp_path / "pk"))
        assert worker(5) == 10
        for _ in range(2):
            with pytest.raises(pickle.PicklingError):
                pickle.dumps(worker)
        clone = pickle.loads(pickle.dumps(worker))  # third attempt succeeds
        assert clone(5) == 10


class TestCorruptors:
    def test_modes_change_bytes(self, tmp_path):
        for mode in ("truncate", "bitflip", "garbage"):
            path = str(tmp_path / f"{mode}.json")
            write_json_atomic(path, {"data": list(range(50))})
            before = open(path, "rb").read()
            corrupt_json_file(path, mode=mode)
            assert open(path, "rb").read() != before

    def test_bad_mode_rejected(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"x": 1})
        with pytest.raises(InvalidParameterError, match="mode"):
            corrupt_json_file(path, mode="wavehands")

    def test_cache_entry_selection_skips_manifest(self, tmp_path):
        write_json_atomic(str(tmp_path / "aaa.json"), {"x": 1})
        write_json_atomic(str(tmp_path / "manifest-123.json"), {"cells": []})
        corrupted = corrupt_cache_entry(str(tmp_path), index=0, mode="garbage")
        assert corrupted.endswith("aaa.json")
        assert json.loads(open(tmp_path / "manifest-123.json").read())

    def test_out_of_range_entry_rejected(self, tmp_path):
        write_json_atomic(str(tmp_path / "aaa.json"), {"x": 1})
        with pytest.raises(InvalidParameterError, match="cannot corrupt"):
            corrupt_cache_entry(str(tmp_path), index=5)


class TestSweepEvents:
    def test_emit_counts_and_jsonl_mirror(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = SweepEvents(path)
        events.emit("cache_hit", seed=1)
        events.emit("cache_hit", seed=2)
        events.emit("chunk_done", chunk=0, elapsed=0.5)
        assert events.counts() == {"cache_hit": 2, "chunk_done": 1}
        assert SweepEvents.load(path) == events.records

    def test_load_skips_truncated_final_line(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        events = SweepEvents(path)
        events.emit("cache_hit")
        with open(path, "a") as handle:
            handle.write('{"event": "chunk_d')  # killed mid-write
        assert SweepEvents.load(path) == [{"event": "cache_hit"}]

    def test_in_memory_by_default(self):
        events = SweepEvents()
        events.emit("quarantine")
        assert events.path is None
        assert events.counts() == {"quarantine": 1}


class TestEngineMapChaos:
    """engine.map survives every injectable failure mode."""

    def _engine(self, **kwargs):
        kwargs.setdefault("retry_backoff", 0.01)
        return SweepEngine(**kwargs)

    def test_transient_failures_retried_inprocess(self, tmp_path):
        worker = FaultyWorker(
            _double, [FailOnCalls((0, 2))], counter_dir=str(tmp_path / "calls")
        )
        engine = self._engine(parallel=False, retries=2)
        assert engine.map(worker, [1, 2, 3]) == [2, 4, 6]
        assert engine.events.counts()["item_retry"] == 2

    def test_persistent_failure_quarantined_with_handler(self):
        worker = FaultyWorker(_double, [FailMatching("13")])
        engine = self._engine(parallel=False, retries=1)
        result = engine.map(
            worker, [12, 13, 14], on_item_error=lambda exc, item: ("failed", item)
        )
        assert result == [24, ("failed", 13), 28]
        assert engine.events.counts()["quarantine"] == 1

    def test_persistent_failure_raises_without_handler(self):
        worker = FaultyWorker(_double, [FailMatching("13")])
        engine = self._engine(parallel=False, retries=1)
        with pytest.raises(InjectedFault):
            engine.map(worker, [12, 13, 14])

    def test_pool_transient_failures_recover(self, tmp_path):
        worker = FaultyWorker(
            _double, [FailOnCalls((1,))], counter_dir=str(tmp_path / "calls")
        )
        engine = self._engine(parallel=True, max_workers=2, retries=3)
        items = list(range(6))
        assert engine.map(worker, items, chunk_size=1) == [2 * x for x in items]
        counts = engine.events.counts()
        assert counts.get("chunk_retry", 0) >= 1
        assert "quarantine" not in counts

    def test_pool_worker_crash_rebuilds_and_recovers(self, tmp_path):
        worker = FaultyWorker(
            _double, [CrashOnCalls((0,))], counter_dir=str(tmp_path / "calls")
        )
        engine = self._engine(parallel=True, max_workers=2, retries=3)
        items = list(range(4))
        assert engine.map(worker, items, chunk_size=1) == [2 * x for x in items]
        counts = engine.events.counts()
        assert counts.get("chunk_crash", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_pool_hung_chunk_times_out_and_recovers(self, tmp_path):
        worker = FaultyWorker(
            _double, [HangOnCalls((0,), duration=5.0)],
            counter_dir=str(tmp_path / "calls"),
        )
        engine = self._engine(parallel=True, max_workers=2, retries=3, timeout=1.0)
        start = time.perf_counter()
        assert engine.map(worker, [1, 2, 3], chunk_size=1) == [2, 4, 6]
        assert time.perf_counter() - start < 5.0  # did not wait the hang out
        counts = engine.events.counts()
        assert counts.get("chunk_timeout", 0) >= 1
        assert counts.get("pool_rebuild", 0) >= 1

    def test_transient_pickle_failure_degrades_then_pools(self, tmp_path):
        worker = TransientlyUnpicklable(_double, failures=1,
                                        state_dir=str(tmp_path / "pk"))
        engine = self._engine(parallel=True, max_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert engine.map(worker, [1, 2, 3]) == [2, 4, 6]
        assert any("picklable" in str(w.message) for w in caught)
        assert engine.events.counts().get("fallback") == 1
        # Transient has passed: the next map pools without a new fallback.
        assert engine.map(worker, [4, 5]) == [8, 10]
        assert engine.events.counts().get("fallback") == 1

    def test_unpicklable_warns_once_per_engine(self):
        engine = self._engine(parallel=True, max_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert engine.map(lambda x: x + 1, [1, 2]) == [2, 3]
            assert engine.map(lambda x: x + 1, [3, 4]) == [4, 5]
        assert sum("picklable" in str(w.message) for w in caught) == 1
        assert engine.events.counts()["fallback"] == 2  # logged every time

    def test_pool_unavailable_degrades_inprocess(self, monkeypatch):
        from repro.experiments import sweep as sweep_module

        def refuse(self, workers):
            raise sweep_module._PoolUnavailable("no pool for you")

        monkeypatch.setattr(sweep_module.SharedProcessPool, "get", refuse)
        engine = self._engine(parallel=True, max_workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert engine.map(_double, [1, 2, 3]) == [2, 4, 6]
        assert any("process pool unavailable" in str(w.message) for w in caught)
        assert engine.events.counts()["fallback"] == 1
