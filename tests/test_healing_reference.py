"""The message-level simulator against its reference network layer.

``PartiallySynchronousNetwork`` queues in-flight copies per receiver and
joins each message's fault-draw key once; both networks log plain rows
and build ``DeliveryRecord`` objects when the log is read; checkpoints
hex only the trajectory rows added since the last one and are encoded in
one ``json.dumps`` call; the server reads its healing rules off the fault
model and tracks liveness per agent→server edge. None of that may change
an output, so every run here must equal :mod:`tests.healing_reference`
byte for byte: the trajectory, the traffic counters, ``extra``, the
telemetry records, the delivery log and every checkpoint document
written. Checkpoint fingerprints also name the fault profiles,
``reorder`` and the attack; those keys are removed before comparing, and
the reference documents are translated to the current checkpoint version
(:func:`_translate`).

Two rules were fixed after the reference was frozen: a quarantined
payload is not silence, and a round stalls below its filter's minimum
input count. Every run is therefore compared with the frozen server under
the fixed rules (``FixedRulesReferenceServer``), and that one with the
frozen server as it was wherever neither fix applies.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import tempfile
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.adaptive import ALittleIsEnough
from repro.attacks.simple import GradientReverse, ZeroGradient
from repro.exceptions import InvalidParameterError, ReproError
from repro.observability import Telemetry
from repro.problems.linear_regression import make_redundant_regression
from repro.system.faultinjection import (
    KeyedDraws,
    deterministic_choice,
    deterministic_draw,
)
from repro.system.netfaults import CORRUPTION_MODES, FaultProfile, NetworkFaultModel
from repro.system.peer_to_peer import _degrade_agreed_rows
from repro.system.runner import run_dgd
from repro.utils.atomicio import read_json_checked
from tests.healing_reference import (
    FixedRulesReferenceServer,
    ReferenceResiliencePolicy,
    reference_degrade_agreed_rows,
    reference_deterministic_choice,
    reference_deterministic_draw,
    reference_run_dgd,
)

#: The fingerprint keys the reference checkpoints do not carry.
NEW_FINGERPRINT_KEYS = ("fault_profiles", "reorder", "behavior")
#: The tags the per-agent and peer-to-peer overlays draw under.
OVERLAY_TAGS = ("drop", "delay", "delay-len", "corrupt", "dup", "dup-delay")
ATTACKS = {
    "gradient-reverse": GradientReverse,
    "zero": ZeroGradient,
    "alie": ALittleIsEnough,
}


def _checkpoints(path):
    """A round hook that reads every checkpoint document as it lands,
    keyed by its round, and the dict it fills."""
    documents = {}

    def hook(_t, _server):
        if os.path.exists(path):
            payload = read_json_checked(path, require_checksum=True)
            documents[payload["round"]] = payload

    return hook, documents


def _run(runner, costs, behavior, kwargs, path=None):
    """One run with telemetry and, when ``path`` is set, its checkpoint
    documents; returns the trace (or the error the run raised), the
    telemetry, the documents and the warnings raised."""
    telemetry = Telemetry()
    hook, documents = (None, {}) if path is None else _checkpoints(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = runner(
                costs,
                behavior,
                telemetry=telemetry,
                round_hook=hook,
                checkpoint_path=path,
                **kwargs,
            )
        except ReproError as exc:
            # Configurations the protocol rejects mid-run (a filter short
            # of gradients, silence with no fault budget) must fail alike.
            outcome = exc
    if path is not None:
        hook(None, None)
    return outcome, telemetry, documents, [str(w.message) for w in caught]


def _records(telemetry, stalled_quorum=True):
    """Telemetry records without their timings and checkpoint paths (and,
    unless ``stalled_quorum``, without the quorum a stall names)."""
    out = []
    for record in telemetry.records:
        record = dict(record)
        if record["event"] == "span":
            record = {"event": "span", "name": record["name"]}
        if record["event"] == "resume":
            record["path"] = os.path.basename(record["path"])
        if record["event"] == "stalled" and not stalled_quorum:
            record.pop("quorum")
        out.append(record)
    return out


def _strip(document):
    document = json.loads(json.dumps(document))
    for key in NEW_FINGERPRINT_KEYS:
        document["fingerprint"].pop(key)
    return document


def _frozen_policy(kwargs):
    """The policy the reference derives for a configuration's model."""
    model = kwargs.get("fault_model")
    return ReferenceResiliencePolicy.for_model(
        NetworkFaultModel() if model is None else model
    )


def _translate(document, tracked):
    """A reference checkpoint document in the form the simulator writes.

    The server's ``liveness`` block changed shape, so the version went
    from 1 to 2:

    - Where silence eliminates (``tracked`` false) the server tracks no
      liveness and writes ``null``. The reference tracker there only saw
      agents that answered, since a silent one is eliminated at once, so
      its block must hold no misses, no suspicion and no reinstatement;
      that is checked before the block is dropped.
    - Elsewhere no agent is ever eliminated and the block is the per-edge
      state of the ``n`` agent→server edges: the per-agent maps become
      lists indexed by agent, the suspected ids a boolean mask, and the
      threshold (a constant now) is dropped. This part is exact.
    """
    document = json.loads(json.dumps(document))
    assert document["version"] == 1
    document["version"] = 2
    server = document["server"]
    block = server["liveness"]
    if not tracked:
        assert not any(block["misses"].values()), block
        assert block["suspected"] == [] and block["reinstatements"] == 0, block
        server["liveness"] = None
        return document
    agents = [str(i) for i in range(server["n"])]
    assert list(block["misses"]) == list(block["last_seen"]) == agents, block
    server["liveness"] = {
        "misses": [block["misses"][a] for a in agents],
        "last_seen": [block["last_seen"][a] for a in agents],
        "suspected": [int(a) in block["suspected"] for a in agents],
        "reinstatements": block["reinstatements"],
    }
    return document


def _fixed_defect(kwargs, parent_outcome):
    """Whether a configuration is one of those the two fixed rules change:
    quarantine where silence eliminates, or a round short of its filter's
    minimum inputs (which the frozen server let the filter reject)."""
    policy = _frozen_policy(kwargs)
    return (policy.eliminate_on_silence and policy.quarantine_non_finite) or (
        isinstance(parent_outcome, InvalidParameterError)
        and "requires at least" in str(parent_outcome)
    )


def _assert_same_trace(ref, new, compare_extra=True):
    for name in ("estimates", "directions"):
        a, b = getattr(ref, name), getattr(new, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    for name in (
        "honest_ids",
        "faulty_ids",
        "eliminated",
        "crash_ids",
        "filter_name",
        "messages_delivered",
        "bytes_delivered",
        "messages_dropped",
        "bytes_dropped",
    ):
        assert getattr(ref, name) == getattr(new, name), name
    if compare_extra:
        assert repr(ref.extra) == repr(new.extra)


def _assert_same_run(ref, other, tracked, new=True):
    """``other`` (the simulator when ``new``, else the fixed-rules
    reference) against the reference run ``ref``."""
    ref_trace, ref_tel, ref_documents, ref_warnings = ref
    trace, tel, documents, caught = other
    if isinstance(ref_trace, ReproError):
        assert repr(ref_trace) == repr(trace)
    else:
        _assert_same_trace(ref_trace, trace)
    assert repr(_records(ref_tel, new)) == repr(_records(tel, new))
    assert ref_warnings == caught
    assert sorted(ref_documents) == sorted(documents)
    for round_index, document in documents.items():
        want = _translate(ref_documents[round_index], tracked)
        got = _strip(document) if new else _translate(document, tracked)
        assert json.dumps(got) == json.dumps(want), round_index


def _compare(costs, behavior, kwargs, checkpointed):
    """Run the frozen server, the frozen server under the fixed rules and
    the simulator; returns the simulator's trace, its checkpoint
    documents and whether the frozen server itself was matched."""
    runners = {
        "parent": reference_run_dgd,
        "fixed": partial(reference_run_dgd, server_class=FixedRulesReferenceServer),
        "new": run_dgd,
    }
    with tempfile.TemporaryDirectory() as directory:
        runs = {
            name: _run(
                runner, costs, behavior, kwargs,
                os.path.join(directory, f"{name}.json") if checkpointed else None,
            )
            for name, runner in runners.items()
        }
    tracked = not _frozen_policy(kwargs).eliminate_on_silence
    _assert_same_run(runs["fixed"], runs["new"], tracked)
    pinned_to_parent = not _fixed_defect(kwargs, runs["parent"][0])
    if pinned_to_parent:
        # The fixed rules change nothing else, apart from the quorum a
        # stall names.
        _assert_same_run(runs["parent"], runs["fixed"], tracked, new=False)
    new_trace, _, new_documents, _ = runs["new"]
    return new_trace, new_documents, pinned_to_parent


# ----------------------------------------------------------------------
# Random configurations
# ----------------------------------------------------------------------

probabilities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
fault_seeds = st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**64 + 2**10))


@st.composite
def fault_profiles(draw, iterations):
    delay_prob = draw(probabilities)
    crash_round = draw(st.one_of(st.none(), st.integers(0, iterations)))
    recover_round = None
    if crash_round is not None and draw(st.booleans()):
        recover_round = crash_round + draw(st.integers(1, 6))
    return FaultProfile(
        drop_prob=draw(probabilities),
        delay_prob=delay_prob,
        max_delay=draw(st.integers(1 if delay_prob > 0 else 0, 3)),
        duplicate_prob=draw(probabilities),
        corrupt_prob=draw(probabilities),
        corrupt_mode=draw(st.sampled_from(CORRUPTION_MODES)),
        straggle_every=draw(st.sampled_from([0, 0, 1, 3])),
        straggle_delay=draw(st.integers(1, 2)),
        crash_round=crash_round,
        recover_round=recover_round,
    )


@st.composite
def simulator_cases(draw):
    n = draw(st.integers(2, 13))
    f = draw(st.integers(0, (n - 1) // 2))
    faulty = sorted(draw(st.sets(st.integers(0, n - 1), min_size=f, max_size=f)))
    dimension = draw(st.integers(1, min(3, max(1, n - 2 * f))))
    iterations = draw(st.integers(1, 24))
    model_kind = draw(st.sampled_from(["none", "null", "faults", "faults"]))
    fault_model = None
    if model_kind == "null":
        fault_model = NetworkFaultModel()
    elif model_kind == "faults":
        profiled = draw(st.sets(st.integers(0, n - 1)))
        fault_model = NetworkFaultModel(
            profiles={i: draw(fault_profiles(iterations)) for i in sorted(profiled)},
            seed=draw(fault_seeds),
            reorder=draw(st.booleans()),
        )
    checkpoint_every = draw(st.one_of(st.none(), st.integers(1, 8)))
    attack = draw(st.sampled_from(sorted(ATTACKS)))
    kwargs = dict(
        gradient_filter=draw(st.sampled_from(["cge", "cwtm", "median", "average"])),
        faulty_ids=faulty,
        iterations=iterations,
        seed=draw(st.integers(0, 2**32 - 1)),
        fault_model=fault_model,
        record_messages=draw(st.booleans()),
        log_capacity=draw(st.sampled_from([4, 10_000])),
    )
    if checkpoint_every is not None:
        kwargs["checkpoint_every"] = checkpoint_every
    return {
        "n": n,
        "f": f,
        "dimension": dimension,
        "instance_seed": draw(st.integers(0, 2**16)),
        "attack": attack,
        "checkpointed": checkpoint_every is not None,
        "kwargs": kwargs,
    }


class TestRunMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(case=simulator_cases())
    def test_every_output_matches(self, case):
        instance = make_redundant_regression(
            n=case["n"],
            d=case["dimension"],
            f=case["f"],
            noise_std=0.0,
            seed=case["instance_seed"],
        )
        _compare(
            instance.costs,
            ATTACKS[case["attack"]](),
            case["kwargs"],
            case["checkpointed"],
        )


# ----------------------------------------------------------------------
# Kill and resume
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
def test_kill_and_resume_matches_uninterrupted_reference(mode, tmp_path):
    n, f = 7, 2
    instance = make_redundant_regression(n=n, d=3, f=f, noise_std=0.0, seed=4)
    chaotic = FaultProfile(
        drop_prob=0.1,
        delay_prob=0.3,
        max_delay=2,
        duplicate_prob=0.3,
        corrupt_prob=0.2,
        corrupt_mode=mode,
    )
    profiles = {i: chaotic for i in range(n)}
    profiles[2] = FaultProfile(straggle_every=3, straggle_delay=2, corrupt_prob=0.2,
                               corrupt_mode=mode)
    profiles[3] = FaultProfile(crash_round=9, recover_round=16, duplicate_prob=0.5)
    kwargs = dict(
        gradient_filter="cge",
        faulty_ids=[1, 5],
        iterations=40,
        seed=11,
        fault_model=NetworkFaultModel(profiles=profiles, seed=2**63 + 17, reorder=True),
        checkpoint_every=7,
    )

    class Killed(RuntimeError):
        pass

    def killer(t, _server):
        if t == 23:
            raise Killed()

    new_path = str(tmp_path / "new.json")
    with pytest.raises(Killed):
        run_dgd(instance.costs, GradientReverse(), round_hook=killer,
                checkpoint_path=new_path, **kwargs)
    assert read_json_checked(new_path)["round"] == 21
    resumed = run_dgd(instance.costs, GradientReverse(), checkpoint_path=new_path, **kwargs)
    assert resumed.extra["resumed_from_round"] == 21

    ref_path = str(tmp_path / "ref.json")
    reference = reference_run_dgd(
        instance.costs, GradientReverse(), checkpoint_path=ref_path, **kwargs
    )
    _assert_same_trace(reference, resumed, compare_extra=False)
    assert reference.extra["traffic"]["messages_corrupted"] > 0
    assert repr(dict(reference.extra, resumed_from_round=21)) == repr(resumed.extra)
    final = _strip(read_json_checked(new_path))
    want = _translate(read_json_checked(ref_path), tracked=True)
    assert json.dumps(final) == json.dumps(want)


def test_version_one_checkpoint_restarts_fresh(tmp_path):
    instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=4)
    kwargs = dict(
        gradient_filter="cge",
        faulty_ids=[1],
        iterations=20,
        seed=3,
        fault_model=NetworkFaultModel.uniform(
            range(6), FaultProfile(drop_prob=0.2), seed=5
        ),
        checkpoint_every=5,
    )
    path = str(tmp_path / "run.json")
    reference_run_dgd(instance.costs, GradientReverse(), checkpoint_path=path, **kwargs)
    assert read_json_checked(path)["version"] == 1
    with pytest.warns(UserWarning, match="version 1 "):
        trace = run_dgd(instance.costs, GradientReverse(), checkpoint_path=path, **kwargs)
    assert trace.extra["resumed_from_round"] == 0
    assert read_json_checked(path)["version"] == 2
    fresh = run_dgd(instance.costs, GradientReverse(), **kwargs)
    assert trace.estimates.tobytes() == fresh.estimates.tobytes()


# ----------------------------------------------------------------------
# The benchmark's server paths
# ----------------------------------------------------------------------

N, D, F, ITERATIONS = 12, 4, 3, 300


def _benchmark_inputs(seed):
    """The repository benchmark's ``message_passing`` server inputs: ALIE
    against CGE at n=12, d=4, f=3, 300 rounds, and a per-agent fault model
    with drops, delays, duplicates, corruption, one straggler and one
    crash-recovery window."""
    rng = np.random.default_rng([seed, 12])
    instance_seed, fault_seed, run_seed, _ = (
        int(v) for v in rng.integers(0, 2**31 - 1, size=4)
    )
    faulty = tuple(sorted(int(i) for i in rng.choice(N, size=F, replace=False)))
    rng.choice(10, size=F, replace=False)  # the peer-to-peer path's placement
    honest = [i for i in range(N) if i not in faulty]
    straggler, crashed = (int(i) for i in rng.choice(honest, size=2, replace=False))
    chaotic = FaultProfile(drop_prob=0.05, delay_prob=0.1, max_delay=2,
                           duplicate_prob=0.05, corrupt_prob=0.02)
    profiles = {i: chaotic for i in range(N)}
    profiles[straggler] = FaultProfile(drop_prob=0.05, straggle_every=7,
                                       straggle_delay=1)
    profiles[crashed] = FaultProfile(drop_prob=0.05, crash_round=ITERATIONS // 3,
                                     recover_round=ITERATIONS // 3 + 10)
    return {
        "instance": make_redundant_regression(n=N, d=D, f=F, noise_std=0.0,
                                              seed=instance_seed),
        "faulty": faulty,
        "fault_model": NetworkFaultModel(profiles=profiles, seed=fault_seed),
        "run_seed": run_seed,
    }


@pytest.fixture(scope="module")
def perfbench_inputs():
    """The ``_inputs`` function of ``perfbench/message_passing.py``."""
    directory = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
    sys.path.insert(0, directory)
    try:
        return importlib.import_module("message_passing")._inputs
    finally:
        sys.path.remove(directory)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_inputs_are_the_benchmarks(seed, perfbench_inputs):
    ours, theirs = _benchmark_inputs(seed), perfbench_inputs(seed)
    for name in ("faulty", "fault_model", "run_seed"):
        assert ours[name] == theirs[name], name
    assert isinstance(theirs["behavior"], ALittleIsEnough)
    for name in ("A", "b"):
        assert (getattr(ours["instance"], name).tobytes()
                == getattr(theirs["instance"], name).tobytes())


@pytest.mark.parametrize("path", ["sync", "healing"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_configuration_matches_reference(seed, path):
    inputs = _benchmark_inputs(seed)
    kwargs = dict(
        gradient_filter="cge",
        faulty_ids=inputs["faulty"],
        iterations=ITERATIONS,
        seed=inputs["run_seed"],
    )
    if path == "healing":
        kwargs["fault_model"] = inputs["fault_model"]
    trace, documents, pinned_to_parent = _compare(
        inputs["instance"].costs, ALittleIsEnough(), kwargs, path == "healing"
    )
    assert pinned_to_parent
    if path == "sync":
        assert trace.messages_delivered == 2 * N * ITERATIONS
    else:
        assert sorted(documents) == list(range(25, ITERATIONS + 1, 25))


# ----------------------------------------------------------------------
# The draws and the peer-to-peer overlay
# ----------------------------------------------------------------------

key_parts = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-1000, 1000).map(np.int64),
    st.integers(0, 1000).map(np.uint32),
    st.sampled_from(["p2p", "x"]),
)


class TestKeyedDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**32), st.integers(2**63, 2**66)),
        key=st.lists(key_parts, max_size=5),
        low=st.integers(-5, 5),
        span=st.integers(0, 9),
    )
    def test_matches_the_standalone_draws(self, seed, key, low, span):
        draws = KeyedDraws(seed, *key)
        for tag in OVERLAY_TAGS:
            expected = reference_deterministic_draw(seed, tag, *key)
            assert draws.draw(tag) == expected == deterministic_draw(seed, tag, *key)
            choice = reference_deterministic_choice(seed, low, low + span, tag, *key)
            assert draws.choice(low, low + span, tag) == choice
            assert deterministic_choice(seed, low, low + span, tag, *key) == choice

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            KeyedDraws(0, 1).choice(3, 2, "delay-len")


@st.composite
def overlay_cases(draw):
    n = draw(st.integers(1, 8))
    iterations = draw(st.integers(1, 12))
    profiled = draw(st.sets(st.integers(0, n - 1)))
    return {
        "n": n,
        "iterations": iterations,
        "model": NetworkFaultModel(
            profiles={i: draw(fault_profiles(iterations)) for i in sorted(profiled)},
            seed=draw(fault_seeds),
        ),
        "rows_seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=100, deadline=None)
@given(case=overlay_cases())
def test_peer_to_peer_overlay_matches_reference(case):
    n, dimension = case["n"], 3
    policy = ReferenceResiliencePolicy.for_model(case["model"])
    rng = np.random.default_rng(case["rows_seed"])
    states = []
    for _ in range(2):
        counters = dict.fromkeys(
            ("dropped", "delayed", "corrupted", "quarantined", "stale_reuses",
             "zero_filled"), 0)
        states.append(([], {}, counters))
    for t in range(case["iterations"]):
        rows = [rng.normal(size=dimension) for _ in range(n)]
        outputs = [
            reference_degrade_agreed_rows(
                list(rows), t, case["model"], policy, *states[0], dimension
            ),
            _degrade_agreed_rows(list(rows), t, case["model"], *states[1], dimension),
        ]
        assert [r.tobytes() for r in outputs[0]] == [r.tobytes() for r in outputs[1]]
    assert states[0][2] == states[1][2]
    assert repr(states[0][:2]) == repr(states[1][:2])
