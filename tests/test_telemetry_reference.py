"""Round-record assembly against its frozen references.

``Telemetry.record_round`` builds one round's records for ``K`` runs at
once, and the server, peer-to-peer, decentralized and batch engines all
call it. None of that may change a record, so every stream here must equal
the one :mod:`tests.telemetry_reference` builds one run at a time, byte for
byte as the JSONL sink writes it, once span ``seconds``/``ts`` and the
summary's timing fields are zeroed.

One difference is documented: the batch and peer-to-peer engines now emit
a round's records inside that round's ``round`` span, as ``run_dgd`` does,
where they used to emit them after the span had closed. Their records
therefore come before the span's own record and, on a traced handle,
reference the round span instead of the ``run`` span.
:func:`_inside_round_spans` applies exactly that change to the reference
stream before comparing. The batch reference is the frozen loop;
peer-to-peer runs its own loop with the frozen builder called after each
round span, as :func:`_records_after_round_spans` arranges.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregators.registry import available_filters, make_filter
from repro.attacks.adaptive import ALittleIsEnough
from repro.attacks.base import ByzantineBehavior
from repro.attacks.simple import GradientReverse, RandomGaussian, ZeroGradient
from repro.experiments.topology_resilience import full_local_rank_costs
from repro.observability import MemorySink, Telemetry
from repro.observability.exporters import _json_default
from repro.observability.tracing import TraceContext
from repro.problems.linear_regression import make_redundant_regression
from repro.system import peer_to_peer, server
from repro.system.batch import run_dgd_batch
from repro.system.decentralized import run_decentralized_dgd
from repro.system.peer_to_peer import run_peer_to_peer_dgd
from repro.system.runner import run_dgd
from repro.system.topology import make_topology
from tests.decentralized_reference import reference_run_decentralized_dgd
from tests.telemetry_reference import (
    ReferenceTelemetry,
    reference_record_filter_round,
    reference_run_dgd_batch,
)

TRACE_ID = "5eed" * 8

#: ALIE with a fixed z: its default z is a normal quantile from scipy.
ATTACKS = {
    "gradient-reverse": GradientReverse,
    "zero": ZeroGradient,
    "alie": lambda: ALittleIsEnough(z=1.5),
    "random": RandomGaussian,
}
POISON = (np.nan, np.inf, -np.inf)


class _Poisoned(ByzantineBehavior):
    """Forges as ``inner`` does, then writes NaN/±inf into chosen entries,
    so the round's ``sanitize`` pass has work to do."""

    name = "poisoned"

    def __init__(self, inner: ByzantineBehavior, entries):
        self._inner = inner
        self._entries = entries

    def forge(self, context):
        forged = np.array(self._inner(context), dtype=float)
        rows, cols = forged.shape
        for row, col, value in self._entries:
            forged[row % rows, col % cols] = value
        return forged


def _handle(cls, reference_point, traced):
    root = TraceContext.root(TRACE_ID, name="job") if traced else None
    return cls(
        MemorySink(),
        reference_point=reference_point,
        trace=root,
        trace_name="job" if traced else None,
    )


def _lines(handle):
    """Close ``handle`` and render its stream as the JSONL sink writes it,
    with every timing field zeroed."""
    handle.close()
    lines = []
    for record in handle.records:
        record = dict(record)
        if record["event"] == "span":
            record["seconds"] = 0.0
            if "ts" in record:
                record["ts"] = 0.0
        elif record["event"] == "summary":
            record["spans"] = {
                name: {**stats, "p50": 0.0, "p95": 0.0, "total": 0.0}
                for name, stats in record["spans"].items()
            }
            if record["rounds_per_sec"] is not None:
                record["rounds_per_sec"] = 0.0
        lines.append(json.dumps(record, sort_keys=True, default=_json_default))
    return lines


def _inside_round_spans(records):
    """The documented change applied to a reference stream: the round
    records that followed a ``round`` span move inside it."""
    out = []
    index = 0
    while index < len(records):
        record = records[index]
        index += 1
        if record["event"] != "span" or record["name"] != "round":
            out.append(record)
            continue
        while index < len(records) and records[index]["event"] == "round":
            moved = dict(records[index])
            if "span_id" in moved:
                moved["span_id"] = record["span_id"]
            out.append(moved)
            index += 1
        out.append(record)
    return out


@contextmanager
def _reference_filter_rounds():
    """Route the server and peer-to-peer engines through the frozen
    ``record_filter_round``."""
    with mock.patch.object(server, "record_filter_round",
                           reference_record_filter_round), \
            mock.patch.object(peer_to_peer, "record_filter_round",
                              reference_record_filter_round):
        yield


@contextmanager
def _records_after_round_spans(handle):
    """Peer-to-peer's former order on ``handle``: each round's record is
    built by the frozen builder once the round's span has closed."""
    deferred = []
    span = handle.span

    @contextmanager
    def deferring_span(name):
        with span(name):
            yield
        if name == "round":
            for call in deferred:
                call()
            deferred.clear()

    def record_later(*args):
        deferred.append(lambda: reference_record_filter_round(*args))

    with mock.patch.object(handle, "span", deferring_span), \
            mock.patch.object(peer_to_peer, "record_filter_round", record_later):
        yield


# ----------------------------------------------------------------------
# record_round itself
# ----------------------------------------------------------------------


@st.composite
def record_cases(draw):
    K = draw(st.integers(1, 8))
    n = draw(st.integers(1, 13))
    d = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(2 * n)))[:n]
    if draw(st.booleans()):
        ids = sorted(ids)
    # Repeated values exercise the median's ties; a diverged run's norms
    # may be infinite or NaN.
    values = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 1e12, 3.75, np.inf, np.nan])
    norms = np.array(draw(st.lists(values | st.floats(0, 1e6), min_size=K * n,
                                   max_size=K * n))).reshape(K, n)
    kept = None
    if draw(st.booleans()):
        m = draw(st.integers(0, n))
        kept = np.array([sorted(draw(st.permutations(ids))[:m]) for _ in range(K)],
                        dtype=int).reshape(K, m)
    estimates = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=K * d,
                                       max_size=K * d))).reshape(K, d)
    return {
        "K": K,
        "ids": ids,
        "identity_ids": draw(st.booleans()),
        "norms": norms,
        "kept": kept,
        "estimates": estimates,
        "byzantine": draw(st.lists(st.integers(0, 2 * n), max_size=4)),
        "reference": (
            np.array(draw(st.lists(st.floats(-10, 10), min_size=d, max_size=d)))
            if draw(st.booleans()) else None
        ),
        "seeds": draw(st.none() | st.lists(
            st.integers(0, 2**40) | st.text("abc", min_size=1, max_size=3),
            min_size=K, max_size=K)),
        "traced": draw(st.booleans()),
        "round": draw(st.integers(0, 10**6)),
        "step": draw(st.floats(1e-6, 1.0)),
    }


@settings(max_examples=300, deadline=None)
@given(case=record_cases())
def test_record_round_matches_reference_run_by_run(case):
    K = case["K"]
    agent_ids = None if case["identity_ids"] else case["ids"]
    handles = []
    for cls in (Telemetry, ReferenceTelemetry):
        handle = _handle(cls, case["reference"], case["traced"])
        handle.annotate(byzantine_ids=case["byzantine"])
        handles.append(handle)
    new, ref = handles
    with new.span("round"), ref.span("round"):
        records = new.record_round(
            round_index=case["round"], filter_name="f", step_size=case["step"],
            gradient_norms=case["norms"], agent_ids=agent_ids,
            kept_ids=case["kept"], estimate=case["estimates"],
            seeds=case["seeds"],
        )
        for k in range(K):
            ref.record_round(
                round_index=case["round"], filter_name="f",
                step_size=case["step"], gradient_norms=case["norms"][k],
                agent_ids=agent_ids,
                kept_ids=None if case["kept"] is None else case["kept"][k],
                estimate=case["estimates"][k],
                run=None if case["seeds"] is None else k,
                seed=None if case["seeds"] is None else case["seeds"][k],
            )
    assert isinstance(records, list) and len(records) == K
    # repr also pins key order and Python (not numpy) scalar types.
    assert repr(records) == repr(ref.records[:K])
    for key in ("rounds", "elimination"):
        assert new.summary()[key] == ref.summary()[key]
    assert _lines(new) == _lines(ref)


# ----------------------------------------------------------------------
# Engine streams
# ----------------------------------------------------------------------


@st.composite
def engine_cases(draw):
    n = draw(st.integers(3, 13))
    f = draw(st.integers(1, (n - 1) // 2))
    d = draw(st.integers(1, min(3, n - 2 * f)))
    names = [name for name in available_filters()
             if make_filter(name, f=f).minimum_inputs() <= n]
    poison = None
    if draw(st.booleans()):
        poison = draw(st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 2),
                      st.sampled_from(POISON)),
            min_size=1, max_size=3))
    return {
        "n": n,
        "f": f,
        "d": d,
        "faulty": tuple(sorted(draw(st.permutations(range(n)))[:f])),
        "filter": draw(st.sampled_from(names)),
        "attack": draw(st.sampled_from(sorted(ATTACKS))),
        "poison": poison,
        "reference": draw(st.booleans()),
        "traced": draw(st.booleans()),
        "K": draw(st.integers(2, 8)),
        "iterations": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "instance_seed": draw(st.integers(0, 50)),
    }


def _behavior(case):
    behavior = ATTACKS[case["attack"]]()
    if case["poison"] is not None:
        behavior = _Poisoned(behavior, case["poison"])
    return behavior


def _streams(case, run, transform=None):
    """``run(handle)`` on a production handle and, with the frozen
    record functions routed in, on a reference handle; both streams as
    lines."""
    instance = make_redundant_regression(
        n=case["n"], d=case["d"], f=case["f"], noise_std=0.05,
        seed=case["instance_seed"],
    )
    honest = [i for i in range(case["n"]) if i not in case["faulty"]]
    x_H = instance.honest_minimizer(honest) if case["reference"] else None
    new = _handle(Telemetry, x_H, case["traced"])
    run(instance, new, False)
    ref = _handle(ReferenceTelemetry, x_H, case["traced"])
    with _reference_filter_rounds():
        run(instance, ref, True)
    new_lines = _lines(new)
    ref.close()
    records = ref.records if transform is None else transform(ref.records)
    ref_lines = _lines(_Replay(records))
    return new_lines, ref_lines


class _Replay:
    """A closed stream, for :func:`_lines`."""

    def __init__(self, records):
        self.records = records

    def close(self):
        pass


@settings(max_examples=60, deadline=None)
@given(case=engine_cases())
def test_engine_streams_match_reference(case):
    kwargs = dict(
        gradient_filter=case["filter"], faulty_ids=case["faulty"],
        iterations=case["iterations"],
    )

    def server_run(instance, handle, reference):
        run_dgd(instance.costs, _behavior(case), seed=case["seed"],
                telemetry=handle, **kwargs)

    new, ref = _streams(case, server_run)
    assert new == ref and json.loads(new[-1])["event"] == "summary"

    for K in (1, case["K"]):
        seeds = [case["seed"] + k for k in range(K)]

        def batch_run(instance, handle, reference, seeds=seeds):
            engine = reference_run_dgd_batch if reference else run_dgd_batch
            engine(instance.costs, _behavior(case), seeds=seeds,
                   telemetry=handle, **kwargs)

        new, ref = _streams(case, batch_run, transform=_inside_round_spans)
        assert new == ref
        assert sum('"event": "round"' in line for line in new) == (
            K * case["iterations"]
        )

    if 3 * case["f"] < case["n"]:

        def peer_run(instance, handle, reference):
            with _records_after_round_spans(handle) if reference else nullcontext():
                run_peer_to_peer_dgd(
                    instance.costs, make_filter(case["filter"], f=case["f"]),
                    faulty_ids=case["faulty"], behavior=_behavior(case),
                    iterations=case["iterations"], seed=case["seed"],
                    telemetry=handle,
                )

        new, ref = _streams(case, peer_run, transform=_inside_round_spans)
        assert new == ref


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("aggregation,topology", [
    ("cwtm", ("complete", 9, {})),
    ("cge", ("ring", 12, {"hops": 2})),
    ("mean", ("ring", 12, {"hops": 2})),
])
def test_decentralized_stream_matches_reference(aggregation, topology, traced):
    name, n, params = topology
    graph = make_topology(name, n, seed=3, **params)
    costs, x_star = full_local_rank_costs(n, 3, 7)
    faulty = [] if aggregation == "mean" else [4]
    streams = []
    for engine, cls in ((run_decentralized_dgd, Telemetry),
                        (reference_run_decentralized_dgd, ReferenceTelemetry)):
        handle = _handle(cls, x_star, traced)
        engine(costs, graph, aggregation=aggregation, faulty_ids=faulty,
               behavior=GradientReverse(strength=2.0) if faulty else None,
               iterations=12, seed=2, telemetry=handle)
        streams.append(_lines(handle))
    new, ref = streams
    assert new == ref
    assert sum('"event": "round"' in line for line in new) == 12


def test_traced_batch_round_records_reference_their_round_span():
    instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.02, seed=0)
    handle = _handle(Telemetry, None, True)
    run_dgd_batch(instance.costs, GradientReverse(), gradient_filter="cge",
                  faulty_ids=(0,), iterations=3, seeds=[4, 5], telemetry=handle)
    handle.close()
    round_spans = {r["span_id"]: r for r in handle.records
                   if r["event"] == "span" and r["name"] == "round"}
    rounds = [r for r in handle.records if r["event"] == "round"]
    assert len(round_spans) == 3 and len(rounds) == 6
    assert {r["span_id"] for r in rounds} == set(round_spans)


def test_traced_peer_to_peer_round_records_reference_their_round_span():
    instance = make_redundant_regression(n=4, d=2, f=1, noise_std=0.02, seed=0)
    handle = _handle(Telemetry, None, True)
    run_peer_to_peer_dgd(instance.costs, make_filter("cge", f=1),
                         faulty_ids=(0,), behavior=GradientReverse(),
                         iterations=3, seed=4, telemetry=handle)
    handle.close()
    round_spans = [r["span_id"] for r in handle.records
                   if r["event"] == "span" and r["name"] == "round"]
    rounds = [r["span_id"] for r in handle.records if r["event"] == "round"]
    assert len(set(round_spans)) == 3
    assert rounds == round_spans
