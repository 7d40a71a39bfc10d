"""One input, one check: the four DGD engines share their front door.

``run_dgd``, ``run_dgd_batch``, ``run_peer_to_peer_dgd`` and
``run_decentralized_dgd`` validate ``iterations``, the cost list, the
faulty ids and the behaviour, and fill in the schedule, ``W`` and ``x0``,
through the same helpers in :mod:`repro.system.runner`, so a bad input
gets the same error and a questionable one the same warning whichever
engine runs it.
"""

import numpy as np
import pytest

from repro.aggregators.registry import make_filter
from repro.attacks.simple import GradientReverse
from repro.exceptions import InvalidParameterError
from repro.optimization.cost_functions import TranslatedQuadratic
from repro.optimization.step_sizes import ConstantStepSize
from repro.system.batch import run_dgd_batch
from repro.system.decentralized import run_decentralized_dgd
from repro.system.peer_to_peer import run_peer_to_peer_dgd
from repro.system.runner import run_dgd
from repro.system.topology import complete_topology

N = 7


def _server(costs, faulty_ids=(), behavior=None, **kwargs):
    trace = run_dgd(costs, behavior, gradient_filter="cwtm",
                    faulty_ids=faulty_ids, **kwargs)
    return trace.estimates


def _batch(costs, faulty_ids=(), behavior=None, **kwargs):
    traces = run_dgd_batch(costs, behavior, gradient_filter="cwtm",
                           faulty_ids=faulty_ids, seeds=[0], **kwargs)
    return traces[0].estimates


def _peer(costs, faulty_ids=(), behavior=None, **kwargs):
    gradient_filter = make_filter("cwtm", f=len(set(faulty_ids)))
    result = run_peer_to_peer_dgd(costs, gradient_filter, faulty_ids=faulty_ids,
                                  behavior=behavior, **kwargs)
    return result.estimates


def _decentralized(costs, faulty_ids=(), behavior=None, **kwargs):
    result = run_decentralized_dgd(costs, complete_topology(len(costs)),
                                   faulty_ids=faulty_ids, behavior=behavior,
                                   **kwargs)
    return result.mean_trajectory


ENGINES = pytest.mark.parametrize(
    "engine", [_server, _batch, _peer, _decentralized],
    ids=["run_dgd", "run_dgd_batch", "peer_to_peer", "decentralized"],
)


def _costs(n=N, d=2):
    return [TranslatedQuadratic(np.full(d, float(i))) for i in range(n)]


@ENGINES
@pytest.mark.parametrize("iterations", [-1, 2.5, "10", None, True])
def test_bad_iterations_rejected(engine, iterations):
    with pytest.raises(InvalidParameterError, match="iterations"):
        engine(_costs(), iterations=iterations)


@ENGINES
@pytest.mark.parametrize("iterations, rows", [(0, 1), (np.int64(3), 4)])
def test_iterations_accepted(engine, iterations, rows):
    assert engine(_costs(), iterations=iterations).shape == (rows, 2)


@ENGINES
def test_mixed_dimensions_name_the_cost(engine):
    costs = _costs()
    costs[3] = TranslatedQuadratic([0.0, 0.0, 0.0])
    with pytest.raises(InvalidParameterError,
                       match="cost 3 has dimension 3, expected 2"):
        engine(costs, iterations=5)


@ENGINES
def test_out_of_range_faulty_id_same_message(engine):
    with pytest.raises(InvalidParameterError) as excinfo:
        engine(_costs(), faulty_ids=[N], behavior=GradientReverse(),
               iterations=5)
    assert str(excinfo.value) == f"faulty_ids must lie in [0, {N}), got [{N}]"


@ENGINES
def test_faulty_ids_need_a_behavior(engine):
    with pytest.raises(InvalidParameterError) as excinfo:
        engine(_costs(), faulty_ids=[0], iterations=5)
    assert str(excinfo.value) == "faulty agents configured but no behavior given"


@ENGINES
def test_constant_step_size_warns_at_the_caller(engine):
    with pytest.warns(UserWarning, match="Robbins-Monro") as record:
        engine(_costs(), iterations=3, step_sizes=ConstantStepSize(0.01))
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("gradient_filter", ["clipping", "cge"],
                         ids=["fallback", "fast"])
def test_batch_warns_once_at_the_caller(gradient_filter):
    # The fallback runs run_dgd once per seed; its warnings are emitted
    # once per batch and name run_dgd_batch's caller, as the fast path's do.
    with pytest.warns(UserWarning) as record:
        run_dgd_batch(_costs(), None, gradient_filter=gradient_filter,
                      seeds=[1, 2], iterations=3,
                      step_sizes=ConstantStepSize(0.01))
    warned = [w for w in record if "Robbins-Monro" in str(w.message)]
    assert [w.filename for w in warned] == [__file__]


def test_batch_fallback_that_raises_still_warns():
    # run_dgd warns before it rejects x0; the batch re-emits the warning.
    with pytest.warns(UserWarning) as record:
        with pytest.raises(InvalidParameterError, match="x0"):
            run_dgd_batch(_costs(), None, gradient_filter="clipping",
                          seeds=[1, 2], iterations=3, x0=[np.nan, 0.0],
                          step_sizes=ConstantStepSize(0.01))
    warned = [w for w in record if "Robbins-Monro" in str(w.message)]
    assert [w.filename for w in warned] == [__file__]


@ENGINES
def test_non_finite_x0_named(engine):
    with pytest.raises(InvalidParameterError, match="x0 contains non-finite"):
        engine(_costs(), iterations=3, x0=[np.nan, 0.0])
