"""``weiszfeld`` against its frozen numpy reference, byte for byte.

Small 2-D inputs take a plain-float loop, every other input numpy's loop
(DESIGN.md §5.5). Either way the returned bytes must equal those of
``tests/weiszfeld_reference.py``. The inputs cover every numpy
fall-through (n from 1 to 9, d from 1 to 3, huge and non-finite entries,
out-of-range smoothing), signed zeros, duplicate rows, rows equal to the
mean, magnitudes from tiny to 1e200, and non-default iteration controls.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.aggregators.median import GeometricMedian, weiszfeld
from repro.aggregators.mom import GeometricMedianOfMeans, _group_means
from tests.weiszfeld_reference import reference_weiszfeld

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e12, -1e12, 1e12 + 2**-12, 1e150, -1e150,
            1e200, -1e200, 1e-12, -1e-300, 5e-324]
_ELEMENTS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from(_SPECIAL),
)
_SCALES = st.sampled_from([1.0, -1.0, 1e-300, 1e-9, 1e6, 1e12, 1e149, 1e200])


@st.composite
def _points(draw):
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 3)))
    points = draw(hnp.arrays(np.float64, shape, elements=_ELEMENTS))
    with np.errstate(all="ignore"):
        points = points * draw(_SCALES)
    n = shape[0]
    edit = draw(st.sampled_from(["none", "duplicate", "all-equal", "mean-row",
                                 "signed-zeros"]))
    if edit == "duplicate" and n > 1:
        points[draw(st.integers(0, n - 1))] = points[0]
    elif edit == "all-equal":
        points[:] = points[0]
    elif edit == "mean-row" and n > 1:
        with np.errstate(all="ignore"):
            points[-1] = points[:-1].mean(axis=0)
    elif edit == "signed-zeros":
        points[:, draw(st.integers(0, shape[1] - 1))] = -0.0
    return points


_CONTROLS = st.fixed_dictionaries({}, optional={
    "max_iterations": st.integers(0, 300),
    "tolerance": st.sampled_from([1e-10, 0.0, 1e-14, 1e-6, 1e-2, 1e-155, 1e-200]),
    "smoothing": st.sampled_from([1e-12, 1e-6, 1.0, 1e-151, 1e-300, 1e149, 1e160]),
})


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _both(points, **controls):
    with warnings.catch_warnings():
        # The numpy loop warns on overflow for huge inputs; both paths see
        # the same warnings, and only the bytes are compared.
        warnings.simplefilter("ignore", RuntimeWarning)
        with np.errstate(all="ignore"):
            return (
                weiszfeld(points, **controls),
                reference_weiszfeld(points, **controls),
            )


@settings(max_examples=600, deadline=None)
@given(points=_points(), controls=_CONTROLS)
@example(points=np.array([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 4.0]]), controls={})
@example(points=np.array([[1e200, 0.0], [0.0, 1.0], [1.0, 0.0]]), controls={})
@example(points=np.full((7, 2), 3.0), controls={})
@example(points=np.arange(16.0).reshape(8, 2), controls={})
def test_weiszfeld_matches_reference_bytes(points, controls):
    assert_same_bytes(*_both(points, **controls))


@settings(max_examples=200, deadline=None)
@given(
    points=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 7), st.just(2)),
        elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    tolerance=st.floats(min_value=1e-14, max_value=1e-2),
)
def test_float_path_stop_test_matches_reference(points, tolerance):
    # Tolerances drawn from a continuum land next to some step's length,
    # where the float step and numpy's BLAS norm can round apart.
    assert_same_bytes(*_both(points, tolerance=tolerance))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
def test_filters_agree_with_reference_on_byzantine_rows(value):
    # A Byzantine row passes ``sanitize`` as a huge finite number; the
    # filters must neither raise nor round differently from the reference.
    honest = np.array([[0.5, -0.25], [0.4, -0.3], [0.45, -0.2],
                       [0.55, -0.35], [0.5, -0.3]])
    gradients = np.vstack([[[value, -value]], honest])
    sanitized = GeometricMedian.sanitize(gradients)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with np.errstate(all="ignore"):
            assert_same_bytes(
                GeometricMedian(f=1)(gradients), reference_weiszfeld(sanitized)
            )
            assert_same_bytes(
                GeometricMedianOfMeans(f=1)(gradients),
                reference_weiszfeld(_group_means(sanitized, 3)),
            )


def test_stop_test_on_a_step_the_two_norms_round_apart():
    # Find a first step whose float length exceeds numpy's BLAS norm by a
    # last bit, and stop exactly at numpy's norm: the reference stops after
    # one iteration, and so must the float path.
    rng = np.random.default_rng(20200803)
    for _ in range(5000):
        points = rng.normal(size=(3, 2))
        estimate = points.mean(axis=0)
        weights = 1.0 / (np.linalg.norm(points - estimate, axis=1) + 1e-12)
        updated = (points * weights[:, None]).sum(axis=0) / weights.sum()
        dx, dy = (updated - estimate).tolist()
        blas_step = np.linalg.norm(updated - estimate)
        if math.sqrt(dx * dx + dy * dy) > blas_step:
            break
    else:
        pytest.skip("this BLAS rounds every step like the float loop")
    result, expected = _both(points, tolerance=float(blas_step))
    assert_same_bytes(result, expected)
    assert_same_bytes(expected, updated)
