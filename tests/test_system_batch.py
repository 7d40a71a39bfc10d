"""Equivalence suite for the vectorized multi-run DGD engine.

The batch engine's contract is *bit-identity*: for every supported
configuration, ``run_dgd_batch(costs, behavior, config, seeds)[k]`` must
reproduce ``run_dgd(costs, behavior, config, seed=seeds[k])`` exactly —
same estimates, same directions, same accounting — not merely to within a
tolerance. These tests pin that contract for every regression attack and
the vectorized filters, check the fallback paths, and property-test the
batched filter kernels against their scalar counterparts (including
non-finite inputs, which the sanitization layer must neutralize
identically).
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.aggregators.cge import ComparativeGradientElimination
from repro.aggregators.clipping import CenteredClipping
from repro.aggregators.mean import Average, TrimmedSum
from repro.aggregators.median import CoordinateWiseMedian
from repro.aggregators.registry import make_filter
from repro.aggregators.trimmed_mean import CoordinateWiseTrimmedMean
from repro.attacks.registry import make_attack
from repro.exceptions import InvalidParameterError
from repro.experiments.common import PAPER_X0, REGRESSION_ATTACKS
from repro.optimization.cost_functions import ScaledCost, TranslatedQuadratic
from repro.problems.linear_regression import make_redundant_regression
from repro.system.batch import batch_unsupported_reason, run_dgd_batch
from repro.system.netfaults import FaultProfile, NetworkFaultModel
from repro.system.runner import DGDConfig, run_dgd

SEEDS = [3, 17, 92]
VECTORIZED_FILTERS = ("cge", "cwtm", "median", "average", "sum")


@pytest.fixture(scope="module")
def instance():
    return make_redundant_regression(n=6, d=2, f=1, noise_std=0.02, seed=20200803)


def assert_traces_identical(sequential, batched):
    assert np.array_equal(sequential.estimates, batched.estimates)
    assert np.array_equal(sequential.directions, batched.directions)
    assert sequential.honest_ids == batched.honest_ids
    assert sequential.faulty_ids == batched.faulty_ids
    assert sequential.eliminated == batched.eliminated
    assert sequential.crash_ids == batched.crash_ids
    assert sequential.messages_delivered == batched.messages_delivered
    assert sequential.bytes_delivered == batched.bytes_delivered
    assert sequential.filter_name == batched.filter_name


class TestTraceEquivalence:
    @pytest.mark.parametrize("attack", REGRESSION_ATTACKS)
    @pytest.mark.parametrize("filter_name", ("cge", "cwtm", "median"))
    def test_attacked_runs_bit_identical(self, instance, attack, filter_name):
        config = DGDConfig(
            iterations=60, gradient_filter=filter_name, faulty_ids=(0,), f=1,
            x0=PAPER_X0,
        )
        behavior = make_attack(attack)
        sequential = [run_dgd(instance.costs, behavior, config, seed=s) for s in SEEDS]
        batched = run_dgd_batch(instance.costs, behavior, config, seeds=SEEDS)
        assert len(batched) == len(SEEDS)
        for a, b in zip(sequential, batched):
            assert_traces_identical(a, b)

    def test_fault_free_bit_identical(self, instance):
        config = DGDConfig(iterations=60, gradient_filter="cge", f=1)
        sequential = [run_dgd(instance.costs, None, config, seed=s) for s in SEEDS]
        batched = run_dgd_batch(instance.costs, None, config, seeds=SEEDS)
        for a, b in zip(sequential, batched):
            assert_traces_identical(a, b)

    def test_adaptive_randomized_attacks_bit_identical(self, instance):
        # ALIE, IPM and mimic are forged for the whole batch. Random, a
        # wrapped ALIE and ALIE/IPM at d = 1 with 8 or more honest agents
        # go through the per-slice AttackContext path, which must also be
        # exact: the per-run adversary rng streams match the sequential
        # derivation.
        line = make_redundant_regression(n=10, d=1, f=1, noise_std=0.3, seed=4)
        cases = [(instance, make_attack(attack))
                 for attack in ("alie", "ipm", "mimic", "random")]
        wrapped = make_attack("intermittent", inner=make_attack("alie"))
        cases.append((instance, wrapped))
        cases += [(line, make_attack(attack)) for attack in ("alie", "ipm")]
        for problem, behavior in cases:
            config = DGDConfig(
                iterations=40, gradient_filter="cge", faulty_ids=(1,), f=1
            )
            sequential = [
                run_dgd(problem.costs, behavior, config, seed=s) for s in SEEDS
            ]
            batched = run_dgd_batch(problem.costs, behavior, config, seeds=SEEDS)
            for a, b in zip(sequential, batched):
                assert_traces_identical(a, b)

    def test_constant_bias_vectorized_path(self, instance):
        config = DGDConfig(iterations=40, gradient_filter="cwtm", faulty_ids=(2,), f=1)
        behavior = make_attack("constant-bias", bias=(5.0, -3.0))
        sequential = [run_dgd(instance.costs, behavior, config, seed=s) for s in SEEDS]
        batched = run_dgd_batch(instance.costs, behavior, config, seeds=SEEDS)
        for a, b in zip(sequential, batched):
            assert_traces_identical(a, b)

    def test_multiple_faulty_agents(self):
        instance = make_redundant_regression(n=9, d=3, f=2, noise_std=0.01, seed=7)
        config = DGDConfig(
            iterations=40, gradient_filter="cge", faulty_ids=(1, 5), f=2
        )
        behavior = make_attack("sign-flip")
        sequential = [run_dgd(instance.costs, behavior, config, seed=s) for s in SEEDS]
        batched = run_dgd_batch(instance.costs, behavior, config, seeds=SEEDS)
        for a, b in zip(sequential, batched):
            assert_traces_identical(a, b)

    def test_default_batch_is_config_seed(self, instance):
        config = DGDConfig(iterations=20, gradient_filter="cge", f=1, seed=41)
        batched = run_dgd_batch(instance.costs, None, config)
        assert len(batched) == 1
        assert_traces_identical(run_dgd(instance.costs, None, config), batched[0])

    def test_batch_metadata(self, instance):
        config = DGDConfig(iterations=10, gradient_filter="cge", f=1)
        batched = run_dgd_batch(instance.costs, None, config, seeds=SEEDS)
        for trace in batched:
            assert trace.extra["batch"]["size"] == len(SEEDS)
            assert trace.wall_time >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    f=st.integers(1, 2),
    extra=st.integers(0, 8),
    instance_seed=st.integers(0, 63),
    positions=st.lists(st.integers(0, 63), min_size=1, max_size=2, unique=True),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=4),
    filter_name=st.sampled_from(("cge", "cwtm", "median")),
    attack=st.sampled_from(
        (("alie", {}), ("alie", {"z": 0.7}), ("ipm", {}), ("ipm", {"scale": 2.0}),
         ("mimic", {}), ("mimic", {"target_position": 5}), ("sign-flip", {}))
    ),
)
@example(d=1, f=1, extra=6, instance_seed=19, positions=[3], seeds=[1, 2, 3],
         filter_name="cge", attack=("alie", {}))
@example(d=1, f=1, extra=6, instance_seed=19, positions=[3], seeds=[1, 2, 3],
         filter_name="cge", attack=("ipm", {}))
def test_whole_batch_forgers_match_sequential(
    d, f, extra, instance_seed, positions, seeds, filter_name, attack
):
    # ALIE, IPM, mimic and sign-flip are forged for all K runs at once,
    # and per slice at d = 1 with 8 or more honest agents.
    n = 2 * f + d + extra
    faulty = sorted({p % n for p in positions[:f]})
    name, kwargs = attack
    behavior = make_attack(name, **kwargs)
    instance = make_redundant_regression(
        n=n, d=d, f=f, noise_std=0.2, seed=instance_seed
    )
    config = DGDConfig(
        iterations=20, gradient_filter=filter_name, faulty_ids=tuple(faulty), f=f
    )
    sequential = [run_dgd(instance.costs, behavior, config, seed=s) for s in seeds]
    batched = run_dgd_batch(instance.costs, behavior, config, seeds=seeds)
    for a, b in zip(sequential, batched):
        assert_traces_identical(a, b)


class TestFallbacks:
    def test_stateful_filter_reason(self, instance):
        reason = batch_unsupported_reason(
            instance.costs, None, DGDConfig(), CenteredClipping(f=1)
        )
        assert reason is not None and "stateful" in reason

    def test_non_quadratic_cost_reason(self):
        # ScaledCost wraps a quadratic without being one, so it has no
        # batched gradient kernel.
        costs = [ScaledCost(TranslatedQuadratic([0.0, 0.0]), 2.0) for _ in range(4)]
        reason = batch_unsupported_reason(
            costs, None, DGDConfig(), make_filter("average", f=0)
        )
        assert reason is not None and "quadratic" in reason

    def test_crash_and_recording_reasons(self, instance):
        gradient_filter = make_filter("cge", f=1)
        assert "crash" in batch_unsupported_reason(
            instance.costs, None, DGDConfig(crash_rounds={3: 5}), gradient_filter
        )
        assert "recording" in batch_unsupported_reason(
            instance.costs, None, DGDConfig(record_messages=True), gradient_filter
        )
        assert (
            batch_unsupported_reason(instance.costs, None, DGDConfig(), gradient_filter)
            is None
        )

    def test_fallback_still_matches_sequential(self, instance):
        # A stateful filter cannot be vectorized; the engine must fall back
        # to per-seed sequential execution and still return correct traces.
        config = DGDConfig(iterations=15, gradient_filter="clipping", f=1)
        batched = run_dgd_batch(instance.costs, None, config, seeds=[5, 6])
        sequential = [run_dgd(instance.costs, None, config, seed=s) for s in [5, 6]]
        for a, b in zip(sequential, batched):
            assert np.array_equal(a.estimates, b.estimates)
        assert "batch" not in batched[0].extra

    def test_network_fault_reasons(self, instance):
        gradient_filter = make_filter("cge", f=1)
        for config in (
            DGDConfig(fault_model=NetworkFaultModel()),
            DGDConfig(checkpoint_path="run.ckpt.json"),
        ):
            reason = batch_unsupported_reason(
                instance.costs, None, config, gradient_filter
            )
            assert reason is not None and "network" in reason

    def test_network_faults_fall_back(self, instance):
        # The fast path has no network: a fault model must not be ignored.
        model = NetworkFaultModel.uniform(
            range(len(instance.costs)),
            FaultProfile(drop_prob=0.3, delay_prob=0.3, max_delay=2),
            seed=3,
        )
        config = DGDConfig(
            iterations=60, gradient_filter="cge", faulty_ids=(0,), f=1,
            fault_model=model,
        )
        behavior = make_attack("gradient-reverse")
        batched = run_dgd_batch(instance.costs, behavior, config, seeds=[5])[0]
        sequential = run_dgd(instance.costs, behavior, config, seed=5)
        assert np.array_equal(sequential.estimates, batched.estimates)
        assert batched.messages_dropped == sequential.messages_dropped > 0

    def test_crash_configuration_falls_back(self, instance):
        config = DGDConfig(
            iterations=15, gradient_filter="cge", f=1, crash_rounds={3: 5}
        )
        batched = run_dgd_batch(instance.costs, None, config, seeds=[5])
        assert batched[0].crash_ids == [3]


class TestValidation:
    def test_empty_seeds_rejected(self, instance):
        with pytest.raises(InvalidParameterError, match="at least one"):
            run_dgd_batch(instance.costs, None, DGDConfig(f=1), seeds=[])

    def test_unknown_override_rejected(self, instance):
        with pytest.raises(InvalidParameterError, match="unknown DGDConfig"):
            run_dgd_batch(instance.costs, None, seeds=[1], iteration=10)

    def test_missing_behavior_rejected(self, instance):
        with pytest.raises(InvalidParameterError, match="behavior"):
            run_dgd_batch(
                instance.costs, None, DGDConfig(faulty_ids=(0,), f=1), seeds=[1]
            )

    def test_faulty_bound_enforced(self, instance):
        with pytest.raises(InvalidParameterError, match="exceed"):
            run_dgd_batch(
                instance.costs,
                make_attack("zero"),
                DGDConfig(faulty_ids=(0, 1), f=1),
                seeds=[1],
            )


# ---------------------------------------------------------------------------
# Batched filter kernels vs their scalar counterparts
# ---------------------------------------------------------------------------

def _tensors(max_k=5, max_n=8, max_d=4):
    shapes = st.tuples(
        st.integers(1, max_k), st.integers(3, max_n), st.integers(1, max_d)
    )
    return shapes.flatmap(
        lambda shape: hnp.arrays(
            dtype=np.float64,
            shape=shape,
            elements=st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
        )
    )


def _filters_for(n):
    f = 1 if n >= 3 else 0
    return [
        ComparativeGradientElimination(f=f),
        ComparativeGradientElimination(f=f, mode="mean"),
        CoordinateWiseTrimmedMean(f=f),
        CoordinateWiseMedian(f=f),
        Average(f=f),
        TrimmedSum(f=f),
    ]


@settings(max_examples=40, deadline=None)
@given(tensor=_tensors())
def test_aggregate_batch_matches_scalar(tensor):
    for gradient_filter in _filters_for(tensor.shape[1]):
        batched = gradient_filter.aggregate_batch(tensor)
        stacked = np.stack([gradient_filter(matrix) for matrix in tensor])
        assert np.array_equal(batched, stacked), type(gradient_filter).__name__


@settings(max_examples=25, deadline=None)
@given(
    tensor=_tensors(),
    row=st.integers(0, 7),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_aggregate_batch_sanitizes_like_scalar(tensor, row, value):
    # Non-finite rows must be neutralized identically in both paths.
    tensor = tensor.copy()
    tensor[0, row % tensor.shape[1], :] = value
    for gradient_filter in _filters_for(tensor.shape[1]):
        batched = gradient_filter.aggregate_batch(tensor)
        stacked = np.stack([gradient_filter(matrix) for matrix in tensor])
        assert np.array_equal(batched, stacked), type(gradient_filter).__name__
        assert np.all(np.isfinite(batched))


def test_cge_batch_kept_indices_respect_norm_ties():
    # argpartition breaks ties arbitrarily; the batched kept-set must fall
    # back to the scalar (stable, index-ordered) resolution when norms tie
    # at the cut boundary.
    gradient_filter = ComparativeGradientElimination(f=2)
    matrix = np.array(
        [[3.0, 0.0], [1.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [1.0, 0.0], [0.0, 1.0]]
    )
    tensor = np.stack([matrix, matrix[::-1].copy()])
    batched = gradient_filter.aggregate_batch(tensor)
    stacked = np.stack([gradient_filter(m) for m in tensor])
    assert np.array_equal(batched, stacked)


def test_aggregate_batch_rejects_bad_shapes():
    gradient_filter = Average(f=0)
    with pytest.raises(InvalidParameterError):
        gradient_filter.aggregate_batch(np.zeros((3, 2)))
    with pytest.raises(InvalidParameterError):
        gradient_filter.aggregate_batch(np.zeros((0, 3, 2)))


class TestForgedMatrixOwnership:
    """Regression: ``M = G`` aliasing let the forged write-back mutate the
    honest gradient tensor in place; anything reading ``G`` after the
    aggregation step (telemetry, hooks, future per-round diagnostics) saw
    forged values under honest labels."""

    def test_forged_matrix_does_not_alias_honest_tensor(self):
        from repro.system.batch import _forged_matrix

        G = np.arange(24, dtype=float).reshape(2, 4, 3)
        snapshot = G.copy()
        forged = np.full((2, 2, 3), -99.0)
        M = _forged_matrix(G, forged, np.array([1, 3]))
        assert not np.shares_memory(M, G)
        assert np.array_equal(G, snapshot)  # honest tensor untouched
        assert np.array_equal(M[:, [1, 3]], forged)
        assert np.array_equal(M[:, [0, 2]], G[:, [0, 2]])

    def test_honest_gradients_stay_honest_through_a_run(self, instance):
        # An adaptive behaviour reads honest gradients via AttackContext on
        # the per-slice path; under the old aliasing it could observe its
        # own previous round's forgeries.
        from repro.attacks.base import ByzantineBehavior

        class Probe(ByzantineBehavior):
            name = "probe"

            def __init__(self, log):
                self._log = log

            def forge(self, context):
                self._log.append(np.asarray(context.honest_gradients).copy())
                return np.full(
                    (len(context.faulty_ids), context.dimension), 7.5
                )

        config = DGDConfig(iterations=5, gradient_filter="cge", faulty_ids=(2,), f=1)
        seen = []
        run_dgd_batch(instance.costs, Probe(seen), config, seeds=[3])
        sequential_seen = []
        run_dgd(instance.costs, Probe(sequential_seen), config, seed=3)
        assert len(seen) == len(sequential_seen)
        for a, b in zip(seen, sequential_seen):
            assert np.array_equal(a, b)


class TestConstantBiasValidation:
    """Regression: the bias-dimension check lived inside the per-round forge
    closure, so a mismatched bias surfaced only after round 0 had already
    executed (and, with iterations=0, never)."""

    def test_wrong_dimension_rejected_at_construction(self, instance):
        from repro.attacks.simple import ConstantBias
        from repro.system.batch import _vectorized_forger

        rngs = [np.random.default_rng(0)]
        with pytest.raises(InvalidParameterError, match="bias"):
            _vectorized_forger(
                ConstantBias(np.ones(5)), [0], [1, 2, 3, 4, 5],
                instance.costs, rngs,
            )

    def test_run_fails_before_any_round_executes(self, instance):
        from repro.attacks.simple import ConstantBias

        fired = []
        config = DGDConfig(
            iterations=50, gradient_filter="cge", faulty_ids=(0,), f=1
        )
        with pytest.raises(InvalidParameterError, match="bias"):
            run_dgd_batch(
                instance.costs,
                ConstantBias(np.ones(7)),
                config,
                seeds=SEEDS,
                round_hook=lambda *a, **k: fired.append(1),
            )
        assert fired == []  # raised before round 0, not during it


class TestSingleSanitizePerRound:
    """Regression: telemetry-enabled rounds sanitized the forged tensor twice
    (once for aggregation, once for the round record), doubling the cost of
    the non-finite sweep and leaving the two consumers free to drift."""

    def test_one_sanitize_per_round_with_telemetry(self, instance, monkeypatch):
        from repro.aggregators.base import GradientFilter
        from repro.observability import MemorySink, Telemetry

        calls = []
        original = GradientFilter.sanitize

        def counting(gradients):
            calls.append(np.asarray(gradients).shape)
            return original(gradients)

        monkeypatch.setattr(GradientFilter, "sanitize", staticmethod(counting))
        sink = MemorySink()
        config = DGDConfig(
            iterations=12, gradient_filter="cge", faulty_ids=(0,), f=1
        )
        run_dgd_batch(
            instance.costs,
            make_attack("sign-flip"),
            config,
            seeds=SEEDS,
            telemetry=Telemetry([sink]),
        )
        batch_calls = [shape for shape in calls if len(shape) == 3]
        assert len(batch_calls) == config.iterations
        rounds = [r for r in sink.records if r.get("event") == "round"]
        assert len(rounds) == config.iterations * len(SEEDS)

    def test_telemetry_does_not_perturb_estimates(self, instance):
        from repro.observability import MemorySink, Telemetry

        config = DGDConfig(
            iterations=30, gradient_filter="cwtm", faulty_ids=(0,), f=1
        )
        behavior = make_attack("sign-flip")
        plain = run_dgd_batch(instance.costs, behavior, config, seeds=SEEDS)
        with_tel = run_dgd_batch(
            instance.costs, behavior, config, seeds=SEEDS,
            telemetry=Telemetry([MemorySink()]),
        )
        for a, b in zip(plain, with_tel):
            assert_traces_identical(a, b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    tie_count=st.integers(2, 12),
)
def test_cge_large_n_tie_boundary_is_stable(seed, tie_count):
    # Large-n stress for the argpartition cut: engineer `tie_count` rows
    # whose norms all equal the boundary (keep-1) norm, scattered across
    # the batch, and require the batched kept set to be bit-identical to
    # the stable sequential (norm, index) resolution.
    n, d, f = 128, 4, 16
    keep = n - f
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, d))
    norms = np.linalg.norm(base, axis=1)
    boundary_row = base[np.argsort(norms, kind="stable")[keep - 1]]
    positions = rng.choice(n, size=tie_count, replace=False)
    matrix = base.copy()
    matrix[positions] = boundary_row  # ties straddle the cut exactly
    tensor = np.stack([matrix, matrix[::-1].copy(), base])

    gradient_filter = ComparativeGradientElimination(f=f)
    batched_kept = gradient_filter._kept_indices_batch(tensor)
    batched_agg = gradient_filter.aggregate_batch(tensor)
    for k in range(tensor.shape[0]):
        scalar_kept = gradient_filter._kept_indices(tensor[k])
        assert np.array_equal(batched_kept[k], scalar_kept)
        assert np.array_equal(batched_agg[k], gradient_filter(tensor[k]))
