"""Tests for Byzantine attack behaviours."""

import numpy as np
import pytest

from repro.attacks import available_attacks, make_attack
from repro.attacks.adaptive import (
    ALittleIsEnough,
    InnerProductManipulation,
    Mimic,
    OptimalDirectionAttack,
)
from repro.attacks.base import AttackContext, ByzantineBehavior
from repro.attacks.registry import buildable_attacks
from repro.attacks.simple import (
    ConstantBias,
    CostSubstitution,
    GradientReverse,
    RandomGaussian,
    SignFlip,
    ZeroGradient,
)
from repro.exceptions import InvalidParameterError
from repro.optimization.cost_functions import TranslatedQuadratic


def make_context(
    num_faulty=2,
    dimension=3,
    honest=None,
    with_costs=True,
    estimate=None,
    seed=0,
):
    honest = (
        np.arange(12, dtype=float).reshape(4, 3)
        if honest is None
        else np.asarray(honest, dtype=float)
    )
    faulty_ids = list(range(num_faulty))
    costs = (
        [TranslatedQuadratic(np.full(dimension, float(i + 1))) for i in faulty_ids]
        if with_costs
        else [None] * num_faulty
    )
    return AttackContext(
        round_index=0,
        estimate=np.zeros(dimension) if estimate is None else np.asarray(estimate, float),
        honest_gradients=honest,
        honest_ids=list(range(num_faulty, num_faulty + honest.shape[0])),
        faulty_ids=faulty_ids,
        faulty_costs=costs,
        rng=np.random.default_rng(seed),
    )


class TestContext:
    def test_shape_helpers(self):
        ctx = make_context()
        assert ctx.dimension == 3
        assert ctx.num_faulty == 2
        assert np.allclose(ctx.honest_mean(), ctx.honest_gradients.mean(axis=0))
        assert np.allclose(ctx.honest_std(), ctx.honest_gradients.std(axis=0))

    def test_true_faulty_gradients(self):
        ctx = make_context()
        true = ctx.true_faulty_gradients()
        # TranslatedQuadratic(target) gradient at 0 is -2*target.
        assert np.allclose(true[0], -2.0 * np.ones(3))
        assert np.allclose(true[1], -4.0 * np.ones(3))

    def test_missing_cost_raises(self):
        ctx = make_context(with_costs=False)
        with pytest.raises(InvalidParameterError):
            ctx.true_faulty_gradients()

    def test_empty_honest_means_zero(self):
        ctx = make_context(honest=np.zeros((0, 3)))
        assert np.allclose(ctx.honest_mean(), 0.0)


class TestBuildableAttacks:
    def test_excludes_attacks_that_need_arguments(self):
        needs_arguments = {"constant-bias", "cost-substitution",
                           "intermittent", "optimal-direction"}
        assert set(buildable_attacks()) == set(available_attacks()) - needs_arguments
        for name in buildable_attacks():
            assert make_attack(name).name == name


class TestShapeContract:
    def test_every_attack_produces_correct_shape(self):
        ctx = make_context()
        for name in available_attacks():
            kwargs = {}
            if name == "constant-bias":
                kwargs = {"bias": np.ones(3)}
            if name == "optimal-direction":
                kwargs = {"target": np.ones(3)}
            if name == "cost-substitution":
                kwargs = {
                    "substituted_costs": {
                        i: TranslatedQuadratic(np.zeros(3)) for i in (0, 1)
                    }
                }
            if name == "intermittent":
                kwargs = {"inner": ZeroGradient(), "period": 2}
            behavior = make_attack(name, **kwargs)
            out = behavior(ctx)
            assert out.shape == (2, 3), name

    def test_wrong_shape_caught_by_wrapper(self):
        class Broken(ByzantineBehavior):
            def forge(self, context):
                return np.zeros((1, 1))

        with pytest.raises(InvalidParameterError, match="shape"):
            Broken()(make_context())


class TestSimpleAttacks:
    def test_gradient_reverse_negates(self):
        ctx = make_context()
        out = GradientReverse()(ctx)
        assert np.allclose(out, -ctx.true_faulty_gradients())

    def test_gradient_reverse_strength(self):
        ctx = make_context()
        assert np.allclose(
            GradientReverse(strength=3.0)(ctx), -3.0 * ctx.true_faulty_gradients()
        )

    def test_random_gaussian_scale(self):
        ctx = make_context()
        out = RandomGaussian(scale=200.0)(ctx)
        # Norm should be large with overwhelming probability.
        assert np.linalg.norm(out) > 50.0

    def test_random_gaussian_deterministic_per_rng(self):
        a = RandomGaussian()(make_context(seed=5))
        b = RandomGaussian()(make_context(seed=5))
        assert np.array_equal(a, b)

    def test_sign_flip_targets_honest_mean(self):
        ctx = make_context()
        out = SignFlip(strength=2.0)(ctx)
        assert np.allclose(out[0], -2.0 * ctx.honest_mean())
        assert np.allclose(out[0], out[1])

    def test_zero(self):
        assert np.allclose(ZeroGradient()(make_context()), 0.0)

    def test_constant_bias(self):
        out = ConstantBias([1.0, 2.0, 3.0])(make_context())
        assert np.allclose(out, [[1.0, 2.0, 3.0]] * 2)

    def test_constant_bias_dimension_check(self):
        with pytest.raises(InvalidParameterError):
            ConstantBias([1.0])(make_context())

    def test_cost_substitution_reports_substituted_gradients(self):
        ctx = make_context(estimate=np.ones(3))
        substituted = {
            0: TranslatedQuadratic(np.zeros(3)),
            1: TranslatedQuadratic(5.0 * np.ones(3)),
        }
        out = CostSubstitution(substituted)(ctx)
        assert np.allclose(out[0], substituted[0].gradient(np.ones(3)))
        assert np.allclose(out[1], substituted[1].gradient(np.ones(3)))

    def test_cost_substitution_missing_agent_rejected(self):
        ctx = make_context()
        with pytest.raises(InvalidParameterError, match="no substituted cost"):
            CostSubstitution({0: TranslatedQuadratic(np.zeros(3))})(ctx)

    def test_cost_substitution_requires_non_empty(self):
        with pytest.raises(InvalidParameterError):
            CostSubstitution({})


class TestAdaptiveAttacks:
    def test_alie_hides_inside_std(self):
        ctx = make_context()
        out = ALittleIsEnough(z=1.5)(ctx)
        expected = ctx.honest_mean() - 1.5 * ctx.honest_std()
        assert np.allclose(out[0], expected)

    def test_alie_default_z_positive(self):
        ctx = make_context()
        out = ALittleIsEnough()(ctx)
        assert np.all(np.isfinite(out))

    def test_alie_default_z_computed_once_per_n_f(self, monkeypatch):
        # The default z is a normal quantile of (n, f) alone, so a batch
        # of 8 seeds x 50 rounds must not evaluate it 400 times.
        from scipy.stats import norm

        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.batch import run_dgd_batch
        from repro.system.runner import DGDConfig

        calls = []
        ppf = norm.ppf
        monkeypatch.setattr(norm, "ppf", lambda q: calls.append(q) or ppf(q))
        instance = make_redundant_regression(n=6, d=2, f=1, seed=3)
        config = DGDConfig(iterations=50, gradient_filter="cge", faulty_ids=(1,), f=1)
        traces = run_dgd_batch(
            instance.costs, ALittleIsEnough(), config, seeds=list(range(8))
        )
        assert len(traces) == 8
        assert len(calls) <= 1

    def test_ipm_direction(self):
        ctx = make_context()
        out = InnerProductManipulation(scale=0.5)(ctx)
        assert np.allclose(out[0], -0.5 * ctx.honest_mean())

    def test_mimic_copies_honest_row(self):
        ctx = make_context()
        out = Mimic(target_position=1)(ctx)
        assert np.allclose(out[0], ctx.honest_gradients[1])

    def test_optimal_direction_camouflaged_norm(self):
        ctx = make_context(estimate=np.ones(3))
        out = OptimalDirectionAttack(target=np.zeros(3))(ctx)
        honest_norms = np.linalg.norm(ctx.honest_gradients, axis=1)
        assert np.linalg.norm(out[0]) == pytest.approx(float(np.median(honest_norms)))

    def test_optimal_direction_at_target_is_zero(self):
        ctx = make_context(estimate=np.zeros(3))
        out = OptimalDirectionAttack(target=np.zeros(3))(ctx)
        assert np.allclose(out, 0.0)


class TestRegistry:
    def test_unknown_attack_rejected(self):
        with pytest.raises(InvalidParameterError, match="available"):
            make_attack("nope")

    def test_names_match_classes(self):
        assert make_attack("gradient-reverse").name == "gradient-reverse"
        assert make_attack("alie").name == "alie"

    def test_cost_substitution_via_registry(self):
        behavior = make_attack(
            "cost-substitution",
            substituted_costs={0: TranslatedQuadratic(np.zeros(3))},
        )
        assert behavior.name == "cost-substitution"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            GradientReverse(strength=0.0)
        with pytest.raises(InvalidParameterError):
            RandomGaussian(scale=-1.0)
        with pytest.raises(InvalidParameterError):
            ALittleIsEnough(z=-1.0)


class TestIntermittentAttack:
    def test_periodic_duty_cycle(self):
        from repro.attacks.adaptive import IntermittentAttack

        inner = GradientReverse()
        attack = IntermittentAttack(inner, period=2)
        active = make_context()  # round 0: active
        dormant_ctx = AttackContext(
            round_index=1,
            estimate=active.estimate,
            honest_gradients=active.honest_gradients,
            honest_ids=active.honest_ids,
            faulty_ids=active.faulty_ids,
            faulty_costs=active.faulty_costs,
            rng=np.random.default_rng(0),
        )
        assert np.allclose(attack(active), -active.true_faulty_gradients())
        assert np.allclose(attack(dormant_ctx), dormant_ctx.true_faulty_gradients())

    def test_probability_zero_is_always_honest(self):
        from repro.attacks.adaptive import IntermittentAttack

        attack = IntermittentAttack(GradientReverse(), active_probability=0.0)
        ctx = make_context()
        assert np.allclose(attack(ctx), ctx.true_faulty_gradients())

    def test_probability_one_is_always_attacking(self):
        from repro.attacks.adaptive import IntermittentAttack

        attack = IntermittentAttack(GradientReverse(), active_probability=1.0)
        ctx = make_context()
        assert np.allclose(attack(ctx), -ctx.true_faulty_gradients())

    def test_invalid_parameters(self):
        from repro.attacks.adaptive import IntermittentAttack

        with pytest.raises(InvalidParameterError):
            IntermittentAttack(GradientReverse(), active_probability=1.5)
        with pytest.raises(InvalidParameterError):
            IntermittentAttack(GradientReverse(), period=0)

    def test_end_to_end_still_filtered(self):
        from repro.attacks.adaptive import IntermittentAttack
        from repro.analysis.metrics import final_error
        from repro.problems.linear_regression import make_redundant_regression
        from repro.system.runner import run_dgd

        instance = make_redundant_regression(n=6, d=2, f=1, noise_std=0.0, seed=0)
        x_H = instance.honest_minimizer(range(1, 6))
        trace = run_dgd(
            instance.costs,
            IntermittentAttack(RandomGaussian(scale=200.0), active_probability=0.3),
            faulty_ids=[0], gradient_filter="cge", iterations=800, seed=0,
        )
        assert final_error(trace, x_H) < 0.1
