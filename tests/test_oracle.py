import math

import numpy as np
import pytest

from ormediate import (
    Contrast,
    CovariateProfile,
    DegenerateProbabilityError,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    SchemaError,
)
from ormediate.effects import natural_effects
from ormediate.oracle import (
    ProbabilityTables,
    finite_diff,
    g_y_check,
    mediation_formula_effects,
    tables_from_params,
)
from helpers import microcredit_params, random_problem

CONTRAST_00 = Contrast(x=1.0, x_star=0.0, profile=CovariateProfile(z=(37.0, 0.0, 0.0)))


def _logit_inv(eta):
    return 1.0 / (1.0 + math.exp(-eta))


class TestTables:
    def test_microcredit_cells(self):
        outcome, mediator = microcredit_params()
        t = tables_from_params(outcome, mediator, CONTRAST_00)
        # row 0 = exposure level x=1, row 1 = reference x*=0
        assert t.p_y[0, 0] == pytest.approx(_logit_inv(0.657), rel=1e-12)
        assert t.p_y[0, 1] == pytest.approx(_logit_inv(1.552), rel=1e-12)
        assert t.p_y[1, 0] == pytest.approx(_logit_inv(-1.246), rel=1e-12)
        assert t.p_y[1, 1] == pytest.approx(_logit_inv(-0.488), rel=1e-12)
        assert t.p_w[0] == pytest.approx(_logit_inv(0.289), rel=1e-12)
        assert t.p_w[1] == pytest.approx(_logit_inv(0.027), rel=1e-12)
        # four-decimal published spot checks
        assert t.p_y[0, 0] == pytest.approx(0.6586, abs=1.5e-4)
        assert t.p_y[0, 1] == pytest.approx(0.8252, abs=1.5e-4)
        assert t.p_y[1, 1] == pytest.approx(0.3804, abs=1.5e-4)
        assert t.p_w[0] == pytest.approx(0.5718, abs=1.5e-4)

    def test_complements_are_stable_not_one_minus(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-30.0, exposure=0.5, mediator=0.3)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.2)
        t = tables_from_params(outcome, mediator, Contrast(1.0, 0.0))
        # P(Y=1 | x*=0, w=0) = logistic(-30): tiny but exact
        assert t.p_y[1, 0] == pytest.approx(math.exp(-30.0), rel=1e-10)
        # complement keeps full precision instead of rounding to 1.0
        assert t.q_y[1, 0] == pytest.approx(1.0 / (1.0 + math.exp(-30.0)), rel=1e-15)
        assert t.q_y[1, 0] < 1.0

    def test_boundary_guard(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-40.0)
        mediator = MediatorParams(spec, intercept=0.0)
        with pytest.raises(DegenerateProbabilityError):
            tables_from_params(outcome, mediator, Contrast(1.0, 0.0))
        with pytest.raises(DegenerateProbabilityError):
            ProbabilityTables.from_probabilities(
                [[0.5, 0.5], [0.5, 1.0]], [0.5, 0.5], Contrast(1.0, 0.0)
            )

    def test_complement_consistency_checked(self):
        with pytest.raises(SchemaError):
            ProbabilityTables(
                p_y=[[0.5, 0.5], [0.5, 0.5]],
                q_y=[[0.5, 0.5], [0.5, 0.4]],
                p_w=[0.5, 0.5],
                q_w=[0.5, 0.5],
                contrast=Contrast(1.0, 0.0),
            )


class TestMediationFormula:
    def test_matches_closed_form_on_random_models(self):
        rng = np.random.default_rng(808)
        worst = 0.0
        for _ in range(100):
            _, outcome, mediator, contrast = random_problem(rng)
            exact = natural_effects(outcome, mediator, contrast)
            orc = mediation_formula_effects(tables_from_params(outcome, mediator, contrast))
            gap = max(
                abs(a - b) for a, b in zip(exact.log_values(), orc.log_values())
            )
            gap = max(
                gap,
                abs(exact.log_cde_at[0] - orc.log_cde_at[0]),
                abs(exact.log_cde_at[1] - orc.log_cde_at[1]),
            )
            worst = max(worst, gap)
        assert worst < 1e-10

    def test_microcredit_total_effect(self):
        outcome, mediator = microcredit_params()
        es = mediation_formula_effects(tables_from_params(outcome, mediator, CONTRAST_00))
        assert es.te == pytest.approx(7.046, abs=0.02)
        assert es.pnde == pytest.approx(6.652, abs=0.02)

    def test_flat_tables_give_null_effects(self):
        t = ProbabilityTables.from_probabilities(
            [[0.4, 0.4], [0.4, 0.4]], [0.7, 0.2], Contrast(1.0, 0.0)
        )
        es = mediation_formula_effects(t)
        assert max(abs(v) for v in es.log_values()) < 1e-14


class TestGyCheck:
    def _no_covariate_params(self):
        spec = ModelSpec()
        outcome = OutcomeParams(
            spec, intercept=-1.246, exposure=1.903, mediator=0.758, exposure_mediator=0.137
        )
        mediator = MediatorParams(spec, intercept=0.027, exposure=0.262)
        return outcome, mediator

    def test_identities_hold(self):
        outcome, mediator = self._no_covariate_params()
        res = g_y_check(outcome, mediator, x=1.0)
        assert res.residual_g < 1e-12
        assert res.residual_risk_ratio < 1e-12
        assert res.passed()

    def test_random_sweep(self):
        rng = np.random.default_rng(909)
        for _ in range(25):
            _, outcome, mediator, contrast = random_problem(rng, p=0, q=0)
            res = g_y_check(outcome, mediator, x=contrast.x)
            assert res.passed(1e-12), (res.residual_g, res.residual_risk_ratio)

    def test_requires_no_covariates(self):
        outcome, mediator = microcredit_params()
        with pytest.raises(SchemaError):
            g_y_check(outcome, mediator, x=1.0)


class TestFiniteDiff:
    def test_scalar_gradient(self):
        f = lambda t: math.sin(t[0]) * t[1] ** 2
        theta = np.array([0.7, -1.3])
        grad = finite_diff(f, theta)
        assert grad == pytest.approx(
            [math.cos(0.7) * 1.69, math.sin(0.7) * -2.6], rel=1e-8
        )

    def test_vector_jacobian_shape(self):
        f = lambda t: np.array([t[0] * t[1], t[0] ** 2, t[1]])
        jac = finite_diff(f, np.array([2.0, 3.0]))
        assert jac.shape == (3, 2)
        assert np.allclose(jac, [[3.0, 2.0], [4.0, 0.0], [0.0, 1.0]], atol=1e-8)

    def test_step_scales_with_theta(self):
        # for f(x) = x^2 the central difference is exact regardless of step
        grad = finite_diff(lambda t: t[0] ** 2, np.array([1e6]))
        assert grad[0] == pytest.approx(2e6, rel=1e-9)

    @pytest.mark.parametrize("f", [
        lambda t: math.sin(t[0]) * t[1] ** 2,
        lambda t: np.array([t[0] * t[1], t[0] ** 2, t[1]]),
    ], ids=["scalar", "vector"])
    def test_call_order(self, f):
        theta = np.array([0.7, -1.3])
        seen = []
        finite_diff(lambda t: seen.append(t.copy()) or f(t), theta)
        h = 1e-6 * np.maximum(1.0, np.abs(theta))
        expected = [theta]
        for i in range(theta.size):
            for sign in (1.0, -1.0):
                point = theta.copy()
                point[i] += sign * h[i]
                expected.append(point)
        assert len(seen) == len(expected)
        for got, want in zip(seen, expected):
            assert np.array_equal(got, want)

    def test_nonfinite_raises(self):
        f = lambda t: math.nan if t[0] < 1e-7 else 0.0
        with pytest.raises(SchemaError, match="coordinate 0"):
            finite_diff(f, np.array([1e-7]))


class TestRareOutcomeLimit:
    def test_gap_shrinks_with_intercept(self):
        from ormediate.effects import approx_effects

        outcome, mediator = microcredit_params()
        gaps = []
        for b0 in (-2.0, -4.0, -6.0, -8.0, -10.0, -12.0, -14.0):
            shifted = OutcomeParams(
                outcome.spec, intercept=b0, exposure=1.903, mediator=0.758,
                exposure_mediator=0.137, confounders=(0.008, -1.001, 0.185),
            )
            exact = natural_effects(shifted, mediator, CONTRAST_00)
            approx = approx_effects(shifted, mediator, CONTRAST_00)
            gaps.append(
                max(abs(a - b) for a, b in zip(exact.log_values(), approx.log_values()))
            )
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # monotone decreasing
        assert gaps[-1] < 0.02
        assert gaps[0] > gaps[-1]
