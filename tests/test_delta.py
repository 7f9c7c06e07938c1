import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from ormediate import (
    Contrast,
    CovariateProfile,
    CovarianceError,
    Dataset,
    FittedModel,
    MediationError,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    SchemaError,
    build_design,
    fit,
    infer,
    infer_many,
    jacobian_log_effects,
    natural_effects,
    simulate_dataset,
)
from ormediate import delta
from ormediate.delta import InferenceResult
from ormediate.effects import a_term_key_derivatives, grad_a_term
from ormediate.effects import _log_cde_at, a_term, a_term_inputs
from ormediate.model import _OutcomeAt
from ormediate.oracle import finite_diff
from helpers import microcredit_params, random_problem


def _split_theta(spec, theta):
    ky = spec.n_outcome_coefs
    return (
        OutcomeParams.from_vector(spec, theta[:ky]),
        MediatorParams.from_vector(spec, theta[ky:]),
    )


def _stack_theta(outcome, mediator):
    return np.concatenate([outcome.active_vector(), mediator.active_vector()])


def _summarised(log_est, var_log, zq):
    """One effect's seven numbers in the per-value arithmetic of Python
    floats: the reference of delta._effect_rows."""
    se_log = math.sqrt(var_log)
    or_est = math.exp(log_est)
    lower, upper = math.exp(log_est - zq * se_log), math.exp(log_est + zq * se_log)
    if se_log > 0.0:
        p = math.erfc(abs(log_est / se_log) / math.sqrt(2.0))
    else:
        p = 1.0 if log_est == 0.0 else 0.0
    return [log_est, or_est, se_log, or_est * se_log, lower, upper, p]


class TestEffectRows:
    """The numbers of a stack's effects, made over all its rows with numpy and
    math's exp and erfc, equal the same arithmetic on Python floats bit for
    bit; and the report's rows equal infer_many's records."""

    @staticmethod
    def _fits(spec, outcome, mediator, rng, scale):
        return [
            FittedModel(coefficients=params.active_vector(), vcov=scale * (a @ a.T + (a @ a.T).T),
                        log_likelihood=0.0, iterations=0, converged=True, n=10,
                        column_names=spec.terms(params.BLOCKS))
            for params, a in ((outcome, rng.normal(size=(spec.n_outcome_coefs,) * 2)),
                              (mediator, rng.normal(size=(spec.n_mediator_coefs,) * 2)))
        ]

    @pytest.mark.parametrize("scale", [0.0, 1e-3, 0.5])
    def test_rows_equal_the_float_loop(self, scale):
        rng = np.random.default_rng(41)
        for _ in range(30):
            spec, outcome, mediator, contrast = random_problem(rng)
            fits = self._fits(spec, outcome, mediator, rng, scale)
            params = (outcome, mediator, fits[0].vcov, fits[1].vcov)
            contrasts = [Contrast(contrast.x + d, contrast.x_star, contrast.profile)
                         for d in (0.0, 0.5, -2.0)]
            stack = delta._stacked(spec, *params, contrasts, 0.9)
            var_log = np.clip(np.diagonal(stack.cov_log, axis1=1, axis2=2), 0.0, None).tolist()
            expected = [
                [_summarised(log, var, stack.zq) for log, var in zip(logs, variances)]
                + [_summarised(cde[w], max(stack.var_cde[i, w].item(), 0.0), stack.zq)
                   for w in (0, 1)]
                for i, (logs, cde, variances) in enumerate(zip(stack.logs, stack.cde, var_log))
            ]
            assert repr(delta._effect_rows(stack).tolist()) == repr(expected)
            results = infer_many(spec, *fits, contrasts, 0.9)
            records = [[v for e in (*r.effects, *r.cde) for v in e._values(e)[1:]]
                       for r in results]
            assert repr(delta._table_rows(spec, *params, contrasts, 0.9).tolist()) == repr(records)

    @classmethod
    def _failing_slice(cls, i):
        """Fits and six contrasts, of which contrast i fails, and the error
        of infer at contrast i."""
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.5, exposure=1.0, mediator=0.3)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        fits = cls._fits(spec, outcome, mediator, np.random.default_rng(7), 1e-3)
        contrasts = [Contrast(1.0 + j / 8, 0.0) for j in range(6)]
        contrasts[i] = Contrast(1000.0, 0.0)  # the outcome predictor passes exp()'s range
        with pytest.raises(MediationError) as expected:
            infer(spec, *fits, contrasts[i], 0.9)
        return spec, outcome, mediator, fits, contrasts, str(expected.value)

    @staticmethod
    def _counted_stacks(monkeypatch) -> list:
        """The number of contrasts of each delta._stacked call from now on."""
        calls = []
        stacked = delta._stacked

        def counting(*args):
            calls.append(len(args[5]))
            return stacked(*args)

        monkeypatch.setattr(delta, "_stacked", counting)
        return calls

    @pytest.mark.parametrize("i", [0, 3, 5])
    def test_a_failing_slice_stacks_once_then_once_per_contrast_to_the_failing_one(
            self, monkeypatch, i):
        """A slice that fails at contrast i costs 1 + (i + 1) stacks: its own,
        then one per contrast up to the first failing one, whose error it
        raises."""
        spec, outcome, mediator, fits, contrasts, expected = self._failing_slice(i)
        calls = self._counted_stacks(monkeypatch)
        with pytest.raises(MediationError) as raised:
            delta._table_rows(spec, outcome, mediator, fits[0].vcov, fits[1].vcov, contrasts, 0.9)
        assert str(raised.value) == expected
        assert calls == [6] + [1] * (i + 1)

    @pytest.mark.parametrize("i", [0, 3, 5])
    def test_infer_many_retries_a_failing_slice_as_the_table_rows_do(self, monkeypatch, i):
        spec, _, _, fits, contrasts, expected = self._failing_slice(i)
        calls = self._counted_stacks(monkeypatch)
        with pytest.raises(MediationError) as raised:
            infer_many(spec, *fits, contrasts, 0.9)
        assert str(raised.value) == expected
        assert calls == [6] + [1] * (i + 1)

    def test_infer_many_of_no_contrasts_is_empty(self):
        spec, _, _, fits, _, _ = self._failing_slice(0)
        assert infer_many(spec, *fits, []) == []
        assert infer_many(spec, *fits, (), 0.5) == []

    def test_infer_is_infer_many_of_one_contrast(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            spec, outcome, mediator, contrast = random_problem(rng)
            fits = self._fits(spec, outcome, mediator, rng, 1e-2)
            one, = infer_many(spec, *fits, [contrast], 0.9)
            alone = infer(spec, *fits, contrast, 0.9)
            for field in InferenceResult.FIELDS:
                a, b = getattr(alone, field), getattr(one, field)
                if isinstance(a, np.ndarray):
                    assert a.tobytes() == b.tobytes() and a.shape == b.shape, field
                else:
                    assert repr(a) == repr(b), field


class TestKeyDerivatives:
    def test_match_finite_differences_through_theta(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.6, exposure=0.9, mediator=0.7,
                                exposure_mediator=0.3)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.4)
        prof = CovariateProfile()
        x1, x2 = 1.0, 0.0
        inputs = a_term_inputs(outcome, mediator, x1, x2, prof)
        d_b0, d_bw, d_g0 = a_term_key_derivatives(*inputs)

        def a_of_theta(theta):
            o, m = _split_theta(spec, theta)
            return a_term(o, m, x1, x2, prof)

        fd = finite_diff(a_of_theta, _stack_theta(outcome, mediator))
        assert d_b0 == pytest.approx(fd[0], rel=1e-6, abs=1e-10)
        assert d_bw == pytest.approx(fd[2], rel=1e-6, abs=1e-10)
        assert d_g0 == pytest.approx(fd[4], rel=1e-6, abs=1e-10)

    def test_unit_k_zeroes_b0_and_g0_exactly(self):
        d_b0, d_bw, d_g0 = a_term_key_derivatives(1.0, 1.7, 2.9, 5.7)
        assert d_b0 == 0.0 and d_g0 == 0.0
        # at k=1 the bridge derivative in bw collapses to p2*p3 / (p2*p3 + p4)
        assert d_bw == pytest.approx((1.7 * 2.9) / (1.7 * 2.9 + 5.7), rel=1e-12)

    @pytest.mark.parametrize("intercept", [300.0, 354.0, 400.0, 550.0, 700.0])
    def test_finite_past_an_overflowing_square_of_the_denominator(self, intercept):
        # from a mediator intercept of about 354, s = p2 p3 + p4 passes 1.3e154
        # and s * s overflows, while every predictor stays inside +/-709
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-1.542, exposure=1.903, mediator=0.758,
                                exposure_mediator=0.137)
        mediator = MediatorParams(spec, intercept=intercept)
        contrast = Contrast(1.0, 0.0)
        jac = jacobian_log_effects(outcome, mediator, contrast)
        fd = finite_diff(
            lambda t: np.array(natural_effects(*_split_theta(spec, t), contrast).log_values()),
            _stack_theta(outcome, mediator),
        )
        assert np.abs(jac - fd).max() < 1e-8
        fits = [FittedModel(params.active_vector(), np.eye(k), 0.0, 0, True, 10,
                            spec.terms(params.BLOCKS))
                for params, k in ((outcome, 4), (mediator, 2))]
        assert np.array_equal(infer_many(spec, *fits, [contrast] * 2)[1].jacobian, jac)


class TestGradATerm:
    def test_no_covariate_assembly(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-1.2, exposure=1.9, mediator=0.75,
                                exposure_mediator=0.14)
        mediator = MediatorParams(spec, intercept=0.03, exposure=0.26)
        prof = CovariateProfile()
        x1, x2 = 1.0, 0.0
        grad = grad_a_term(outcome, mediator, x1, x2, prof)
        assert grad.shape == (6,)
        d_b0, d_bw, d_g0 = a_term_key_derivatives(
            *a_term_inputs(outcome, mediator, x1, x2, prof)
        )
        assert np.array_equal(
            grad, [d_b0, d_b0 * x1, d_bw, d_bw * x1, d_g0, d_g0 * x2]
        )

    def test_fd_sweep_full_interactions(self):
        rng = np.random.default_rng(1212)
        worst = 0.0
        for _ in range(40):
            spec, outcome, mediator, contrast = random_problem(rng)
            x1, x2 = contrast.x, contrast.x_star
            grad = grad_a_term(outcome, mediator, x1, x2, contrast.profile)
            assert grad.size == spec.n_outcome_coefs + spec.n_mediator_coefs

            def a_of_theta(theta, x1=x1, x2=x2, spec=spec, prof=contrast.profile):
                o, m = _split_theta(spec, theta)
                return a_term(o, m, x1, x2, prof)

            fd = finite_diff(a_of_theta, _stack_theta(outcome, mediator))
            err = np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(grad)))
            worst = max(worst, float(err))
        assert worst < 1e-6


class TestJacobian:
    def test_fd_sweep(self):
        rng = np.random.default_rng(1313)
        worst = 0.0
        for _ in range(30):
            spec, outcome, mediator, contrast = random_problem(rng)
            jac = jacobian_log_effects(outcome, mediator, contrast)

            def logs_of_theta(theta, spec=spec, contrast=contrast):
                o, m = _split_theta(spec, theta)
                return np.asarray(natural_effects(o, m, contrast).log_values())

            fd = finite_diff(logs_of_theta, _stack_theta(outcome, mediator))
            err = np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)))
            worst = max(worst, float(err))
        assert worst < 1e-5

    def test_row_identities(self):
        rng = np.random.default_rng(1414)
        for _ in range(100):
            _, outcome, mediator, contrast = random_problem(rng)
            jac = jacobian_log_effects(outcome, mediator, contrast)
            assert np.max(np.abs(jac[4] - (jac[0] + jac[1]))) < 1e-12
            assert np.max(np.abs(jac[4] - (jac[2] + jac[3]))) < 1e-12

    def test_null_mediator_rows_zero_outside_w_group(self):
        spec = ModelSpec(z_names=("a",), xz=True)  # wz, xwz excluded
        outcome = OutcomeParams(
            spec, intercept=-0.8, exposure=1.1, mediator=0.0, exposure_mediator=0.0,
            confounders=(0.4,), exposure_confounders=(-0.2,),
        )
        mediator = MediatorParams(spec, intercept=0.2, exposure=0.6)
        contrast = Contrast(1.0, 0.0, CovariateProfile(z=(0.7,)))
        jac = jacobian_log_effects(outcome, mediator, contrast)
        # outcome layout: b0, bx, a, x:a, bw, bxw | mediator: g0, gx
        w_group = [4, 5]
        for row in (jac[1], jac[3]):  # TNIE, PNIE
            outside = np.delete(row, w_group)
            assert np.all(outside == 0.0)  # exactly zero, not just small
            assert np.any(row[w_group] != 0.0)

    def test_exposure_coefficient_carries_delta(self):
        outcome, mediator = microcredit_params()
        contrast = Contrast(2.0, -1.0, CovariateProfile(z=(37.0, 0.0, 0.0)))
        jac = jacobian_log_effects(outcome, mediator, contrast)
        fd = finite_diff(
            lambda theta: np.asarray(
                natural_effects(*_split_theta(outcome.spec, theta), contrast).log_values()
            ),
            _stack_theta(outcome, mediator),
        )
        assert np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))) < 1e-5


def _fit_joint(spec, data):
    Xy, yy = build_design(data, spec, "outcome")
    Xw, ww = build_design(data, spec, "mediator")
    return (
        fit(Xy, yy, column_names=spec.outcome_terms()),
        fit(Xw, ww, column_names=spec.mediator_terms()),
    )


class TestInfer:
    def _simulated_inference(self, n=4000, seed=77):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6,
                                exposure_mediator=0.15)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        data = simulate_dataset(spec, outcome, mediator, n, seed)
        fy, fw = _fit_joint(spec, data)
        return spec, infer(spec, fy, fw, Contrast(1.0, 0.0))

    def test_structure_and_invariants(self):
        _, res = self._simulated_inference()
        assert [e.name for e in res.effects] == ["pnde", "tnie", "tnde", "pnie", "te"]
        assert [e.name for e in res.cde] == ["cde0", "cde1"]
        for e in res.effects + res.cde:
            assert e.ci_lower <= e.or_estimate <= e.ci_upper
            assert 0.0 <= e.p_value <= 1.0
            assert e.se_or == pytest.approx(e.or_estimate * e.se_log, rel=1e-12)
            assert e.or_estimate == pytest.approx(math.exp(e.log_estimate), rel=1e-12)
        assert np.array_equal(res.cov_log, res.cov_log.T)
        assert np.all(np.diag(res.cov_log) >= 0.0)
        assert res.jacobian.shape == (5, 6)

    def test_te_variance_decomposes(self):
        # var(log TE) = var(log PNDE) + var(log TNIE) + 2 cov, by the row identity
        _, res = self._simulated_inference()
        c = res.cov_log
        assert c[4, 4] == pytest.approx(c[0, 0] + c[1, 1] + 2 * c[0, 1], rel=1e-10)
        assert c[4, 4] == pytest.approx(c[2, 2] + c[3, 3] + 2 * c[2, 3], rel=1e-10)

    def test_or_scale_covariance(self):
        _, res = self._simulated_inference()
        ors = np.asarray([e.or_estimate for e in res.effects])
        assert np.allclose(res.cov_or, res.cov_log * np.outer(ors, ors), rtol=1e-12)

    def test_zero_covariance_collapses(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        fy = FittedModel(
            coefficients=outcome.active_vector(), vcov=np.zeros((4, 4)),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.outcome_terms(),
        )
        fw = FittedModel(
            coefficients=mediator.active_vector(), vcov=np.zeros((2, 2)),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.mediator_terms(),
        )
        res = infer(spec, fy, fw, Contrast(1.0, 0.0))
        for e in res.effects:
            assert e.se_log == 0.0
            assert e.ci_lower == e.or_estimate == e.ci_upper
            assert e.p_value == (1.0 if e.log_estimate == 0.0 else 0.0)

    def test_negative_variance_raises(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        fy = FittedModel(
            coefficients=outcome.active_vector(), vcov=-np.eye(4),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.outcome_terms(),
        )
        fw = FittedModel(
            coefficients=mediator.active_vector(), vcov=np.zeros((2, 2)),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.mediator_terms(),
        )
        with pytest.raises(CovarianceError):
            infer(spec, fy, fw, Contrast(1.0, 0.0))

    @staticmethod
    def _wide_bridge_problem(variance):
        """Every predictor within the exp bound, yet at the contrast's profile
        the products (p2 p3 + p4)^2 of the key derivatives overflow; both
        covariances ``variance`` times the identity."""
        spec = ModelSpec(z_names=("a",), v_names=("b",), xz=True, wz=True, xwz=True, xv=True)
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5)
        fy, fw = (
            FittedModel(
                coefficients=params.active_vector(), vcov=variance * np.eye(k),
                log_likelihood=0.0, iterations=0, converged=True, n=10,
                column_names=spec.terms(params.BLOCKS),
            )
            for params, k in ((outcome, spec.n_outcome_coefs), (mediator, spec.n_mediator_coefs))
        )
        return spec, fy, fw, Contrast(1.0, 0.0, CovariateProfile(z=[0.5], v=[0.3]))

    def test_non_finite_variance_raises(self):
        # a coefficient variance of 1e308 takes J Sigma J^T past the double range
        spec, fy, fw, contrast = self._wide_bridge_problem(1e308)
        with pytest.raises(CovarianceError, match="not finite"):
            infer(spec, fy, fw, contrast)
        with pytest.raises(CovarianceError, match="not finite"):
            infer_many(spec, fy, fw, [contrast, contrast])

    def test_overflowing_key_derivative_products_give_finite_errors(self):
        spec, fy, fw, contrast = self._wide_bridge_problem(0.01)
        for res in (infer(spec, fy, fw, contrast), *infer_many(spec, fy, fw, [contrast] * 2)):
            assert np.isfinite(res.jacobian).all()
            se = [e.se_log for e in (*res.effects, *res.cde)]
            assert all(math.isfinite(v) for v in se) and max(se) > 0.0

    def test_an_odds_ratio_covariance_beyond_the_double_range_is_no_warning(self):
        # log PNDE = log TE = 400: each odds ratio and bound is finite, but
        # their products in cov_or pass 1.8e308, as Python floats do silently
        spec = ModelSpec()
        outcome = OutcomeParams(spec, exposure=400.0)
        fy, fw = (
            FittedModel(
                coefficients=params.active_vector(), vcov=1e-4 * np.eye(k),
                log_likelihood=0.0, iterations=0, converged=True, n=10,
                column_names=spec.terms(params.BLOCKS),
            )
            for params, k in ((outcome, 4), (MediatorParams(spec), 2))
        )
        contrast = Contrast(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [infer(spec, fy, fw, contrast), *infer_many(spec, fy, fw, [contrast] * 2)]
        for res in results:
            pnde = res.by_name()["pnde"]
            assert pnde.log_estimate == 400.0 and math.isfinite(pnde.ci_upper)
            assert res.cov_or[0, 0] == math.inf

    def test_non_finite_cde_variance_raises(self):
        # the effect variances stay finite (the mediator odds are ~e^-700),
        # but D^2 (V_bx + V_bxw) overflows in the CDE(1) variance
        spec = ModelSpec()
        fy = FittedModel(
            coefficients=np.zeros(4), vcov=np.diag([1e-2, 1e-2, 1e-2, 1.7e308]),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.outcome_terms(),
        )
        fw = FittedModel(
            coefficients=np.array([-700.0, 0.0]), vcov=1e-2 * np.eye(2),
            log_likelihood=0.0, iterations=0, converged=True, n=10,
            column_names=spec.mediator_terms(),
        )
        for run in (lambda c: infer(spec, fy, fw, c), lambda c: infer_many(spec, fy, fw, [c])):
            with pytest.raises(CovarianceError, match=r"CDE\(1\) variance is not finite"):
                run(Contrast(2.0, 0.0))

    def test_level_and_shape_validation(self):
        spec, res = self._simulated_inference(n=200, seed=3)
        with pytest.raises(SchemaError):
            self._with_level(spec, 1.5)

    def _with_level(self, spec, level):
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        data = simulate_dataset(spec, outcome, mediator, 300, 5)
        fy, fw = _fit_joint(spec, data)
        return infer(spec, fy, fw, Contrast(1.0, 0.0), level=level)

    def test_se_shrinks_with_sample_size(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6,
                                exposure_mediator=0.15)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        ses = []
        for n in (2000, 8000):
            data = simulate_dataset(spec, outcome, mediator, n, 11)
            fy, fw = _fit_joint(spec, data)
            res = infer(spec, fy, fw, Contrast(1.0, 0.0))
            ses.append(res.by_name()["te"].se_log)
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.25)

    def test_wider_level_widens_interval(self):
        spec = ModelSpec()
        lo = self._with_level(spec, 0.90)
        hi = self._with_level(spec, 0.99)
        te_lo, te_hi = lo.by_name()["te"], hi.by_name()["te"]
        assert te_hi.ci_upper - te_hi.ci_lower > te_lo.ci_upper - te_lo.ci_lower


class TestReportedValues:
    """Each p-value, interval and CDE standard error of an inference,
    recomputed from its definition at contrasts of several widths."""

    SPEC = ModelSpec(z_names=("a", "b"), v_names=("c",), xz=True, wz=True, xwz=True, xv=True)
    PROFILE = CovariateProfile(z=(0.4, -1.2), v=(0.7,))

    def _fits(self):
        spec, rng = self.SPEC, np.random.default_rng(41)
        fits = []
        for params, k in ((OutcomeParams, spec.n_outcome_coefs),
                          (MediatorParams, spec.n_mediator_coefs)):
            root = rng.normal(size=(k, k)) * 0.05
            fits.append(FittedModel(
                coefficients=0.4 * rng.normal(size=k), vcov=root @ root.T + 1e-3 * np.eye(k),
                log_likelihood=0.0, iterations=0, converged=True, n=10,
                column_names=spec.terms(params.BLOCKS),
            ))
        return fits

    @pytest.mark.parametrize("x, x_star", [(1.0, 0.0), (2.0, 0.0), (-0.5, 0.5), (1.0, 0.5)])
    def test_p_values_and_intervals_follow_from_log_and_se(self, x, x_star):
        fy, fw = self._fits()
        res = infer(self.SPEC, fy, fw, Contrast(x, x_star, self.PROFILE), level=0.9)
        zq = NormalDist().inv_cdf(0.95)
        for e in res.effects + res.cde:
            assert e.se_log > 0.0 and e.se_log != 1.0
            assert e.p_value == pytest.approx(
                math.erfc(abs(e.log_estimate / e.se_log) / math.sqrt(2.0)), rel=1e-12), e.name
            assert e.ci_lower == pytest.approx(math.exp(e.log_estimate - zq * e.se_log),
                                               rel=1e-12)
            assert e.ci_upper == pytest.approx(math.exp(e.log_estimate + zq * e.se_log),
                                               rel=1e-12)

    @pytest.mark.parametrize("x, x_star", [(2.0, 0.0), (-0.5, 0.5), (1.0, 0.5)])
    def test_cde_standard_errors_match_a_finite_difference_gradient(self, x, x_star):
        fy, fw = self._fits()
        spec, delta = self.SPEC, x - x_star
        res = infer(spec, fy, fw, Contrast(x, x_star, self.PROFILE))
        for w, cde in enumerate(res.cde):
            def log_cde(theta, w=w):
                oy = _OutcomeAt(OutcomeParams.from_vector(spec, theta), self.PROFILE.z)
                return _log_cde_at(oy, delta)[w]

            grad = finite_diff(log_cde, fy.coefficients)
            assert cde.se_log == pytest.approx(math.sqrt(grad @ fy.vcov @ grad), rel=1e-6)
