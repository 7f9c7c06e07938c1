import math

import numpy as np
import pytest

from ormediate import (
    Contrast,
    CovariateProfile,
    CovarianceError,
    Dataset,
    FittedModel,
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
from ormediate.delta import a_term_key_derivatives, grad_a_term
from ormediate.effects import ATermInputs, a_term
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


class TestKeyDerivatives:
    def test_match_finite_differences_through_theta(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.6, exposure=0.9, mediator=0.7,
                                exposure_mediator=0.3)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.4)
        prof = CovariateProfile()
        x1, x2 = 1.0, 0.0
        inputs = ATermInputs.from_params(outcome, mediator, x1, x2, prof)
        d_b0, d_bw, d_g0 = a_term_key_derivatives(inputs)

        def a_of_theta(theta):
            o, m = _split_theta(spec, theta)
            return a_term(o, m, x1, x2, prof)

        fd = finite_diff(a_of_theta, _stack_theta(outcome, mediator))
        assert d_b0 == pytest.approx(fd[0], rel=1e-6, abs=1e-10)
        assert d_bw == pytest.approx(fd[2], rel=1e-6, abs=1e-10)
        assert d_g0 == pytest.approx(fd[4], rel=1e-6, abs=1e-10)

    def test_unit_k_zeroes_b0_and_g0_exactly(self):
        inputs = ATermInputs(k=1.0, p2=1.7, p3=2.9, p4=5.7)
        d_b0, d_bw, d_g0 = a_term_key_derivatives(inputs)
        assert d_b0 == 0.0 and d_g0 == 0.0
        # at k=1 the bridge derivative in bw collapses to p2*p3 / (p2*p3 + p4)
        assert d_bw == pytest.approx((1.7 * 2.9) / (1.7 * 2.9 + 5.7), rel=1e-12)


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
            ATermInputs.from_params(outcome, mediator, x1, x2, prof)
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

    def test_non_finite_variance_raises(self):
        # every predictor within the exp bound, yet (p2 p3 + p4)^2 overflows
        # in the key derivatives, so the Jacobian is NaN
        spec = ModelSpec(z_names=("a",), v_names=("b",), xz=True, wz=True, xwz=True, xv=True)
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5)
        fy, fw = (
            FittedModel(
                coefficients=params.active_vector(), vcov=0.01 * np.eye(k),
                log_likelihood=0.0, iterations=0, converged=True, n=10,
                column_names=spec.terms(params.BLOCKS),
            )
            for params, k in ((outcome, spec.n_outcome_coefs), (mediator, spec.n_mediator_coefs))
        )
        contrast = Contrast(1.0, 0.0, CovariateProfile(z=[0.5], v=[0.3]))
        with pytest.raises(CovarianceError, match="not finite"):
            infer(spec, fy, fw, contrast)
        with pytest.raises(CovarianceError, match="not finite"):
            infer_many(spec, fy, fw, [contrast, contrast])

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
