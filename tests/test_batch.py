"""The batched predictor algebra against the same evaluation taken one row at a
time: coefficient rows at one profile (the verify jacobian suite's
central-difference points) and profiles at one coefficient vector
(``infer_many``). Equality is bitwise, and a failing batch raises the error of
the first failing row."""

import math

import numpy as np
import pytest

from ormediate import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from ormediate import delta, effects
from ormediate.delta import infer, infer_many, jacobian_log_effects
from ormediate.effects import _log_effects_at_rows, natural_effects
from ormediate.exceptions import PredictorOverflowError
from ormediate.logit import FittedModel
from ormediate.model import OUTCOME_BLOCKS, _MediatorAt, _OutcomeAt
from ormediate.verify import random_problem


def _bits(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def _theta(outcome, mediator):
    return np.concatenate([outcome.active_vector(), mediator.active_vector()])


def _difference_points(theta):
    """The verify jacobian suite's central-difference points: theta + h_i e_i
    and theta - h_i e_i for each i in turn, h_i = 1e-6 max(1, |theta_i|)."""
    points = np.repeat(theta[None], 2 * theta.size, axis=0)
    for i, t in enumerate(theta.tolist()):
        h = 1e-6 * max(1.0, abs(t))
        points[2 * i, i] += h
        points[2 * i + 1, i] -= h
    return points


def _fits(spec, outcome, mediator, rng):
    """Fitted models carrying the parameters and seeded symmetric covariances."""
    fits = []
    for params, k in ((outcome, spec.n_outcome_coefs), (mediator, spec.n_mediator_coefs)):
        a = 0.1 * rng.normal(size=(k, k))
        v = a @ a.T
        fits.append(FittedModel(params.active_vector(), (v + v.T) / 2.0, math.nan, 0, True, 0,
                                spec.terms(params.BLOCKS)))
    return fits


def _draws():
    """64 draws over every (p, q) in {0, 1, 2}^2; every fourth contrast is
    degenerate (x = x*)."""
    rng = np.random.default_rng(70707)
    for i in range(64):
        spec, outcome, mediator, contrast = random_problem(rng, i % 3, (i // 3) % 3)
        if i % 4 == 0:
            contrast = Contrast(contrast.x, contrast.x, contrast.profile)
        yield rng, spec, outcome, mediator, contrast


@pytest.fixture()
def no_loop(monkeypatch):
    """Make the row-by-row fallbacks fail, so a test sees the batch itself."""

    def refuse(*args, **kwargs):
        raise AssertionError("the batch fell back to the row-by-row loop")

    monkeypatch.setattr(effects, "natural_effects", refuse)
    monkeypatch.setattr(delta, "infer", refuse)


class TestCoefficientRows:
    def test_equal_to_natural_effects_row_by_row(self, no_loop):
        for rng, spec, outcome, mediator, contrast in _draws():
            theta = _theta(outcome, mediator)
            points = _difference_points(theta)
            shaken = theta + 0.1 * rng.normal(size=(6, theta.size))  # every block changed
            rows = np.vstack([theta, points, shaken])
            batch = _log_effects_at_rows(spec, rows, contrast)
            loop = [
                natural_effects(
                    OutcomeParams.from_vector(spec, row[: spec.n_outcome_coefs]),
                    MediatorParams.from_vector(spec, row[spec.n_outcome_coefs:]),
                    contrast,
                ).log_values()
                for row in rows
            ]
            assert _bits(batch) == _bits(loop)


class TestProfiles:
    def test_equal_to_infer_natural_effects_and_jacobian(self, no_loop):
        for rng, spec, outcome, mediator, contrast in _draws():
            fy, fw = _fits(spec, outcome, mediator, rng)
            profiles = [contrast.profile] + [
                CovariateProfile(z=rng.uniform(-1, 1, spec.p), v=rng.uniform(-1, 1, spec.q))
                for _ in range(4)
            ]
            x, xs = contrast.x, contrast.x_star
            # the levels may differ from row to row too
            contrasts = [Contrast(x, xs, prof) for prof in profiles] + [
                Contrast(xs, x, profiles[1]), Contrast(x, x, profiles[2])]
            batch = infer_many(spec, fy, fw, contrasts, level=0.9)
            assert len(batch) == len(contrasts)
            for result, c in zip(batch, contrasts):
                one = infer(spec, fy, fw, c, level=0.9)
                assert result.effect_set == natural_effects(outcome, mediator, c)
                assert _bits(result.jacobian) == _bits(jacobian_log_effects(outcome, mediator, c))
                for name in ("cov_log", "cov_or", "jacobian"):
                    assert _bits(getattr(result, name)) == _bits(getattr(one, name))
                # repr tells -0.0 from 0.0 and prints every float exactly
                assert repr((result.effects, result.cde)) == repr((one.effects, one.cde))
                assert result.level == one.level

    def test_batch_of_one_and_of_none(self, no_loop):
        rng, spec, outcome, mediator, contrast = next(_draws())
        fy, fw = _fits(spec, outcome, mediator, rng)
        (row,) = infer_many(spec, fy, fw, [contrast])
        alone = infer(spec, fy, fw, contrast)
        assert row.effects == alone.effects and row.cde == alone.cde
        assert infer_many(spec, fy, fw, []) == []


def _overflow_problem():
    """z = (a,), v = (b,) with every block: at z = 800 the outcome predictor
    at w = 0 or the x* mediator-outcome log odds ratio leaves the exp range,
    and at v = 800 the mediator predictor does."""
    return ModelSpec(z_names=("a",), v_names=("b",), xz=True, wz=True, xwz=True, xv=True)


def _raised(fn):
    with pytest.raises(PredictorOverflowError) as info:
        fn()
    return str(info.value)


class TestOverflowParity:
    """The batch checks each predictor over all rows before the next; a row
    that fails a later predictor must still win over a later row that fails
    an earlier one, as in the loop."""

    CASES = {
        # row 2 fails first at p3 = 1 + e_y(x, 0); row 4 fails earlier in the
        # batch order, at p2 = e_w(x)
        "p3": (
            dict(intercept=0.1, confounders=[1.0]),
            dict(intercept=0.2, confounders=[1.0]),
            [(0.5, 0.0), (0.5, 0.0), (800.0, 0.0), (0.5, 0.0), (0.5, 800.0)],
            "outcome linear predictor 800.1 exceeds",
        ),
        # row 1 fails first at k(x*); row 3 fails earlier in the batch order,
        # at p2 = e_w(x)
        "k": (
            dict(mediator=0.25, exposure_mediator_confounders=[1.0]),
            dict(confounders=[1.0]),
            [(0.5, 0.0), (800.0, 0.0), (0.5, 0.0), (0.5, 800.0), (0.5, 0.0)],
            "mediator-outcome odds ratio linear predictor 800.25 exceeds",
        ),
    }

    def _rows(self, case):
        spec = _overflow_problem()
        o_kw, m_kw, zv, message = self.CASES[case]
        outcome = OutcomeParams(spec, **o_kw)
        mediator = MediatorParams(spec, **m_kw)
        contrasts = [Contrast(0.0, 1.0, CovariateProfile(z=(z,), v=(v,))) for z, v in zv]
        return spec, outcome, mediator, contrasts, message

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_profiles(self, case):
        spec, outcome, mediator, contrasts, message = self._rows(case)
        fy, fw = _fits(spec, outcome, mediator, np.random.default_rng(1))
        loop = _raised(lambda: [infer(spec, fy, fw, c) for c in contrasts])
        assert message in loop
        assert _raised(lambda: infer_many(spec, fy, fw, contrasts)) == loop

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_coefficient_rows(self, case):
        spec, outcome, mediator, contrasts, message = self._rows(case)
        # one profile, the coefficients moved instead: scale the covariate
        # blocks by each row's covariate value, so row i's predictors are the
        # profile rows' predictors above at a covariate value of 1
        profile = CovariateProfile(z=(1.0,), v=(1.0,))
        ky = spec.n_outcome_coefs
        base = _theta(outcome, mediator)
        rows = []
        for c in contrasts:
            row = base.copy()
            for b, sl in spec.layout(OUTCOME_BLOCKS):
                if b.flag:
                    row[sl] *= c.profile.z[0]
            row[ky + 2:] *= c.profile.v[0]
            rows.append(row)
        rows = np.array(rows)
        contrast = Contrast(0.0, 1.0, profile)

        def loop():
            for row in rows:
                natural_effects(OutcomeParams.from_vector(spec, row[:ky]),
                                MediatorParams.from_vector(spec, row[ky:]), contrast)

        assert message in _raised(loop)
        assert _raised(lambda: _log_effects_at_rows(spec, rows, contrast)) == _raised(loop)

    def test_predictors_at_the_bound_pass(self, no_loop):
        """Predictors of exactly +709.0 (k at x) and -709.0 (the outcome at
        w = 0, and the mediator in one row) are inside the range: the batches
        pass and give the loop's bits."""
        spec = _overflow_problem()
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5, confounders=[0.5])
        contrasts = [Contrast(0.0, 1.0, CovariateProfile(z=(1.0,), v=(v,)))
                     for v in (0.3, -1417.0, 0.1, 0.0, 0.4)]
        oy = _OutcomeAt(outcome, (1.0,))
        assert oy.eta(0.0, 0.0) == -709.0 and oy.mediator_log_or(0.0) == 709.0
        assert _MediatorAt(mediator, (-1417.0,)).eta(0.0) == -709.0
        fy, fw = _fits(spec, outcome, mediator, np.random.default_rng(2))
        for result, c in zip(infer_many(spec, fy, fw, contrasts), contrasts):
            assert result.effect_set == natural_effects(outcome, mediator, c)
            assert _bits(result.jacobian) == _bits(jacobian_log_effects(outcome, mediator, c))
            assert np.isfinite(result.cov_log).all()

        ky = spec.n_outcome_coefs
        rows = np.vstack([_theta(outcome, mediator)] * 3)
        rows[1, 0] = 0.5  # outcome intercept: the w = 0 predictor moves to -708.5
        rows[2, ky + 1] = 0.3  # mediator exposure
        for contrast in contrasts[:2]:
            loop = [natural_effects(OutcomeParams.from_vector(spec, r[:ky]),
                                    MediatorParams.from_vector(spec, r[ky:]),
                                    contrast).log_values()
                    for r in rows]
            assert _bits(_log_effects_at_rows(spec, rows, contrast)) == _bits(loop)


class TestPrefactorSignOfZero:
    """The prefactor (bx + bxz'z) D has no w blocks: its gradient leaves them
    at +0.0. Setting them to 0.0 * D instead gives -0.0 when D is -0.0, and
    -0.0 survives the sum d1 + (l_xxs - l_xsxs) whenever that difference is
    -0.0 too. With x = -0.0 and x* = 0.0 the x w block of l_xxs is -0.0 and
    that of l_xsxs +0.0 wherever dA/d(bw) > 0."""

    def test_w_blocks_of_the_prefactor_rows_hold_no_negative_zero(self):
        rng = np.random.default_rng(404)
        checked = 0
        for i in range(24):
            spec, outcome, mediator, contrast = random_problem(rng, i % 3, (i // 3) % 3)
            contrast = Contrast(-0.0, 0.0, contrast.profile)
            fy, fw = _fits(spec, outcome, mediator, rng)
            w_cols = [j for b, sl in spec.layout(OUTCOME_BLOCKS) if b.w
                      for j in range(sl.start, sl.stop)]
            for jac in (jacobian_log_effects(outcome, mediator, contrast),
                        infer_many(spec, fy, fw, [contrast, contrast])[1].jacobian):
                entries = jac[[0, 2, 4]][:, w_cols]
                zeros = entries == 0.0
                checked += int(zeros.sum())
                assert not np.signbit(entries[zeros]).any()
        assert checked > 0
