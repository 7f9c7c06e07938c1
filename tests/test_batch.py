"""The batched predictor algebra against the same evaluation taken one row at a
time: the covariate sums of a batch against ``np.dot`` row by row,
coefficient rows at one profile (the verify jacobian suite's
central-difference points) and profiles at one coefficient vector
(``infer_many``). Equality is bitwise, and a failing ``infer_many`` batch
raises the error of the first failing row."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormediate import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from ormediate import delta, effects
from ormediate.delta import infer, infer_many
from ormediate.effects import _log_effects_at_rows, jacobian_log_effects, natural_effects
from ormediate.exceptions import NumericalError, PredictorOverflowError
from ormediate.logit import FittedModel
from ormediate.model import MEDIATOR_BLOCKS, OUTCOME_BLOCKS, _MediatorAt, _OutcomeAt
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


def _block_diagonal(a, b):
    sigma = np.zeros((len(a) + len(b),) * 2)
    sigma[:len(a), :len(a)] = a
    sigma[len(a):, len(a):] = b
    return sigma


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


_EDGES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300)
_VALUES = st.one_of(st.sampled_from(_EDGES), st.floats(-1e3, 1e3))


@st.composite
def _row_sets(draw):
    """A spec with 0-8 covariates per model and a random subset of its
    blocks, then G draws of M coefficient rows and G profiles, from values
    that include signed zeros, subnormals and products that overflow."""
    p, q = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    z, v = draw(st.booleans()), draw(st.booleans())
    xz, wz = z and draw(st.booleans()), z and draw(st.booleans())
    spec = ModelSpec(z_names=tuple(f"z{i}" for i in range(p)),
                     v_names=tuple(f"v{i}" for i in range(q)), z=z, xz=xz, wz=wz,
                     xwz=xz and wz and draw(st.booleans()), v=v, xv=v and draw(st.booleans()))
    g, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def array(*shape):
        return np.array(draw(st.lists(_VALUES, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))).reshape(shape)

    k = spec.n_outcome_coefs + spec.n_mediator_coefs
    return spec, array(g, m, k), array(g, p), array(g, q)


class TestStackedRowProducts:
    @settings(deadline=None, max_examples=300)
    @given(_row_sets())
    def test_each_sum_has_the_bits_of_np_dot(self, case):
        """A scalar field is the row's coefficient and a covariate block's
        sum is float(np.dot(row block, profile)); an excluded block is a
        block of zeros."""
        spec, rows, z, v = case
        ky = spec.n_outcome_coefs
        g, m, _ = rows.shape
        for cls, blocks, own, profiles in ((_OutcomeAt, OUTCOME_BLOCKS, rows[:, :, :ky], z),
                                           (_MediatorAt, MEDIATOR_BLOCKS, rows[:, :, ky:], v)):
            with np.errstate(all="ignore"):
                at = cls.at_rows(spec, own, profiles)
                slices = dict(spec.layout(blocks))
                for b, name in zip(blocks, cls.FIELDS):
                    sl = slices.get(b)
                    expected = []
                    for j in range(g):
                        for i in range(m):
                            row = own[j, i]
                            if not b.flag:
                                expected.append(row[sl.start])
                            else:
                                block = row[sl] if sl else np.zeros(profiles.shape[1])
                                expected.append(float(np.dot(block, profiles[j])))
                    got = np.asarray(getattr(at, name), dtype=float)
                    assert got.view(np.int64).tolist() == (
                        np.array(expected).view(np.int64).tolist()), name


class TestCoefficientRows:
    def test_equal_to_natural_effects_row_by_row(self, no_loop):
        for rng, spec, outcome, mediator, contrast in _draws():
            theta = _theta(outcome, mediator)
            points = _difference_points(theta)
            shaken = theta + 0.1 * rng.normal(size=(6, theta.size))  # every block changed
            rows = np.vstack([theta, points, shaken])
            batch = _log_effects_at_rows(spec, rows[None], [contrast])[0]
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
            sigma = _block_diagonal(fy.vcov, fw.vcov)
            for result, c in zip(batch, contrasts):
                one = infer(spec, fy, fw, c, level=0.9)
                assert result.effect_set == natural_effects(outcome, mediator, c)
                jac = jacobian_log_effects(outcome, mediator, c)
                assert _bits(result.jacobian) == _bits(jac)
                # the 2-d sandwich, symmetrised, and its odds-ratio scaling
                cov_log = jac @ sigma @ jac.T
                cov_log = (cov_log + cov_log.T) / 2.0
                assert _bits(result.cov_log) == _bits(cov_log)
                ors = np.exp(np.array(result.effect_set.log_values()))
                assert _bits(result.cov_or) == _bits(cov_log * np.outer(ors, ors))
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
        loop = _raised(lambda: [natural_effects(outcome, mediator, c) for c in contrasts])
        assert message in loop
        assert _raised(lambda: infer_many(spec, fy, fw, contrasts)) == loop

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
            assert _bits(_log_effects_at_rows(spec, rows[None], [contrast])[0]) == _bits(loop)


class TestBridgeRatioUnderflow:
    """Every predictor inside the exp range and every bridge term positive and
    finite, yet A[x, x*] = 9.9e-305 over A[x*, x*] = 2.7e307 underflows to 0:
    each path raises a NumericalError, never math.log's ValueError."""

    def _problem(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-709.0, exposure=1409.0, mediator=709.0,
                                exposure_mediator=-1418.0)
        mediator = MediatorParams(spec)
        return spec, outcome, mediator, Contrast(1.0, 0.0)

    def test_natural_effects(self):
        spec, outcome, mediator, contrast = self._problem()
        with pytest.raises(NumericalError, match="underflows to 0"):
            natural_effects(outcome, mediator, contrast)

    def test_coefficient_rows(self):
        spec, outcome, mediator, contrast = self._problem()
        rows = np.vstack([_theta(outcome, mediator)] * 3)
        with pytest.raises(NumericalError, match="underflows to 0"):
            _log_effects_at_rows(spec, rows[None], [contrast])[0]

    def test_profiles(self):
        spec, outcome, mediator, contrast = self._problem()
        fy, fw = _fits(spec, outcome, mediator, np.random.default_rng(3))
        ok = Contrast(0.5, 0.0)
        with pytest.raises(NumericalError, match="underflows to 0"):
            infer_many(spec, fy, fw, [ok, contrast, ok])


class TestBridgeTermOverflow:
    """Every predictor inside the exp range, yet at z = 1, v = 0 the product
    k p2 p3 of the bridge term A[x, x] overflows: the bundled fixture's
    outcome model with the mediator intercept at 707.5, which v = 1 cancels.
    Each path raises a NumericalError that names the term, not EffectSet's
    SchemaError for non-finite logs. So does the numerator term A[x*, x] when
    it overflows at z = v = 0, though a ratio over it would underflow."""

    def _problem(self):
        spec = _overflow_problem()
        outcome = OutcomeParams(spec, intercept=-1.542, exposure=1.903, mediator=0.758,
                                exposure_mediator=0.137, confounders=[0.481])
        mediator = MediatorParams(spec, intercept=707.5, exposure=0.262, confounders=[-707.5])
        contrast = Contrast(1.0, 0.0, CovariateProfile(z=(1.0,), v=(0.0,)))
        return spec, outcome, mediator, contrast

    def _numerator_problem(self):
        spec = _overflow_problem()
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5)
        contrast = Contrast(1.0, 0.0, CovariateProfile(z=(0.0,), v=(0.0,)))
        return spec, outcome, mediator, contrast

    def test_natural_effects(self):
        spec, outcome, mediator, contrast = self._problem()
        with pytest.raises(NumericalError, match=r"bridge term A\[x, x\] is inf"):
            natural_effects(outcome, mediator, contrast)

    def test_coefficient_rows(self):
        spec, outcome, mediator, contrast = self._problem()
        rows = np.vstack([_theta(outcome, mediator)] * 3)
        with pytest.raises(NumericalError, match=r"bridge term A\[x, x\] is inf"):
            _log_effects_at_rows(spec, rows[None], [contrast])

    def test_profiles(self):
        spec, outcome, mediator, contrast = self._problem()
        fy, fw = _fits(spec, outcome, mediator, np.random.default_rng(5))
        ok = Contrast(1.0, 0.0, CovariateProfile(z=(1.0,), v=(1.0,)))
        with pytest.raises(NumericalError, match=r"bridge term A\[x, x\] is inf"):
            infer_many(spec, fy, fw, [ok, contrast, ok])

    def test_numerator_term_natural_effects(self):
        spec, outcome, mediator, contrast = self._numerator_problem()
        with pytest.raises(NumericalError, match=r"bridge term A\[x\*, x\] is inf"):
            natural_effects(outcome, mediator, contrast)

    def test_numerator_term_coefficient_rows(self):
        spec, outcome, mediator, contrast = self._numerator_problem()
        rows = np.vstack([_theta(outcome, mediator)] * 3)
        with pytest.raises(NumericalError, match=r"bridge term A\[x\*, x\] is inf"):
            _log_effects_at_rows(spec, rows[None], [contrast])

    def test_numerator_term_profiles(self):
        spec, outcome, mediator, contrast = self._numerator_problem()
        fy, fw = _fits(spec, outcome, mediator, np.random.default_rng(3))
        ok = Contrast(1.0, 0.0, CovariateProfile(z=(1.0,), v=(0.3,)))
        with pytest.raises(NumericalError, match=r"bridge term A\[x\*, x\] is inf"):
            infer_many(spec, fy, fw, [ok, contrast, ok])

    def test_a_bridge_term_of_zero_is_named(self):
        # p2 p3 overflows while k p2 p3 stays finite, so A = 0.0: a ratio
        # over it divides by zero
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=700.0, mediator=-700.0)
        mediator = MediatorParams(spec, intercept=700.0)
        with pytest.raises(NumericalError, match=r"bridge term A\[x, x\] is 0\.0"):
            natural_effects(outcome, mediator, Contrast(1.0, 0.0))


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
