import math

import numpy as np
import pytest

from ormediate import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams, SchemaError
from ormediate.effects import (
    EffectSet,
    a_term,
    a_term_inputs,
    approx_effects,
    natural_effects,
    special_case_report,
)
from ormediate.effects import grad_a_term, jacobian_log_effects
from ormediate.oracle import tables_from_params
from helpers import microcredit_params, microcredit_spec, random_problem

PROFILE_00 = CovariateProfile(z=(37.0, 0.0, 0.0))
CONTRAST_00 = Contrast(x=1.0, x_star=0.0, profile=PROFILE_00)


class TestATerm:
    def test_microcredit_values(self):
        outcome, mediator = microcredit_params()
        # frozen from direct evaluation of (k p2 p3 + p4)/(p2 p3 + p4)
        assert a_term(outcome, mediator, 1, 0, PROFILE_00) == pytest.approx(
            1.4988809596907762, rel=1e-12
        )
        assert a_term(outcome, mediator, 1, 1, PROFILE_00) == pytest.approx(
            1.5876391001871077, rel=1e-12
        )
        assert a_term(outcome, mediator, 0, 0, PROFILE_00) == pytest.approx(
            1.5108259815264833, rel=1e-12
        )

    def test_inputs_match_worked_values(self):
        outcome, mediator = microcredit_params()
        k, p2, p3, p4 = a_term_inputs(outcome, mediator, 1, 0, PROFILE_00)
        assert k == pytest.approx(math.exp(0.895), rel=1e-12)
        assert p2 == pytest.approx(math.exp(0.027), rel=1e-12)
        assert p3 == pytest.approx(1.0 + math.exp(0.657), rel=1e-12)
        assert p4 == pytest.approx(1.0 + math.exp(1.552), rel=1e-12)

    def test_bracketed_by_k_and_one(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            _, outcome, mediator, contrast = random_problem(rng)
            args = (outcome, mediator, contrast.x, contrast.x_star, contrast.profile)
            k = a_term_inputs(*args)[0]
            a = a_term(*args)
            lo, hi = min(k, 1.0), max(k, 1.0)
            assert lo - 1e-12 <= a <= hi + 1e-12


class TestNaturalEffects:
    def test_microcredit_headline_row(self):
        # published three-decimal values for the age 37, edu 0, loans 0 profile
        outcome, mediator = microcredit_params()
        es = natural_effects(outcome, mediator, CONTRAST_00)
        assert es.pnde == pytest.approx(6.652, abs=0.02)
        assert es.tnde == pytest.approx(6.717, abs=0.02)
        assert es.pnie == pytest.approx(1.049, abs=0.02)
        assert es.tnie == pytest.approx(1.059, abs=0.02)
        assert es.te == pytest.approx(7.046, abs=0.02)
        # and the same numbers frozen from direct evaluation, tightly
        assert es.pnde == pytest.approx(6.65297, abs=1e-4)
        assert es.te == pytest.approx(7.04689, abs=1e-4)
        assert es.cde(0) == pytest.approx(math.exp(1.903), rel=1e-12)
        assert es.cde(1) == pytest.approx(math.exp(2.040), rel=1e-12)

    def test_decomposition_sweep(self):
        rng = np.random.default_rng(202)
        for _ in range(200):
            _, outcome, mediator, contrast = random_problem(rng)
            es = natural_effects(outcome, mediator, contrast)
            assert abs(es.log_pnde + es.log_tnie - es.log_te) < 1e-12
            assert abs(es.log_tnde + es.log_pnie - es.log_te) < 1e-12

    def test_contrast_reversal_inverts_and_swaps(self):
        rng = np.random.default_rng(303)
        for _ in range(50):
            _, outcome, mediator, contrast = random_problem(rng)
            rev = Contrast(x=contrast.x_star, x_star=contrast.x, profile=contrast.profile)
            es, er = natural_effects(outcome, mediator, contrast), natural_effects(
                outcome, mediator, rev
            )
            assert er.log_te == pytest.approx(-es.log_te, abs=1e-12)
            assert er.log_pnde == pytest.approx(-es.log_tnde, abs=1e-12)
            assert er.log_tnde == pytest.approx(-es.log_pnde, abs=1e-12)
            assert er.log_tnie == pytest.approx(-es.log_pnie, abs=1e-12)
            assert er.log_pnie == pytest.approx(-es.log_tnie, abs=1e-12)

    def test_degenerate_contrast_gives_unity(self):
        outcome, mediator = microcredit_params()
        es = natural_effects(outcome, mediator, Contrast(1.0, 1.0, PROFILE_00))
        assert es.log_values() == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert es.te == 1.0

    def test_spec_mismatch_rejected(self):
        outcome, _ = microcredit_params()
        other = MediatorParams(ModelSpec(), intercept=0.1, exposure=0.2)
        with pytest.raises(SchemaError):
            natural_effects(outcome, other, CONTRAST_00)

    def test_profile_length_checked(self):
        outcome, mediator = microcredit_params()
        with pytest.raises(SchemaError):
            natural_effects(outcome, mediator, Contrast(1.0, 0.0))


class TestStructuralZeroCases:
    def _microcredit_like(self, **overrides):
        spec = microcredit_spec()
        base = dict(
            intercept=-1.542, exposure=1.903, mediator=0.758,
            exposure_mediator=0.137, confounders=(0.008, -1.001, 0.185),
        )
        base.update(overrides)
        return OutcomeParams(spec, **base), MediatorParams(spec, intercept=0.027, exposure=0.262)

    def test_exposure_outcome_null(self):
        outcome, mediator = self._microcredit_like(exposure=0.0, exposure_mediator=0.0)
        es = natural_effects(outcome, mediator, CONTRAST_00)
        assert es.log_pnde == 0.0 and es.log_tnde == 0.0 and es.log_cde_at[0] == 0.0
        assert es.log_te == es.log_tnie == es.log_pnie
        rep = special_case_report(outcome, mediator, CONTRAST_00)
        assert rep.exposure_outcome_null and not rep.mediator_outcome_null

    def test_mediator_outcome_null(self):
        outcome, mediator = self._microcredit_like(mediator=0.0, exposure_mediator=0.0)
        es = natural_effects(outcome, mediator, CONTRAST_00)
        assert a_term(outcome, mediator, 1, 0, PROFILE_00) == 1.0  # exactly
        assert es.log_tnie == 0.0 and es.log_pnie == 0.0
        assert es.log_te == 1.903 == es.log_pnde == es.log_tnde == es.log_cde_at[0]
        rep = special_case_report(outcome, mediator, CONTRAST_00)
        assert rep.mediator_outcome_null and not rep.exposure_outcome_null

    def test_exposure_mediator_null(self):
        spec = microcredit_spec()
        outcome, _ = microcredit_params()
        mediator = MediatorParams(spec, intercept=0.027, exposure=0.0)
        es = natural_effects(outcome, mediator, CONTRAST_00)
        assert es.log_tnie == 0.0 and es.log_pnie == 0.0
        assert es.log_te == es.log_pnde == es.log_tnde
        rep = special_case_report(outcome, mediator, CONTRAST_00)
        assert rep.exposure_mediator_null

    def test_nulls_hold_with_full_interactions(self):
        # zeroing a whole pathway group keeps its identity with covariates in
        rng = np.random.default_rng(404)
        for _ in range(20):
            spec, outcome, mediator, contrast = random_problem(rng, p=2, q=1)
            nulled = OutcomeParams(
                spec,
                intercept=outcome.intercept,
                exposure=0.0,
                mediator=outcome.mediator,
                exposure_mediator=0.0,
                confounders=outcome.confounders,
                exposure_confounders=np.zeros(2),
                mediator_confounders=outcome.mediator_confounders,
                exposure_mediator_confounders=np.zeros(2),
            )
            es = natural_effects(nulled, mediator, contrast)
            assert es.log_pnde == 0.0 and es.log_tnde == 0.0
            assert es.log_te == es.log_tnie == es.log_pnie
            assert special_case_report(nulled, mediator, contrast).exposure_outcome_null

    def test_report_clean_for_microcredit(self):
        outcome, mediator = microcredit_params()
        rep = special_case_report(outcome, mediator, CONTRAST_00)
        assert rep == special_case_report(outcome, mediator, CONTRAST_00)
        assert not any(
            [rep.exposure_outcome_null, rep.mediator_outcome_null,
             rep.exposure_mediator_null, rep.degenerate_contrast]
        )
        assert rep.identities == ()


class TestReferenceSubstitutions:
    """With x* = 0, each natural effect is a total effect of a pathway-nulled
    model; these must agree to machine precision."""

    def _nulled(self, outcome, *, x_group=False, w_group=False):
        spec = outcome.spec
        return OutcomeParams(
            spec,
            intercept=outcome.intercept,
            exposure=0.0 if x_group else outcome.exposure,
            mediator=0.0 if w_group else outcome.mediator,
            exposure_mediator=0.0 if (x_group or w_group) else outcome.exposure_mediator,
            confounders=outcome.confounders,
            exposure_confounders=np.zeros(spec.p) if x_group else outcome.exposure_confounders,
            mediator_confounders=np.zeros(spec.p) if w_group else outcome.mediator_confounders,
            exposure_mediator_confounders=np.zeros(spec.p)
            if (x_group or w_group)
            else outcome.exposure_mediator_confounders,
        )

    def test_substitutions(self):
        rng = np.random.default_rng(505)
        for _ in range(50):
            spec, outcome, mediator, c = random_problem(rng)
            contrast = Contrast(x=c.x, x_star=0.0, profile=c.profile)
            es = natural_effects(outcome, mediator, contrast)
            # CDE(0) = TE with the mediator-outcome group removed
            es_w = natural_effects(self._nulled(outcome, w_group=True), mediator, contrast)
            assert abs(es.log_cde_at[0] - es_w.log_te) < 1e-12
            # PNIE = TE with the exposure-outcome group removed
            es_x = natural_effects(self._nulled(outcome, x_group=True), mediator, contrast)
            assert abs(es.log_pnie - es_x.log_te) < 1e-12
            # PNDE = TE with the exposure-mediator path removed
            med0 = MediatorParams(
                spec,
                intercept=mediator.intercept,
                exposure=0.0,
                confounders=mediator.confounders,
                exposure_confounders=np.zeros(spec.q),
            )
            es_m = natural_effects(outcome, med0, contrast)
            assert abs(es.log_pnde - es_m.log_te) < 1e-12


class TestApproxEffects:
    def test_null_mediator_path_collapses(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-1.0, exposure=0.7)
        mediator = MediatorParams(spec, intercept=0.3, exposure=0.5)
        es = approx_effects(outcome, mediator, Contrast(1.0, 0.0))
        assert es.log_tnie == 0.0 and es.log_pnie == 0.0
        assert es.log_pnde == 0.7 and es.log_te == 0.7

    def test_rare_outcome_gap_small(self):
        outcome, mediator = microcredit_params()
        rare = OutcomeParams(
            outcome.spec, intercept=-12.0, exposure=1.903, mediator=0.758,
            exposure_mediator=0.137, confounders=(0.008, -1.001, 0.185),
        )
        exact = natural_effects(rare, mediator, CONTRAST_00)
        approx = approx_effects(rare, mediator, CONTRAST_00)
        gaps = np.abs(np.array(exact.log_values()) - np.array(approx.log_values()))
        assert np.all(gaps < 0.02)

    @pytest.mark.parametrize("x, x_star", [(2.0, 0.0), (-0.5, 0.5), (1.5, 1.0)])
    def test_rare_outcome_gap_small_at_any_contrast_width(self, x, x_star):
        # the approximation is the rare-outcome limit of the exact effects
        # whatever x - x*; the direct effects carry (bx + bxz'z)(x - x*)
        spec = ModelSpec(z_names=("a",), xz=True)
        rare = OutcomeParams(spec, intercept=-14.0, exposure=1.2, mediator=0.7,
                             exposure_mediator=0.3, confounders=(0.2,),
                             exposure_confounders=(-0.4,))
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.6)
        contrast = Contrast(x, x_star, CovariateProfile(z=(0.8,)))
        exact = natural_effects(rare, mediator, contrast)
        approx = approx_effects(rare, mediator, contrast)
        assert np.max(np.abs(np.subtract(exact.log_values(), approx.log_values()))) < 1e-4
        ew_xs = math.exp(0.1 + 0.6 * x_star)
        k_x, k_xs = math.exp(0.7 + 0.3 * x), math.exp(0.7 + 0.3 * x_star)
        assert approx.log_pnde == pytest.approx(
            (1.2 - 0.4 * 0.8) * (x - x_star) + math.log((1 + k_x * ew_xs) / (1 + k_xs * ew_xs)),
            rel=1e-12)

    def test_common_outcome_gap_visible(self):
        # at the published coefficients the outcome is common, the
        # approximation is biased, and the exact direct effects differ
        outcome, mediator = microcredit_params()
        exact = natural_effects(outcome, mediator, CONTRAST_00)
        approx = approx_effects(outcome, mediator, CONTRAST_00)
        assert abs(exact.log_pnde - approx.log_pnde) > 0.01

    def test_routes_agree(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            _, outcome, mediator, contrast = random_problem(rng)
            es = approx_effects(outcome, mediator, contrast)
            assert abs(es.log_pnde + es.log_tnie - (es.log_tnde + es.log_pnie)) < 1e-12

    def test_cde_matches_exact(self):
        rng = np.random.default_rng(707)
        _, outcome, mediator, contrast = random_problem(rng)
        assert (
            approx_effects(outcome, mediator, contrast).log_cde_at
            == natural_effects(outcome, mediator, contrast).log_cde_at
        )


class TestEffectSetContainer:
    def test_inconsistent_decomposition_rejected(self):
        with pytest.raises(SchemaError, match="decomposition"):
            EffectSet(
                log_pnde=0.5, log_tnie=0.1, log_tnde=0.4, log_pnie=0.2,
                log_te=0.7, log_cde_at={0: 0.0, 1: 0.0}, contrast=Contrast(1, 0),
            )

    def test_cde_keys_checked(self):
        with pytest.raises(SchemaError):
            EffectSet(
                log_pnde=0.0, log_tnie=0.0, log_tnde=0.0, log_pnie=0.0,
                log_te=0.0, log_cde_at={0: 0.0}, contrast=Contrast(1, 0),
            )

    def test_odds_ratios_mapping(self):
        outcome, mediator = microcredit_params()
        es = natural_effects(outcome, mediator, CONTRAST_00)
        ors = es.odds_ratios()
        assert set(ors) == {"pnde", "tnie", "tnde", "pnie", "te", "cde0", "cde1"}
        assert ors["te"] == pytest.approx(es.pnde * es.tnie, rel=1e-12)

    def test_mediated_interaction_residual(self):
        outcome, mediator = microcredit_params()
        es = natural_effects(outcome, mediator, CONTRAST_00)
        assert es.mediated_interaction_residual("pnde") == pytest.approx(
            es.log_pnde - es.log_cde_at[0], rel=1e-12
        )
        with pytest.raises(SchemaError):
            es.mediated_interaction_residual("nope")



@pytest.mark.parametrize("mediator_v", [("a", "b"), ("b",)])
@pytest.mark.parametrize("evaluate", [
    pytest.param(lambda o, m, p: a_term(o, m, 1.0, 0.0, p), id="a_term"),
    pytest.param(lambda o, m, p: grad_a_term(o, m, 1.0, 0.0, p), id="grad_a_term"),
    pytest.param(lambda o, m, p: a_term_inputs(o, m, 1.0, 0.0, p), id="a_term_inputs"),
    pytest.param(lambda o, m, p: jacobian_log_effects(o, m, Contrast(1.0, 0.0, p)),
                 id="jacobian_log_effects"),
    pytest.param(lambda o, m, p: tables_from_params(o, m, Contrast(1.0, 0.0, p)),
                 id="tables_from_params"),
])
def test_every_entry_point_rejects_parameters_of_different_specs(evaluate, mediator_v):
    """A mediator spec with another covariate count used to fail on numpy's
    shape check, and one with the same count but other names gave a number."""
    outcome = OutcomeParams(ModelSpec(v_names=("a",)))
    mediator = MediatorParams(ModelSpec(v_names=mediator_v), intercept=0.3,
                              confounders=[0.2] * len(mediator_v))
    with pytest.raises(SchemaError, match="different model specs"):
        evaluate(outcome, mediator, CovariateProfile(v=(1.0,)))
