"""Delta-method inference for the log odds-ratio mediation effects.

The five log effects are smooth functions of the stacked coefficient vector
theta = (outcome coefficients, mediator coefficients). Writing A for a bridge
term (see :mod:`ormediate.effects`), A depends on theta only through three
predictors, so three key derivatives determine its whole gradient:

    d_b0 = dA/d(intercept)   for the outcome blocks without a w factor
    d_bw = dA/d(mediator)    for the outcome blocks with a w factor
    d_g0 = dA/d(g intercept) for every mediator block

Each block of the model tables (``model.OUTCOME_BLOCKS``, ``MEDIATOR_BLOCKS``)
enters its predictor linearly, so one rule gives every entry: the key
derivative, times the exposure level if the block carries an x factor, times
the covariate value for a covariate block. Stacking the four bridge gradients
into rows for (log PNDE, log TNIE, log TNDE, log PNIE, log TE) and
sandwiching the block-diagonal coefficient covariance gives the covariance of
the log effects; the odds-ratio scale follows by scaling with the estimates.

Confidence intervals are computed on the log scale and exponentiated, so they
are always positive and respect the reciprocal symmetry of odds ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .effects import EFFECT_ORDER, ATermInputs, EffectSet, _bridge_inputs, natural_effects
from .exceptions import CovarianceError, SchemaError
from .logit import FittedModel, _two_sided_p, _wald_quantile
from .model import (
    MEDIATOR_BLOCKS,
    OUTCOME_BLOCKS,
    Contrast,
    CovariateProfile,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    _MediatorAt,
    _OutcomeAt,
)

__all__ = [
    "EffectInference",
    "InferenceResult",
    "a_term_key_derivatives",
    "grad_a_term",
    "jacobian_log_effects",
    "infer",
]

# roundoff this far below zero is forgiven and clamped; anything worse raises
_VAR_TOL = 1e-12


def a_term_key_derivatives(inputs: ATermInputs) -> tuple[float, float, float]:
    """(d_b0, d_bw, d_g0): the three independent partials of one bridge term.

    At k = 1 both d_b0 and d_g0 vanish identically (the numerators are the
    same products commuted), which is what makes null-mediator models give
    exactly zero indirect-effect gradients outside the mediator coefficients.
    """
    k, p2, p3, p4 = inputs.k, inputs.p2, inputs.p3, inputs.p4
    s = p2 * p3 + p4
    num = k * p2 * p3 + p4
    d_b0 = ((k * p2 * (p3 - 1.0) + (p4 - 1.0)) * s - num * (p2 * (p3 - 1.0) + (p4 - 1.0))) / (
        s * s
    )
    d_bw = ((k * p2 * p3 + (p4 - 1.0)) * s - num * (p4 - 1.0)) / (s * s)
    d_g0 = ((k * p2 * p3) * s - num * (p2 * p3)) / (s * s)
    return d_b0, d_bw, d_g0


def grad_a_term(
    outcome: OutcomeParams,
    mediator: MediatorParams,
    x_outcome: float,
    x_mediator: float,
    profile: CovariateProfile,
) -> np.ndarray:
    """Gradient of A[x_outcome, x_mediator | profile] over the stacked active
    coefficient vector (outcome layout first, then mediator layout)."""
    inputs = ATermInputs.from_params(outcome, mediator, x_outcome, x_mediator, profile)
    return _grad_from_inputs(outcome.spec, inputs, x_outcome, x_mediator, profile)


def _grad_from_inputs(
    spec: ModelSpec,
    inputs: ATermInputs,
    x_outcome: float,
    x_mediator: float,
    profile: CovariateProfile,
) -> np.ndarray:
    """:func:`grad_a_term` for bridge-term inputs already evaluated: each
    entry is (d·x)·c_j, the block's key derivative d, times its model's
    exposure level if it has an x factor, times each covariate value c_j."""
    d_b0, d_bw, d_g0 = a_term_key_derivatives(inputs)
    grad = []
    for blocks, keys, x, c in (
        (OUTCOME_BLOCKS, (d_b0, d_bw), x_outcome, profile.z),
        (MEDIATOR_BLOCKS, (d_g0,), x_mediator, profile.v),
    ):
        for b, _ in spec.layout(blocks):
            d = keys[b.w] * x if b.x else keys[b.w]
            if b.flag is None:
                grad.append(d)
            else:
                grad += [d * cj for cj in c]
    return np.array(grad)


def _exposure_gradient(
    spec: ModelSpec, contrast: Contrast, dim: int, w: float | None = None
) -> np.ndarray:
    """Gradient of an exposure log odds ratio times D = x - x*, over the
    first ``dim`` coefficients: the prefactor (bx + bxz'z) D when w is None,
    log CDE(w) = (bx + bxw w + bxz'z + bxwz' w z) D otherwise. Each x block
    gets (w·c_j)·D, or c_j·D without a w factor. The prefactor leaves its w
    blocks at +0.0 rather than setting them to 0.0·D, which is -0.0 if D < 0."""
    g = np.zeros(dim)
    z = np.asarray(contrast.profile.z)
    for b, sl in spec.layout(OUTCOME_BLOCKS):
        if b.x and (w is not None or not b.w):
            c = z if b.flag else 1.0
            g[sl] = (w * c if b.w else c) * contrast.delta
    return g


def jacobian_log_effects(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> np.ndarray:
    """5 x dim(theta) Jacobian of (log PNDE, log TNIE, log TNDE, log PNIE,
    log TE); by construction row_te = row_pnde + row_tnie = row_tnde + row_pnie
    up to roundoff."""
    if outcome.spec != mediator.spec:
        raise SchemaError("outcome and mediator parameters belong to different model specs")
    contrast.profile.check_against(outcome.spec)
    spec = outcome.spec
    x, xs = contrast.x, contrast.x_star
    prof = contrast.profile
    in_xx, in_xxs, in_xsx, in_xsxs = _bridge_inputs(
        _OutcomeAt(outcome, prof.z), _MediatorAt(mediator, prof.v), x, xs
    )

    def dlog(inputs, x1, x2):
        return _grad_from_inputs(spec, inputs, x1, x2, prof) / inputs.value()

    l_xx = dlog(in_xx, x, x)
    l_xxs = dlog(in_xxs, x, xs)
    l_xsx = dlog(in_xsx, xs, x)
    l_xsxs = dlog(in_xsxs, xs, xs)
    dim = l_xx.size
    d1 = _exposure_gradient(spec, contrast, dim)
    return np.vstack(
        [
            d1 + (l_xxs - l_xsxs),  # log PNDE
            l_xx - l_xxs,  # log TNIE
            d1 + (l_xx - l_xsx),  # log TNDE
            l_xsx - l_xsxs,  # log PNIE
            d1 + (l_xx - l_xsxs),  # log TE
        ]
    )


@dataclass(frozen=True)
class EffectInference:
    """One effect with its delta-method uncertainty, on both scales."""

    name: str
    log_estimate: float
    or_estimate: float
    se_log: float
    se_or: float
    ci_lower: float
    ci_upper: float
    p_value: float


@dataclass(frozen=True, eq=False)
class InferenceResult:
    """Point estimates, covariances, and per-effect summaries at one contrast.

    ``effects`` holds the five natural effects in EFFECT_ORDER; ``cde`` the
    controlled direct effects at w = 0 and w = 1. ``cov_log`` / ``cov_or`` are
    the 5x5 covariance matrices of the natural effects on the log and
    odds-ratio scales, and ``jacobian`` is the 5 x dim(theta) matrix behind
    them.
    """

    effect_set: EffectSet
    effects: tuple[EffectInference, ...]
    cde: tuple[EffectInference, ...]
    cov_log: np.ndarray
    cov_or: np.ndarray
    jacobian: np.ndarray
    level: float

    def by_name(self) -> dict[str, EffectInference]:
        out = {e.name: e for e in self.effects}
        out.update({e.name: e for e in self.cde})
        return out


def _variance_diag(cov: np.ndarray) -> np.ndarray:
    var = np.diag(cov).copy()
    if np.min(var) < -_VAR_TOL:
        raise CovarianceError(
            f"delta-method variance {np.min(var):.3e} is negative beyond roundoff"
        )
    return np.clip(var, 0.0, None)


def _summarise(name: str, log_est: float, var_log: float, zq: float) -> EffectInference:
    se_log = math.sqrt(var_log)
    or_est = math.exp(log_est)
    if se_log > 0.0:
        zstat = log_est / se_log
        p = _two_sided_p(zstat)
    else:
        p = 1.0 if log_est == 0.0 else 0.0
    return EffectInference(
        name=name,
        log_estimate=log_est,
        or_estimate=or_est,
        se_log=se_log,
        se_or=or_est * se_log,
        ci_lower=math.exp(log_est - zq * se_log),
        ci_upper=math.exp(log_est + zq * se_log),
        p_value=p,
    )


def infer(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrast: Contrast,
    level: float = 0.95,
) -> InferenceResult:
    """Delta-method inference from two fitted models.

    The coefficient covariance is block diagonal (the two likelihoods share no
    parameters). A zero covariance collapses every interval to its point
    estimate rather than erroring.
    """
    zq = _wald_quantile(level)
    outcome = OutcomeParams.from_vector(spec, outcome_fit.coefficients)
    mediator = MediatorParams.from_vector(spec, mediator_fit.coefficients)
    ky, kw = spec.n_outcome_coefs, spec.n_mediator_coefs
    if outcome_fit.vcov.shape != (ky, ky) or mediator_fit.vcov.shape != (kw, kw):
        raise SchemaError("fit covariance shapes do not match the model spec")

    es = natural_effects(outcome, mediator, contrast)
    jac = jacobian_log_effects(outcome, mediator, contrast)
    sigma = np.zeros((ky + kw, ky + kw))
    sigma[:ky, :ky] = outcome_fit.vcov
    sigma[ky:, ky:] = mediator_fit.vcov
    cov_log = jac @ sigma @ jac.T
    cov_log = (cov_log + cov_log.T) / 2.0
    var_log = _variance_diag(cov_log)

    effects = tuple(
        _summarise(name, log_est, var, zq)
        for name, log_est, var in zip(EFFECT_ORDER, es.log_values(), var_log)
    )
    ors = np.exp(np.asarray(es.log_values()))
    cov_or = cov_log * np.outer(ors, ors)

    cde_rows = []
    for w in (0, 1):
        g = _exposure_gradient(spec, contrast, spec.n_outcome_coefs, float(w))
        var = float(g @ outcome_fit.vcov @ g)
        if var < -_VAR_TOL:
            raise CovarianceError(f"negative CDE({w}) variance {var:.3e}")
        cde_rows.append(_summarise(f"cde{w}", es.log_cde_at[w], max(var, 0.0), zq))

    return InferenceResult(
        effect_set=es,
        effects=effects,
        cde=tuple(cde_rows),
        cov_log=cov_log,
        cov_or=cov_or,
        jacobian=jac,
        level=level,
    )
