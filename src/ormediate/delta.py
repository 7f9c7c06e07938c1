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

``infer_many`` runs the delta method at many contrasts as one batch: the
gradients are columns over the contrasts, built by the same functions as the
single-contrast Jacobian, and the covariances one stacked J Sigma J^T, which
equals the 2-d product slice by slice. ``infer`` takes one contrast on floats;
the two share the per-contrast summaries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .effects import (
    EFFECT_ORDER,
    ATermInputs,
    EffectSet,
    _batch_or_loop,
    _bridge_inputs,
    _bridge_value,
    _log_cde_at,
    _log_effects,
    natural_effects,
)
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
    "infer_many",
]

# roundoff this far below zero is forgiven and clamped; anything worse raises
_VAR_TOL = 1e-12


def a_term_key_derivatives(inputs: ATermInputs) -> tuple[float, float, float]:
    """(d_b0, d_bw, d_g0): the three independent partials of one bridge term.

    At k = 1 both d_b0 and d_g0 vanish identically (the numerators are the
    same products commuted), which is what makes null-mediator models give
    exactly zero indirect-effect gradients outside the mediator coefficients.
    """
    return _key_derivatives(inputs.k, inputs.p2, inputs.p3, inputs.p4)


def _key_derivatives(k, p2, p3, p4):
    """:func:`a_term_key_derivatives` of floats or of columns."""
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
    a = ATermInputs.from_params(outcome, mediator, x_outcome, x_mediator, profile)
    return _bridge_gradient(
        outcome.spec, (a.k, a.p2, a.p3, a.p4), x_outcome, x_mediator, profile.z, profile.v
    )


def _bridge_gradient(spec: ModelSpec, inputs: tuple, x_outcome, x_mediator, z, v) -> np.ndarray:
    """:func:`grad_a_term` for bridge-term inputs (k, p2, p3, p4) already
    evaluated: each entry is (d·x)·c_j, the block's key derivative d, times its
    model's exposure level if it has an x factor, times each covariate value
    c_j. Floats give shape (dim,); a batch of N columns, with z and v of shape
    (p, N) and (q, N), gives (dim, N)."""
    d_b0, d_bw, d_g0 = _key_derivatives(*inputs)
    grad = []
    for blocks, keys, x, c in (
        (OUTCOME_BLOCKS, (d_b0, d_bw), x_outcome, z),
        (MEDIATOR_BLOCKS, (d_g0,), x_mediator, v),
    ):
        for b, _ in spec.layout(blocks):
            d = keys[b.w] * x if b.x else keys[b.w]
            if b.flag is None:
                grad.append(d)
            else:
                grad += [d * cj for cj in c]
    return np.array(grad)


def _exposure_gradient(spec: ModelSpec, delta, z, dim: int, w: float | None = None) -> np.ndarray:
    """Gradient of an exposure log odds ratio times D = x - x*, over the
    first ``dim`` coefficients: the prefactor (bx + bxz'z) D when w is None,
    log CDE(w) = (bx + bxw w + bxz'z + bxwz' w z) D otherwise. Each x block
    gets (w·c_j)·D, or c_j·D without a w factor. The prefactor leaves its w
    blocks at +0.0 rather than setting them to 0.0·D, which is -0.0 if D < 0.
    A batch passes z of shape (p, N) and D of shape (N,) and gets (dim, N)."""
    z = np.asarray(z)
    g = np.zeros((dim,) + z.shape[1:])
    for b, sl in spec.layout(OUTCOME_BLOCKS):
        if b.x and (w is not None or not b.w):
            c = z if b.flag else 1.0
            g[sl] = (w * c if b.w else c) * delta
    return g


def _log_jacobian(spec: ModelSpec, oy: _OutcomeAt, mw: _MediatorAt, x, xs, delta, z, v):
    """Jacobian of the five log effects, (5, dim), or (5, dim, N) for a batch
    of N profiles; see :func:`jacobian_log_effects`."""

    def dlog(inputs, x1, x2):
        return _bridge_gradient(spec, inputs, x1, x2, z, v) / _bridge_value(*inputs)

    in_xx, in_xxs, in_xsx, in_xsxs = _bridge_inputs(oy, mw, x, xs)
    l_xx = dlog(in_xx, x, x)
    l_xxs = dlog(in_xxs, x, xs)
    l_xsx = dlog(in_xsx, xs, x)
    l_xsxs = dlog(in_xsxs, xs, xs)
    d1 = _exposure_gradient(spec, delta, z, l_xx.shape[0])
    return np.stack(
        [
            d1 + (l_xxs - l_xsxs),  # log PNDE
            l_xx - l_xxs,  # log TNIE
            d1 + (l_xx - l_xsx),  # log TNDE
            l_xsx - l_xsxs,  # log PNIE
            d1 + (l_xx - l_xsxs),  # log TE
        ]
    )


def jacobian_log_effects(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> np.ndarray:
    """5 x dim(theta) Jacobian of (log PNDE, log TNIE, log TNDE, log PNIE,
    log TE); by construction row_te = row_pnde + row_tnie = row_tnde + row_pnie
    up to roundoff."""
    if outcome.spec != mediator.spec:
        raise SchemaError("outcome and mediator parameters belong to different model specs")
    prof = contrast.profile
    prof.check_against(outcome.spec)
    return _log_jacobian(
        outcome.spec,
        _OutcomeAt(outcome, prof.z),
        _MediatorAt(mediator, prof.v),
        contrast.x,
        contrast.x_star,
        contrast.delta,
        prof.z,
        prof.v,
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
    if not np.isfinite(var).all():
        raise CovarianceError("a delta-method variance is not finite")
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


def _fitted_params(spec: ModelSpec, outcome_fit: FittedModel, mediator_fit: FittedModel):
    """The parameters of the two fits, and the block-diagonal covariance of
    theta (the two likelihoods share no parameters)."""
    outcome = OutcomeParams.from_vector(spec, outcome_fit.coefficients)
    mediator = MediatorParams.from_vector(spec, mediator_fit.coefficients)
    ky, kw = spec.n_outcome_coefs, spec.n_mediator_coefs
    if outcome_fit.vcov.shape != (ky, ky) or mediator_fit.vcov.shape != (kw, kw):
        raise SchemaError("fit covariance shapes do not match the model spec")
    sigma = np.zeros((ky + kw, ky + kw))
    sigma[:ky, :ky] = outcome_fit.vcov
    sigma[ky:, ky:] = mediator_fit.vcov
    return outcome, mediator, sigma


def _inference(es, jac, cov_log, g_cde, outcome_vcov, zq: float, level: float):
    """The summaries of one contrast from its effects, Jacobian, log-scale
    covariance and the gradients of log CDE(0) and log CDE(1)."""
    var_log = _variance_diag(cov_log)
    effects = tuple(
        _summarise(name, log_est, var, zq)
        for name, log_est, var in zip(EFFECT_ORDER, es.log_values(), var_log)
    )
    ors = np.exp(np.asarray(es.log_values()))
    cov_or = cov_log * np.outer(ors, ors)

    cde_rows = []
    for w, g in enumerate(g_cde):
        var = float(g @ outcome_vcov @ g)
        if not math.isfinite(var):
            raise CovarianceError(f"CDE({w}) variance is not finite")
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


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
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
    outcome, mediator, sigma = _fitted_params(spec, outcome_fit, mediator_fit)
    es = natural_effects(outcome, mediator, contrast)
    jac = jacobian_log_effects(outcome, mediator, contrast)
    cov_log = jac @ sigma @ jac.T
    cov_log = (cov_log + cov_log.T) / 2.0
    g_cde = [
        _exposure_gradient(spec, contrast.delta, contrast.profile.z, spec.n_outcome_coefs, w)
        for w in (0.0, 1.0)
    ]
    return _inference(es, jac, cov_log, g_cde, outcome_fit.vcov, zq, level)


def infer_many(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: Sequence[Contrast],
    level: float = 0.95,
) -> list[InferenceResult]:
    """:func:`infer` at each contrast, evaluated as one batch. The results equal
    the calls made one by one bit for bit, and a failure raises the error of
    the first contrast whose call fails."""
    contrasts = list(contrasts)
    return _batch_or_loop(
        lambda: _infer_rows(spec, outcome_fit, mediator_fit, contrasts, level),
        lambda: [infer(spec, outcome_fit, mediator_fit, c, level) for c in contrasts],
    )


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _infer_rows(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> list[InferenceResult]:
    """The batch behind :func:`infer_many`: the effects and Jacobians as
    columns over the contrasts, the covariances as one stacked J Sigma J^T
    (equal slice by slice to the 2-d product), and the summaries row by row."""
    zq = _wald_quantile(level)
    outcome, mediator, sigma = _fitted_params(spec, outcome_fit, mediator_fit)
    n = len(contrasts)
    if n == 0:
        return []
    for c in contrasts:
        c.profile.check_against(spec)
    z = np.array([c.profile.z for c in contrasts]).reshape(n, spec.p)
    v = np.array([c.profile.v for c in contrasts]).reshape(n, spec.q)
    x = np.array([c.x for c in contrasts])
    xs = np.array([c.x_star for c in contrasts])
    delta = x - xs

    oy, mw = _OutcomeAt.at_profiles(outcome, z), _MediatorAt.at_profiles(mediator, v)
    logs = np.column_stack(_log_effects(oy, mw, x, xs, delta)).tolist()
    cde = np.column_stack([_log_cde_at(oy, delta)[w] for w in (0, 1)]).tolist()
    effect_sets = [
        EffectSet(*row, log_cde_at={0: c0, 1: c1}, contrast=c)
        for row, (c0, c1), c in zip(logs, cde, contrasts)
    ]
    jac = np.ascontiguousarray(
        _log_jacobian(spec, oy, mw, x, xs, delta, z.T, v.T).transpose(2, 0, 1)
    )
    cov_log = jac @ sigma @ jac.transpose(0, 2, 1)
    cov_log = (cov_log + cov_log.transpose(0, 2, 1)) / 2.0
    g_cde = [
        _exposure_gradient(spec, delta, z.T, spec.n_outcome_coefs, w).T.copy()
        for w in (0.0, 1.0)
    ]
    return [
        _inference(es, jac[i], cov_log[i], (g_cde[0][i], g_cde[1][i]), outcome_fit.vcov,
                   zq, level)
        for i, es in enumerate(effect_sets)
    ]
