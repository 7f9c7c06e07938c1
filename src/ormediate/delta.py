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
equals the 2-d product slice by slice. ``infer`` is ``infer_many`` at one
contrast, so there is one delta-method path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .effects import (
    EFFECT_ORDER,
    EffectSet,
    _at_contrasts,
    _bridge_inputs,
    _bridge_value,
    _check_joint_spec,
    _log_cde_at,
    _log_effects,
    a_term_inputs,
)
from .exceptions import CovarianceError, MediationError, NumericalError, SchemaError
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
from .record import Record, ValueRecord, _set

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .logit import FittedModel

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


def a_term_key_derivatives(k, p2, p3, p4):
    """(d_b0, d_bw, d_g0): the three independent partials of one bridge term
    with inputs (k, p2, p3, p4), of floats or of columns.

    At k = 1 both d_b0 and d_g0 vanish identically (the numerators are the
    same products commuted), which is what makes null-mediator models give
    exactly zero indirect-effect gradients outside the mediator coefficients.
    """
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
    inputs = a_term_inputs(outcome, mediator, x_outcome, x_mediator, profile)
    return _bridge_gradient(outcome.spec, inputs, x_outcome, x_mediator, profile.z, profile.v)


def _bridge_gradient(spec: ModelSpec, inputs: tuple, x_outcome, x_mediator, z, v) -> np.ndarray:
    """:func:`grad_a_term` for bridge-term inputs (k, p2, p3, p4) already
    evaluated: each entry is (d·x)·c_j, the block's key derivative d, times its
    model's exposure level if it has an x factor, times each covariate value
    c_j. Floats give shape (dim,); a batch of N columns, with z and v of shape
    (p, N) and (q, N), gives (dim, N)."""
    d_b0, d_bw, d_g0 = a_term_key_derivatives(*inputs)
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
    prof = contrast.profile
    _check_joint_spec(outcome, mediator, prof)
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


class EffectInference(ValueRecord):
    """One effect with its delta-method uncertainty, on both scales."""

    __slots__ = FIELDS = ("name", "log_estimate", "or_estimate", "se_log", "se_or",
                          "ci_lower", "ci_upper", "p_value")

    def __init__(
        self,
        name: str,
        log_estimate: float,
        or_estimate: float,
        se_log: float,
        se_or: float,
        ci_lower: float,
        ci_upper: float,
        p_value: float,
    ):
        _set(self, "name", name)
        _set(self, "log_estimate", log_estimate)
        _set(self, "or_estimate", or_estimate)
        _set(self, "se_log", se_log)
        _set(self, "se_or", se_or)
        _set(self, "ci_lower", ci_lower)
        _set(self, "ci_upper", ci_upper)
        _set(self, "p_value", p_value)


class InferenceResult(Record):
    """Point estimates, covariances, and per-effect summaries at one contrast.

    ``effects`` holds the five natural effects in EFFECT_ORDER; ``cde`` the
    controlled direct effects at w = 0 and w = 1. ``cov_log`` / ``cov_or`` are
    the 5x5 covariance matrices of the natural effects on the log and
    odds-ratio scales, and ``jacobian`` is the 5 x dim(theta) matrix behind
    them.
    """

    __slots__ = FIELDS = ("effect_set", "effects", "cde", "cov_log", "cov_or", "jacobian",
                          "level")

    def __init__(
        self,
        effect_set: EffectSet,
        effects: tuple[EffectInference, ...],
        cde: tuple[EffectInference, ...],
        cov_log: np.ndarray,
        cov_or: np.ndarray,
        jacobian: np.ndarray,
        level: float,
    ):
        _set(self, "effect_set", effect_set)
        _set(self, "effects", effects)
        _set(self, "cde", cde)
        _set(self, "cov_log", cov_log)
        _set(self, "cov_or", cov_or)
        _set(self, "jacobian", jacobian)
        _set(self, "level", level)

    def by_name(self) -> dict[str, EffectInference]:
        out = {e.name: e for e in self.effects}
        out.update({e.name: e for e in self.cde})
        return out


def _check_variances(var: np.ndarray, not_finite: str, negative: str) -> None:
    """Raise when a stacked variance is not finite, or is negative beyond
    roundoff (``negative`` formats the lowest)."""
    if not np.isfinite(var).all():
        raise CovarianceError(not_finite)
    if np.min(var) < -_VAR_TOL:
        raise CovarianceError(negative.format(np.min(var)))


def _summarise(name: str, log_est: float, var_log: float, zq: float,
               two_sided_p) -> EffectInference:
    se_log = math.sqrt(var_log)
    try:
        or_est = math.exp(log_est)
        ci_lower = math.exp(log_est - zq * se_log)
        ci_upper = math.exp(log_est + zq * se_log)
    except OverflowError:
        raise NumericalError(
            f"{name} odds ratio or its confidence bound overflows exp(): log estimate "
            f"{log_est!r}, log-scale standard error {se_log!r}"
        ) from None
    if se_log > 0.0:
        zstat = log_est / se_log
        p = two_sided_p(zstat)
    else:
        p = 1.0 if log_est == 0.0 else 0.0
    # positional: binding eight keywords costs a third of the construction
    return EffectInference(name, log_est, or_est, se_log, or_est * se_log, ci_lower, ci_upper, p)


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


def _summaries(effect_sets, jac, cov_log, g_cde, outcome_vcov, zq: float, level: float):
    """The :class:`InferenceResult` of each of N contrasts from its effects,
    the stacked Jacobians (N, 5, dim) and log-scale covariances (N, 5, 5),
    and the stacked gradients (N, ky) of log CDE(0) and log CDE(1). The
    checks run over all rows at once; with N = 1 they raise in the order of
    the effects they check."""
    from .logit import _two_sided_p  # imported here: verify's Jacobians load no fitter

    var_log = np.diagonal(cov_log, axis1=1, axis2=2)
    _check_variances(var_log, "a delta-method variance is not finite",
                     "delta-method variance {:.3e} is negative beyond roundoff")
    var_log = np.clip(var_log, 0.0, None).tolist()
    effects = [
        tuple(
            _summarise(name, log_est, var, zq, _two_sided_p)
            for name, log_est, var in zip(EFFECT_ORDER, es.log_values(), row)
        )
        for es, row in zip(effect_sets, var_log)
    ]
    ors = np.exp(np.array([es.log_values() for es in effect_sets]))
    cov_or = cov_log * (ors[:, :, None] * ors[:, None, :])

    cde = []
    for w, g in enumerate(g_cde):
        var = (g[:, None, :] @ outcome_vcov @ g[:, :, None])[:, 0, 0]
        _check_variances(var, f"CDE({w}) variance is not finite",
                         f"negative CDE({w}) variance {{:.3e}}")
        cde.append([
            _summarise(f"cde{w}", es.log_cde_at[w], max(v, 0.0), zq, _two_sided_p)
            for es, v in zip(effect_sets, var.tolist())
        ])

    return [
        InferenceResult(
            effect_set=es,
            effects=effects[i],
            cde=(cde[0][i], cde[1][i]),
            cov_log=cov_log[i],
            cov_or=cov_or[i],
            jacobian=jac[i],
            level=level,
        )
        for i, es in enumerate(effect_sets)
    ]


def infer(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrast: Contrast,
    level: float = 0.95,
) -> InferenceResult:
    """Delta-method inference from two fitted models: :func:`infer_many` at
    one contrast.

    The coefficient covariance is block diagonal (the two likelihoods share no
    parameters). A zero covariance collapses every interval to its point
    estimate rather than erroring.
    """
    return _infer_rows(spec, outcome_fit, mediator_fit, [contrast], level)[0]


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
    try:
        return _infer_rows(spec, outcome_fit, mediator_fit, contrasts, level)
    except (MediationError, ArithmeticError, ValueError):
        # the calls one by one: the batch fails with the first failing call's error
        return [infer(spec, outcome_fit, mediator_fit, c, level) for c in contrasts]


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _infer_rows(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> list[InferenceResult]:
    """The batch behind :func:`infer` and :func:`infer_many`: the effects and
    Jacobians as columns over the contrasts, the covariances as one stacked
    J Sigma J^T (equal slice by slice to the 2-d product), and one stacked
    summary."""
    from .logit import _wald_quantile

    zq = _wald_quantile(level)
    outcome, mediator, sigma = _fitted_params(spec, outcome_fit, mediator_fit)
    if not contrasts:
        return []
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    rows = np.broadcast_to(theta, (len(contrasts), 1, theta.size))  # one draw per contrast
    oy, mw, x, xs, delta, z, v = _at_contrasts(spec, rows, contrasts)
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
    return _summaries(effect_sets, jac, cov_log, g_cde, outcome_fit.vcov, zq, level)
