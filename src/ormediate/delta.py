"""Delta-method inference for the log odds-ratio mediation effects.

The five log effects are smooth functions of the stacked coefficient vector
theta = (outcome coefficients, mediator coefficients). Their Jacobian is
built in :mod:`ormediate.effects`, beside the values it differentiates.
Sandwiching the block-diagonal coefficient covariance with it gives the
covariance of the log effects; the odds-ratio scale follows by scaling with
the estimates.

Confidence intervals are computed on the log scale and exponentiated, so they
are always positive and respect the reciprocal symmetry of odds ratios.

``infer_many`` runs the delta method at many contrasts as one batch: the
gradients are columns over the contrasts, built by the same functions as the
single-contrast Jacobian, and the covariances one stacked J Sigma J^T, which
equals the 2-d product slice by slice. ``infer`` is ``infer_many`` at one
contrast, so there is one delta-method path. A batch runs in two stages:
``_stacked`` makes every number that calls BLAS (the effects, the Jacobians,
J Sigma J^T and the CDE variances g V g^T), and ``_summaries`` makes the
results from them with no BLAS, so a forked child of a process with BLAS
threads may run it (the CLI's report ranges do).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .effects import (
    EFFECT_ORDER,
    EffectSet,
    _at_contrasts,
    _exposure_gradient,
    _log_cde_at,
    _log_effects,
    _log_jacobian,
)
from .exceptions import CovarianceError, MediationError, NumericalError, SchemaError
from .model import Contrast, MediatorParams, ModelSpec, OutcomeParams
from .record import Record, ValueRecord

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .logit import FittedModel

__all__ = [
    "EffectInference",
    "InferenceResult",
    "infer",
    "infer_many",
]

# roundoff this far below zero is forgiven and clamped; anything worse raises
_VAR_TOL = 1e-12


class EffectInference(ValueRecord):
    """One effect with its delta-method uncertainty, on both scales."""

    __slots__ = FIELDS = ("name", "log_estimate", "or_estimate", "se_log", "se_or",
                          "ci_lower", "ci_upper", "p_value")


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


class _Stack(Record):
    """The numbers of N contrasts that need BLAS, from which :func:`_summaries`
    builds their results with none: the contrasts, their log effects (N, 5)
    and log CDE(0), log CDE(1) (N, 2) as lists of floats, the stacked
    Jacobians (N, 5, dim) and log-scale covariances (N, 5, 5), the CDE
    variances g V g^T (N, 2), and the Wald quantile of ``level``."""

    __slots__ = FIELDS = ("contrasts", "logs", "cde", "jac", "cov_log", "var_cde", "zq", "level")


@np.errstate(all="ignore")  # as in _stacked: cov_or overflows where two log effects pass 709
def _summaries(stack: _Stack) -> list[InferenceResult]:
    """The :class:`InferenceResult` of each contrast of a stack, through no
    BLAS. The checks run over all rows at once; with one row they raise in
    the order of the effects they check."""
    if not stack.contrasts:
        return []
    from .logit import _two_sided_p  # imported here: verify's Jacobians load no fitter

    zq, level = stack.zq, stack.level
    effect_sets = [
        EffectSet(*row, log_cde_at={0: c0, 1: c1}, contrast=c)
        for row, (c0, c1), c in zip(stack.logs, stack.cde, stack.contrasts)
    ]
    cov_log = stack.cov_log
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
    for w, var in enumerate(stack.var_cde.T):
        _check_variances(var, f"CDE({w}) variance is not finite",
                         f"negative CDE({w}) variance {{:.3e}}")
        cde.append([
            _summarise(f"cde{w}", es.log_cde_at[w], max(v, 0.0), zq, _two_sided_p)
            for es, v in zip(effect_sets, var.tolist())
        ])

    # positional, as in _summarise: keywords cost more to bind
    return [
        InferenceResult(es, effects[i], (cde[0][i], cde[1][i]), cov_log[i], cov_or[i],
                        stack.jac[i], level)
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


def _infer_rows(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> list[InferenceResult]:
    """The batch behind :func:`infer` and :func:`infer_many`: one stack, then
    one summary of all its rows."""
    return _summaries(_stacked(spec, outcome_fit, mediator_fit, contrasts, level))


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _stacked(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> _Stack:
    """The BLAS stage of a batch: the effects and Jacobians as columns over
    the contrasts, the covariances as one stacked J Sigma J^T (equal slice by
    slice to the 2-d product), and the CDE variances as one stacked g V g^T."""
    from .logit import _wald_quantile

    zq = _wald_quantile(level)
    outcome, mediator, sigma = _fitted_params(spec, outcome_fit, mediator_fit)
    if not contrasts:
        return _Stack(contrasts, [], [], None, None, None, zq, level)
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    rows = np.broadcast_to(theta, (len(contrasts), 1, theta.size))  # one draw per contrast
    oy, mw, x, xs, delta, z, v = _at_contrasts(spec, rows, contrasts)
    logs = np.column_stack(_log_effects(oy, mw, x, xs, delta)).tolist()
    cde = np.column_stack([_log_cde_at(oy, delta)[w] for w in (0, 1)]).tolist()
    jac = np.ascontiguousarray(
        _log_jacobian(spec, oy, mw, x, xs, delta, z.T, v.T).transpose(2, 0, 1)
    )
    cov_log = jac @ sigma @ jac.transpose(0, 2, 1)
    cov_log = (cov_log + cov_log.transpose(0, 2, 1)) / 2.0
    var_cde = np.column_stack([
        (g[:, None, :] @ outcome_fit.vcov @ g[:, :, None])[:, 0, 0]
        for g in (
            _exposure_gradient(spec, delta, z.T, spec.n_outcome_coefs, w).T.copy()
            for w in (0.0, 1.0)
        )
    ])
    return _Stack(contrasts, logs, cde, jac, cov_log, var_cde, zq, level)
