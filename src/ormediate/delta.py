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
``_stacked`` makes every number that calls BLAS (the effects and their
Jacobians, both from one evaluation of the bridge terms, J Sigma J^T and the
CDE variances g V g^T), and ``_effect_rows`` the seven numbers of each effect
from them: ``infer_many``'s records hold them, and ``_table_rows`` hands them
to the CLI's tables with no record per effect.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .effects import (
    _TABLE_ORDER,
    EFFECT_ORDER,
    EffectSet,
    _at_contrasts,
    _bridge_terms,
    _exposure_gradient,
    _log_cde_at,
    _log_effects,
    _log_jacobian,
)
from .exceptions import CovarianceError, MediationError, NumericalError, SchemaError
from .model import Contrast, MediatorParams, ModelSpec, OutcomeParams, _each
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
    """The numbers of N contrasts that need BLAS, from which :func:`_effect_rows`
    makes their effects with none: the contrasts, their log effects (N, 5)
    and log CDE(0), log CDE(1) (N, 2) as lists of floats, the stacked
    Jacobians (N, 5, dim) and log-scale covariances (N, 5, 5), the CDE
    variances g V g^T (N, 2), and the Wald quantile of ``level``."""

    __slots__ = FIELDS = ("contrasts", "logs", "cde", "jac", "cov_log", "var_cde", "zq", "level")


def _effect_set(stack: _Stack, i: int) -> EffectSet:
    """The :class:`EffectSet` of row ``i`` of a stack, which checks it."""
    c0, c1 = stack.cde[i]
    return EffectSet(*stack.logs[i], log_cde_at={0: c0, 1: c1}, contrast=stack.contrasts[i])


def _rows_of(names: tuple, logs: np.ndarray, var: np.ndarray, zq: float) -> np.ndarray:
    """The (log, odds ratio, se_log, se_or, ci_lower, ci_upper, p) of each of
    k effects of N rows, (N, k, 7), from its log estimate and its clamped
    variance (N, k). Each exp and erfc is ``math``'s, one value at a time, and
    every other step one IEEE operation: the arithmetic of Python floats. The
    first effect, row by row, whose odds ratio or bound overflows raises."""
    se = np.sqrt(var)
    half = zq * se
    try:
        ors, lower, upper = (_each(math.exp, a.ravel()).reshape(a.shape)
                             for a in (logs, logs - half, logs + half))
    except OverflowError:
        for row, se_row in zip(logs.tolist(), se.tolist()):
            for name, log_est, se_log in zip(names, row, se_row):
                try:
                    math.exp(log_est)
                    math.exp(log_est - zq * se_log), math.exp(log_est + zq * se_log)
                except OverflowError:
                    raise NumericalError(
                        f"{name} odds ratio or its confidence bound overflows exp(): log "
                        f"estimate {log_est!r}, log-scale standard error {se_log!r}"
                    ) from None
        raise
    # _two_sided_p(log / se), as erfc(|z| / sqrt 2); a zero SE gives p = 1 at a
    # zero estimate and 0 elsewhere
    q = np.abs(logs / se) / math.sqrt(2.0)
    p = np.where(se > 0.0, _each(math.erfc, q.ravel()).reshape(q.shape),
                 np.where(logs == 0.0, 1.0, 0.0))
    return np.stack([logs, ors, se, ors * se, lower, upper, p], axis=-1)


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _effect_rows(stack: _Stack) -> np.ndarray:
    """The numbers of each effect of each contrast of a stack, through no
    BLAS: (N, 7, 7), the effects in EFFECT_ORDER then CDE(0) and CDE(1), each
    (log, odds ratio, se_log, se_or, ci_lower, ci_upper, p). The checks run
    over all rows at once, in the order of the effects they check: those of
    :class:`EffectSet`, the variances, then overflow, so a row alone raises
    what its :func:`infer` call raises."""
    logs, cde = np.array(stack.logs), np.array(stack.cde)
    # EffectSet's finite and decomposition checks, in its float arithmetic
    tol = 1e-12 * np.maximum(1.0, np.abs(logs).max(axis=1))
    bad = ~(np.isfinite(logs).all(axis=1) & np.isfinite(cde).all(axis=1))
    bad |= (np.abs(logs[:, 0] + logs[:, 1] - logs[:, 4]) > tol)
    bad |= (np.abs(logs[:, 2] + logs[:, 3] - logs[:, 4]) > tol)
    for i in np.flatnonzero(bad):
        _effect_set(stack, i)  # raises the check's own message

    var_log = np.diagonal(stack.cov_log, axis1=1, axis2=2)
    _check_variances(var_log, "a delta-method variance is not finite",
                     "delta-method variance {:.3e} is negative beyond roundoff")
    blocks = [_rows_of(EFFECT_ORDER, logs, np.clip(var_log, 0.0, None), stack.zq)]
    for w, var in enumerate(stack.var_cde.T):
        _check_variances(var, f"CDE({w}) variance is not finite",
                         f"negative CDE({w}) variance {{:.3e}}")
        var = np.where(var < 0.0, 0.0, var)  # max(var, 0.0): -0.0 stays -0.0
        blocks.append(_rows_of((f"cde{w}",), cde[:, w:w + 1], var[:, None], stack.zq))
    return np.concatenate(blocks, axis=1)


@np.errstate(all="ignore")  # cov_or overflows where two log effects pass 709
def _summaries(stack: _Stack) -> list[InferenceResult]:
    """The :class:`InferenceResult` of each contrast of a stack, through no
    BLAS, with the numbers of :func:`_effect_rows`."""
    if not stack.contrasts:
        return []
    rows = _effect_rows(stack).tolist()
    ors = np.exp(np.array(stack.logs))
    cov_or = stack.cov_log * (ors[:, :, None] * ors[:, None, :])
    results = []
    for i, row in enumerate(rows):
        # positional: binding eight keywords costs a third of the construction
        effects = [EffectInference(name, *numbers) for name, numbers in zip(_TABLE_ORDER, row)]
        results.append(InferenceResult(_effect_set(stack, i), tuple(effects[:5]),
                                       tuple(effects[5:]), stack.cov_log[i], cov_or[i],
                                       stack.jac[i], stack.level))
    return results


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
    return _summaries(_stacked(spec, outcome_fit, mediator_fit, [contrast], level))[0]


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
        return _summaries(_stacked(spec, outcome_fit, mediator_fit, contrasts, level))
    except (MediationError, ArithmeticError, ValueError):
        # the calls one by one: the batch fails with the first failing call's error
        return [infer(spec, outcome_fit, mediator_fit, c, level) for c in contrasts]


def _table_rows(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> list[list[float]]:
    """The numbers of :func:`infer_many`'s effects at each contrast, made
    with no record: one flat row per contrast, the seven numbers of
    :func:`_effect_rows` of each effect in turn. When a check fails the
    contrasts run through :func:`infer` one by one, so the error is the first
    failing contrast's, as in :func:`infer_many`."""
    try:
        rows = _effect_rows(_stacked(spec, outcome_fit, mediator_fit, contrasts, level))
    except (MediationError, ArithmeticError, ValueError):
        for c in contrasts:
            infer(spec, outcome_fit, mediator_fit, c, level)  # the first failing one raises
        raise
    return rows.reshape(len(contrasts), -1).tolist()


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _stacked(
    spec: ModelSpec,
    outcome_fit: FittedModel,
    mediator_fit: FittedModel,
    contrasts: list[Contrast],
    level: float,
) -> _Stack:
    """The BLAS stage of a batch: the effects and Jacobians as columns over
    the contrasts, from one evaluation of their bridge terms, the covariances as one stacked J Sigma J^T (equal slice by
    slice to the 2-d product), and the CDE variances as one stacked g V g^T."""
    from .logit import _wald_quantile

    zq = _wald_quantile(level)
    outcome, mediator, sigma = _fitted_params(spec, outcome_fit, mediator_fit)
    if not contrasts:
        return _Stack(contrasts, [], [], None, None, None, zq, level)
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    rows = np.broadcast_to(theta, (len(contrasts), 1, theta.size))  # one draw per contrast
    oy, mw, x, xs, delta, z, v = _at_contrasts(spec, rows, contrasts)
    terms = _bridge_terms(oy, mw, x, xs)
    logs = np.column_stack(_log_effects(oy, terms, delta)).tolist()
    cde = np.column_stack([_log_cde_at(oy, delta)[w] for w in (0, 1)]).tolist()
    jac = np.ascontiguousarray(
        _log_jacobian(spec, terms, x, xs, delta, z.T, v.T).transpose(2, 0, 1)
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
