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
single-contrast Jacobian, and the covariances one stacked J Sigma J^T
(``_products.quadratic_forms``, equal slice by slice to the 2-d product).
``infer`` is ``infer_many`` at one contrast, so there is one delta-method
path. It runs on parameter sets and covariances, so the CLI's tables take a
coefficient set's own, and only ``infer_many`` turns two fits into them. A
batch runs in two stages: ``_stacked`` evaluates the log effects, the CDEs
and the bridge terms once (``effects._log_effects_at_rows``), and from them
the Jacobians, J Sigma J^T and the CDE variances g V g^T; ``_effect_rows``
makes the seven numbers of each effect from that stack. The split stays
because the two consumers need different parts: ``infer_many``'s records
keep the covariances and Jacobians of the stack, while ``_table_rows`` hands
the CLI's tables only the rows.
Both go through ``_checked``, whose retry makes a failing batch raise the
error of its first failing contrast.

The Wald summary of a fit's coefficients (``wald_table``) lives here too,
beside the Wald quantile and two-sided p-value the effect intervals use, so
:mod:`ormediate.logit` is the fitter alone and reading effects off a
coefficient file loads no fitting code.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from . import _products
from .effects import (
    _TABLE_ORDER,
    EFFECT_ORDER,
    EffectSet,
    _exposure_gradient,
    _log_effects_at_rows,
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
    "wald_table",
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


def _wald_quantile(level: float) -> float:
    """Standard normal quantile at 1/2 + level/2: the half-width multiplier
    of a two-sided Wald interval at confidence ``level``. Levels within an ulp
    of 1 round the probability to 1, whose quantile is infinite."""
    if not 0.0 < level < 1.0:
        raise SchemaError(f"confidence level must be in (0, 1), got {level!r}")
    prob = 0.5 + level / 2.0
    if prob == 1.0:
        return math.inf
    try:
        # the C function NormalDist.inv_cdf calls, without loading statistics
        # and with it fractions and decimal
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist

        return NormalDist().inv_cdf(prob)
    return _normal_dist_inv_cdf(prob, 0.0, 1.0)


def _two_sided_p(z: float) -> float:
    """Two-sided standard normal tail probability 2 * Phi(-|z|)."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def wald_table(model: FittedModel, level: float = 0.95) -> list[dict]:
    """Per-coefficient Wald summary: estimate, SE, z, two-sided p, CI."""
    zq = _wald_quantile(level)
    rows = []
    ses = model.standard_errors
    for name, est, se in zip(model.column_names, model.coefficients, ses):
        z = est / se if se > 0 else np.inf * np.sign(est) if est else 0.0
        rows.append(
            {
                "term": name,
                "estimate": float(est),
                "se": float(se),
                "z": float(z),
                "p": _two_sided_p(z),
                "ci_lower": float(est - zq * se),
                "ci_upper": float(est + zq * se),
            }
        )
    return rows


def _check_variances(var: np.ndarray, not_finite: str, negative: str) -> None:
    """Raise when a stacked variance is not finite, or is negative beyond
    roundoff (``negative`` formats the lowest)."""
    if not np.isfinite(var).all():
        raise CovarianceError(not_finite)
    if np.min(var) < -_VAR_TOL:
        raise CovarianceError(negative.format(np.min(var)))


def _fitted_params(spec: ModelSpec, outcome_fit: FittedModel, mediator_fit: FittedModel):
    """The parameter sets and covariances of two fits, in the arguments of
    :func:`_stacked`."""
    outcome = OutcomeParams.from_vector(spec, outcome_fit.coefficients)
    mediator = MediatorParams.from_vector(spec, mediator_fit.coefficients)
    ky, kw = spec.n_outcome_coefs, spec.n_mediator_coefs
    if outcome_fit.vcov.shape != (ky, ky) or mediator_fit.vcov.shape != (kw, kw):
        raise SchemaError("fit covariance shapes do not match the model spec")
    return outcome, mediator, outcome_fit.vcov, mediator_fit.vcov


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
    return infer_many(spec, outcome_fit, mediator_fit, [contrast], level)[0]


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
    params = _fitted_params(spec, outcome_fit, mediator_fit)
    return _checked(_summaries, spec, *params, list(contrasts), level)


def _table_rows(spec: ModelSpec, outcome: OutcomeParams, mediator: MediatorParams,
                outcome_vcov: np.ndarray, mediator_vcov: np.ndarray,
                contrasts: list[Contrast], level: float) -> np.ndarray:
    """The numbers of :func:`infer_many`'s effects at each contrast, made
    with no record: one float64 row per contrast, the seven numbers of
    :func:`_effect_rows` of each effect in turn; a failure raises as
    :func:`infer_many` does."""
    rows = _checked(_effect_rows, spec, outcome, mediator, outcome_vcov, mediator_vcov,
                    contrasts, level)
    return rows.reshape(len(contrasts), -1)


def _checked(make, spec: ModelSpec, outcome: OutcomeParams, mediator: MediatorParams,
             outcome_vcov, mediator_vcov, contrasts: list[Contrast], level: float):
    """``make`` (:func:`_summaries` or :func:`_effect_rows`) of the stack of
    ``contrasts``. When a check fails, the contrasts are stacked one by one,
    so the error raised is the first failing contrast's."""
    params = (spec, outcome, mediator, outcome_vcov, mediator_vcov)
    try:
        return make(_stacked(*params, contrasts, level))
    except (MediationError, ArithmeticError, ValueError):
        for c in contrasts:
            make(_stacked(*params, [c], level))  # the first failing one raises
        raise


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _stacked(spec: ModelSpec, outcome: OutcomeParams, mediator: MediatorParams,
             outcome_vcov: np.ndarray, mediator_vcov: np.ndarray,
             contrasts: list[Contrast], level: float) -> _Stack:
    """The BLAS stage of a batch: the effects and Jacobians as columns over
    the contrasts, from one evaluation of their bridge terms, the covariances
    as one stacked J Sigma J^T with the block-diagonal Sigma of the two
    covariances, and the CDE variances as one stacked g V g^T, both
    ``_products.quadratic_forms``."""
    zq = _wald_quantile(level)
    if not contrasts:
        return _Stack(contrasts, [], [], None, None, None, zq, level)
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    rows = np.broadcast_to(theta, (len(contrasts), 1, theta.size))  # one draw per contrast
    logs, at_theta, cde = _log_effects_at_rows(spec, rows, contrasts)
    jac = np.ascontiguousarray(_log_jacobian(spec, *at_theta).transpose(2, 0, 1))
    ky = spec.n_outcome_coefs
    sigma = np.zeros((theta.size, theta.size))
    sigma[:ky, :ky] = outcome_vcov
    sigma[ky:, ky:] = mediator_vcov
    cov_log = _products.quadratic_forms(jac, sigma)
    cov_log = (cov_log + cov_log.transpose(0, 2, 1)) / 2.0
    _, _, _, delta, z, _ = at_theta
    var_cde = np.column_stack([
        _products.quadratic_forms(g[:, None, :], outcome_vcov)[:, 0, 0]
        for g in (_exposure_gradient(spec, delta, z, ky, w).T.copy() for w in (0.0, 1.0))
    ])
    return _Stack(contrasts, logs[:, 0].tolist(), cde.tolist(), jac, cov_log, var_cde, zq, level)
