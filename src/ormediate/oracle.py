"""Independent verification path: the non-parametric mediation formula.

For binary Y and W every mediation effect is a functional of eight conditional
probabilities: P(Y=1 | x, w, c) over the four (exposure level, w) cells and
P(W=1 | x, c) over the two exposure levels. ``mediation_formula_effects``
computes the natural effects straight from those tables by summing over the
mediator

    O[i, j] = sum_w P(Y=1 | x_i, w) P(W=w | x_j)  over  sum_w P(Y=0 | x_i, w) P(W=w | x_j)

and taking odds-ratio contrasts of O. It never touches the closed-form bridge
algebra in :mod:`ormediate.effects`, which is exactly what makes it a useful
oracle: the two paths agree only if both are right.

Tables built from model parameters carry stably computed complements
(P(Y=0) as logistic(-eta), not 1-p), so the agreement check is meaningful to
~1e-14 even when probabilities sit within 1e-11 of the boundary.

``finite_diff`` is the shared central-difference gradient checker. One helper
holds its step rule and difference arithmetic: it maps every difference point
through a function of stacked rows, so ``finite_diff`` passes a loop over f
and the ``verify`` jacobian suite a batch evaluation of the log effects.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .effects import ATermInputs, EffectSet
from .exceptions import DegenerateProbabilityError, SchemaError
from .model import Contrast, MediatorParams, OutcomeParams, _MediatorAt, _OutcomeAt

__all__ = [
    "ProbabilityTables",
    "GyCheckResult",
    "tables_from_params",
    "mediation_formula_effects",
    "g_y_check",
    "finite_diff",
]

# below this distance from {0, 1} the log-odds arithmetic is meaningless
PROB_GUARD = 1e-15


def _logistic(eta: float) -> float:
    if eta >= 0.0:
        return 1.0 / (1.0 + math.exp(-eta))
    e = math.exp(eta)
    return e / (1.0 + e)


def _table(values, shape, name) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise SchemaError(f"{name} must have shape {shape}, got {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProbabilityTables:
    """Conditional probability tables at one contrast.

    Row 0 is the active exposure level x, row 1 the reference level x*;
    columns of ``p_y`` are mediator levels w = 0, 1. ``q_y`` and ``q_w`` are
    the complements P(Y=0 | .) and P(W=0 | .), carried explicitly so callers
    can supply them to full precision.
    """

    p_y: np.ndarray
    p_w: np.ndarray
    q_y: np.ndarray
    q_w: np.ndarray
    contrast: Contrast

    def __post_init__(self):
        object.__setattr__(self, "p_y", _table(self.p_y, (2, 2), "p_y"))
        object.__setattr__(self, "q_y", _table(self.q_y, (2, 2), "q_y"))
        object.__setattr__(self, "p_w", _table(self.p_w, (2,), "p_w"))
        object.__setattr__(self, "q_w", _table(self.q_w, (2,), "q_w"))
        for p, q, name in ((self.p_y, self.q_y, "p_y"), (self.p_w, self.q_w, "p_w")):
            if np.min(p) < PROB_GUARD or np.min(q) < PROB_GUARD:
                raise DegenerateProbabilityError(
                    f"{name} table touches the boundary (min cell "
                    f"{min(np.min(p), np.min(q)):.3e} < {PROB_GUARD:g})"
                )
            if np.max(np.abs(p + q - 1.0)) > 1e-12:
                raise SchemaError(f"{name} and its complement do not sum to 1")

    @classmethod
    def from_probabilities(cls, p_y, p_w, contrast: Contrast) -> "ProbabilityTables":
        """Build tables from success probabilities alone; complements default
        to 1-p (fine away from the boundary)."""
        p_y = np.asarray(p_y, dtype=float)
        p_w = np.asarray(p_w, dtype=float)
        return cls(p_y=p_y, p_w=p_w, q_y=1.0 - p_y, q_w=1.0 - p_w, contrast=contrast)


def tables_from_params(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> ProbabilityTables:
    """Model-implied probability tables at the contrast's profile."""
    if outcome.spec != mediator.spec:
        raise SchemaError("outcome and mediator parameters belong to different model specs")
    contrast.profile.check_against(outcome.spec)
    oy = _OutcomeAt(outcome, contrast.profile.z)
    mw = _MediatorAt(mediator, contrast.profile.v)
    levels = (contrast.x, contrast.x_star)
    eta_y = [[oy.eta(x, w) for w in (0.0, 1.0)] for x in levels]
    eta_w = [mw.eta(x) for x in levels]
    return ProbabilityTables(
        p_y=[[_logistic(e) for e in row] for row in eta_y],
        q_y=[[_logistic(-e) for e in row] for row in eta_y],
        p_w=[_logistic(e) for e in eta_w],
        q_w=[_logistic(-e) for e in eta_w],
        contrast=contrast,
    )


def _log_odds(tables: ProbabilityTables, i_out: int, i_med: int) -> float:
    """log of the Y odds when the outcome sits at exposure row i_out and the
    mediator distribution at exposure row i_med (the mediation formula)."""
    py, qy, pw, qw = tables.p_y, tables.q_y, tables.p_w, tables.q_w
    num = py[i_out, 1] * pw[i_med] + py[i_out, 0] * qw[i_med]
    den = qy[i_out, 1] * pw[i_med] + qy[i_out, 0] * qw[i_med]
    return math.log(num / den)


def mediation_formula_effects(tables: ProbabilityTables) -> EffectSet:
    """Natural and controlled effects straight from the probability tables."""
    o_xx = _log_odds(tables, 0, 0)
    o_xxs = _log_odds(tables, 0, 1)
    o_xsx = _log_odds(tables, 1, 0)
    o_xsxs = _log_odds(tables, 1, 1)
    py, qy = tables.p_y, tables.q_y

    def cde(w: int) -> float:
        return math.log(py[0, w] / qy[0, w]) - math.log(py[1, w] / qy[1, w])

    return EffectSet(
        log_pnde=o_xxs - o_xsxs,
        log_tnie=o_xx - o_xxs,
        log_tnde=o_xx - o_xsx,
        log_pnie=o_xsx - o_xsxs,
        log_te=o_xx - o_xsxs,
        log_cde_at={0: cde(0), 1: cde(1)},
        contrast=tables.contrast,
    )


@dataclass(frozen=True)
class GyCheckResult:
    """Three independent computations of the bridge term A[x, x] for a
    no-covariate model; all must coincide."""

    a_direct: float
    a_from_g: float
    a_from_risk_ratio: float

    @property
    def residual_g(self) -> float:
        return abs(self.a_from_g - self.a_direct)

    @property
    def residual_risk_ratio(self) -> float:
        return abs(self.a_from_risk_ratio - self.a_direct)

    def passed(self, tol: float = 1e-12) -> bool:
        return self.residual_g < tol and self.residual_risk_ratio < tol


def g_y_check(outcome: OutcomeParams, mediator: MediatorParams, x: float) -> GyCheckResult:
    """Cross-check A[x, x] for a covariate-free model.

    (a) Through the collapsed one-parameter form: with
        g(y) = y (bw + bxw x) + log[(1 + e_y(x, 0)) / (1 + e_y(x, 1))] + g0 + gx x,
        A[x, x] = (1 + exp g(1)) / (1 + exp g(0)).
    (b) Through the inverse risk ratio of the complementary mediator:
        A[x, x] = P(1-W = 1 | Y=0, X=x) / P(1-W = 1 | Y=1, X=x)
        under the model joint law.
    """
    spec = outcome.spec
    if spec != mediator.spec:
        raise SchemaError("outcome and mediator parameters belong to different model specs")
    if spec.p != 0 or spec.q != 0:
        raise SchemaError("g_y_check applies to covariate-free models only")
    oy, mw = _OutcomeAt(outcome, ()), _MediatorAt(mediator, ())
    a_direct = ATermInputs._from_sums(oy, mw, x, x).value()

    shift = outcome.mediator + outcome.exposure_mediator * x
    ratio = math.log((1.0 + math.exp(oy.eta(x, 0.0))) / (1.0 + math.exp(oy.eta(x, 1.0))))
    base = mw.eta(x)
    g0 = ratio + base
    g1 = shift + ratio + base
    a_from_g = (1.0 + math.exp(g1)) / (1.0 + math.exp(g0))

    tables = tables_from_params(outcome, mediator, Contrast(x=x, x_star=x))
    joint = {
        (y, w): (tables.p_y[0, w] if y == 1 else tables.q_y[0, w])
        * (tables.p_w[0] if w == 1 else tables.q_w[0])
        for y in (0, 1)
        for w in (0, 1)
    }
    # P(W=0 | Y=y, X=x) for y = 0, 1
    w0_given_y0 = joint[(0, 0)] / (joint[(0, 0)] + joint[(0, 1)])
    w0_given_y1 = joint[(1, 0)] / (joint[(1, 0)] + joint[(1, 1)])
    return GyCheckResult(
        a_direct=a_direct,
        a_from_g=a_from_g,
        a_from_risk_ratio=w0_given_y0 / w0_given_y1,
    )


def finite_diff(
    f: Callable[[np.ndarray], float | np.ndarray],
    theta: np.ndarray,
    rel_step: float = 1e-6,
) -> np.ndarray:
    """Central-difference derivative of ``f`` at ``theta``.

    The step for coordinate i is ``rel_step * max(1, |theta_i|)``. Scalar f
    gives a gradient of shape (dim,), vector f a Jacobian of shape (m, dim).
    Non-finite differences raise, naming the coordinate. f is called at theta
    and then at theta + h_i e_i and theta - h_i e_i for each i in turn.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise SchemaError(f"theta must be a vector, got shape {theta.shape}")
    return _central_differences(lambda rows: [f(row) for row in rows], theta, rel_step)


def _central_differences(f_rows, theta: np.ndarray, rel_step: float) -> np.ndarray:
    """:func:`finite_diff` through ``f_rows``, which maps the rows theta,
    theta + h_0 e_0, theta - h_0 e_0, theta + h_1 e_1, ... to their values,
    (2 dim + 1,) for scalar f or (2 dim + 1, m). The first coordinate with a
    non-finite quotient raises."""
    h = np.array([rel_step * max(1.0, abs(t)) for t in theta.tolist()])
    rows = np.repeat(theta[None], 2 * theta.size + 1, axis=0)
    i = np.arange(theta.size)
    rows[2 * i + 1, i] += h
    rows[2 * i + 2, i] -= h
    values = np.asarray(f_rows(rows), dtype=float)
    with np.errstate(all="ignore"):  # a non-finite quotient raises below instead
        diff = (values[1::2] - values[2::2]).T / (2.0 * h)
    bad = ~np.isfinite(np.atleast_2d(diff)).all(axis=0)
    if bad.any():
        raise SchemaError(f"finite difference is not finite at coordinate {int(np.argmax(bad))}")
    return diff
