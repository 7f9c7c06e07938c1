"""Odds-ratio mediation effects for a binary outcome and binary mediator.

All effects are conditional on a covariate profile c = (z, v) and an exposure
contrast x vs x*, and are exact on the odds-ratio scale: no rare-outcome
approximation is involved. Everything reduces to a bridge term

    A[x1, x2 | c] = (k p2 p3 + p4) / (p2 p3 + p4)

where, writing e_y and e_w for the exponentiated model predictors,

    k  = exp(bw + bxw x1 + bwz'z + bxwz' x1 z)   mediator-outcome odds ratio
    p2 = e_w(x2, v)                              mediator odds
    p3 = 1 + e_y(x1, 0, z)
    p4 = 1 + e_y(x1, 1, z)

The first index sets the exposure level inside the outcome model, the second
the exposure level inside the mediator model. A is a convex combination of k
and 1 with weights p2 p3 / (p2 p3 + p4) and p4 / (p2 p3 + p4), hence always
between min(k, 1) and max(k, 1). ``a_term_inputs`` returns the tuple
(k, p2, p3, p4) of one term and ``a_term`` its value. ``_bridge_terms``
evaluates the four terms of a contrast, each as its inputs and its value, and
the log effects and their Jacobian both read that one evaluation.

With D = x - x* and the prefactor br(z) = bx + bxz'z, the natural effects are

    log PNDE = br(z) D + log(A[x, x*] / A[x*, x*])
    log TNIE =           log(A[x, x ] / A[x,  x*])
    log TNDE = br(z) D + log(A[x, x ] / A[x*, x ])
    log PNIE =           log(A[x*, x] / A[x*, x*])
    log TE   = br(z) D + log(A[x, x ] / A[x*, x*])
    log CDE(w) = (bx + bxw w + bxz'z + bxwz' w z) D

so that TE = PNDE * TNIE = TNDE * PNIE by construction.

A bridge term that is not a positive finite number (k p2 p3 or p2 p3
overflows), or a log effect that is not finite, raises a NumericalError that
names it; so does a ratio of bridge terms that underflows to 0.

``approx_effects`` computes the classical rare-outcome approximations of the
same five effects (the forms obtained when the outcome odds e_y are dropped
next to 1), useful for quantifying the error of the approximate pipeline.

The Jacobian of the five log effects over the stacked coefficient vector
theta = (outcome coefficients, mediator coefficients), which the delta
method (:mod:`ormediate.delta`) and ``verify`` use, derives from the same
bridge inputs. A bridge term depends on theta only through three
predictors, so three key derivatives determine its whole gradient:

    d_b0 = dA/d(intercept)   for the outcome blocks without a w factor
    d_bw = dA/d(mediator)    for the outcome blocks with a w factor
    d_g0 = dA/d(g intercept) for every mediator block

Each block of the model tables (``model.OUTCOME_BLOCKS``, ``MEDIATOR_BLOCKS``)
enters its predictor linearly, so one rule gives every entry: the key
derivative, times the exposure level if the block carries an x factor, times
the covariate value for a covariate block. Stacking the four bridge gradients
into rows for (log PNDE, log TNIE, log TNDE, log PNIE, log TE) gives the
Jacobian.

The bridge terms, log effects and their Jacobian are written once, for
floats (``natural_effects``, ``jacobian_log_effects``) and for columns over a
batch of rows alike (see :mod:`ormediate.model`); ``_log_effects_at_rows``
evaluates many coefficient vectors at one contrast per draw, with none of the
checks of ``natural_effects``, and keeps the bridge terms and the CDEs of each
draw's first row: ``verify`` judges the values it gives, and the delta method
checks them as ``EffectSet`` does before it reports them.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import NumericalError, SchemaError
from .model import (
    MEDIATOR_BLOCKS,
    OUTCOME_BLOCKS,
    Contrast,
    CovariateProfile,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    _each,
    _MediatorAt,
    _OutcomeAt,
)
from .record import Record, ValueRecord, _set

__all__ = [
    "EFFECT_ORDER",
    "EffectSet",
    "SpecialCaseReport",
    "a_term",
    "a_term_inputs",
    "a_term_key_derivatives",
    "grad_a_term",
    "jacobian_log_effects",
    "natural_effects",
    "approx_effects",
    "special_case_report",
]

# Row/report order used everywhere downstream (delta method, CLI tables).
EFFECT_ORDER = ("pnde", "tnie", "tnde", "pnie", "te")
# the effects of a report table: EFFECT_ORDER, then CDE(0) and CDE(1)
_TABLE_ORDER = (*EFFECT_ORDER, "cde0", "cde1")
# the four bridge terms of one contrast, in the order of _bridge_terms
_BRIDGE_TERMS = ("A[x, x]", "A[x, x*]", "A[x*, x]", "A[x*, x*]")


def _check_joint_spec(outcome: OutcomeParams, mediator: MediatorParams, profile: CovariateProfile):
    if outcome.spec != mediator.spec:
        raise SchemaError("outcome and mediator parameters belong to different model specs")
    profile.check_against(outcome.spec)


def _bridge_value(k, p2, p3, p4):
    """A = (k p2 p3 + p4) / (p2 p3 + p4), of floats or of columns."""
    return (k * p2 * p3 + p4) / (p2 * p3 + p4)


def _bridge_terms(oy: _OutcomeAt, mw: _MediatorAt, x, xs) -> tuple[tuple, ...]:
    """A[x, x], A[x, x*], A[x*, x] and A[x*, x*] at one profile, each as its
    inputs (k, p2, p3, p4) and its value, as floats or, for a batch, columns.

    k, p3 and p4 depend only on the outcome exposure and p2 only on the
    mediator exposure, so each is exponentiated once, in the order the four
    terms first use it (the first overflow raised is the one the terms taken
    one by one would raise). The |eta| <= 709 bound on every exponent keeps
    the inputs finite, k and p2 positive and p3 and p4 at least 1.
    """
    k_x, p2_x = oy.mediator_odds_ratio(x), mw.odds(x)
    p3_x, p4_x = 1.0 + oy.odds(x, 0.0), 1.0 + oy.odds(x, 1.0)
    p2_xs = mw.odds(xs)
    k_xs = oy.mediator_odds_ratio(xs)
    p3_xs, p4_xs = 1.0 + oy.odds(xs, 0.0), 1.0 + oy.odds(xs, 1.0)
    inputs = (
        (k_x, p2_x, p3_x, p4_x),
        (k_x, p2_xs, p3_x, p4_x),
        (k_xs, p2_x, p3_xs, p4_xs),
        (k_xs, p2_xs, p3_xs, p4_xs),
    )
    return tuple((term, _bridge_value(*term)) for term in inputs)


def a_term_inputs(
    outcome: OutcomeParams,
    mediator: MediatorParams,
    x_outcome: float,
    x_mediator: float,
    profile: CovariateProfile,
) -> tuple[float, float, float, float]:
    """(k, p2, p3, p4), the four inputs of A[x_outcome, x_mediator | profile]."""
    _check_joint_spec(outcome, mediator, profile)
    return _term_inputs(_OutcomeAt(outcome, profile.z), _MediatorAt(mediator, profile.v),
                        float(x_outcome), float(x_mediator))


def _term_inputs(oy: _OutcomeAt, mw: _MediatorAt, x1: float, x2: float) -> tuple:
    """(k, p2, p3, p4) of A[x1, x2] from the predictors at its profile."""
    return oy.mediator_odds_ratio(x1), mw.odds(x2), 1.0 + oy.odds(x1, 0.0), 1.0 + oy.odds(x1, 1.0)


def a_term(
    outcome: OutcomeParams,
    mediator: MediatorParams,
    x_outcome: float,
    x_mediator: float,
    profile: CovariateProfile,
) -> float:
    """Bridge term A[x_outcome, x_mediator | profile]; see the module docstring."""
    return _bridge_value(*a_term_inputs(outcome, mediator, x_outcome, x_mediator, profile))


class EffectSet(Record):
    """The five natural effects plus the controlled direct effect, on the log
    odds-ratio scale, at one contrast. Construction re-checks the
    multiplicative decomposition TE = PNDE*TNIE = TNDE*PNIE."""

    __slots__ = FIELDS = ("log_pnde", "log_tnie", "log_tnde", "log_pnie", "log_te",
                          "log_cde_at", "contrast")

    def __init__(
        self,
        log_pnde: float,
        log_tnie: float,
        log_tnde: float,
        log_pnie: float,
        log_te: float,
        log_cde_at: dict[int, float],
        contrast: Contrast,
    ):
        logs = [log_pnde, log_tnie, log_tnde, log_pnie, log_te]
        if not all(math.isfinite(v) for v in logs):
            raise SchemaError(f"non-finite log effects {logs}")
        cde = {int(w): float(v) for w, v in log_cde_at.items()}
        if sorted(cde) != [0, 1] or not all(math.isfinite(v) for v in cde.values()):
            raise SchemaError("log_cde_at must map w in {0, 1} to finite values")
        scale = max(1.0, *(abs(v) for v in logs))
        tol = 1e-12 * scale
        if abs(log_pnde + log_tnie - log_te) > tol or abs(log_tnde + log_pnie - log_te) > tol:
            raise SchemaError(
                "effect decomposition TE = PNDE*TNIE = TNDE*PNIE is violated: "
                f"log TE = {log_te!r} vs {log_pnde + log_tnie!r} "
                f"and {log_tnde + log_pnie!r}"
            )
        for name, value in zip(self.FIELDS, (*logs, cde, contrast)):
            _set(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EffectSet):
            return NotImplemented
        return (
            self.log_values() == other.log_values()
            and self.log_cde_at == other.log_cde_at
            and self.contrast == other.contrast
        )

    def log_values(self) -> tuple[float, ...]:
        """(log PNDE, log TNIE, log TNDE, log PNIE, log TE), the EFFECT_ORDER."""
        return (self.log_pnde, self.log_tnie, self.log_tnde, self.log_pnie, self.log_te)

    @property
    def pnde(self) -> float:
        return math.exp(self.log_pnde)

    @property
    def tnie(self) -> float:
        return math.exp(self.log_tnie)

    @property
    def tnde(self) -> float:
        return math.exp(self.log_tnde)

    @property
    def pnie(self) -> float:
        return math.exp(self.log_pnie)

    @property
    def te(self) -> float:
        return math.exp(self.log_te)

    def cde(self, w: int) -> float:
        return math.exp(self.log_cde_at[int(w)])

    def odds_ratios(self) -> dict[str, float]:
        """The odds ratios by name, in _TABLE_ORDER. A log effect beyond
        exp()'s range raises :class:`NumericalError`."""
        logs = (*self.log_values(), self.log_cde_at[0], self.log_cde_at[1])
        out = {}
        for name, log in zip(_TABLE_ORDER, logs):
            try:
                out[name] = math.exp(log)
            except OverflowError:
                raise NumericalError(
                    f"{name} odds ratio overflows exp(): log estimate {log!r}"
                ) from None
        return out

    def mediated_interaction_residual(self, which: str = "pnde") -> float:
        """log NDE - log CDE(0): what the natural direct effect adds on top of
        the controlled direct effect at w=0."""
        if which == "pnde":
            return self.log_pnde - self.log_cde_at[0]
        if which == "tnde":
            return self.log_tnde - self.log_cde_at[0]
        raise SchemaError(f"which must be 'pnde' or 'tnde', got {which!r}")


def _log_cde_at(oy: _OutcomeAt, delta: float) -> dict[int, float]:
    """log CDE(w) = (bx + bxw w + bxz'z + bxwz' w z) D for w = 0, 1."""
    return {0: oy.exposure_log_or(0.0) * delta, 1: oy.exposure_log_or(1.0) * delta}


def _outside(value, low: float, high: float):
    """The first entry of a float or column that is not strictly between low
    and high (NaN included), or None if there is none."""
    if isinstance(value, np.ndarray):
        ok = (value > low) & (value < high)
        return None if ok.all() else value.tolist()[int(np.argmin(ok))]
    return None if low < value < high else value


def _log_effects(oy: _OutcomeAt, terms: tuple, delta) -> tuple:
    """(log PNDE, log TNIE, log TNDE, log PNIE, log TE) from the bridge
    terms of :func:`_bridge_terms`, of floats or columns."""
    bridges = [a for _, a in terms]
    a_xx, a_xxs, a_xsx, a_xsxs = bridges
    # A lies between min(k, 1) and max(k, 1), so only an overflowed product
    # takes it out of (0, inf)
    for term, a in zip(_BRIDGE_TERMS, bridges):
        bad = _outside(a, 0.0, math.inf)
        if bad is not None:
            raise NumericalError(f"bridge term {term} is {bad!r}: k p2 p3 or p2 p3 overflows")
    pref = oy.exposure_main_log_or() * delta
    try:
        logs = (
            pref + _each(math.log, a_xxs / a_xsxs),
            _each(math.log, a_xx / a_xxs),
            pref + _each(math.log, a_xx / a_xsx),
            _each(math.log, a_xsx / a_xsxs),
            pref + _each(math.log, a_xx / a_xsxs),
        )
    except ValueError:
        # every bridge term is positive and finite, so only a ratio that
        # underflows to 0 reaches math.log's domain error
        raise NumericalError(
            "a ratio of bridge terms underflows to 0, so its log effect is not representable"
        ) from None
    for name, value in zip(EFFECT_ORDER, logs):
        bad = _outside(value, -math.inf, math.inf)
        if bad is not None:
            raise NumericalError(
                f"log {name.upper()} is {bad!r}: a ratio of bridge terms or the prefactor "
                "overflows"
            )
    return logs


def natural_effects(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> EffectSet:
    """Exact natural and controlled effects at the given contrast.

    A degenerate contrast (x == x*) yields every effect exactly 1.
    """
    prof = contrast.profile
    _check_joint_spec(outcome, mediator, prof)
    oy = _OutcomeAt(outcome, prof.z)
    terms = _bridge_terms(oy, _MediatorAt(mediator, prof.v), contrast.x, contrast.x_star)
    logs = _log_effects(oy, terms, contrast.delta)
    return EffectSet(*logs, log_cde_at=_log_cde_at(oy, contrast.delta), contrast=contrast)


def a_term_key_derivatives(k, p2, p3, p4):
    """(d_b0, d_bw, d_g0): the three independent partials of one bridge term
    with inputs (k, p2, p3, p4), of floats or of columns.

    At k = 1 both d_b0 and d_g0 vanish identically (the numerators are the
    same products commuted), which is what makes null-mediator models give
    exactly zero indirect-effect gradients outside the mediator coefficients.
    """
    s = p2 * p3 + p4
    num = k * p2 * p3 + p4
    d_b0 = _quotient_partial(k * p2 * (p3 - 1.0) + (p4 - 1.0), p2 * (p3 - 1.0) + (p4 - 1.0),
                             num, s)
    d_bw = _quotient_partial(k * p2 * p3 + (p4 - 1.0), p4 - 1.0, num, s)
    d_g0 = _quotient_partial(k * p2 * p3, p2 * p3, num, s)
    return d_b0, d_bw, d_g0


def _quotient_partial(u, v, num, s):
    """The partial (u s - num v) / s^2 of num / s, where u and v are the
    partials of num and s. Past s of about 1.3e154 the products overflow
    while the partial itself does not; there it is u/s - (num/s)(v/s)."""
    d = (u * s - num * v) / (s * s)
    if isinstance(d, np.ndarray):
        bad = ~np.isfinite(d)
        if bad.any():
            d[bad] = (u / s - (num / s) * (v / s))[bad]
        return d
    return d if math.isfinite(d) else u / s - (num / s) * (v / s)


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


def _log_jacobian(spec: ModelSpec, terms: tuple, x, xs, delta, z, v):
    """Jacobian of the five log effects from the bridge terms of
    :func:`_bridge_terms`, (5, dim), or (5, dim, N) for a batch of N
    profiles; see :func:`jacobian_log_effects`."""
    l_xx, l_xxs, l_xsx, l_xsxs = (
        _bridge_gradient(spec, inputs, x1, x2, z, v) / a
        for (inputs, a), (x1, x2) in zip(terms, ((x, x), (x, xs), (xs, x), (xs, xs)))
    )
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
    x, xs = contrast.x, contrast.x_star
    terms = _bridge_terms(_OutcomeAt(outcome, prof.z), _MediatorAt(mediator, prof.v), x, xs)
    return _log_jacobian(outcome.spec, terms, x, xs, contrast.delta, prof.z, prof.v)


def _at_contrasts(spec: ModelSpec, thetas: np.ndarray, contrasts) -> tuple:
    """The predictor algebra of coefficient rows at one contrast per draw:
    ``thetas`` (G, M, outcome then mediator coefficients) holds M rows for
    each of G draws, row [j, i] at ``contrasts[j]``. Gives the outcome and
    mediator predictors, x, x* and D, each with columns of length G M, draw
    by draw, and the draws' profiles z (G, p) and v (G, q)."""
    g, m, _ = thetas.shape
    for c in contrasts:
        c.profile.check_against(spec)
    z = np.array([c.profile.z for c in contrasts]).reshape(g, spec.p)
    v = np.array([c.profile.v for c in contrasts]).reshape(g, spec.q)
    x = np.repeat([c.x for c in contrasts], m)
    xs = np.repeat([c.x_star for c in contrasts], m)
    ky = spec.n_outcome_coefs
    oy = _OutcomeAt.at_rows(spec, thetas[:, :, :ky], z)
    mw = _MediatorAt.at_rows(spec, thetas[:, :, ky:], v)
    return oy, mw, x, xs, x - xs, z, v


@np.errstate(all="ignore")  # as Python float arithmetic, which does not warn
def _log_effects_at_rows(spec: ModelSpec, thetas: np.ndarray, contrasts) -> tuple:
    """``natural_effects(...).log_values()`` at each coefficient row of
    ``thetas`` (G, M, outcome then mediator coefficients), row [j, i] at
    ``contrasts[j]``: (G, M, 5); and, from the same evaluation, the arguments
    of :func:`_log_jacobian` after the spec at row 0 of each draw: its bridge
    terms, x, x*, D, and the profiles z (p, G) and v (q, G); and log CDE(0),
    log CDE(1) at row 0 of each draw (G, 2).

    The values equal the rows evaluated one by one bit for bit. Each
    covariate block takes one stacked product over all the rows. The rows
    skip the checks of ``from_vector`` and ``EffectSet``, and an error is
    that of the first failing entry of a predictor column, not necessarily
    of the first failing row.
    """
    oy, mw, x, xs, delta, z, v = _at_contrasts(spec, thetas, contrasts)
    terms = _bridge_terms(oy, mw, x, xs)
    logs = np.column_stack(_log_effects(oy, terms, delta)).reshape(thetas.shape[:2] + (5,))
    m = thetas.shape[1]
    first = tuple((tuple(c[::m] for c in inputs), a[::m]) for inputs, a in terms)
    cde = np.column_stack([c[::m] for c in _log_cde_at(oy, delta).values()])
    return logs, (first, x[::m], xs[::m], delta[::m], z.T, v.T), cde


def approx_effects(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> EffectSet:
    """Rare-outcome approximations of the same five effects.

    These are the limits of the exact formulas as the outcome odds e_y go to
    zero within the relevant exposure stratum: the indirect effects need it
    only in one stratum each (TNIE at x, PNIE at x*), the direct effects in
    both. The approximate TE is defined as approx PNDE * approx TNIE; the
    TNDE * PNIE route gives the identical value (the cross terms cancel
    algebraically), so the returned set still satisfies the decomposition.
    """
    _check_joint_spec(outcome, mediator, contrast.profile)
    x, xs = contrast.x, contrast.x_star
    oy = _OutcomeAt(outcome, contrast.profile.z)
    mw = _MediatorAt(mediator, contrast.profile.v)
    k_x, k_xs = oy.mediator_odds_ratio(x), oy.mediator_odds_ratio(xs)
    ew_x, ew_xs = mw.odds(x), mw.odds(xs)
    pref = oy.exposure_main_log_or() * contrast.delta

    log_pnde = pref + math.log((1.0 + k_x * ew_xs) / (1.0 + k_xs * ew_xs))
    log_tnde = pref + math.log((1.0 + k_x * ew_x) / (1.0 + k_xs * ew_x))
    log_tnie = (math.log1p(ew_xs) + math.log1p(ew_x * k_x)) - (
        math.log1p(ew_x) + math.log1p(ew_xs * k_x)
    )
    log_pnie = (math.log1p(ew_xs) + math.log1p(ew_x * k_xs)) - (
        math.log1p(ew_x) + math.log1p(ew_xs * k_xs)
    )
    return EffectSet(
        log_pnde=log_pnde,
        log_tnie=log_tnie,
        log_tnde=log_tnde,
        log_pnie=log_pnie,
        log_te=log_pnde + log_tnie,
        log_cde_at=_log_cde_at(oy, contrast.delta),
        contrast=contrast,
    )


class SpecialCaseReport(ValueRecord):
    """Structural zeros detected in the coefficients, and the effect identities
    they imply at any contrast."""

    __slots__ = FIELDS = ("exposure_outcome_null", "mediator_outcome_null",
                          "exposure_mediator_null", "degenerate_contrast", "identities")


def _group_is_null(params, factor: str) -> bool:
    """Whether every block carrying the x (or w) factor is zero."""
    return not any(np.any(getattr(params, b.attr)) for b in params.BLOCKS if getattr(b, factor))


def special_case_report(
    outcome: OutcomeParams, mediator: MediatorParams, contrast: Contrast
) -> SpecialCaseReport:
    """Detect whole-pathway null coefficient groups.

    The checks look at entire pathway groups (e.g. the exposure-outcome group
    is bx, bxw and the included bxz, bxwz blocks), which is what makes the
    implied identities hold with covariates in the model.
    """
    _check_joint_spec(outcome, mediator, contrast.profile)
    xo_null = _group_is_null(outcome, "x")
    mo_null = _group_is_null(outcome, "w")
    xm_null = _group_is_null(mediator, "x")
    degenerate = contrast.x == contrast.x_star

    identities = []
    if xo_null:
        identities.append("PNDE = TNDE = CDE(w) = 1 and TE = TNIE = PNIE")
    if mo_null:
        identities.append("every bridge term is 1, TNIE = PNIE = 1, TE = PNDE = TNDE = CDE(0)")
    if xm_null:
        identities.append("TNIE = PNIE = 1 and TE = PNDE = TNDE")
    if degenerate:
        identities.append("degenerate contrast (x = x*): every effect is 1")
    return SpecialCaseReport(
        exposure_outcome_null=xo_null,
        mediator_outcome_null=mo_null,
        exposure_mediator_null=xm_null,
        degenerate_contrast=degenerate,
        identities=tuple(identities),
    )
