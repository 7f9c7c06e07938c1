"""Self-verification suites over randomly drawn model configurations.

Five independent invariants are checked, each over ``count`` seeded draws:

* ``oracle-equivalence`` — closed-form natural effects agree with the
  non-parametric mediation-formula evaluation to 1e-10 on the log scale.
* ``decomposition`` — log TE equals log PNDE + log TNIE and
  log TNDE + log PNIE to 1e-12.
* ``jacobian`` — every entry of the analytic Jacobian of the log effects
  matches central finite differences to a guarded relative error of 1e-5.
* ``bracketing`` — each bridge ratio lies in [min(k, 1), max(k, 1)], and
  is exactly 1 once k is set to 1 (the bracket collapsed to a point).
* ``g-y-identity`` — in no-covariate models, the bridge ratio equals both its
  collapsed log-odds form and the inverse risk ratio implied by the joint law
  of (Y, W) given X, to 1e-12.

A suite is a row of one table: its tolerance, the function that draws its
problems and the function that turns a slice of problems into one error tuple
per problem. One loop serves every suite. It seeds one generator per draw
function and walks the draws once, in slices of ``_DRAW_SLICE``: it draws a
slice in order, so the generator's stream does not depend on the slicing,
hands the whole slice to each suite and folds each suite's errors in draw
order. The first four suites check the same ``random_problem`` stream and
``g-y-identity`` keeps its own. A suite's worst error is the largest over its
draws, and a NaN error fails the suite.

Every ``random_problem`` draw is one of the widest spec, p = q = 2, with zero
coefficients and covariates where its own spec has none, so a slice is one
batch in that layout. ``oracle-equivalence`` and ``decomposition`` read the
log effects at each draw's coefficient vector theta, ``jacobian`` at theta
and its central-difference points, and ``jacobian`` and ``bracketing`` the
bridge terms at theta. When one of these four runs, a slice pads its draws
into that layout and evaluates the closed form once, with no checks of its
own: at theta alone, or at every difference point when the jacobian suite
runs, which serves all four. The evaluation reaches ``effects._log_effects``
at call time, so a fault in the closed form reaches the suites and fails
them. Each suite gets the same record of the slice: the draws in their own
specs, the padded thetas and contrasts, the log effects, and the bridge terms
at theta. The jacobian suite takes its analytic Jacobians from one pass of
the Jacobian algebra over those terms, and a draw's error is the largest over
its own coefficients. Each row rounds as in the draw's own spec, so every
error keeps its bits. The independent side of each comparison stays per
draw, each in its own spec: ``oracle-equivalence`` checks the padded closed
form against the draw's own mediation formula, and ``g-y-identity`` evaluates
each draw's bridge term and its two other forms itself.

Every suite accepts a ``perturb`` offset that is added to one side of the
comparison.  It exists purely as a fault-injection knob: a nonzero value,
non-finite offsets included, must make the suites fail, demonstrating they
can detect real disagreement. A passing error is below its tolerance, so
only an offset of at least twice the tolerance must fail a suite: a finite
nonzero ``perturb`` below twice the largest tolerance of the suites run is a
``SchemaError``, and so is a nonzero ``perturb`` at a count of 0, where there
is no draw to fail.

These run both under ``ormediate verify`` and inside the test suite, so the
command line and the tests exercise identical code.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

import numpy as np

from .effects import _bridge_value, _log_effects_at_rows, _log_jacobian
from .exceptions import SchemaError
from .model import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from .oracle import _difference_quotients, _difference_rows, g_y_check
from .oracle import mediation_formula_effects, tables_from_params
from .record import ValueRecord

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "random_problem",
    "run_all",
    "run_suite",
]


def random_problem(
    rng: np.random.Generator, p: int | None = None, q: int | None = None
) -> tuple[ModelSpec, OutcomeParams, MediatorParams, Contrast]:
    """Draw a random fully-interacted model with p, q <= 2 covariates,
    coefficients ~ U[-2, 2], and a contrast/profile ~ U[-1, 1].

    The coefficients take one generator call and the contrast another, read
    in the order of the fields below: the doubles one call per field gives."""
    if p is None:
        p = int(rng.integers(0, 3))
    if q is None:
        q = int(rng.integers(0, 3))
    spec = _spec(p, q)
    b = rng.uniform(-2.0, 2.0, 6 + 4 * p + 2 * q)
    bz = [b[4 + i * p:4 + (i + 1) * p] for i in range(4)]
    g = b[4 + 4 * p:]
    outcome = OutcomeParams(
        spec,
        intercept=b[0],
        exposure=b[1],
        mediator=b[2],
        exposure_mediator=b[3],
        confounders=bz[0],
        exposure_confounders=bz[1],
        mediator_confounders=bz[2],
        exposure_mediator_confounders=bz[3],
    )
    mediator = MediatorParams(
        spec, intercept=g[0], exposure=g[1], confounders=g[2:2 + q], exposure_confounders=g[2 + q:]
    )
    c = rng.uniform(-1.0, 1.0, 2 + p + q)
    contrast = Contrast(x=c[0], x_star=c[1], profile=CovariateProfile(z=c[2:2 + p], v=c[2 + p:]))
    return spec, outcome, mediator, contrast


@cache
def _spec(p: int, q: int) -> ModelSpec:
    """The fully interacted spec of ``random_problem``, one per (p, q)."""
    return ModelSpec(
        z_names=tuple(f"z{i}" for i in range(p)),
        v_names=tuple(f"v{i}" for i in range(q)),
        xz=True,
        wz=True,
        xwz=True,
        xv=True,
    )


_WIDE = _spec(2, 2)


@cache
def _columns(spec: ModelSpec) -> np.ndarray:
    """The places of a spec's coefficients in the layout of ``_WIDE``, found by
    term name: the covariates of ``_spec(p, q)`` are the first p z and q v of
    ``_WIDE``'s, so each block takes the first places of that block there."""
    outcome, mediator = _WIDE.outcome_terms(), _WIDE.mediator_terms()
    return np.array([outcome.index(t) for t in spec.outcome_terms()]
                    + [len(outcome) + mediator.index(t) for t in spec.mediator_terms()])


class SuiteResult(ValueRecord):
    """Outcome of one verification suite."""

    __slots__ = FIELDS = ("name", "count", "tolerance", "worst", "passed")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst {self.worst:.3e} "
            f"(tolerance {self.tolerance:.0e}, {self.count} draws)"
        )


class _Slice(ValueRecord):
    """One slice of draws, as every suite reads it. ``problems`` are the draws
    as drawn. When a suite reads the closed form, ``thetas`` (G, 18) and
    ``contrasts`` hold the ``random_problem`` draws padded to the layout of
    ``_WIDE`` (:func:`_columns`; z and v with 0.0), ``logs`` (G, M, 5) the
    log effects there: at theta alone (M = 1), or at theta and its
    central-difference points (rows of :func:`_difference_rows`, row 0 theta);
    and ``at_theta`` the bridge terms at theta with the rest of the arguments
    of :func:`_log_jacobian` (the second value of :func:`_log_effects_at_rows`)."""

    __slots__ = FIELDS = ("problems", "thetas", "contrasts", "logs", "at_theta")


def _draw(rng: np.random.Generator, i: int):
    return random_problem(rng)


def _draw_g_y(rng: np.random.Generator, i: int):
    _, outcome, mediator, _ = random_problem(rng, 0, 0)
    # fixed exposure grid on the first draws, then random levels
    x = (0.0, 0.5, 1.0)[i % 3] if i < 12 else float(rng.uniform(-1.0, 1.0))
    return outcome, mediator, x


def _evaluate_slice(problems, differences: bool) -> _Slice:
    """The slice of ``random_problem`` draws ``problems`` padded to the layout
    of ``_WIDE``, with its log effects at theta and, if ``differences``, at
    the central-difference points too, and its bridge terms at theta: one
    evaluation serves all four suites that read the closed form."""
    thetas = np.zeros((len(problems), _WIDE.n_outcome_coefs + _WIDE.n_mediator_coefs))
    contrasts = []
    for theta, (spec, outcome, mediator, contrast) in zip(thetas, problems):
        theta[_columns(spec)] = np.concatenate(
            [outcome.active_vector(), mediator.active_vector()])
        z, v = contrast.profile.z, contrast.profile.v
        profile = CovariateProfile(z + (0.0,) * (2 - len(z)), v + (0.0,) * (2 - len(v)))
        contrasts.append(Contrast(contrast.x, contrast.x_star, profile))
    rows = _difference_rows(thetas, _STEP)[0] if differences else thetas[:, None]
    logs, at_theta, _ = _log_effects_at_rows(_WIDE, rows, contrasts)
    return _Slice(problems, thetas, contrasts, logs, at_theta)


def _oracle_errors(batch: _Slice, perturb):
    reference = np.array([
        mediation_formula_effects(tables_from_params(*problem[1:])).log_values()
        for problem in batch.problems
    ])
    return zip(np.max(np.abs(batch.logs[:, 0] + perturb - reference), axis=1))


def _decomposition_errors(batch: _Slice, perturb):
    logs = batch.logs[:, 0]
    te = logs[:, 4] + perturb
    return zip(abs(te - logs[:, 0] - logs[:, 1]), abs(te - logs[:, 2] - logs[:, 3]))


@np.errstate(all="ignore")  # an infinite perturb makes inf/inf here, which must not warn
def _jacobian_errors(batch: _Slice, perturb):
    """The analytic Jacobians of a slice take one pass of the Jacobian algebra
    over the bridge terms at theta in the layout of ``_WIDE``, against the
    central differences of the log effects at their difference points. A
    draw's error is the largest over its own columns: a padded one reads
    exactly 0 at perturb 0, but under a perturb it would read
    |perturb| / max(1, |perturb|)."""
    jac = _log_jacobian(_WIDE, *batch.at_theta).transpose(2, 0, 1) + perturb
    fd = _difference_quotients(batch.logs, _difference_rows(batch.thetas, _STEP)[1])
    errors = np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))
    return [(float(e[:, _columns(spec)].max()),) for e, (spec, *_) in zip(errors, batch.problems)]


def _bracketing_errors(batch: _Slice, perturb):
    """Each bridge term at theta against its bracket [min(k, 1), max(k, 1)],
    and with k set to 1 against 1: three errors per term, term by term."""
    errors = []
    for (k, p2, p3, p4), a in batch.at_theta[0]:
        value = a + perturb
        collapsed = _bridge_value(1.0, p2, p3, p4) + perturb
        errors += (np.minimum(k, 1.0) - value, value - np.maximum(k, 1.0), abs(collapsed - 1.0))
    return zip(*errors)


def _g_y_errors(batch: _Slice, perturb):
    errors = []
    for problem in batch.problems:
        res = g_y_check(*problem)
        errors.append((abs(res.a_direct + perturb - res.a_from_g),
                       abs(res.a_direct + perturb - res.a_from_risk_ratio)))
    return errors


# name -> (tolerance, draw function, errors of a slice of draws: one tuple per
# draw, from its _Slice); suites sharing a draw function share its draws
_SUITES = {
    "oracle-equivalence": (1e-10, _draw, _oracle_errors),
    "decomposition": (1e-12, _draw, _decomposition_errors),
    "jacobian": (1e-5, _draw, _jacobian_errors),
    "bracketing": (1e-12, _draw, _bracketing_errors),
    "g-y-identity": (1e-12, _draw_g_y, _g_y_errors),
}

SUITE_NAMES = tuple(_SUITES)

# the suites that read the slice's evaluation of the closed form, and the
# jacobian suite's relative central-difference step
_EVALUATED = frozenset({"oracle-equivalence", "decomposition", "jacobian", "bracketing"})
_STEP = 1e-6

# draws per slice, so only one slice of problems lives at a time: the jacobian
# suite over 300 draws costs 256, 135, 107, 94 and 79 ms at slices of 8, 32, 64,
# 128 and 300, and one slice of all 300 raises the peak RSS by 1.9 MB over 64
_DRAW_SLICE = 64


def _worse(worst: float, errors) -> float:
    """``max(worst, *errors)``, except that a NaN error sticks."""
    for e in errors:
        if e > worst or e != e:
            worst = e
    return worst


def _slice_errors(names, problems, perturb) -> list:
    """The error tuples of each suite of ``names`` over one slice of draws,
    evaluated once for all of them."""
    if _EVALUATED.isdisjoint(names):
        batch = _Slice(problems, None, None, None, None)
    else:
        batch = _evaluate_slice(problems, "jacobian" in names)
    # No suite raises on these draws, so a slice needs no draw-by-draw re-run
    # to find its first failing draw: random_problem draws coefficients
    # in U[-2, 2] and the contrast and profile in U[-1, 1], with p, q <= 2, so
    # |eta_Y| <= 24, |eta_W| <= 12 and every probability is at least
    # logistic(-24) ~ 3.8e-11, far above PROB_GUARD (1e-15).
    return [_SUITES[name][2](batch, perturb) for name in names]


def _run(names, seed: int, count: int, perturb: float) -> tuple[SuiteResult, ...]:
    """The suites ``names``, in that order, with one pass over the ``count``
    draws of each draw function they use, slice by slice."""
    if count == 0 and perturb != 0:
        raise SchemaError(
            f"a nonzero perturb ({perturb!r}) needs at least one draw: with a count of 0 "
            "no suite can fail"
        )
    bound = 2.0 * max((_SUITES[name][0] for name in names), default=0.0)
    if 0 < abs(perturb) < bound:
        raise SchemaError(
            f"a nonzero perturb ({perturb!r}) below {bound:g}, twice the largest tolerance of "
            "the suites run, need not fail them: a passing error is below its tolerance"
        )
    worst = dict.fromkeys(names, 0.0)
    for draw in dict.fromkeys(_SUITES[name][1] for name in names):
        checks = [name for name in names if _SUITES[name][1] is draw]
        rng = np.random.default_rng(seed)
        for start in range(0, count, _DRAW_SLICE):
            problems = [draw(rng, i) for i in range(start, min(start + _DRAW_SLICE, count))]
            per_suite = _slice_errors(checks, problems, perturb)
            for name, errors in zip(checks, per_suite):
                worst[name] = _worse(worst[name], chain.from_iterable(errors))
    results = []
    for name in names:
        tolerance, w = _SUITES[name][0], float(worst[name])
        results.append(SuiteResult(name, count, tolerance, w, w < tolerance))
    return tuple(results)


def run_suite(name: str, seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    return _run((name,), seed, count, perturb)[0]


def run_all(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> tuple[SuiteResult, ...]:
    """Run every suite at the given seed/count; all draws flow from the seed."""
    return _run(SUITE_NAMES, seed, count, perturb)
