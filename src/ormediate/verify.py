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
``g-y-identity`` keeps its own. A draw evaluates its natural effects once,
for ``oracle-equivalence`` and ``decomposition`` alike. A suite's worst error
is the largest over its draws, and a NaN error fails the suite.

Most suites are a plain loop over the slice. The ``jacobian`` suite batches
it: the draws of one model spec stack their coefficient vectors and
central-difference points into one evaluation of the log effects, and their
analytic Jacobians into one evaluation of the Jacobian algebra. Each row
rounds as the draw-by-draw evaluation does, so every error keeps its bits.
A slice that raises is run again draw-major, each suite on one draw at a
time through the same functions, so the error raised is the one the
draw-by-draw walk meets first.

Every suite accepts a ``perturb`` offset that is added to one side of the
comparison.  It exists purely as a fault-injection knob: a nonzero value,
non-finite offsets included, must make the suites fail, demonstrating they
can detect real disagreement. With no draws there is nothing to fail, so a
nonzero ``perturb`` at a count of 0 is a ``SchemaError``.

These run both under ``ormediate verify`` and inside the test suite, so the
command line and the tests exercise identical code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .delta import _log_jacobian
from .effects import _at_contrasts, _batch_or_loop, _bridge_inputs, _bridge_value
from .effects import _log_effects_at_rows, natural_effects
from .exceptions import SchemaError
from .model import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from .model import _MediatorAt, _OutcomeAt
from .oracle import _difference_quotients, _difference_rows, g_y_check
from .oracle import mediation_formula_effects, tables_from_params

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
    coefficients ~ U[-2, 2], and a contrast/profile ~ U[-1, 1]."""
    if p is None:
        p = int(rng.integers(0, 3))
    if q is None:
        q = int(rng.integers(0, 3))
    spec = ModelSpec(
        z_names=tuple(f"z{i}" for i in range(p)),
        v_names=tuple(f"v{i}" for i in range(q)),
        xz=True,
        wz=True,
        xwz=True,
        xv=True,
    )
    u = lambda size=None: rng.uniform(-2.0, 2.0, size)
    outcome = OutcomeParams(
        spec,
        intercept=u(),
        exposure=u(),
        mediator=u(),
        exposure_mediator=u(),
        confounders=u(p),
        exposure_confounders=u(p),
        mediator_confounders=u(p),
        exposure_mediator_confounders=u(p),
    )
    mediator = MediatorParams(
        spec,
        intercept=u(),
        exposure=u(),
        confounders=u(q),
        exposure_confounders=u(q),
    )
    contrast = Contrast(
        x=rng.uniform(-1.0, 1.0),
        x_star=rng.uniform(-1.0, 1.0),
        profile=CovariateProfile(z=rng.uniform(-1.0, 1.0, p), v=rng.uniform(-1.0, 1.0, q)),
    )
    return spec, outcome, mediator, contrast


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    count: int
    tolerance: float
    worst: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst {self.worst:.3e} "
            f"(tolerance {self.tolerance:.0e}, {self.count} draws)"
        )


@dataclass
class _Draw:
    """One ``random_problem`` draw. Its log effects are evaluated on first use
    and then shared by every suite that checks the draw."""

    spec: ModelSpec
    outcome: OutcomeParams
    mediator: MediatorParams
    contrast: Contrast

    @cached_property
    def log_effects(self) -> np.ndarray:
        return np.asarray(natural_effects(self.outcome, self.mediator, self.contrast).log_values())


def _draw(rng: np.random.Generator, i: int) -> _Draw:
    return _Draw(*random_problem(rng))


def _draw_g_y(rng: np.random.Generator, i: int):
    _, outcome, mediator, _ = random_problem(rng, 0, 0)
    # fixed exposure grid on the first draws, then random levels
    x = (0.0, 0.5, 1.0)[i % 3] if i < 12 else float(rng.uniform(-1.0, 1.0))
    return outcome, mediator, x


def _each_draw(check):
    """The suite that runs ``check``, the errors of one draw, on each draw of
    a slice in turn."""

    def suite(problems, perturb):
        return [tuple(check(problem, perturb)) for problem in problems]

    return suite


@_each_draw
def _oracle_errors(problem: _Draw, perturb):
    tables = tables_from_params(problem.outcome, problem.mediator, problem.contrast)
    reference = np.asarray(mediation_formula_effects(tables).log_values())
    return (float(np.max(np.abs(problem.log_effects + perturb - reference))),)


@_each_draw
def _decomposition_errors(problem: _Draw, perturb):
    logs = problem.log_effects
    te = logs[4] + perturb
    return abs(te - logs[0] - logs[1]), abs(te - logs[2] - logs[3])


@np.errstate(all="ignore")  # an infinite perturb makes inf/inf here, which must not warn
def _jacobian_errors(problems, perturb):
    """The draws of one spec are one batch: their thetas and all 2 dim
    difference points of each take one pass of the log effects, and their
    analytic Jacobians one pass of the Jacobian algebra."""
    by_spec = {}
    for i, problem in enumerate(problems):
        by_spec.setdefault(problem.spec, []).append(i)
    errors = [None] * len(problems)
    for spec, group in by_spec.items():
        contrasts = [problems[i].contrast for i in group]
        thetas = np.array([
            np.concatenate([problems[i].outcome.active_vector(),
                            problems[i].mediator.active_vector()])
            for i in group
        ])
        oy, mw, x, xs, delta, z, v = _at_contrasts(spec, thetas[:, None], contrasts)
        jac = _log_jacobian(spec, oy, mw, x, xs, delta, z.T, v.T).transpose(2, 0, 1) + perturb
        rows, h = _difference_rows(thetas, 1e-6)
        fd = _difference_quotients(_log_effects_at_rows(spec, rows, contrasts), h)
        worst = np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)), axis=(1, 2))
        for i, e in zip(group, worst.tolist()):
            errors[i] = (e,)
    return errors


@_each_draw
def _bracketing_errors(problem: _Draw, perturb):
    # the four bridge terms from the inputs natural_effects itself evaluates
    contrast = problem.contrast
    oy = _OutcomeAt(problem.outcome, contrast.profile.z)
    mw = _MediatorAt(problem.mediator, contrast.profile.v)
    for k, p2, p3, p4 in _bridge_inputs(oy, mw, contrast.x, contrast.x_star):
        value = _bridge_value(k, p2, p3, p4) + perturb
        collapsed = _bridge_value(1.0, p2, p3, p4) + perturb
        yield from (min(k, 1.0) - value, value - max(k, 1.0), abs(collapsed - 1.0))


@_each_draw
def _g_y_errors(problem, perturb):
    res = g_y_check(*problem)
    return (
        abs(res.a_direct + perturb - res.a_from_g),
        abs(res.a_direct + perturb - res.a_from_risk_ratio),
    )


# name -> (tolerance, draw function, errors of a slice of draws: one tuple per
# draw); suites sharing a draw function share its draws
_SUITES = {
    "oracle-equivalence": (1e-10, _draw, _oracle_errors),
    "decomposition": (1e-12, _draw, _decomposition_errors),
    "jacobian": (1e-5, _draw, _jacobian_errors),
    "bracketing": (1e-12, _draw, _bracketing_errors),
    "g-y-identity": (1e-12, _draw_g_y, _g_y_errors),
}

SUITE_NAMES = tuple(_SUITES)

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


def _slice_errors(suites, problems, perturb) -> list:
    """Each suite's error tuples over one slice of draws. A slice that raises
    is run again draw-major, each suite on one draw at a time, so the error
    raised is the first one the draw-by-draw walk meets."""

    def draw_major():
        per_draw = [[suite([problem], perturb)[0] for suite in suites] for problem in problems]
        return list(zip(*per_draw))

    return _batch_or_loop(lambda: [suite(problems, perturb) for suite in suites], draw_major)


def _run(names, seed: int, count: int, perturb: float) -> tuple[SuiteResult, ...]:
    """The suites ``names``, in that order, with one pass over the ``count``
    draws of each draw function they use, slice by slice."""
    if count == 0 and perturb != 0:
        raise SchemaError(
            f"a nonzero perturb ({perturb!r}) needs at least one draw: with a count of 0 "
            "no suite can fail"
        )
    worst = dict.fromkeys(names, 0.0)
    for draw in dict.fromkeys(_SUITES[name][1] for name in names):
        checks = [name for name in names if _SUITES[name][1] is draw]
        rng = np.random.default_rng(seed)
        for start in range(0, count, _DRAW_SLICE):
            problems = [draw(rng, i) for i in range(start, min(start + _DRAW_SLICE, count))]
            per_suite = _slice_errors([_SUITES[name][2] for name in checks], problems, perturb)
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
