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
problems and the function that turns a problem into errors. One loop serves
every suite. It seeds one generator per draw function and walks the draws
once, so the first four suites check the same ``random_problem`` stream and
``g-y-identity`` keeps its own. A suite's worst error is the largest over its
draws, and a NaN error fails the suite.

Every suite accepts a ``perturb`` offset that is added to one side of the
comparison.  It exists purely as a fault-injection knob: a nonzero value,
non-finite offsets included, must make the suites fail, demonstrating they
can detect real disagreement.

These run both under ``ormediate verify`` and inside the test suite, so the
command line and the tests exercise identical code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .delta import jacobian_log_effects
from .effects import ATermInputs, _log_effects_at_rows, natural_effects
from .model import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from .oracle import _central_differences, g_y_check, mediation_formula_effects, tables_from_params

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


def _draw(rng: np.random.Generator, i: int):
    return random_problem(rng)


def _draw_g_y(rng: np.random.Generator, i: int):
    _, outcome, mediator, _ = random_problem(rng, 0, 0)
    # fixed exposure grid on the first draws, then random levels
    x = (0.0, 0.5, 1.0)[i % 3] if i < 12 else float(rng.uniform(-1.0, 1.0))
    return outcome, mediator, x


def _oracle_errors(problem, perturb):
    _, outcome, mediator, contrast = problem
    exact = np.asarray(natural_effects(outcome, mediator, contrast).log_values())
    reference = np.asarray(
        mediation_formula_effects(tables_from_params(outcome, mediator, contrast)).log_values()
    )
    return (float(np.max(np.abs(exact + perturb - reference))),)


def _decomposition_errors(problem, perturb):
    _, outcome, mediator, contrast = problem
    logs = np.asarray(natural_effects(outcome, mediator, contrast).log_values())
    te = logs[4] + perturb
    return abs(te - logs[0] - logs[1]), abs(te - logs[2] - logs[3])


@np.errstate(all="ignore")  # an infinite perturb makes inf/inf here, which must not warn
def _jacobian_errors(problem, perturb):
    spec, outcome, mediator, contrast = problem
    jac = jacobian_log_effects(outcome, mediator, contrast) + perturb
    # theta and all 2 dim of its difference points as one batch of rows
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    fd = _central_differences(lambda rows: _log_effects_at_rows(spec, rows, contrast), theta, 1e-6)
    return (float(np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)))),)


def _bracketing_errors(problem, perturb):
    _, outcome, mediator, contrast = problem
    x, xs = contrast.x, contrast.x_star
    for x1, x2 in ((x, xs), (x, x), (xs, x), (xs, xs)):
        inputs = ATermInputs.from_params(outcome, mediator, x1, x2, contrast.profile)
        value = inputs.value() + perturb
        lo, hi = min(inputs.k, 1.0), max(inputs.k, 1.0)
        collapsed = replace(inputs, k=1.0).value() + perturb
        yield from (lo - value, value - hi, abs(collapsed - 1.0))


def _g_y_errors(problem, perturb):
    res = g_y_check(*problem)
    return (
        abs(res.a_direct + perturb - res.a_from_g),
        abs(res.a_direct + perturb - res.a_from_risk_ratio),
    )


# name -> (tolerance, draw function, per-draw errors); suites sharing a draw
# function share its draws
_SUITES = {
    "oracle-equivalence": (1e-10, _draw, _oracle_errors),
    "decomposition": (1e-12, _draw, _decomposition_errors),
    "jacobian": (1e-5, _draw, _jacobian_errors),
    "bracketing": (1e-12, _draw, _bracketing_errors),
    "g-y-identity": (1e-12, _draw_g_y, _g_y_errors),
}

SUITE_NAMES = tuple(_SUITES)


def _worse(worst: float, errors) -> float:
    """``max(worst, *errors)``, except that a NaN error sticks."""
    for e in errors:
        if e > worst or e != e:
            worst = e
    return worst


def _run(names, seed: int, count: int, perturb: float) -> tuple[SuiteResult, ...]:
    """The suites ``names``, in that order, with one pass over the ``count``
    draws of each draw function they use."""
    worst = dict.fromkeys(names, 0.0)
    for draw in dict.fromkeys(_SUITES[name][1] for name in names):
        checks = [(name, _SUITES[name][2]) for name in names if _SUITES[name][1] is draw]
        rng = np.random.default_rng(seed)
        for i in range(count):
            problem = draw(rng, i)
            for name, errors in checks:
                worst[name] = _worse(worst[name], errors(problem, perturb))
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
