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

Every suite accepts a ``perturb`` offset that is added to one side of the
comparison.  It exists purely as a fault-injection knob: a nonzero value must
make the suites fail, demonstrating they can detect real disagreement.

These run both under ``ormediate verify`` and inside the test suite, so the
command line and the tests exercise identical code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .delta import jacobian_log_effects
from .effects import ATermInputs, _log_effects_at_rows, natural_effects
from .model import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from .oracle import (
    _difference_points,
    _difference_quotients,
    g_y_check,
    mediation_formula_effects,
    tables_from_params,
)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "random_problem",
    "run_all",
    "run_suite",
]


def random_problem(
    rng: np.random.Generator,
    p: int | None = None,
    q: int | None = None,
    *,
    coef_scale: float = 2.0,
    contrast_scale: float = 1.0,
) -> tuple[ModelSpec, OutcomeParams, MediatorParams, Contrast]:
    """Draw a random fully-interacted model with p, q <= 2 covariates,
    coefficients ~ U[-scale, scale], and a contrast/profile ~ U[-1, 1]."""
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
    u = lambda size=None: rng.uniform(-coef_scale, coef_scale, size)
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
        x=rng.uniform(-contrast_scale, contrast_scale),
        x_star=rng.uniform(-contrast_scale, contrast_scale),
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


def suite_oracle_equivalence(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        _, outcome, mediator, contrast = random_problem(rng)
        exact = np.asarray(natural_effects(outcome, mediator, contrast).log_values())
        tables = tables_from_params(outcome, mediator, contrast)
        reference = np.asarray(mediation_formula_effects(tables).log_values())
        worst = max(worst, float(np.max(np.abs(exact + perturb - reference))))
    worst = float(worst)
    return SuiteResult("oracle-equivalence", count, 1e-10, worst, bool(worst < 1e-10))


def suite_decomposition(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        _, outcome, mediator, contrast = random_problem(rng)
        logs = np.asarray(natural_effects(outcome, mediator, contrast).log_values())
        te = logs[4] + perturb
        worst = max(
            worst,
            abs(te - logs[0] - logs[1]),
            abs(te - logs[2] - logs[3]),
        )
    worst = float(worst)
    return SuiteResult("decomposition", count, 1e-12, worst, bool(worst < 1e-12))


def suite_jacobian(seed: int = 0, count: int = 200, perturb: float = 0.0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        spec, outcome, mediator, contrast = random_problem(rng)
        jac = jacobian_log_effects(outcome, mediator, contrast) + perturb
        # finite_diff of the log effects, with theta and all 2 dim of its
        # difference points evaluated as one batch of coefficient rows
        theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
        h, points = _difference_points(theta, 1e-6)
        logs = _log_effects_at_rows(spec, np.vstack([theta, points]), contrast)
        fd = _difference_quotients(logs[1::2], logs[2::2], h)
        err = np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac)))
        worst = max(worst, float(err))
    worst = float(worst)
    return SuiteResult("jacobian", count, 1e-5, worst, bool(worst < 1e-5))


def suite_bracketing(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        _, outcome, mediator, contrast = random_problem(rng)
        for x1, x2 in (
            (contrast.x, contrast.x_star),
            (contrast.x, contrast.x),
            (contrast.x_star, contrast.x),
            (contrast.x_star, contrast.x_star),
        ):
            inputs = ATermInputs.from_params(outcome, mediator, x1, x2, contrast.profile)
            value = inputs.value() + perturb
            lo, hi = min(inputs.k, 1.0), max(inputs.k, 1.0)
            collapsed = replace(inputs, k=1.0).value() + perturb
            worst = max(worst, lo - value, value - hi, abs(collapsed - 1.0))
    worst = float(worst)
    return SuiteResult("bracketing", count, 1e-12, worst, bool(worst < 1e-12))


def suite_g_y(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        _, outcome, mediator, _ = random_problem(rng, 0, 0)
        # fixed exposure grid on the first draws, then random levels
        x = (0.0, 0.5, 1.0)[i % 3] if i < 12 else float(rng.uniform(-1.0, 1.0))
        res = g_y_check(outcome, mediator, x)
        worst = max(
            worst,
            abs(res.a_direct + perturb - res.a_from_g),
            abs(res.a_direct + perturb - res.a_from_risk_ratio),
        )
    worst = float(worst)
    return SuiteResult("g-y-identity", count, 1e-12, worst, bool(worst < 1e-12))


_SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "decomposition": suite_decomposition,
    "jacobian": suite_jacobian,
    "bracketing": suite_bracketing,
    "g-y-identity": suite_g_y,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, count: int = 1000, perturb: float = 0.0) -> SuiteResult:
    return _SUITES[name](seed=seed, count=count, perturb=perturb)


def run_all(seed: int = 0, count: int = 1000, perturb: float = 0.0) -> tuple[SuiteResult, ...]:
    """Run every suite at the given seed/count; all draws flow from the seed."""
    return tuple(
        suite(seed=seed, count=count, perturb=perturb) for suite in _SUITES.values()
    )
