"""The loop behind the verify suites: one pass over the draws serves every
suite, a suite run alone equals its entry in a full run, a NaN or infinite
error fails, and the jacobian suite's batch over a slice of draws gives the
scalar references' errors bit for bit and the draw-by-draw walk's error."""

import math

import numpy as np
import pytest

from ormediate import MediatorParams, OutcomeParams, natural_effects, verify
from ormediate.delta import jacobian_log_effects
from ormediate.exceptions import PredictorOverflowError, SchemaError
from ormediate.oracle import finite_diff
from ormediate.verify import SUITE_NAMES, random_problem, run_all, run_suite


@pytest.mark.parametrize("perturb", [math.nan, math.inf, -math.inf])
def test_non_finite_perturb_fails_every_suite(perturb):
    results = run_all(seed=0, count=20, perturb=perturb)
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert not any(r.passed for r in results), [r.line() for r in results]


@pytest.mark.parametrize("seed", [1, 2])
def test_run_suite_equals_run_all(seed):
    together = run_all(seed, 50)
    alone = tuple(run_suite(name, seed, count=50) for name in SUITE_NAMES)
    assert [repr(r) for r in alone] == [repr(r) for r in together]


def test_nan_error_sticks_under_larger_finite_errors(monkeypatch):
    tolerance, draw, _ = verify._SUITES["decomposition"]
    errors = iter([(math.nan,), (1e-14, 2e-14), (3e-14,)])
    monkeypatch.setitem(verify._SUITES, "decomposition",
                        (tolerance, draw, lambda draws, perturb: [next(errors) for _ in draws]))
    result = run_suite("decomposition", seed=0, count=3)
    assert math.isnan(result.worst)
    assert not result.passed


def test_worst_is_max_on_finite_errors():
    errors = [0.5, np.float64(2.0), -1.0, 2.0, 1.5]
    worst = verify._worse(0.0, errors)
    assert worst == max(0.0, *errors) and worst is errors[1]
    assert math.isnan(verify._worse(0.0, [1.0, math.nan, 3.0]))
    assert math.isnan(verify._worse(math.nan, [3.0]))


@pytest.mark.parametrize(
    "names, calls",
    [
        (SUITE_NAMES, 20),
        (("oracle-equivalence",), 20),
        (("decomposition",), 20),
        (("jacobian",), 0),
    ],
)
def test_natural_effects_once_per_draw(monkeypatch, names, calls):
    seen = []
    natural_effects = verify.natural_effects
    monkeypatch.setattr(
        verify, "natural_effects", lambda *args: seen.append(args) or natural_effects(*args)
    )
    results = verify._run(names, seed=3, count=20, perturb=0.0)
    assert all(r.passed for r in results)
    assert len(seen) == calls


@pytest.mark.parametrize("perturb", [1e-3, math.nan])
def test_perturbed_run_without_draws_raises(perturb):
    with pytest.raises(SchemaError, match="needs at least one draw"):
        run_all(count=0, perturb=perturb)
    assert all(r.passed for r in run_all(count=0))


def _reference_jacobian_error(problem) -> float:
    """One draw's jacobian-suite error from the scalar references: the analytic
    Jacobian against central differences of natural_effects."""
    spec, outcome, mediator, contrast = (problem.spec, problem.outcome, problem.mediator,
                                         problem.contrast)
    ky = spec.n_outcome_coefs

    def log_effects(theta):
        return natural_effects(OutcomeParams.from_vector(spec, theta[:ky]),
                               MediatorParams.from_vector(spec, theta[ky:]),
                               contrast).log_values()

    jac = jacobian_log_effects(outcome, mediator, contrast)
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    fd = finite_diff(log_effects, theta, 1e-6)
    return float(np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))))


@pytest.mark.parametrize("seed", range(1, 11))
def test_batched_jacobian_errors_equal_the_scalar_references(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._draw(rng, i) for i in range(300)]
    assert len({(d.spec.p, d.spec.q) for d in draws}) == 9
    suite, step = verify._SUITES["jacobian"][2], verify._DRAW_SLICE
    batched = [e for start in range(0, len(draws), step)
               for (e,) in suite(draws[start:start + step], 0.0)]
    reference = [_reference_jacobian_error(d) for d in draws]
    assert np.array(batched).tobytes() == np.array(reference).tobytes()


def test_failing_slice_raises_the_draw_by_draw_error(monkeypatch):
    """Draw 5 overflows at the outcome predictor p3 = 1 + e_y(x, 0), draw 9 at
    the mediator odds p2 = e_w(x), which the batch takes first: the batch of
    the slice meets draw 9's error, the draw-by-draw walk draw 5's."""

    def draw(rng, i):
        spec, outcome, mediator, contrast = random_problem(rng, 0, 0)
        if i == 5:
            outcome = OutcomeParams(spec, intercept=800.0)
        if i == 9:
            mediator = MediatorParams(spec, intercept=800.0)
        return verify._Draw(spec, outcome, mediator, contrast)

    rng = np.random.default_rng(0)
    draws = [draw(rng, i) for i in range(12)]
    with pytest.raises(PredictorOverflowError, match="^mediator linear predictor"):
        verify._SUITES["jacobian"][2](draws, 0.0)
    with pytest.raises(PredictorOverflowError) as walk:
        for d in draws:
            jacobian_log_effects(d.outcome, d.mediator, d.contrast)
    assert str(walk.value).startswith("outcome linear predictor 800.0")

    tolerance, _, errors = verify._SUITES["jacobian"]
    monkeypatch.setitem(verify._SUITES, "jacobian", (tolerance, draw, errors))
    with pytest.raises(PredictorOverflowError) as run:
        run_suite("jacobian", seed=0, count=12)
    assert str(run.value) == str(walk.value)
