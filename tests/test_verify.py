"""The loop behind the verify suites: one pass over the draws serves every
suite, a suite run alone equals its entry in a full run, a NaN or infinite
error fails, a perturb too small to fail every suite is refused, the
batches over a slice of draws (the log effects at theta and the jacobian
suite's difference points) give the scalar references' values bit for bit,
and a fault in the closed form fails the suites instead of raising."""

import math

import numpy as np
import pytest

from ormediate import MediatorParams, OutcomeParams, cli, effects, model, natural_effects, verify
from ormediate.effects import a_term, a_term_inputs, jacobian_log_effects
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
                        (tolerance, draw,
                         lambda batch, perturb: [next(errors) for _ in batch.problems]))
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
    "names, differences",
    [
        (SUITE_NAMES, True),
        (("oracle-equivalence",), False),
        (("decomposition",), False),
        (("jacobian",), True),
        (("bracketing",), False),
        (("decomposition", "jacobian", "bracketing"), True),
    ],
)
def test_one_evaluation_per_slice(monkeypatch, names, differences):
    """Each slice takes one evaluation of the bridge terms and the log
    effects, in the layout of the widest spec: at theta alone, or at theta and
    its 2 dim difference points when the jacobian suite runs, which then
    serves the other suites too. The jacobian suite adds one evaluation of the
    Jacobian algebra per slice; natural_effects is never called, and outside
    the oracle no draw builds its own predictor algebra."""
    count, step = 150, verify._DRAW_SLICE
    seen, terms, jacobians = [], [], []
    evaluate, bridge_terms, jacobian = (verify._log_effects_at_rows, effects._bridge_terms,
                                        verify._log_jacobian)

    def counting(spec, thetas, contrasts):
        seen.append((spec, len(contrasts), thetas.shape[1]))
        return evaluate(spec, thetas, contrasts)

    def counting_terms(oy, mw, x, xs):
        terms.append(len(x))
        return bridge_terms(oy, mw, x, xs)

    def counting_jacobian(spec, at_terms, x, *args):
        jacobians.append((spec, len(x)))
        return jacobian(spec, at_terms, x, *args)

    monkeypatch.setattr(verify, "_log_effects_at_rows", counting)
    monkeypatch.setattr(effects, "_bridge_terms", counting_terms)
    monkeypatch.setattr(verify, "_log_jacobian", counting_jacobian)
    monkeypatch.setattr(effects, "natural_effects", lambda *args: pytest.fail("natural_effects"))
    if "oracle-equivalence" not in names:
        for cls in (model._OutcomeAt, model._MediatorAt):
            monkeypatch.setattr(cls, "__init__", lambda *args, name=cls.__name__: pytest.fail(name))
    results = verify._run(names, seed=3, count=count, perturb=0.0)
    assert all(r.passed for r in results)

    widest = verify._spec(2, 2)
    dim = widest.n_outcome_coefs + widest.n_mediator_coefs
    assert dim == 18
    rows = 2 * dim + 1 if differences else 1
    sizes = [min(step, count - start) for start in range(0, count, step)]
    assert seen == [(widest, n, rows) for n in sizes]
    assert terms == [n * rows for n in sizes]
    assert jacobians == ([(widest, n) for n in sizes] if "jacobian" in names else [])


@pytest.mark.parametrize("seed", range(1, 11))
def test_log_effects_of_a_slice_equal_natural_effects(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._draw(rng, i) for i in range(300)]
    step = verify._DRAW_SLICE
    batched = np.concatenate([verify._evaluate_slice(draws[start:start + step], False).logs[:, 0]
                              for start in range(0, len(draws), step)])
    reference = np.array([natural_effects(outcome, mediator, contrast).log_values()
                          for _, outcome, mediator, contrast in draws])
    assert batched.tobytes() == reference.tobytes()


def test_fault_in_the_closed_form_fails_the_suites(monkeypatch, capsys):
    """log TE off by 1e-9 in the closed form itself: the two suites that
    compare it fail, and nothing raises before them."""
    log_effects = effects._log_effects

    def faulty(*args):
        logs = log_effects(*args)
        return (*logs[:4], logs[4] + 1e-9)

    monkeypatch.setattr(effects, "_log_effects", faulty)
    failed = [r.name for r in run_all(seed=1, count=300) if not r.passed]
    assert failed == ["oracle-equivalence", "decomposition"]
    assert cli.main(["verify", "--count", "300", "--seed", "1"]) == 5
    out, err = capsys.readouterr()
    assert "FAIL oracle-equivalence" in out and "3/5 suites passed" in out
    assert "ERROR" not in err


def test_overflowing_draw_raises_its_typed_error(monkeypatch):
    """Draw 5 overflows at the outcome predictor: every suite of the
    random_problem draws ends in that PredictorOverflowError."""

    def draw(rng, i):
        spec, outcome, mediator, contrast = random_problem(rng)
        if i == 5:
            outcome = OutcomeParams(spec, intercept=800.0)
        return spec, outcome, mediator, contrast

    for name in ("oracle-equivalence", "decomposition", "jacobian", "bracketing"):
        tolerance, _, errors = verify._SUITES[name]
        monkeypatch.setitem(verify._SUITES, name, (tolerance, draw, errors))
        with pytest.raises(PredictorOverflowError, match="^outcome linear predictor 800.0 "):
            run_suite(name, seed=0, count=12)


@pytest.mark.parametrize("perturb", [1e-3, math.nan])
def test_perturbed_run_without_draws_raises(perturb):
    with pytest.raises(SchemaError, match="needs at least one draw"):
        run_all(count=0, perturb=perturb)
    assert all(r.passed for r in run_all(count=0))


@pytest.mark.parametrize("perturb", [1e-9, -1e-9, 1e-300, 5e-324, 1.99e-5])
def test_perturb_below_twice_the_largest_tolerance_raises(perturb):
    with pytest.raises(SchemaError, match="twice the largest tolerance"):
        run_all(count=20, perturb=perturb)
    with pytest.raises(SchemaError, match="twice the largest tolerance"):
        run_suite("jacobian", count=20, perturb=perturb)


def test_perturb_bound_follows_the_suites_run():
    # decomposition's tolerance is 1e-12, so 1e-9 is far enough out to fail it
    assert not run_suite("decomposition", seed=0, count=20, perturb=1e-9).passed
    with pytest.raises(SchemaError, match="below 2e-12"):
        run_suite("decomposition", count=20, perturb=1e-12)


@pytest.mark.parametrize("perturb", [2e-5, -2e-5])
@pytest.mark.parametrize("count", [1, 20])
def test_perturb_at_twice_the_largest_tolerance_fails_every_suite(perturb, count):
    for seed in range(3):
        results = run_all(seed=seed, count=count, perturb=perturb)
        assert not any(r.passed for r in results), [r.line() for r in results]


def _reference_jacobian_error(problem, perturb=0.0) -> float:
    """One draw's jacobian-suite error from the scalar references: the analytic
    Jacobian, offset by ``perturb``, against central differences of
    natural_effects."""
    spec, outcome, mediator, contrast = problem
    ky = spec.n_outcome_coefs

    def log_effects(theta):
        return natural_effects(OutcomeParams.from_vector(spec, theta[:ky]),
                               MediatorParams.from_vector(spec, theta[ky:]),
                               contrast).log_values()

    jac = jacobian_log_effects(outcome, mediator, contrast) + perturb
    theta = np.concatenate([outcome.active_vector(), mediator.active_vector()])
    fd = finite_diff(log_effects, theta, 1e-6)
    return float(np.max(np.abs(jac - fd) / np.maximum(1.0, np.abs(jac))))


def _batched_jacobian_errors(draws, perturb) -> list:
    suite, step = verify._SUITES["jacobian"][2], verify._DRAW_SLICE
    batched = []
    for start in range(0, len(draws), step):
        batch = verify._evaluate_slice(draws[start:start + step], True)
        batched += [e for (e,) in suite(batch, perturb)]
    return batched


@pytest.mark.parametrize("seed", range(1, 11))
def test_batched_jacobian_errors_equal_the_scalar_references(seed):
    rng = np.random.default_rng(seed)
    draws = [verify._draw(rng, i) for i in range(300)]
    assert len({(spec.p, spec.q) for spec, *_ in draws}) == 9
    batched = _batched_jacobian_errors(draws, 0.0)
    reference = [_reference_jacobian_error(d) for d in draws]
    assert np.array(batched).tobytes() == np.array(reference).tobytes()


@pytest.mark.parametrize("perturb", [2e-5, -1e-3, 0.5])
def test_perturbed_jacobian_errors_equal_the_scalar_references(perturb):
    rng = np.random.default_rng(1)
    draws = [verify._draw(rng, i) for i in range(100)]
    batched = _batched_jacobian_errors(draws, perturb)
    reference = [_reference_jacobian_error(d, perturb) for d in draws]
    assert np.array(batched).tobytes() == np.array(reference).tobytes()


def test_padded_draws_keep_their_own_coefficients_and_jacobian_bits():
    """Each draw's coefficients sit at its own columns of the widest layout,
    with zeros elsewhere; there its analytic Jacobian equals its own spec's
    bit for bit, and the padded columns read exactly 0."""
    rng = np.random.default_rng(1)
    draws = [verify._draw(rng, i) for i in range(100)]
    batch = verify._evaluate_slice(draws, False)
    thetas = batch.thetas
    widest = verify._spec(2, 2)
    jacobians = verify._log_jacobian(widest, *batch.at_theta).transpose(2, 0, 1)
    for (spec, outcome, mediator, contrast), theta, jac in zip(draws, thetas, jacobians):
        own = verify._columns(spec)
        padded = np.setdiff1d(np.arange(theta.size), own)
        assert theta[own].tobytes() == np.concatenate(
            [outcome.active_vector(), mediator.active_vector()]).tobytes()
        assert not theta[padded].any() and not jac[:, padded].any()
        reference = jacobian_log_effects(outcome, mediator, contrast)
        assert jac[:, own].tobytes() == reference.tobytes()


def _reference_bracketing_errors(problem, perturb) -> list:
    """One draw's bracketing errors from its own scalar bridge terms, term by
    term: each value against min(k, 1) and max(k, 1), and the value with k
    set to 1 against 1, each offset by ``perturb``."""
    _, outcome, mediator, contrast = problem
    x, xs, profile = contrast.x, contrast.x_star, contrast.profile
    errors = []
    for x1, x2 in ((x, x), (x, xs), (xs, x), (xs, xs)):
        k, p2, p3, p4 = a_term_inputs(outcome, mediator, x1, x2, profile)
        value = a_term(outcome, mediator, x1, x2, profile) + perturb
        collapsed = (1.0 * p2 * p3 + p4) / (p2 * p3 + p4) + perturb
        errors += (min(k, 1.0) - value, value - max(k, 1.0), abs(collapsed - 1.0))
    return errors


@pytest.mark.parametrize("seed", range(1, 11))
def test_batched_bracketing_errors_equal_the_scalar_references(seed):
    """The bracketing suite reads the bridge terms at theta that the slice's
    one evaluation keeps, with and without the jacobian suite's difference
    points: each error equals the draw's own scalar reference bit for bit,
    under every kind of perturb."""
    rng = np.random.default_rng(seed)
    draws = [verify._draw(rng, i) for i in range(300)]
    suite, step = verify._SUITES["bracketing"][2], verify._DRAW_SLICE
    batches = [verify._evaluate_slice(draws[start:start + step], differences)
               for differences in (False, True) for start in range(0, len(draws), step)]
    for perturb in (0.0, 2e-5, -1e-3, math.inf, -math.inf, math.nan):
        reference = np.array([_reference_bracketing_errors(d, perturb) for d in draws])
        for half in (batches[:len(batches) // 2], batches[len(batches) // 2:]):
            batched = np.array([e for batch in half for e in suite(batch, perturb)])
            assert batched.tobytes() == reference.tobytes(), perturb
