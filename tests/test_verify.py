"""The loop behind the verify suites: one pass over the draws serves every
suite, a suite run alone equals its entry in a full run, and a NaN or infinite
error fails."""

import math

import numpy as np
import pytest

from ormediate import verify
from ormediate.verify import SUITE_NAMES, run_all, run_suite


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
                        (tolerance, draw, lambda problem, perturb: next(errors)))
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
