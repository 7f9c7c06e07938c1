import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ormediate import _products, simulate
from ormediate import (
    Contrast,
    CovariateProfile,
    Dataset,
    Marginal,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    SchemaError,
    build_design,
    e_w,
    e_y,
    fit,
    simulate_dataset,
)
from helpers import child_env

B = simulate._DESIGN_ROWS


def _basic_models():
    spec = ModelSpec()
    outcome = OutcomeParams(spec, intercept=-0.8, exposure=1.1, mediator=0.6,
                            exposure_mediator=0.2)
    mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
    return spec, outcome, mediator


class TestMarginal:
    def test_bernoulli_range_and_mean(self):
        rng = np.random.default_rng(0)
        draws = Marginal("bernoulli", p=0.3).draw(rng, 20000)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert draws.mean() == pytest.approx(0.3, abs=0.01)

    def test_bernoulli_is_its_uniforms_below_p(self):
        draws = Marginal("bernoulli", p=0.3).draw(np.random.default_rng(4), 3 * B + 5)
        rng = np.random.default_rng(4)
        assert draws.tobytes() == (rng.random(3 * B + 5) < 0.3).astype(float).tobytes()

    def test_uniform_range_and_mean(self):
        rng = np.random.default_rng(0)
        draws = Marginal("uniform", low=17.0, high=70.0).draw(rng, 20000)
        assert np.all((draws >= 17.0) & (draws <= 70.0))
        assert draws.mean() == pytest.approx(43.5, abs=0.5)

    def test_validation(self):
        with pytest.raises(SchemaError):
            Marginal("poisson")
        with pytest.raises(SchemaError):
            Marginal("bernoulli", p=1.5)
        with pytest.raises(SchemaError):
            Marginal("uniform", low=3.0, high=1.0)


class TestSimulateDataset:
    def test_deterministic_for_fixed_seed(self):
        spec, outcome, mediator = _basic_models()
        a = simulate_dataset(spec, outcome, mediator, 500, seed=42)
        b = simulate_dataset(spec, outcome, mediator, 500, seed=42)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.x, b.x)
        c = simulate_dataset(spec, outcome, mediator, 500, seed=43)
        assert not np.array_equal(a.y, c.y)

    def test_zero_rows(self):
        spec, outcome, mediator = _basic_models()
        data = simulate_dataset(spec, outcome, mediator, 0, seed=1)
        assert data.n == 0

    def test_rejects_unknown_marginal_name(self):
        spec, outcome, mediator = _basic_models()
        with pytest.raises(SchemaError):
            simulate_dataset(spec, outcome, mediator, 10, seed=1,
                             covariate_marginals={"nope": Marginal("bernoulli")})

    def test_rejects_mismatched_spec(self):
        spec, outcome, mediator = _basic_models()
        other = ModelSpec(v_names=("age",))
        wrong = MediatorParams(other, intercept=0.1, exposure=0.5,
                               confounders=(0.0,))
        with pytest.raises(SchemaError):
            simulate_dataset(spec, outcome, wrong, 10, seed=1)

    def test_conditional_frequencies_match_model(self):
        spec = ModelSpec(z_names=("age", "edu"), v_names=("age", "edu"))
        outcome = OutcomeParams(spec, intercept=-1.0, exposure=1.2, mediator=0.7,
                                exposure_mediator=0.1, confounders=(0.02, -0.5))
        mediator = MediatorParams(spec, intercept=0.0, exposure=0.3,
                                  confounders=(0.01, 0.2))
        marginals = {
            "age": Marginal("uniform", low=20.0, high=60.0),
            "edu": Marginal("bernoulli", p=0.4),
        }
        data = simulate_dataset(spec, outcome, mediator, 200_000, seed=7,
                                covariate_marginals=marginals,
                                exposure_marginal=Marginal("bernoulli", p=0.55))
        assert data.x.mean() == pytest.approx(0.55, abs=0.01)

        # Compare empirical conditional frequencies with the model probabilities
        # evaluated at the within-cell covariate means (covariate effects are
        # mild enough that the cell-mean plug-in is accurate to ~1e-2 here).
        for xv in (0.0, 1.0):
            for wv in (0.0, 1.0):
                cell = (data.x == xv) & (data.w == wv)
                z_mean = tuple(data.covariates[name][cell].mean()
                               for name in spec.z_names)
                ey = e_y(outcome, xv, wv, z_mean)
                assert data.y[cell].mean() == pytest.approx(
                    ey / (1.0 + ey), abs=0.015)
            cell = data.x == xv
            v_mean = tuple(data.covariates[name][cell].mean()
                           for name in spec.z_names)
            ew = e_w(mediator, xv, v_mean)
            assert data.w[cell].mean() == pytest.approx(
                ew / (1.0 + ew), abs=0.015)

    def test_fit_recovers_generating_coefficients(self):
        spec, outcome, mediator = _basic_models()
        data = simulate_dataset(spec, outcome, mediator, 8000, seed=99)
        Xy, yy = build_design(data, spec, "outcome")
        fy = fit(Xy, yy, column_names=spec.outcome_terms())
        Xw, ww = build_design(data, spec, "mediator")
        fw = fit(Xw, ww, column_names=spec.mediator_terms())
        for est, se, truth in zip(fy.coefficients, fy.standard_errors,
                                  outcome.active_vector()):
            assert abs(est - truth) < 4.0 * se
        for est, se, truth in zip(fw.coefficients, fw.standard_errors,
                                  mediator.active_vector()):
            assert abs(est - truth) < 4.0 * se

    def test_dataset_is_well_formed(self):
        spec = ModelSpec(z_names=("age",), v_names=("age",))
        outcome = OutcomeParams(spec, intercept=-0.5, exposure=0.8, mediator=0.4,
                                exposure_mediator=0.0, confounders=(0.01,))
        mediator = MediatorParams(spec, intercept=0.0, exposure=0.3,
                                  confounders=(0.0,))
        data = simulate_dataset(spec, outcome, mediator, 250, seed=5)
        assert isinstance(data, Dataset)
        assert data.n == 250
        assert set(data.covariates) == {"age"}
        data.check_columns(spec)


_MARGINALS = {
    "age": Marginal("uniform", low=17.0, high=70.0),
    "edu": Marginal("bernoulli", p=0.3),
    "loans": Marginal("uniform", low=0.0, high=3.0),
}


def _models(interacted: bool):
    """The microcredit layout (7 outcome and 2 mediator coefficients), or
    every block included (16 and 6), with seeded coefficients."""
    if interacted:
        spec = ModelSpec(z_names=("age", "edu", "loans"), v_names=("age", "loans"),
                         xz=True, wz=True, xwz=True, xv=True)
    else:
        spec = ModelSpec(z_names=("age", "edu", "loans"))
    rng = np.random.default_rng(spec.n_outcome_coefs)
    return (spec,
            OutcomeParams.from_vector(spec, rng.normal(scale=0.3, size=spec.n_outcome_coefs)),
            MediatorParams.from_vector(spec, rng.normal(scale=0.3, size=spec.n_mediator_coefs)))


def _draw(models, n: int, seed: int = 11) -> Dataset:
    return simulate_dataset(*models, n, seed=seed, covariate_marginals=_MARGINALS,
                            exposure_marginal=Marginal("bernoulli", p=0.55))


def _columns(data: Dataset) -> list[bytes]:
    return [col.tobytes() for col in (data.y, data.w, data.x, *data.covariates.values())]


def _bits(models, n: int, seed: int, rows: int) -> tuple[list[bytes], list[bytes]]:
    """The columns of an n-row draw in blocks of `rows` rows, and each
    model's probabilities in row order."""
    probs, got = _products.probabilities, []
    _products.probabilities = lambda design, coefs: got.append(probs(design, coefs)) or got[-1]
    simulate._DESIGN_ROWS = rows
    try:
        data = _draw(models, n, seed)
    finally:
        _products.probabilities, simulate._DESIGN_ROWS = probs, B
    return _columns(data), [np.concatenate(got[i::2]).tobytes() for i in (0, 1)]


def check_block_probabilities() -> None:
    """Each block's probabilities have the bits of one product over all
    rows: run in a child with one OpenBLAS thread, as the CLI runs."""
    # a last row on its own would differ for some seeds: seed 4 with the
    # microcredit layout, on the SkylakeX and Haswell kernels
    cases = [(3 * B + 5, 11), (2 * B, 11), *((3 * B + 1, seed) for seed in range(8))]
    for interacted in (False, True):
        models = _models(interacted)
        for n, seed in cases:
            assert _bits(models, n, seed, B) == _bits(models, n, seed, n), (interacted, n, seed)


class TestBlocks:
    """simulate_dataset thresholds the uniforms a block of rows at a time."""

    @pytest.mark.parametrize("interacted", [False, True])
    @pytest.mark.parametrize("n", [3 * B + 5, 3 * B + 1])
    def test_blocks_give_the_data_of_one_block(self, monkeypatch, interacted, n):
        models = _models(interacted)
        blocks = _columns(_draw(models, n))
        monkeypatch.setattr(simulate, "_DESIGN_ROWS", n)
        assert blocks == _columns(_draw(models, n))

    @pytest.mark.parametrize("kernel", [None, "Haswell"])
    def test_blocks_give_the_probabilities_of_one_block(self, kernel):
        # a lone last row would take numpy's dot, not the BLAS row kernel;
        # one thread, as OpenBLAS may split a long product among its threads
        env = {**child_env(), "OPENBLAS_NUM_THREADS": "1"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        here = Path(__file__).resolve().parent
        script = (f"import sys; sys.path.insert(0, {str(here)!r}); "
                  "import test_simulate; test_simulate.check_block_probabilities()")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("interacted", [False, True])
    def test_peak_is_the_data_and_one_block(self, interacted):
        """The traced peak is at most the returned columns plus k + 4 blocks
        of float64s, k the outcome's coefficients.  Every column is drawn at
        its full length once and kept: each covariate, the exposure, and the
        two uniform columns that become w and y.  A Bernoulli draw thresholds
        its uniforms in place.  Per block, the outcome design holds k floats
        a row; while it is filled, the exposure factor x*w and one product
        with a covariate add two rows' worth; then the predictor and two
        temporaries of the probability formula add three.  The mediator's
        design is narrower.  So a block needs at most k + 3 floats a row,
        and one more block covers the bool blocks of the Dataset checks and
        small Python objects.  Probabilities over all n rows at once would
        need about (k + 3) * n floats, nearly three times this bound here."""
        models, n = _models(interacted), 3 * B + 5
        _draw(models, 10)  # the layout tables are cached on first use
        tracemalloc.start()
        try:
            data = _draw(models, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(map(len, _columns(data)))
        assert peak <= returned + (models[0].n_outcome_coefs + 4) * 8 * B
