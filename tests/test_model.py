import math

import numpy as np
import pytest

from ormediate import (
    Contrast,
    CovariateProfile,
    Dataset,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    PredictorOverflowError,
    SchemaError,
    build_design,
    e_w,
    e_y,
)
from ormediate import model
from ormediate.model import mediator_design, outcome_design
from helpers import microcredit_params, microcredit_spec, random_problem


class TestModelSpec:
    def test_interaction_nesting_enforced(self):
        with pytest.raises(SchemaError):
            ModelSpec(z_names=("a",), z=False, xz=True)
        with pytest.raises(SchemaError):
            ModelSpec(z_names=("a",), xz=True, xwz=True)  # xwz needs wz too
        with pytest.raises(SchemaError):
            ModelSpec(v_names=("m",), v=False, xv=True)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            ModelSpec(z_names=("a", "a"))

    def test_microcredit_terms(self):
        spec = microcredit_spec()
        assert spec.outcome_terms() == ("const", "x", "age", "edu", "loans", "w", "x:w")
        assert spec.mediator_terms() == ("const", "x")
        assert spec.n_outcome_coefs == 7
        assert spec.n_mediator_coefs == 2

    def test_fully_interacted_terms(self):
        spec = ModelSpec(z_names=("a",), v_names=("m",), xz=True, wz=True, xwz=True, xv=True)
        assert spec.outcome_terms() == ("const", "x", "a", "x:a", "w", "x:w", "w:a", "x:w:a")
        assert spec.mediator_terms() == ("const", "x", "m", "x:m")

    def test_no_covariates(self):
        spec = ModelSpec()
        assert spec.outcome_terms() == ("const", "x", "w", "x:w")
        assert spec.mediator_terms() == ("const", "x")


class TestPredictors:
    def test_e_y_microcredit_values(self):
        outcome, _ = microcredit_params()
        z = (37.0, 0.0, 0.0)
        # predictor at x=1, w=1: -1.542 + 1.903 + 0.758 + 0.137 + 0.008*37 = 1.552
        assert e_y(outcome, 1, 1, z) == pytest.approx(math.exp(1.552), rel=1e-12)
        assert e_y(outcome, 1, 1, z) == pytest.approx(4.7209, abs=5e-5)
        # x=0, w=1 at z=(37,1,0): -1.542 + 0.758 + 0.296 - 1.001 = -1.489
        assert e_y(outcome, 0, 1, (37.0, 1.0, 0.0)) == pytest.approx(0.2256, abs=5e-5)

    def test_e_w_microcredit_values(self):
        _, mediator = microcredit_params()
        assert e_w(mediator, 1, ()) == pytest.approx(math.exp(0.289), rel=1e-12)
        assert e_w(mediator, 0, ()) == pytest.approx(math.exp(0.027), rel=1e-12)

    def test_e_y_rejects_nonbinary_mediator(self):
        outcome, _ = microcredit_params()
        with pytest.raises(SchemaError):
            e_y(outcome, 1, 0.5, (37.0, 0.0, 0.0))

    def test_e_y_wrong_profile_length(self):
        outcome, _ = microcredit_params()
        with pytest.raises(SchemaError):
            e_y(outcome, 1, 1, (37.0,))

    def test_overflow_raises_and_names_value(self):
        spec = ModelSpec()
        big = OutcomeParams(spec, intercept=800.0)
        with pytest.raises(PredictorOverflowError, match="800"):
            e_y(big, 0, 0, ())
        small = OutcomeParams(spec, intercept=-3000.0)
        with pytest.raises(PredictorOverflowError):
            e_y(small, 0, 0, ())

    def test_predictor_equals_design_row(self):
        # ties the closed-form predictor to the design layout
        rng = np.random.default_rng(7)
        for _ in range(20):
            spec, outcome, mediator, contrast = random_problem(rng)
            z, v = contrast.profile.z, contrast.profile.v
            x, w = contrast.x, 1.0
            row_y = np.concatenate([[1.0, x], z, [x * zj for zj in z], [w, x * w],
                                    [w * zj for zj in z], [x * w * zj for zj in z]])
            assert outcome.linear_predictor(x, w, z) == pytest.approx(
                float(row_y @ outcome.active_vector()), rel=1e-12, abs=1e-12
            )
            row_w = np.concatenate([[1.0, x], v, [x * vj for vj in v]])
            assert mediator.linear_predictor(x, v) == pytest.approx(
                float(row_w @ mediator.active_vector()), rel=1e-12, abs=1e-12
            )


class TestParams:
    def test_layout_roundtrip_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec, outcome, mediator, _ = random_problem(rng)
            again = OutcomeParams.from_vector(spec, outcome.active_vector())
            assert again == outcome
            assert np.array_equal(again.active_vector(), outcome.active_vector())
            magain = MediatorParams.from_vector(spec, mediator.active_vector())
            assert magain == mediator

    def test_excluded_blocks_are_zeroed_and_inert(self):
        spec = ModelSpec(z_names=("a", "b"))  # only the z main block is active
        withjunk = OutcomeParams(
            spec,
            intercept=0.1,
            exposure=0.2,
            mediator=0.3,
            exposure_mediator=0.4,
            confounders=(0.5, 0.6),
            mediator_confounders=(99.0, 99.0),  # excluded -> zeroed
        )
        clean = OutcomeParams(
            spec, intercept=0.1, exposure=0.2, mediator=0.3,
            exposure_mediator=0.4, confounders=(0.5, 0.6),
        )
        assert withjunk == clean
        assert np.all(withjunk.mediator_confounders == 0.0)
        z = (1.7, -2.3)
        assert withjunk.linear_predictor(1.0, 1.0, z) == clean.linear_predictor(1.0, 1.0, z)
        assert withjunk.active_vector().size == spec.n_outcome_coefs == 6

    def test_wrong_block_length(self):
        spec = ModelSpec(z_names=("a",))
        with pytest.raises(SchemaError):
            OutcomeParams(spec, confounders=(1.0, 2.0))

    def test_from_vector_wrong_length(self):
        with pytest.raises(SchemaError):
            OutcomeParams.from_vector(ModelSpec(), np.zeros(5))


class TestProfilesAndContrasts:
    def test_from_named(self):
        spec = microcredit_spec()
        prof = CovariateProfile.from_named(spec, {"age": 37, "edu": 0, "loans": 0})
        assert prof.z == (37.0, 0.0, 0.0)
        assert prof.v == ()

    def test_from_named_shared_covariate(self):
        spec = ModelSpec(z_names=("a", "c"), v_names=("c",))
        prof = CovariateProfile.from_named(spec, {"a": 1, "c": 2})
        assert prof.z == (1.0, 2.0)
        assert prof.v == (2.0,)

    def test_from_named_missing_and_unknown(self):
        spec = microcredit_spec()
        with pytest.raises(SchemaError):
            CovariateProfile.from_named(spec, {"age": 37})
        with pytest.raises(SchemaError):
            CovariateProfile.from_named(spec, {"age": 37, "edu": 0, "loans": 0, "zz": 1})

    def test_degenerate_contrast_allowed(self):
        c = Contrast(x=1.0, x_star=1.0)
        assert c.delta == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(SchemaError):
            Contrast(x=float("nan"), x_star=0.0)
        with pytest.raises(SchemaError):
            CovariateProfile(z=(float("inf"),))


class TestDatasetAndDesign:
    def make_data(self):
        return Dataset(
            y=[0, 1, 1, 0],
            w=[1, 0, 1, 1],
            x=[0.0, 1.0, 1.0, 0.0],
            covariates={"age": [37, 42, 19, 55], "edu": [0, 1, 0, 0], "loans": [0, 2, 1, 0]},
        )

    def test_outcome_design_microcredit_row(self):
        spec = microcredit_spec()
        data = self.make_data()
        X, resp = build_design(data, spec, "outcome")
        assert X.shape == (4, 7)
        # row 1: x=1, w=0, age=42, edu=1, loans=2
        assert np.array_equal(X[1], [1.0, 1.0, 42.0, 1.0, 2.0, 0.0, 0.0])
        # row 2: x=1, w=1 -> trailing w, x:w columns set
        assert np.array_equal(X[2], [1.0, 1.0, 19.0, 0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(resp, [0.0, 1.0, 1.0, 0.0])

    def test_interaction_design_products(self):
        spec = ModelSpec(z_names=("age",), xz=True, wz=True, xwz=True)
        data = Dataset(y=[1, 0], w=[1, 1], x=[2.0, 3.0], covariates={"age": [5.0, 7.0]})
        X, _ = build_design(data, spec, "outcome")
        # columns: const, x, age, x:age, w, x:w, w:age, x:w:age
        assert np.array_equal(X[0], [1.0, 2.0, 5.0, 10.0, 1.0, 2.0, 5.0, 10.0])
        assert np.array_equal(X[1], [1.0, 3.0, 7.0, 21.0, 1.0, 3.0, 7.0, 21.0])

    def test_mediator_design(self):
        spec = ModelSpec(v_names=("m",), xv=True)
        data = Dataset(y=[1, 0], w=[0, 1], x=[2.0, 0.0], covariates={"m": [1.5, 2.5]})
        M, resp = build_design(data, spec, "mediator")
        assert np.array_equal(M[0], [1.0, 2.0, 1.5, 3.0])
        assert np.array_equal(resp, [0.0, 1.0])

    def test_no_covariate_design(self):
        X, _ = build_design(
            Dataset(y=[1, 0], w=[0, 1], x=[1.0, 0.0]), ModelSpec(), "outcome"
        )
        assert np.array_equal(X, [[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("column, value, message", [
        ("y", 0.5, "column 'y' must be binary 0/1, found 0.5"),
        ("w", np.nan, "column 'w' contains non-finite values"),
        ("x", np.inf, "column 'x' contains non-finite values"),
        ("age", -np.inf, "covariate 'age' contains non-finite values"),
    ])
    def test_a_bad_value_in_the_last_block_is_found(self, column, value, message):
        n = 3 * model._DESIGN_ROWS + 5
        columns = {name: np.zeros(n) for name in ("y", "w", "x", "age")}
        columns[column][-1] = value
        with pytest.raises(SchemaError) as info:
            Dataset(columns["y"], columns["w"], columns["x"], covariates={"age": columns["age"]})
        assert str(info.value) == message

    def test_row_blocks_give_the_column_products(self, monkeypatch):
        # blocks of 4 rows over 10 rows: two whole blocks and a partial one
        monkeypatch.setattr(model, "_DESIGN_ROWS", 4)
        spec = ModelSpec(z_names=("a", "b"), v_names=("b",), xz=True, wz=True, xwz=True,
                         xv=True)
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=10), (rng.random(10) < 0.5).astype(float)
        a, b = rng.normal(size=10), rng.normal(size=10)
        xw = x * w
        outcome = np.column_stack([np.ones(10), x, a, b, x * a, x * b, w, xw, w * a, w * b,
                                   xw * a, xw * b])
        mediator = np.column_stack([np.ones(10), x, b, x * b])
        got = outcome_design(spec, x, w, {"a": a, "b": b})
        assert got.tobytes() == outcome.tobytes() and got.flags.c_contiguous
        assert mediator_design(spec, x, {"b": b}).tobytes() == mediator.tobytes()
        with pytest.raises(SchemaError, match="column 'b' has shape"):
            outcome_design(spec, x, w, {"a": a, "b": b[:1]})
        with pytest.raises(SchemaError, match="the mediator has shape"):
            outcome_design(spec, x, np.append(w, 1.0), {"a": a, "b": b})

    def test_validation_errors(self):
        with pytest.raises(SchemaError):
            Dataset(y=[0, 2], w=[0, 1], x=[0.0, 1.0])  # y not binary
        with pytest.raises(SchemaError):
            Dataset(y=[0, 1], w=[0, 1], x=[0.0])  # length mismatch
        data = Dataset(y=[0, 1], w=[0, 1], x=[0.0, 1.0])
        with pytest.raises(SchemaError):
            build_design(data, microcredit_spec(), "outcome")  # missing covariates
        with pytest.raises(SchemaError):
            build_design(data, ModelSpec(), "elsewhere")

    def test_too_few_rows(self):
        data = Dataset(y=[0, 1], w=[0, 1], x=[0.0, 1.0])
        with pytest.raises(SchemaError):
            data.validate_against(ModelSpec())  # 4 coefficients, 2 rows

    def test_mean_profile(self):
        spec = microcredit_spec()
        prof = self.make_data().mean_profile(spec)
        assert prof.z == (38.25, 0.25, 0.75)
