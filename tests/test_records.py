"""The package's records behave as immutable value classes: fields in a fixed
order, keyword and positional construction, no assignment, and equality and
hashing only where a record compares by value."""

import copy
import functools
import inspect
import pickle

import numpy as np
import pytest

from ormediate import (
    Contrast,
    CovariateProfile,
    Dataset,
    EffectInference,
    EffectSet,
    FittedModel,
    InferenceResult,
    Marginal,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    ProbabilityTables,
    SpecialCaseReport,
    g_y_check,
    infer,
    natural_effects,
    special_case_report,
    tables_from_params,
)
from ormediate.io import CoefficientSet
from ormediate.model import OUTCOME_BLOCKS, Block
from ormediate.oracle import GyCheckResult
from ormediate.record import Record
from ormediate.verify import SuiteResult, _Slice

SPEC = ModelSpec(z_names=("age", "edu"), v_names=("edu",), xz=True)
OUTCOME = OutcomeParams(SPEC, intercept=-1.0, exposure=0.5, mediator=0.7, exposure_mediator=0.1,
                        confounders=(0.01, -0.2), exposure_confounders=(0.03, 0.04))
MEDIATOR = MediatorParams(SPEC, intercept=0.2, exposure=0.3, confounders=(0.1,))
PROFILE = CovariateProfile(z=(37.0, 1.0), v=(1.0,))
CONTRAST = Contrast(1.0, 0.0, PROFILE)


def _fit(params, terms) -> FittedModel:
    k = len(terms)
    return FittedModel(coefficients=params.active_vector(), vcov=np.eye(k) * 0.01,
                       log_likelihood=-12.5, iterations=4, converged=True, n=100,
                       column_names=terms)


def _plain_g_y():
    spec = ModelSpec()
    return g_y_check(OutcomeParams(spec, intercept=-1.0, exposure=0.4, mediator=0.6),
                     MediatorParams(spec, intercept=0.1, exposure=0.3), 1.0)


# each record class, its fields in order, and one instance
RECORDS = {
    ModelSpec: (("z_names", "v_names", "z", "xz", "wz", "xwz", "v", "xv"), lambda: SPEC),
    CovariateProfile: (("z", "v"), lambda: PROFILE),
    Contrast: (("x", "x_star", "profile"), lambda: CONTRAST),
    OutcomeParams: (
        ("spec", "intercept", "exposure", "mediator", "exposure_mediator", "confounders",
         "exposure_confounders", "mediator_confounders", "exposure_mediator_confounders"),
        lambda: OUTCOME,
    ),
    MediatorParams: (("spec", "intercept", "exposure", "confounders", "exposure_confounders"),
                     lambda: MEDIATOR),
    Dataset: (("y", "w", "x", "covariates"),
              lambda: Dataset(y=[0, 1, 1], w=[1, 0, 1], x=[0.5, 1.0, 2.0],
                              covariates={"age": [30.0, 40.0, 50.0]})),
    FittedModel: (("coefficients", "vcov", "log_likelihood", "iterations", "converged", "n",
                   "column_names"), lambda: _fit(OUTCOME, SPEC.outcome_terms())),
    EffectSet: (("log_pnde", "log_tnie", "log_tnde", "log_pnie", "log_te", "log_cde_at",
                 "contrast"), lambda: natural_effects(OUTCOME, MEDIATOR, CONTRAST)),
    SpecialCaseReport: (("exposure_outcome_null", "mediator_outcome_null",
                         "exposure_mediator_null", "degenerate_contrast", "identities"),
                        lambda: special_case_report(OUTCOME, MEDIATOR, CONTRAST)),
    EffectInference: (("name", "log_estimate", "or_estimate", "se_log", "se_or", "ci_lower",
                       "ci_upper", "p_value"), lambda: _inference().effects[0]),
    InferenceResult: (("effect_set", "effects", "cde", "cov_log", "cov_or", "jacobian",
                       "level"), lambda: _inference()),
    ProbabilityTables: (("p_y", "p_w", "q_y", "q_w", "contrast"),
                        lambda: tables_from_params(OUTCOME, MEDIATOR, CONTRAST)),
    Marginal: (("kind", "p", "low", "high"), lambda: Marginal("uniform", low=-1.0, high=2.0)),
    CoefficientSet: (("spec", "outcome", "mediator", "outcome_vcov", "mediator_vcov",
                      "exposure_levels", "profiles", "exposure_marginal",
                      "covariate_marginals", "description"),
                     lambda: CoefficientSet(SPEC, OUTCOME, MEDIATOR, exposure_levels=(1.0, 0.0),
                                            profiles=(("p1", PROFILE),), description="d")),
    Block: (("attr", "flag", "x", "w"), lambda: OUTCOME_BLOCKS[3]),
    GyCheckResult: (("a_direct", "a_from_g", "a_from_risk_ratio"), _plain_g_y),
    SuiteResult: (("name", "count", "tolerance", "worst", "passed"),
                  lambda: SuiteResult("jacobian", 20, 1e-5, 3.5e-9, True)),
}
# records that compare by value and hash; the functools.cache keys come first
VALUE_RECORDS = [ModelSpec, CovariateProfile, Contrast, EffectInference, SpecialCaseReport,
                 GyCheckResult, SuiteResult, Marginal]
# records with their own __eq__ and no hash
CUSTOM_EQ = [OutcomeParams, MediatorParams, EffectSet]
IDENTITY_RECORDS = [Dataset, FittedModel, InferenceResult, ProbabilityTables, Block]
# records that only store their fields, through the shared Record.__init__
SHARED_INIT = [EffectInference, InferenceResult, FittedModel, SpecialCaseReport, SuiteResult,
               _Slice, Block, GyCheckResult]


def _inference() -> InferenceResult:
    return infer(SPEC, _fit(OUTCOME, SPEC.outcome_terms()),
                 _fit(MEDIATOR, SPEC.mediator_terms()), CONTRAST)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _values(record) -> list:
    return [getattr(record, name) for name in RECORDS[type(record)][0]]


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def record(request):
    return RECORDS[request.param][1]()


def test_the_signature_lists_the_fields_in_order(record):
    assert list(inspect.signature(type(record)).parameters) == list(RECORDS[type(record)][0])


def test_keyword_construction_keeps_every_field(record):
    names = RECORDS[type(record)][0]
    again = type(record)(**dict(zip(names, _values(record))))
    assert all(_same(a, b) for a, b in zip(_values(again), _values(record)))


def test_positional_construction_keeps_every_field(record):
    again = type(record)(*_values(record))
    assert all(_same(a, b) for a, b in zip(_values(again), _values(record)))


def test_assigning_or_deleting_a_field_raises(record):
    for name, value in zip(RECORDS[type(record)][0], _values(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert _same(getattr(record, name), value)


def test_the_repr_names_each_field():
    assert repr(CovariateProfile(z=(1.0,))) == "CovariateProfile(z=(1.0,), v=())"
    assert repr(Marginal("uniform", low=0.0, high=2.0)) == (
        "Marginal(kind='uniform', p=0.5, low=0.0, high=2.0)")
    assert repr(Contrast(1, 0)) == (
        "Contrast(x=1.0, x_star=0.0, profile=CovariateProfile(z=(), v=()))")


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    a, b = RECORDS[cls][1](), cls(*_values(RECORDS[cls][1]()))
    assert a is not b and a == b and hash(a) == hash(b)
    assert not a != b
    assert a != object()


@pytest.mark.parametrize("cls", [ModelSpec, CovariateProfile, Contrast],
                         ids=lambda cls: cls.__name__)
def test_equal_cache_keys_hit_one_entry(cls):
    calls = []

    @functools.cache
    def f(key):
        calls.append(key)
        return len(calls)

    first = RECORDS[cls][1]()
    assert f(first) == f(cls(*_values(first))) == 1
    assert calls == [first]


def test_value_records_differ_when_a_field_does():
    assert ModelSpec(z_names=("a",)) != ModelSpec(z_names=("b",))
    assert CovariateProfile(z=(1.0,)) != CovariateProfile(v=(1.0,))
    assert Contrast(1.0, 0.0) != Contrast(1.0, 0.5)
    assert hash(Contrast(1.0, 0.0)) == hash(Contrast(1, 0))


@pytest.mark.parametrize("cls", CUSTOM_EQ, ids=lambda cls: cls.__name__)
def test_custom_equality_records_compare_by_value_and_do_not_hash(cls):
    a = RECORDS[cls][1]()
    b = cls(*_values(a))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda cls: cls.__name__)
def test_identity_records_compare_and_hash_by_identity(cls):
    a = RECORDS[cls][1]()
    b = cls(*_values(a))
    assert a == a and a != b
    assert hash(a) == hash(a) and {a: 1}[a] == 1


def test_defaults():
    spec = ModelSpec()
    assert _values(spec) == [(), (), True, False, False, False, True, False]
    assert _values(CovariateProfile()) == [(), ()]
    assert Contrast(1, 0).profile == CovariateProfile()
    assert type(Contrast(1, 0).x) is float
    assert _values(Marginal("bernoulli")) == ["bernoulli", 0.5, 0.0, 1.0]
    outcome = OutcomeParams(spec)
    assert [outcome.intercept, outcome.exposure, outcome.mediator,
            outcome.exposure_mediator] == [0.0] * 4
    assert outcome.confounders.shape == (0,)
    assert MediatorParams(spec).exposure == 0.0
    assert Dataset(y=[0, 1], w=[1, 0], x=[0.0, 1.0]).covariates == {}
    coef = CoefficientSet(spec, outcome, MediatorParams(spec))
    assert _values(coef)[3:] == [None, None, None, (), None, {}, ""]
    one, two = (Dataset(y=[1], w=[1], x=[1.0]) for _ in range(2))
    assert one.covariates is not two.covariates


def _stored_fields(cls) -> dict:
    """The fields of one instance of a record that only stores them, by name."""
    if cls is _Slice:
        return {"problems": [], "thetas": None, "contrasts": None, "logs": None, "at_theta": None}
    return dict(zip(RECORDS[cls][0], _values(RECORDS[cls][1]())))


@pytest.mark.parametrize("cls", SHARED_INIT, ids=lambda cls: cls.__name__)
def test_the_shared_constructor_refuses_what_a_signature_would(cls):
    assert cls.__init__ is Record.__init__
    fields = _stored_fields(cls)
    names, values = list(fields), list(fields.values())
    record = cls(*values)
    with pytest.raises(TypeError, match=f"missing a required argument: '{names[-1]}'"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match="too many positional arguments"):
        cls(*values, 1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
        cls(*values[:-1], **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        record._replace(bogus=1)


def test_a_record_with_its_own_constructor_keeps_its_defaults():
    defaults = [p.default for p in inspect.signature(Marginal).parameters.values()]
    assert defaults == [inspect.Parameter.empty, 0.5, 0.0, 1.0]
    assert inspect.signature(Contrast).parameters["profile"].default == CovariateProfile()
    assert str(inspect.signature(EffectInference)) == (
        "(name, log_estimate, or_estimate, se_log, se_or, ci_lower, ci_upper, p_value)")


def test_copy_and_pickle_rebuild_an_equal_record(record):
    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record)
        assert all(_same(a, b) for a, b in zip(_values(again), _values(record)))
