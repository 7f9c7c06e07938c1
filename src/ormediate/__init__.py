"""Exact odds-ratio mediation effects for binary outcomes and binary mediators."""

from .delta import EffectInference, InferenceResult, infer, infer_many, jacobian_log_effects
from .effects import (
    EFFECT_ORDER,
    ATermInputs,
    EffectSet,
    SpecialCaseReport,
    a_term,
    approx_effects,
    natural_effects,
    special_case_report,
)
from .exceptions import (
    ConvergenceError,
    CovarianceError,
    DegenerateProbabilityError,
    FitError,
    MediationError,
    NumericalError,
    PredictorOverflowError,
    SchemaError,
    SeparationError,
    SingularDesignError,
)
from .logit import FittedModel, fit, predict_prob, wald_table
from .model import (
    EXP_LIMIT,
    Contrast,
    CovariateProfile,
    Dataset,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    build_design,
    e_w,
    e_y,
)
from .oracle import (
    ProbabilityTables,
    finite_diff,
    g_y_check,
    mediation_formula_effects,
    tables_from_params,
)
from .simulate import Marginal, simulate_dataset

__version__ = "0.1.0"
