"""Exact odds-ratio mediation effects for binary outcomes and binary mediators.

The names in ``__all__`` are exported lazily (PEP 562): ``import ormediate``
loads no submodule, and the first access to a name imports the submodule that
defines it. So ``import ormediate.cli`` and ``ormediate --help`` load no
numeric code; each command imports only the modules it runs.
"""

import os
from importlib import import_module

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "delta": ("EffectInference", "InferenceResult", "infer", "infer_many"),
    "effects": (
        "EFFECT_ORDER",
        "EffectSet",
        "SpecialCaseReport",
        "a_term",
        "a_term_inputs",
        "approx_effects",
        "jacobian_log_effects",
        "natural_effects",
        "special_case_report",
    ),
    "exceptions": (
        "ConvergenceError",
        "CovarianceError",
        "DegenerateProbabilityError",
        "FitError",
        "MediationError",
        "NumericalError",
        "PredictorOverflowError",
        "SchemaError",
        "SeparationError",
        "SingularDesignError",
    ),
    "io": ("Marginal",),
    "logit": ("FittedModel", "fit", "predict_prob", "wald_table"),
    "model": (
        "EXP_LIMIT",
        "Contrast",
        "CovariateProfile",
        "Dataset",
        "MediatorParams",
        "ModelSpec",
        "OutcomeParams",
        "build_design",
        "e_w",
        "e_y",
    ),
    "oracle": (
        "ProbabilityTables",
        "finite_diff",
        "g_y_check",
        "mediation_formula_effects",
        "tables_from_params",
    ),
    "simulate": ("simulate_dataset",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    # any other name raises, so `from ormediate import cli` imports the submodule
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which `taskset`
    and a cgroup cpuset narrow, or the CPU count where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
