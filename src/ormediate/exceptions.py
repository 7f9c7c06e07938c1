"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`MediationError`,
so callers can catch package failures with one except clause. The CLI maps the
subtrees to exit codes: schema problems -> 2, fitting failures -> 3, numerical
degeneracy -> 4.
"""

from __future__ import annotations

__all__ = [
    "MediationError",
    "SchemaError",
    "FitError",
    "ConvergenceError",
    "SeparationError",
    "SingularDesignError",
    "NumericalError",
    "PredictorOverflowError",
    "DegenerateProbabilityError",
    "CovarianceError",
]


class MediationError(Exception):
    """Base class for all errors raised by ormediate."""


class SchemaError(MediationError):
    """Invalid specification, configuration, or data binding."""


class FitError(MediationError):
    """Base class for model-fitting failures."""


class ConvergenceError(FitError):
    """Newton iteration did not converge within the iteration budget."""

    def __init__(self, message: str, trace: list[dict] | None = None):
        super().__init__(message)
        self.trace = trace or []


class SeparationError(FitError):
    """Quasi-complete separation: coefficients diverging with rising likelihood."""


class SingularDesignError(FitError):
    """Design matrix is rank deficient; the message names the offending columns."""


class NumericalError(MediationError):
    """Base class for numerical degeneracy."""


class PredictorOverflowError(NumericalError):
    """A linear predictor left the range where exp() is representable."""


class DegenerateProbabilityError(NumericalError):
    """A probability is too close to 0 or 1 for log-odds arithmetic."""


class CovarianceError(NumericalError):
    """A delta-method variance came out non-finite, or negative beyond roundoff
    tolerance."""
