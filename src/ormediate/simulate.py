"""Synthetic data generation from known coefficients.

Columns are drawn in a fixed order from a single seeded generator — covariates
(in ``spec.covariate_names()`` order), then exposure, then the mediator and
outcome uniforms — so a seed pins the dataset down byte for byte.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .exceptions import SchemaError
from .io import Marginal  # re-exported: the coefficient documents carry marginals
from .model import Dataset, MediatorParams, ModelSpec, OutcomeParams, mediator_design, outcome_design

__all__ = ["Marginal", "simulate_dataset"]


def _probs(design: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    eta = design @ coefs
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def simulate_dataset(
    spec: ModelSpec,
    outcome: OutcomeParams,
    mediator: MediatorParams,
    n: int,
    seed: int,
    covariate_marginals: Mapping[str, Marginal] | None = None,
    exposure_marginal: Marginal | None = None,
) -> Dataset:
    """Draw n rows from the joint law the two models imply.

    Covariates and the exposure come from their declared marginals (default
    bernoulli(0.5)); the mediator is drawn from its model given (x, v) and the
    outcome from its model given (x, w, z).
    """
    if spec != outcome.spec or spec != mediator.spec:
        raise SchemaError("parameters do not belong to the given model spec")
    if n < 0:
        raise SchemaError(f"row count must be non-negative, got {n}")
    marginals = dict(covariate_marginals or {})
    unknown = sorted(set(marginals) - set(spec.covariate_names()))
    if unknown:
        raise SchemaError(f"marginals given for unknown covariates {unknown}")
    default = Marginal("bernoulli", p=0.5)
    rng = np.random.default_rng(seed)

    covariates = {
        name: marginals.get(name, default).draw(rng, n) for name in spec.covariate_names()
    }
    x = (exposure_marginal or default).draw(rng, n)
    w = (rng.random(n) < _probs(mediator_design(spec, x, covariates), mediator.active_vector())
         ).astype(float)
    y = (rng.random(n) < _probs(outcome_design(spec, x, w, covariates), outcome.active_vector())
         ).astype(float)
    return Dataset(y=y, w=w, x=x, covariates=covariates)
