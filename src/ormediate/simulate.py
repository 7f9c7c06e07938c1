"""Synthetic data generation from known coefficients.

Columns are drawn in a fixed order from a single seeded generator — covariates
(in ``spec.covariate_names()`` order), then exposure, then the mediator and
outcome uniforms — so a seed pins the dataset down byte for byte.

Memory: the returned columns and one block of rows.  Each model's design
rows and probabilities are computed ``_DESIGN_ROWS`` rows at a time, and the
uniforms are thresholded to 0/1 in their own buffers, which become the
mediator and outcome columns; no temporary grows with n.  Blocks start at
multiples of ``_DESIGN_ROWS`` and none is a lone row, so on one BLAS thread,
as the CLI runs, each row's probability has the bits that one product over
all n rows gives.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .exceptions import SchemaError
from .coefficients import Marginal  # re-exported: the coefficient documents carry marginals
from .model import (
    _DESIGN_ROWS,
    Dataset,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    mediator_design,
    outcome_design,
)

__all__ = ["Marginal", "simulate_dataset"]


def _probs(design: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    eta = design @ coefs
    return 0.5 * (1.0 + np.tanh(0.5 * eta))


def _row_blocks(n: int) -> list[slice]:
    """Blocks of ``_DESIGN_ROWS`` rows and a last one of the rest.  numpy
    takes a one-row product through its own dot, whose sum can differ in the
    last bit from the BLAS kernel's row, so a last row alone joins the block
    before it."""
    starts = list(range(0, n, _DESIGN_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


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
    w = rng.random(n)
    y = rng.random(n)
    mediator_coefs, outcome_coefs = mediator.active_vector(), outcome.active_vector()
    for rows in _row_blocks(n):  # each uniform becomes 1.0 below its probability, else 0.0
        xb, wb, yb = x[rows], w[rows], y[rows]
        cb = {name: c[rows] for name, c in covariates.items()}
        np.less(wb, _probs(mediator_design(spec, xb, cb), mediator_coefs), out=wb)
        np.less(yb, _probs(outcome_design(spec, xb, wb, cb), outcome_coefs), out=yb)
    return Dataset(y=y, w=w, x=x, covariates=covariates)
