"""Shared fixtures for the test suite: the microcredit coefficient set used in
the worked examples, random model generators for the verification sweeps,
the environment of a child interpreter, and a check that no forked child is
left."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

import ormediate
from ormediate import Contrast, CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from ormediate.verify import random_problem

__all__ = [
    "child_env",
    "microcredit_spec",
    "microcredit_params",
    "microcredit_profiles",
    "no_child_left",
    "random_problem",
]


def microcredit_spec() -> ModelSpec:
    return ModelSpec(z_names=("age", "edu", "loans"))


def microcredit_params() -> tuple[OutcomeParams, MediatorParams]:
    spec = microcredit_spec()
    outcome = OutcomeParams(
        spec,
        intercept=-1.542,
        exposure=1.903,
        mediator=0.758,
        exposure_mediator=0.137,
        confounders=(0.008, -1.001, 0.185),
    )
    mediator = MediatorParams(spec, intercept=0.027, exposure=0.262)
    return outcome, mediator


def microcredit_profiles() -> list[CovariateProfile]:
    """The six reporting profiles: age 37, edu in {0,1}, loans in {0,1,2}."""
    return [
        CovariateProfile(z=(37.0, float(edu), float(loans)))
        for loans in (0, 1, 2)
        for edu in (0, 1)
    ]


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the ormediate these
    tests import, also when only pytest's `pythonpath` setting put it on the path."""
    src = str(Path(ormediate.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited]) if inherited else src}


def no_child_left() -> None:
    """Every child of this process has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
