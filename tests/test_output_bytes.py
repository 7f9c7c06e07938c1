"""Command output pinned to the byte: the ``verify`` report at three seeds and
the ``effects`` report of a fully interacted coefficient document with a
covariance and 200 profiles."""

import hashlib

import numpy as np
import pytest

from ormediate import CovariateProfile, MediatorParams, ModelSpec, OutcomeParams
from ormediate.cli import main
from ormediate.io import coefficients_to_doc, save_json

# SHA-256 digests of the --output files, taken from the one-profile-at-a-time
# evaluation; never regenerate them to make a change pass.
GOLDEN = {
    "verify-1": "ba177ced10ee7fa4a61957951533a646f4e427c42548efdb9730216c99eae051",
    "verify-2": "4c2cd30c81ac3a2ad494957d09e9fc4d4db9158c63e0ff506b533b410a629dba",
    "verify-3": "5c1f5682911516accd09c688ebdf585119a47e59689790d76e91d9b339a5a07a",
    "effects": "4044f65eddf01d12dedd6f3cb3bb43c96c804e3c1d3eefdc7e2fc91095007c9a",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_report_bytes(tmp_path, seed):
    out = tmp_path / "verify.json"
    assert main(["verify", "--count", "100", "--seed", str(seed), "--output", str(out)]) == 0
    assert _digest(out) == GOLDEN[f"verify-{seed}"]


def _sweep_document():
    """z = (age, edu, loans), v = (age, loans), blocks xz, wz, xwz and xv;
    seeded coefficients, exactly symmetric covariances and 200 profiles."""
    spec = ModelSpec(z_names=("age", "edu", "loans"), v_names=("age", "loans"),
                     xz=True, wz=True, xwz=True, xv=True)
    rng = np.random.default_rng(20261018)
    outcome = OutcomeParams.from_vector(spec, 0.3 * rng.normal(size=spec.n_outcome_coefs))
    mediator = MediatorParams.from_vector(spec, 0.3 * rng.normal(size=spec.n_mediator_coefs))
    vcovs = []
    for k in (spec.n_outcome_coefs, spec.n_mediator_coefs):
        a = 0.01 * rng.normal(size=(k, k))
        v = a @ a.T
        vcovs.append((v + v.T) / 2.0)
    profiles = tuple(
        (f"p{i}", CovariateProfile.from_named(spec, {
            "age": rng.uniform(17.0, 70.0),
            "edu": float(rng.random() < 0.5),
            "loans": rng.uniform(0.0, 3.0),
        }))
        for i in range(200)
    )
    return coefficients_to_doc(spec, outcome, mediator,
                               outcome_vcov=vcovs[0], mediator_vcov=vcovs[1],
                               exposure_levels=(1.0, 0.0), profiles=profiles)


def test_effects_report_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report records the --coef-file path
    save_json(_sweep_document(), tmp_path / "coef.json")
    assert main(["effects", "--coef-file", "coef.json", "--output", "effects.json"]) == 0
    assert _digest(tmp_path / "effects.json") == GOLDEN["effects"]
