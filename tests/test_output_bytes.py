"""Command output pinned to the byte: the ``verify`` report at three seeds and
two counts, the ``effects`` report of a fully interacted coefficient document
with 200 profiles, with a covariance and without one, also when its tables
are made in slices of 64 or of 7 profiles, and the ``fit`` report of a seeded
simulated dataset at its mean profile and at two given profiles."""

import hashlib

import numpy as np
import pytest

from ormediate import (Contrast, CovariateProfile, MediationError, MediatorParams, ModelSpec,
                       OutcomeParams)
from ormediate import cli
from ormediate.cli import main
from ormediate.delta import infer_many
from ormediate.io import (CoefficientSet, coefficients_from_doc, coefficients_to_doc, save_json,
                          spec_from_doc)

# SHA-256 digests of the --output files: verify and effects taken from the
# one-profile-at-a-time evaluation, effects-point and fit-* from the separate
# fit and effects report builders, verify-300-* from the draw-by-draw verify
# loop (300 draws reach all nine (p, q) and several slices of draws); never
# regenerate them to make a change pass.
GOLDEN = {
    "verify-1": "ba177ced10ee7fa4a61957951533a646f4e427c42548efdb9730216c99eae051",
    "verify-2": "4c2cd30c81ac3a2ad494957d09e9fc4d4db9158c63e0ff506b533b410a629dba",
    "verify-3": "5c1f5682911516accd09c688ebdf585119a47e59689790d76e91d9b339a5a07a",
    "verify-300-1": "96677b6b682939b3812be54b1c1340d4fcbcbbefdebe15cab6009298c6575cfd",
    "verify-300-2": "2ada437d701796e93b3674544eb25f2edbef96f11a911aa874a1e9931b0ea664",
    "verify-300-3": "fc9bf448f3692de2f25d171baa0264731b2676259ba7cd205e9a4199904c7663",
    "effects": "4044f65eddf01d12dedd6f3cb3bb43c96c804e3c1d3eefdc7e2fc91095007c9a",
    "effects-point": "5f7a7557ff54482be2afbb23415e3a160483254b117e1137516bf0de074a3cad",
    "fit-mean": "0832d91b6faf38b58cdb67f07aa00800acbff69321617aed815e0c393e1afe8e",
    "fit-profiles": "aaa60de6d63bd1c7a4714c2be1a8b0f6512b8bc5ad9b423193868f793a694635",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_report_bytes(tmp_path, seed):
    out = tmp_path / "verify.json"
    assert main(["verify", "--count", "100", "--seed", str(seed), "--output", str(out)]) == 0
    assert _digest(out) == GOLDEN[f"verify-{seed}"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_report_bytes_at_the_workload_count(tmp_path, seed):
    out = tmp_path / "verify.json"
    assert main(["verify", "--count", "300", "--seed", str(seed), "--output", str(out)]) == 0
    assert _digest(out) == GOLDEN[f"verify-300-{seed}"]


def _sweep_document(vcov=True):
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
    if not vcov:
        vcovs = [None, None]
    return coefficients_to_doc(CoefficientSet(spec, outcome, mediator,
                                              outcome_vcov=vcovs[0], mediator_vcov=vcovs[1],
                                              exposure_levels=(1.0, 0.0), profiles=profiles))


def _effects_digest(tmp_path, monkeypatch, document) -> str:
    monkeypatch.chdir(tmp_path)  # the report records the --coef-file path
    save_json(document, tmp_path / "coef.json")
    assert main(["effects", "--coef-file", "coef.json", "--output", "effects.json"]) == 0
    return _digest(tmp_path / "effects.json")


def test_effects_report_bytes(tmp_path, monkeypatch):
    assert _effects_digest(tmp_path, monkeypatch, _sweep_document()) == GOLDEN["effects"]


def test_point_estimates_report_bytes(tmp_path, monkeypatch):
    digest = _effects_digest(tmp_path, monkeypatch, _sweep_document(vcov=False))
    assert digest == GOLDEN["effects-point"]


def _failing_document(ages):
    """The sweep document with an indefinite covariance of the outcome's x
    and x:age coefficients (variances 42000 and 4, covariance -410), under
    which the 200 profiles pass, a profile aged 300 has a confidence bound
    beyond exp()'s range and one aged 102.5 a negative delta-method
    variance, and one aged 800 an outcome predictor beyond exp()'s range;
    ``ages`` sets the age of some profiles by index."""
    doc = _sweep_document()
    terms = spec_from_doc(doc["model"]).outcome_terms()
    x, x_age = terms.index("x"), terms.index("x:age")
    vcov = doc["vcov"]["outcome"]
    vcov[x][x], vcov[x_age][x_age] = 42000.0, 4.0
    vcov[x][x_age] = vcov[x_age][x] = -410.0
    for i, age in ages.items():
        doc["profiles"][i]["values"]["age"] = age
    return doc


class TestEffectRanges:
    """effects on the 200 profiles of the sweep document, its tables made in
    one slice of profiles, in slices of 64 or in slices of 7: the pinned
    bytes, the same stdout with and without --output, and the error of the
    serial ``infer_many`` calls when a profile fails, wherever the slices
    part the failing profiles."""

    @pytest.fixture(params=[200, 64, 7], ids=["one-slice", "slices-of-64", "slices-of-7"])
    def effects(self, request, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # the report records the --coef-file path
        monkeypatch.setattr(cli, "_INFER_BATCH", request.param)

        def run(document, *flags):
            save_json(document, tmp_path / "coef.json")
            code = main(["effects", "--coef-file", "coef.json", *flags])
            return (code, *capsys.readouterr())

        return run

    @pytest.mark.parametrize("vcov, key", [(True, "effects"), (False, "effects-point")],
                             ids=["inference", "point"])
    def test_the_tables_write_the_pinned_bytes(self, effects, tmp_path, vcov, key):
        document = _sweep_document(vcov=vcov)
        code, out, err = effects(document, "--output", "effects.json")
        assert (code, err) == (0, "")
        assert _digest(tmp_path / "effects.json") == GOLDEN[key]
        assert out.startswith("exposure contrast: x=1 vs x*=0\n\nprofile p0: age=")
        assert effects(document)[1] == out  # and no JSON made

    @pytest.mark.parametrize("ages, message", [
        ({150: 300.0}, "pnde odds ratio or its confidence bound overflows exp()"),
        ({80: 300.0, 150: 800.0}, "pnde odds ratio or its confidence bound overflows exp()"),
        ({150: 300.0, 180: 800.0}, "pnde odds ratio or its confidence bound overflows exp()"),
        ({120: 800.0, 150: 300.0}, "outcome linear predictor 734.7"),
        ({150: 300.0, 160: 102.5}, "pnde odds ratio or its confidence bound overflows exp()"),
        ({150: 102.5, 160: 300.0}, "delta-method variance -2.1"),
        ({30: 300.0}, "pnde odds ratio or its confidence bound overflows exp()"),
    ], ids=["bound", "bound-then-predictor", "bound-then-predictor-later",
            "predictor-then-bound", "bound-then-variance", "variance-then-bound",
            "bound-early"])
    def test_a_failing_profile_gives_the_serial_error(self, effects, tmp_path, ages, message):
        # a stack checks all its variances before any bound, so
        # bound-then-variance needs the profile-by-profile infer calls of a
        # failing slice when profiles 150 and 160 share it (one slice, slices
        # of 64)
        document = _failing_document(ages)
        code, out, err = effects(document, "--output", "effects.json")
        assert (code, out) == (4, "") and message in err
        assert err.startswith("ERROR 4: ") and err.count("\n") == 1
        assert not (tmp_path / "effects.json").exists()
        coef = coefficients_from_doc(document)
        contrasts = [Contrast(*coef.exposure_levels, prof) for _, prof in coef.profiles]
        with pytest.raises(MediationError) as info:
            infer_many(coef.spec, *coef.fitted_models(), contrasts)
        assert err == f"ERROR 4: {info.value}\n"

    def test_a_failing_point_estimate_gives_the_serial_error(self, effects, tmp_path):
        document = _failing_document({120: 800.0, 150: 700.0})
        del document["vcov"]
        code, out, err = effects(document, "--output", "effects.json")
        assert (code, out) == (4, "") and "outcome linear predictor 734.7" in err
        assert err.startswith("ERROR 4: ") and err.count("\n") == 1
        assert not (tmp_path / "effects.json").exists()


_FIT_FLAGS = {
    "fit-mean": [],
    "fit-profiles": [
        "--profile", "age=30,edu=1,loans=0", "--profile", "age=50,edu=0,loans=2",
        "--interactions", "xz,wz,xwz,xv", "--x", "2", "--x-star", "-1", "--level", "0.9",
    ],
}


@pytest.mark.parametrize("key", sorted(_FIT_FLAGS))
def test_fit_report_bytes(tmp_path, monkeypatch, key):
    monkeypatch.chdir(tmp_path)  # the report records the --input path
    assert main(["simulate", "--coef-file", "microcredit_table1", "--n", "5000",
                 "--seed", "5", "--output", "sim.csv"]) == 0
    assert main(["fit", "--input", "sim.csv", "--z", "age,edu,loans", "--v", "age,loans",
                 *_FIT_FLAGS[key], "--output", "fit.json"]) == 0
    assert _digest(tmp_path / "fit.json") == GOLDEN[key]
