import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ormediate
from ormediate import (
    Contrast,
    CovariateProfile,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    natural_effects,
)
from ormediate.cli import main
from ormediate.io import coefficients_to_doc, load_coefficients, load_json, read_table, save_json
from ormediate.verify import run_suite
from helpers import microcredit_params


def run(*argv):
    return main([str(a) for a in argv])


def child_env():
    """The environment for a child interpreter that imports the ormediate these
    tests import, also when only pytest's `pythonpath` setting put it on the path."""
    src = str(Path(ormediate.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, inherited]) if inherited else src}


@pytest.fixture()
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    assert run("simulate", "--coef-file", "microcredit_table1", "--n", 4000,
               "--seed", 11, "--output", path) == 0
    return path


class TestEffectsCommand:
    def test_fixture_matches_published_values(self, tmp_path, capsys):
        out = tmp_path / "eff.json"
        assert run("effects", "--coef-file", "microcredit_table1",
                   "--output", out) == 0
        doc = load_json(out)
        assert doc["command"] == "effects"
        assert doc["config"]["mode"] == "point-estimates"
        assert [t["profile"] for t in doc["effects"]] == [
            "edu0_loans0", "edu1_loans0", "edu0_loans1",
            "edu1_loans1", "edu0_loans2", "edu1_loans2",
        ]
        first = {e["name"]: e["odds_ratio"] for e in doc["effects"][0]["effects"]}
        assert first["pnde"] == pytest.approx(6.652, abs=0.02)
        assert first["te"] == pytest.approx(7.046, abs=0.02)
        text = capsys.readouterr().out
        assert "edu1_loans2" in text and "odds-ratio" in text

    def test_all_zero_coefficients_give_unit_effects(self, tmp_path):
        spec = ModelSpec()
        doc = coefficients_to_doc(spec, OutcomeParams(spec), MediatorParams(spec))
        path = tmp_path / "zero.json"
        save_json(doc, path)
        out = tmp_path / "eff.json"
        assert run("effects", "--coef-file", path, "--output", out) == 0
        entries = load_json(out)["effects"][0]["effects"]
        assert all(e["odds_ratio"] == 1.0 and e["log"] == 0.0 for e in entries)

    def test_null_mediator_pathway_makes_te_equal_cde(self, tmp_path):
        cs = load_coefficients("microcredit_table1")
        vec = cs.outcome.active_vector()
        # layout: const, x, age, edu, loans, w, x:w
        vec[5] = 0.0
        vec[6] = 0.0
        outcome = OutcomeParams.from_vector(cs.spec, vec)
        doc = coefficients_to_doc(
            cs.spec, outcome, cs.mediator,
            exposure_levels=(1.0, 0.0), profiles=cs.profiles,
        )
        path = tmp_path / "null_w.json"
        save_json(doc, path)
        out = tmp_path / "eff.json"
        assert run("effects", "--coef-file", path, "--output", out) == 0
        for table in load_json(out)["effects"]:
            entries = {e["name"]: e for e in table["effects"]}
            assert entries["te"]["odds_ratio"] == entries["cde0"]["odds_ratio"]
            assert entries["te"]["odds_ratio"] == pytest.approx(
                math.exp(1.903), rel=1e-12
            )

    def test_profile_flag_overrides_bundle(self, tmp_path):
        out = tmp_path / "eff.json"
        assert run("effects", "--coef-file", "microcredit_table1",
                   "--profile", "age=50,edu=1,loans=2", "--output", out) == 0
        doc = load_json(out)
        assert len(doc["effects"]) == 1
        assert doc["effects"][0]["values"] == {"age": 50.0, "edu": 1.0, "loans": 2.0}

    def test_incomplete_profile_rejected(self, capsys):
        assert run("effects", "--coef-file", "microcredit_table1",
                   "--profile", "age=37") == 2
        assert "ERROR 2:" in capsys.readouterr().err

    def test_degenerate_contrast_is_numerical_error(self, capsys):
        assert run("effects", "--coef-file", "microcredit_table1",
                   "--x", 1.0, "--x-star", 1.0) == 4
        assert "ERROR 4:" in capsys.readouterr().err

    def test_unknown_fixture_is_schema_error(self, capsys):
        assert run("effects", "--coef-file", "missing_fixture") == 2
        err = capsys.readouterr().err
        assert "ERROR 2:" in err and "microcredit_table1" in err


class TestSimulateCommand:
    def test_zero_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        assert run("simulate", "--coef-file", "microcredit_table1", "--n", 0,
                   "--seed", 1, "--output", path) == 0
        assert path.read_text() == "y,w,x,age,edu,loans\n"

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run("simulate", "--coef-file", "microcredit_table1",
                       "--n", 500, "--seed", 9, "--output", path) == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.csv"
        assert run("simulate", "--coef-file", "microcredit_table1",
                   "--n", 500, "--seed", 10, "--output", c) == 0
        assert a.read_bytes() != c.read_bytes()

    def test_marginals_respected(self, sim_csv):
        cols = read_table(sim_csv)
        assert set(np.unique(cols["edu"])) <= {0.0, 1.0}
        assert 17.0 <= cols["age"].min() and cols["age"].max() <= 70.0
        assert abs(cols["x"].mean() - 0.55) < 0.03

    def test_negative_n_rejected(self, tmp_path, capsys):
        assert run("simulate", "--coef-file", "microcredit_table1", "--n", -1,
                   "--seed", 1, "--output", tmp_path / "x.csv") == 2
        assert "ERROR 2:" in capsys.readouterr().err


class TestFitCommand:
    def test_pipeline_recovers_truth(self, sim_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--input", sim_csv, "--z", "age,edu,loans",
                   "--output", out) == 0
        doc = load_json(out)
        assert doc["models"]["outcome"]["converged"]
        assert doc["models"]["mediator"]["converged"]
        assert doc["config"]["profile_source"] == "sample-means"

        # the estimated TE must sit within 4 SEs of the truth implied by the
        # generating coefficients at the same (sample-mean) profile
        table = doc["effects"][0]
        te = next(e for e in table["effects"] if e["name"] == "te")
        outcome, mediator = microcredit_params()
        profile = CovariateProfile(
            z=tuple(table["values"][k] for k in ("age", "edu", "loans"))
        )
        truth = natural_effects(outcome, mediator, Contrast(1.0, 0.0, profile))
        assert abs(te["log"] - truth.log_values()[4]) < 4.0 * te["se_log"]

    def test_missing_column_is_named(self, sim_csv, capsys):
        assert run("fit", "--input", sim_csv, "--z", "age,haircut") == 2
        assert "haircut" in capsys.readouterr().err

    def test_constant_outcome_is_fit_error(self, tmp_path, capsys):
        cols = read_table_fixture(tmp_path)
        assert run("fit", "--input", cols) == 3
        assert "ERROR 3:" in capsys.readouterr().err

    def test_interaction_closure(self, sim_csv, tmp_path):
        out = tmp_path / "fit.json"
        assert run("fit", "--input", sim_csv, "--z", "age,edu,loans",
                   "--interactions", "xwz", "--output", out) == 0
        doc = load_json(out)
        assert set(doc["config"]["interactions"]) == {"xz", "wz", "xwz"}
        terms = [t["term"] for t in doc["models"]["outcome"]["terms"]]
        assert "x:w:age" in terms and "x:age" in terms and "w:age" in terms

    def test_unknown_interaction_rejected(self, sim_csv, capsys):
        assert run("fit", "--input", sim_csv, "--z", "age",
                   "--interactions", "zz") == 2
        assert "zz" in capsys.readouterr().err


def read_table_fixture(tmp_path):
    path = tmp_path / "const.csv"
    rng = np.random.default_rng(0)
    lines = ["y,w,x"]
    for _ in range(60):
        lines.append(f"1.0,{float(rng.integers(0, 2))},{float(rng.integers(0, 2))}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRoundTrip:
    def test_fit_report_feeds_effects_bit_identically(self, sim_csv, tmp_path):
        fit_out = tmp_path / "fit.json"
        assert run("fit", "--input", sim_csv, "--z", "age,edu,loans",
                   "--output", fit_out) == 0
        eff_out = tmp_path / "eff.json"
        assert run("effects", "--coef-file", fit_out, "--output", eff_out) == 0
        fit_doc = load_json(fit_out)
        eff_doc = load_json(eff_out)
        assert eff_doc["config"]["mode"] == "inference"
        assert eff_doc["effects"] == fit_doc["effects"]

    def test_whole_pipeline_is_deterministic(self, tmp_path):
        reports = []
        for tag in ("one", "two"):
            sim = tmp_path / f"{tag}.csv"
            fit_out = tmp_path / f"{tag}_fit.json"
            eff_out = tmp_path / f"{tag}_eff.json"
            assert run("simulate", "--coef-file", "microcredit_table1",
                       "--n", 2000, "--seed", 3, "--output", sim) == 0
            assert run("fit", "--input", sim, "--z", "age,edu,loans",
                       "--output", fit_out) == 0
            assert run("effects", "--coef-file", fit_out, "--output", eff_out) == 0
            reports.append(
                (sim.read_bytes(),
                 fit_out.read_bytes().replace(tag.encode(), b"RUN"),
                 eff_out.read_bytes().replace(tag.encode(), b"RUN"))
            )
        assert reports[0] == reports[1]


class TestFileErrors:
    """Unreadable input and unwritable output end in one ERROR 2 line, a
    numerically degenerate document in one ERROR 4 line."""

    def _error_line(self, *argv, code=2):
        proc = subprocess.run(
            [sys.executable, "-m", "ormediate", *map(str, argv)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"ERROR {code}:"), proc.stderr
        return lines[0]

    def test_undecodable_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"y,w,x\n1.0,0.0,\xff\n")
        assert "not UTF-8" in self._error_line("fit", "--input", path)

    def test_oversized_header_field(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,w," + "x" * 200_000 + "\n1.0,0.0,1.0\n")
        assert "field larger than field limit" in self._error_line("fit", "--input", path)

    def test_undecodable_coefficient_file(self, tmp_path):
        path = tmp_path / "coef.json"
        path.write_bytes(b'{"format": "\xff"}\n')
        assert "not UTF-8" in self._error_line("effects", "--coef-file", path)

    def test_unwritable_simulate_output(self, tmp_path):
        out = tmp_path / "no_such_dir" / "x.csv"
        assert "cannot write" in self._error_line(
            "simulate", "--coef-file", "microcredit_table1", "--n", 10, "--output", out)

    def test_unwritable_effects_output(self, tmp_path):
        out = tmp_path / "no_such_dir" / "x.json"
        assert "cannot write" in self._error_line(
            "effects", "--coef-file", "microcredit_table1", "--output", out)

    def test_non_finite_variance(self, tmp_path):
        # every predictor within the exp bound, yet (p2 p3 + p4)^2 overflows
        # in the key derivatives, so the Jacobian and the variances are NaN
        spec = ModelSpec(z_names=("a",), v_names=("b",), xz=True, wz=True, xwz=True, xv=True)
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5)
        doc = coefficients_to_doc(
            spec, outcome, mediator,
            outcome_vcov=0.01 * np.eye(spec.n_outcome_coefs),
            mediator_vcov=0.01 * np.eye(spec.n_mediator_coefs),
            exposure_levels=(1.0, 0.0),
            profiles=(("p", CovariateProfile(z=[0.5], v=[0.3])),),
        )
        save_json(doc, tmp_path / "coef.json")
        out = tmp_path / "effects.json"
        line = self._error_line("effects", "--coef-file", tmp_path / "coef.json",
                                  "--output", out, code=4)
        assert "variance is not finite" in line
        assert not out.exists()


def _set(*path_and_value):
    """A document edit that sets doc[k1][k2]... to the last argument."""
    *path, value = path_and_value

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


class TestMalformedCoefficientFiles:
    """Each malformed value ends in one ERROR 2 line that names where it is;
    none may be coerced into a different document."""

    @pytest.mark.parametrize("edit, where", [
        (_set("outcome", "intercept", "abc"), "outcome.intercept"),
        (_set("outcome", "intercept", None), "outcome.intercept"),
        (_set("outcome", "confounders", [1, "x", 3]), "outcome.confounders"),
        (_set("outcome", "confounders", 5), "outcome.confounders"),
        (_set("version", "abc"), "version"),
        (_set("contrast", "x", "one"), "contrast.x"),
        (_set("profiles", [{"name": "p", "values": [1, 2]}]), "profiles[0].values"),
        (_set("model", "z_names", "age"), "model.z_names"),
        (_set("model", "blocks", "xz", "false"), "model.blocks.xz"),
        (_set("vcov", {"outcome": np.eye(7).tolist(), "mediator": [[1.0, 0.0], [0.0, "1"]]}),
         "vcov.mediator"),
        (_set("profiles", 0, "name", None), "profiles[0].name"),
        (_set("description", None), "description"),
        (_set("vcov", {"outcome": (np.eye(7) + np.eye(7, k=1)).tolist(),
                       "mediator": np.eye(2).tolist()}), "vcov.outcome"),
        (_set("vcov", {"outcome": np.eye(7).tolist(),
                       "mediator": [[1.0, 0.0], [0.0, -1.0]]}), "vcov.mediator"),
    ], ids=[
        "intercept-string", "intercept-null", "block-entry-string", "block-number",
        "version-string", "contrast-string", "profile-values-array", "names-string",
        "flag-string", "vcov-entry-string", "profile-name-null", "description-null",
        "vcov-asymmetric", "vcov-negative-variance",
    ])
    def test_schema_error_names_the_field(self, tmp_path, capsys, edit, where):
        doc = load_json(Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json")
        edit(doc)
        path = tmp_path / "coef.json"
        save_json(doc, path)
        assert run("effects", "--coef-file", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:") and where in err, err


class TestCompareCommand:
    def test_gap_decreases_to_rare_limit(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid=-2,-6,-10,-14", "--output", out) == 0
        doc = load_json(out)
        te_gaps = [r["gap"] for r in doc["rows"] if r["effect"] == "te"]
        assert te_gaps == sorted(te_gaps, reverse=True)
        assert te_gaps[-1] < 0.02

    def test_published_intercept_has_visible_gap(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid=-1.542", "--output", out) == 0
        doc = load_json(out)
        gaps = {r["effect"]: r["gap"] for r in doc["rows"]}
        assert gaps["te"] > 0.01

    def test_null_mediator_pathway_gap_exactly_zero(self, tmp_path):
        cs = load_coefficients("microcredit_table1")
        vec = cs.outcome.active_vector()
        vec[5] = 0.0
        vec[6] = 0.0
        outcome = OutcomeParams.from_vector(cs.spec, vec)
        doc = coefficients_to_doc(cs.spec, outcome, cs.mediator,
                                  exposure_levels=(1.0, 0.0), profiles=cs.profiles)
        path = tmp_path / "null_w.json"
        save_json(doc, path)
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", path, "--grid=-2,-6",
                   "--output", out) == 0
        for row in load_json(out)["rows"]:
            if row["effect"] in ("pnde", "tnde"):
                assert row["gap"] == 0.0

    def test_bad_grid_rejected(self, capsys):
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid", "a,b") == 2
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid", " , ") == 2
        assert "ERROR 2:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_zero_count_trivially_passes(self, capsys):
        assert run("verify", "--count", 0) == 0
        out = capsys.readouterr().out
        assert "5/5 suites passed" in out

    def test_small_run_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert run("verify", "--count", 25, "--seed", 5, "--output", out) == 0
        doc = load_json(out)
        assert doc["passed"] is True
        assert len(doc["suites"]) == 5
        assert all(s["passed"] for s in doc["suites"])
        assert capsys.readouterr().out.count("PASS") == 5

    def test_perturbed_run_fails(self, capsys):
        assert run("verify", "--count", 25, "--perturb", 0.05) == 5
        assert "FAIL" in capsys.readouterr().out

    def test_nan_perturbation_fails(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ormediate", "verify", "--count", "20", "--perturb", "nan"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 5, proc.stdout + proc.stderr
        assert proc.stdout.count("FAIL") == 5 and proc.stderr == ""

    @pytest.mark.parametrize("perturb", [1e-3, -1e-3])
    def test_small_perturbation_always_fails_bracketing(self, perturb):
        # without the collapsed-bracket check most of these seeds passed
        for seed in range(30):
            assert not run_suite("bracketing", seed=seed, count=50, perturb=perturb).passed, seed


class TestEntryPoint:
    def test_console_script(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert 'ormediate = "ormediate.cli:main"' in scripts.splitlines()
        proc = subprocess.run(
            [sys.executable, "-m", "ormediate", "effects", "--coef-file", "microcredit_table1"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "te" in proc.stdout

    def test_dependencies_are_exactly_the_third_party_imports(self):
        root = Path(__file__).resolve().parents[1]
        project = (root / "pyproject.toml").read_text().split("[project]\n", 1)[1].split("\n[", 1)[0]
        deps = project.split("dependencies = [", 1)[1].split("]", 1)[0]
        declared = {re.match(r'\s*"([A-Za-z0-9_.-]+)', line).group(1)
                    for line in deps.splitlines() if line.strip()}
        imported = set()
        for path in (root / "src" / "ormediate").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"ormediate"}
        assert third_party, "no third-party import found; the scan is broken"
        assert declared == third_party

    def test_cli_import_loads_no_scipy_or_numba(self):
        code = (
            "import sys; import ormediate.cli; "
            "loaded = [m for m in ('scipy', 'numba') if m in sys.modules]; "
            "assert not loaded, loaded"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ormediate.cli", "verify", "--count", "0"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
