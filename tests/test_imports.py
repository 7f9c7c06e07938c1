"""The package exports its names lazily, and each command imports only the
modules it runs: ``import ormediate.cli``, ``--help`` and ``--version`` load
no numpy and leave the environment alone, and a command never loads a module
it does not use."""

import ast
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ormediate
from helpers import child_env
from ormediate.cli import main

EXPORTS = {
    "Contrast", "ConvergenceError", "CovarianceError", "CovariateProfile",
    "Dataset", "DegenerateProbabilityError", "EFFECT_ORDER", "EXP_LIMIT", "EffectInference",
    "EffectSet", "FitError", "FittedModel", "InferenceResult", "Marginal", "MediationError",
    "MediatorParams", "ModelSpec", "NumericalError", "OutcomeParams", "PredictorOverflowError",
    "ProbabilityTables", "SchemaError", "SeparationError", "SingularDesignError",
    "SpecialCaseReport", "a_term", "a_term_inputs", "approx_effects", "build_design", "e_w", "e_y", "finite_diff",
    "fit", "g_y_check", "infer", "infer_many", "jacobian_log_effects",
    "mediation_formula_effects", "natural_effects", "predict_prob", "simulate_dataset",
    "special_case_report", "tables_from_params", "wald_table",
}
MODULES = ["ormediate"] + sorted(
    f"ormediate.{m.name}" for m in pkgutil.iter_modules(ormediate.__path__)
)


def _child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())


def _loaded(*argv) -> tuple[set[str], bool]:
    """The modules in a fresh interpreter's sys.modules after ``main(argv)``,
    and whether importing the CLI and running main changed os.environ."""
    code = (
        "import json, os, sys\n"
        "before = dict(os.environ)\n"
        "from ormediate.cli import main\n"
        "try:\n"
        f"    code = main({list(map(str, argv))!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write(json.dumps([code, sorted(sys.modules), dict(os.environ) != before]))\n"
    )
    proc = _child(code)
    code, modules, changed = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules), changed


class TestExports:
    def test_all_is_the_public_api(self):
        assert len(ormediate.__all__) == len(EXPORTS) == 44
        assert set(ormediate.__all__) == EXPORTS

    def test_every_name_resolves_to_its_module_attribute(self):
        for name in ormediate.__all__:
            value = getattr(ormediate, name)
            home = sys.modules[f"ormediate.{ormediate._HOMES[name]}"]
            assert value is getattr(home, name), name

    def test_dir_lists_the_exports(self):
        assert EXPORTS <= set(dir(ormediate))

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from ormediate import *", namespace)
        assert EXPORTS <= set(namespace)

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ormediate.no_such_name

    def test_submodules_still_import_through_from(self):
        from ormediate import cli, oracle

        assert cli.__name__ == "ormediate.cli" and oracle.__name__ == "ormediate.oracle"

    def test_marginal_is_reexported_from_simulate(self):
        from ormediate import io, simulate

        assert simulate.Marginal is io.Marginal is ormediate.Marginal


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    proc = _child(f"import {module}")
    assert proc.returncode == 0, proc.stderr


def test_the_package_has_fifteen_modules():
    assert len(MODULES) == 15


@pytest.mark.parametrize("path", sorted(Path(ormediate.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_the_source_is_python_3_10_syntax(path):
    # pyproject.toml allows Python 3.10; this catches syntax that it lacks
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


class TestCommandImports:
    def test_importing_the_cli_loads_no_numpy(self):
        proc = _child("import os, sys; before = dict(os.environ); import ormediate.cli; "
                      "assert 'numpy' not in sys.modules, 'numpy'; "
                      "assert dict(os.environ) == before, 'environ'")
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_load_no_numpy(self, flag):
        loaded, changed = _loaded(flag)
        assert "numpy" not in loaded and "ormediate.model" not in loaded
        assert not changed

    def test_effects_loads_no_oracle_verify_or_simulate(self):
        loaded, changed = _loaded("effects", "--coef-file", "microcredit_table1")
        assert "ormediate.effects" in loaded
        assert changed  # a command sets OPENBLAS_NUM_THREADS
        assert not loaded & {"ormediate.oracle", "ormediate.verify", "ormediate.simulate"}

    @pytest.mark.parametrize("command", ["effects", "compare"])
    def test_reading_a_report_with_covariances_loads_no_fitting_or_csv_code(
            self, tmp_path, command):
        """effects reads a fit report's covariances and tabulates with the
        delta method, and compare reads the same report: neither loads the
        fitter, the CSV half of io or the csv module."""
        fixture = Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json"
        doc = json.loads(fixture.read_text(encoding="utf-8"))
        doc["vcov"] = {model: [[0.01 * (i == j) for j in range(k)] for i in range(k)]
                       for model, k in (("outcome", 7), ("mediator", 2))}
        source = tmp_path / "coef.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        report = tmp_path / "report.json"
        assert main(["effects", "--coef-file", str(source), "--output", str(report)]) == 0
        loaded, _ = _loaded(command, "--coef-file", report, "--output", tmp_path / "out.json")
        assert "ormediate.coefficients" in loaded and "ormediate.effects" in loaded
        assert ("ormediate.delta" in loaded) == (command == "effects")
        assert not loaded & {"ormediate.logit", "ormediate.io", "csv"}

    def test_verify_loads_no_io_fitting_csv_or_dataclasses(self):
        loaded, _ = _loaded("verify", "--count", 20)
        assert "ormediate.verify" in loaded
        assert not loaded & {"ormediate.io", "ormediate.logit", "ormediate.delta", "csv",
                             "dataclasses"}

    @pytest.mark.parametrize("command", ["effects", "fit", "simulate", "compare"])
    def test_no_command_loads_dataclasses(self, tmp_path, command):
        csv = tmp_path / "sim.csv"
        module, argv = {
            "effects": ("effects", ["--coef-file", "microcredit_table1"]),
            "fit": ("logit", ["--input", csv, "--z", "age,edu,loans"]),
            "simulate": ("simulate", ["--coef-file", "microcredit_table1", "--n", 10,
                                      "--output", tmp_path / "out.csv"]),
            "compare": ("effects", ["--coef-file", "microcredit_table1"]),
        }[command]
        if command == "fit":
            assert main(["simulate", "--coef-file", "microcredit_table1", "--n", "500",
                         "--output", str(csv)]) == 0
        loaded, _ = _loaded(command, *argv)
        assert f"ormediate.{module}" in loaded
        assert "dataclasses" not in loaded

    def test_simulate_loads_no_inference(self, tmp_path):
        loaded, _ = _loaded("simulate", "--coef-file", "microcredit_table1", "--n", 10,
                            "--output", tmp_path / "sim.csv")
        assert "ormediate.simulate" in loaded
        assert not loaded & {"ormediate.delta", "ormediate.effects", "ormediate.oracle",
                             "ormediate.verify", "statistics"}
