import ast
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ormediate
from ormediate import (
    Contrast,
    CovariateProfile,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    natural_effects,
)
from ormediate import cli, delta, jsonio
from ormediate.cli import main
from ormediate.delta import infer_many
from ormediate.effects import EFFECT_ORDER
from ormediate.io import (
    CoefficientSet, coefficients_to_doc, load_coefficients, load_json, read_table, save_json,
    write_table,
)
from ormediate.logit import _BLOCK_ROWS, _WORKER_BLOCKS
from ormediate.verify import run_suite
from helpers import child_env, microcredit_params


def run(*argv):
    return main([str(a) for a in argv])


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

    def test_byte_order_mark_is_accepted(self, tmp_path, capsys):
        """A coefficient file that starts with a UTF-8 byte-order mark gives
        the effects of the same file without it."""
        plain = Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json"
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            capsys.readouterr()
            assert run("effects", "--coef-file", path) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and "pnde" in outputs[0]

    def test_all_zero_coefficients_give_unit_effects(self, tmp_path):
        spec = ModelSpec()
        doc = coefficients_to_doc(CoefficientSet(spec, OutcomeParams(spec), MediatorParams(spec)))
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
        doc = coefficients_to_doc(CoefficientSet(
            cs.spec, outcome, cs.mediator,
            exposure_levels=(1.0, 0.0), profiles=cs.profiles,
        ))
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

    def test_n_beyond_memory_is_schema_error(self, tmp_path, capsys):
        # within the float64-column bound, but no draw can allocate 8 EiB
        out = tmp_path / "x.csv"
        assert run("simulate", "--coef-file", "microcredit_table1",
                   "--n", 1152921504606846975, "--output", out) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line.startswith("ERROR 2: --n 1152921504606846975 rows do not fit in memory")
        assert not out.exists()


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

    def test_reported_p_values_and_intervals_follow_from_log_and_se(self, sim_csv, tmp_path):
        # each p-value is erfc(|log / se| / sqrt 2), each interval exp(log -+ z se)
        out = tmp_path / "fit.json"
        assert run("fit", "--input", sim_csv, "--z", "age,edu,loans", "--x", 2,
                   "--x-star", -0.5, "--level", 0.9, "--output", out) == 0
        zq = NormalDist().inv_cdf(0.95)
        entries = [e for table in load_json(out)["effects"] for e in table["effects"]]
        assert [e["name"] for e in entries] == [*EFFECT_ORDER, "cde0", "cde1"]
        for e in entries:
            log, se = e["log"], e["se_log"]
            assert se > 0.0
            assert e["p_value"] == pytest.approx(math.erfc(abs(log / se) / math.sqrt(2.0)),
                                                 rel=1e-12), e["name"]
            assert e["ci_lower"] == pytest.approx(math.exp(log - zq * se), rel=1e-12)
            assert e["ci_upper"] == pytest.approx(math.exp(log + zq * se), rel=1e-12)

    def test_byte_order_mark_is_accepted(self, sim_csv, tmp_path):
        """A CSV that starts with a UTF-8 byte-order mark, as spreadsheet
        programs write it, gives the report of the same file without it."""
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + sim_csv.read_bytes())
        reports = []
        for path in (sim_csv, marked):
            out = tmp_path / f"{path.stem}.json"
            assert run("fit", "--input", path, "--z", "age,edu,loans", "--output", out) == 0
            reports.append(out.read_text().replace(str(path), "INPUT"))
        assert reports[0] == reports[1]

    def test_missing_column_is_named(self, sim_csv, capsys):
        assert run("fit", "--input", sim_csv, "--z", "age,haircut") == 2
        assert "haircut" in capsys.readouterr().err

    def test_constant_outcome_is_schema_error(self, tmp_path, capsys):
        # an input error naming the column, found before any Newton step
        cols = read_table_fixture(tmp_path)
        assert run("fit", "--input", cols) == 2
        assert capsys.readouterr().err == (
            "ERROR 2: outcome column 'y' has only one level (1); "
            "a logistic model needs both 0 and 1\n"
        )

    def test_constant_mediator_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("y,m,x\n" + "".join(f"{i % 2}.0,0.0,{i // 2 % 2}.0\n" for i in range(40)))
        assert run("fit", "--input", path, "--mediator", "m") == 2
        assert capsys.readouterr().err == (
            "ERROR 2: mediator column 'm' has only one level (0); "
            "a logistic model needs both 0 and 1\n"
        )

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
        for section in ("coefficients", "effects", "diagnostics"):
            assert eff_doc[section] == fit_doc[section]

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


@pytest.fixture()
def coef_file(tmp_path):
    """A fit with covariances and 300 profiles, more than one _INFER_BATCH."""
    spec = ModelSpec(z_names=("a",), v_names=("b",), xz=True, xv=True)
    rng = np.random.default_rng(3)
    outcome = OutcomeParams.from_vector(spec, 0.3 * rng.normal(size=spec.n_outcome_coefs))
    mediator = MediatorParams.from_vector(spec, 0.3 * rng.normal(size=spec.n_mediator_coefs))
    profiles = tuple((f"p{i}", CovariateProfile(z=[rng.normal()], v=[rng.normal()]))
                     for i in range(300))
    doc = coefficients_to_doc(CoefficientSet(
        spec, outcome, mediator,
        outcome_vcov=0.01 * np.eye(spec.n_outcome_coefs),
        mediator_vcov=0.01 * np.eye(spec.n_mediator_coefs),
        exposure_levels=(1.0, 0.0), profiles=profiles,
    ))
    path = tmp_path / "coef.json"
    save_json(doc, path)
    return path


class TestInferenceBatches:
    """effects stacks its contrasts (``delta._stacked``, which ``infer_many``
    calls too) in slices of _INFER_BATCH, in every range of profiles."""

    def test_no_call_exceeds_the_batch(self, coef_file, tmp_path, monkeypatch):
        sizes = []

        stacked = delta._stacked

        def counting(spec, outcome, mediator, outcome_vcov, mediator_vcov, contrasts, level):
            sizes.append(len(contrasts))
            return stacked(spec, outcome, mediator, outcome_vcov, mediator_vcov, contrasts, level)

        monkeypatch.setattr(delta, "_stacked", counting)  # cli imports it when it runs
        assert run("effects", "--coef-file", coef_file, "--output", tmp_path / "a.json") == 0
        assert max(sizes) <= cli._INFER_BATCH and sum(sizes) == 300 and len(sizes) > 1

    def test_batching_keeps_the_bytes(self, coef_file, tmp_path, monkeypatch, capsys):
        assert run("effects", "--coef-file", coef_file, "--output", tmp_path / "a.json") == 0
        sliced = capsys.readouterr().out
        monkeypatch.setattr(cli, "_INFER_BATCH", 1000)
        assert run("effects", "--coef-file", coef_file, "--output", tmp_path / "b.json") == 0
        assert capsys.readouterr().out == sliced
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestProfileValuesOnce:
    """A report values each profile once, for its coefficient section and
    its effect table both."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        from ormediate import coefficients

        calls = []
        profile_values = coefficients.profile_values

        def counting(spec, profile):
            calls.append(profile)
            return profile_values(spec, profile)

        monkeypatch.setattr(coefficients, "profile_values", counting)
        return calls

    @pytest.mark.parametrize("output", [False, True])
    def test_effects(self, monkeypatch, coef_file, tmp_path, output):
        calls = self._counted(monkeypatch)
        flags = ["--output", tmp_path / "e.json"] if output else []
        assert run("effects", "--coef-file", coef_file, *flags) == 0
        assert len(calls) == 300

    def test_fit(self, monkeypatch, sim_csv, tmp_path):
        calls = self._counted(monkeypatch)
        profiles = ["age=30,edu=1,loans=0", "age=40,edu=0,loans=2", "age=50,edu=1,loans=1"]
        assert run("fit", "--input", sim_csv, "--z", "age,edu,loans",
                   *[arg for text in profiles for arg in ("--profile", text)],
                   "--output", tmp_path / "f.json") == 0
        assert len(calls) == 3


def _reference_texts(name, values, row, fields):
    """A table's JSON at the indent of a report's effects list, by json.dumps,
    and its text, by _render_effect_table."""
    width = len(fields)
    entries = [{"name": effect, **dict(zip(fields, row[i * width:(i + 1) * width]))}
               for i, effect in enumerate((*EFFECT_ORDER, "cde0", "cde1"))]
    table = {"profile": name, "values": values, "effects": entries}
    return (json.dumps(table, indent=2).replace("\n", jsonio._TABLE_INDENT),
            "\n".join(cli._render_effect_table(table)))


def _row(**at):
    """The 49 numbers of an inference table, 0.5 but where ``at`` sets
    (effect index, field) to a value."""
    row = [0.5] * 49
    for key, value in at.items():
        effect, field = key.split("_", 1)
        row[int(effect[1:]) * 7 + cli._INFERENCE_FIELDS.index(field)] = value
    return row


_NUMBERS = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, 1.0]))


class TestTableWriter:
    """The JSON and the text of an effect table, made by one % over a template,
    equal json.dumps of the table at the report's indent and
    _render_effect_table."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(name=st.text(), values=st.dictionaries(st.text(), _NUMBERS, max_size=4),
           row=st.lists(_NUMBERS, min_size=49, max_size=49), point=st.booleans())
    @example(name="p1", values={"a%b": 1.5, "%s": -2.0, "c%%d": 3.0}, row=_row(), point=False)
    @example(name='q"\\\u00e9\u2603%s\U0001f600', values={"\u00e9": 0.1}, row=_row(),
             point=False)
    @example(name="p", values={"age": 30.0}, row=_row(e0_se_or=math.inf), point=False)
    @example(name="p", values={"age": math.inf}, row=_row(), point=True)
    @example(name="p", values={"age": -0.0},
             row=_row(e1_log=-0.0, e2_ci_lower=5e-324, e3_ci_upper=1e308), point=False)
    @example(name="p", values={"a": 1e308, "b": 1e308}, row=_row(), point=False)  # sum is inf
    @example(name="p", values={}, row=_row(e0_log=0.0, e0_se_log=0.0, e0_se_or=0.0,
                                            e0_p_value=1.0, e5_se_log=0.0, e5_p_value=0.0),
             point=False)
    @example(name="p", values={"age": 30.0}, row=_row(e6_p_value=math.nan), point=False)
    def test_templates_equal_their_references(self, name, values, row, point):
        fields = cli._POINT_FIELDS if point else cli._INFERENCE_FIELDS
        row = row[:7 * len(fields)]
        templates = cli._table_templates(tuple(values), fields)
        made = (cli._table_json(name, values, row, templates),
                cli._table_text(name, values, row, templates))
        assert made == _reference_texts(name, values, row, fields)

    def test_zero_standard_errors_from_the_stack(self, tmp_path):
        # zero covariances: every SE is 0 and each p-value 1 or 0, and the
        # report's tables equal their references
        spec = ModelSpec(z_names=("a%b",))
        doc = coefficients_to_doc(CoefficientSet(
            spec, OutcomeParams(spec, intercept=-0.5, exposure=0.4, mediator=0.3),
            MediatorParams(spec, intercept=0.1),
            outcome_vcov=np.zeros((spec.n_outcome_coefs,) * 2),
            mediator_vcov=np.zeros((spec.n_mediator_coefs,) * 2),
            exposure_levels=(1.0, 0.0),
            profiles=(('q"\\\u00e9', CovariateProfile(z=[0.5])),),
        ))
        save_json(doc, tmp_path / "coef.json")
        out = tmp_path / "effects.json"
        assert run("effects", "--coef-file", tmp_path / "coef.json", "--output", out) == 0
        table = load_json(out)["effects"][0]
        assert table["profile"] == 'q"\\\u00e9' and table["values"] == {"a%b": 0.5}
        entries = {e["name"]: e for e in table["effects"]}
        assert {e["se_log"] for e in entries.values()} == {0.0}
        assert entries["pnie"]["p_value"] == 1.0 and entries["pnde"]["p_value"] == 0.0
        row = [e[field] for e in table["effects"] for field in cli._INFERENCE_FIELDS]
        templates = cli._table_templates(tuple(table["values"]), cli._INFERENCE_FIELDS)
        made = (cli._table_json(table["profile"], table["values"], row, templates),
                cli._table_text(table["profile"], table["values"], row, templates))
        assert made == _reference_texts(table["profile"], table["values"], row,
                                        cli._INFERENCE_FIELDS)


class TestPlainReport:
    """The sections of an effects report are plain JSON data, and the
    report on --output is them with the tables spliced into the empty
    ``effects`` list and the profile entries into the empty ``profiles``
    list of the coefficient section."""

    @pytest.mark.parametrize("inference", [True, False])
    def test_sections_with_the_tables_are_the_saved_report(self, coef_file, tmp_path, inference):
        source = str(coef_file) if inference else "microcredit_table1"
        out = tmp_path / "effects.json"
        assert run("effects", "--coef-file", source, "--output", out) == 0
        args = cli._build_parser().parse_args(["effects", "--coef-file", source])
        coef = cli._load_resolved(args)
        sections, tables, profiles = cli._effect_sections(coef, 0.95)
        assert json.loads(json.dumps(sections)) == sections
        assert sections["effects"] == [] and sections["coefficients"]["profiles"] == []
        assert profiles == coefficients_to_doc(coef)["profiles"]
        config = {"coef_file": source, "x": 1.0, "x_star": 0.0, "level": 0.95,
                  "mode": "inference" if inference else "point-estimates"}
        doc = cli._report("effects", config, **sections)
        doc["effects"] = [json.loads(text) for text in tables(cli._table_json)]
        entries = [json.loads(text) for text in cli._profile_json(profiles)]
        doc["coefficients"]["profiles"] = entries
        assert len(doc["effects"]) == len(coef.profiles)
        assert doc["coefficients"]["profiles"] == profiles
        assert json.dumps(doc, indent=2) + "\n" == out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("command", ["effects", "fit"])
    def test_each_splice_line_is_in_a_report_once(self, coef_file, sim_csv, command):
        """The lines write_json splices at are each in the text of a
        report's sections once: a top-level key sits at a two-space indent
        and a key of a top-level member's object at four, a JSON string holds
        no raw line break, and of the top-level members only the coefficient
        section has a "profiles" key."""
        argv = {"effects": ["effects", "--coef-file", str(coef_file)],
                "fit": ["fit", "--input", str(sim_csv), "--z", "age,edu,loans"]}[command]
        doc = {}

        def emit(report, output, tables=None, profiles=()):
            doc.update(report)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_emit", emit)
            assert main(argv) == 0
        text = json.dumps(doc, indent=2)
        assert text.count(jsonio._EMPTY_EFFECTS) == text.count(jsonio._EMPTY_PROFILES) == 1
        assert text.index(jsonio._EMPTY_PROFILES) > text.index('\n  "coefficients": {')

    def test_awkward_names_keep_the_bytes(self, tmp_path):
        """A fit report whose covariates have %, ", \\ and non-ASCII in their
        names, and a covariate shared by both models, over several profiles:
        its --output is json.dumps of itself, and effects on it writes the
        same coefficient section and tables."""
        rng = np.random.default_rng(5)
        n = 400
        names = ("a%s", 'q"\\\u00e9', 'p "profiles": []')
        x = rng.integers(0, 2, n).astype(float)
        cols = {name: rng.normal(size=n) for name in names}
        w = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.3 * x + 0.5 * w)))).astype(float)
        write_table(tmp_path / "data.csv", {"y": y, "w": w, "x": x, **cols})
        profiles = [f"{names[0]}={i / 3},{names[1]}={-i},{names[2]}={i * 0.25}" for i in range(4)]
        report = tmp_path / "fit.json"
        assert run("fit", "--input", tmp_path / "data.csv", "--z", ",".join(names[:2]),
                   "--v", names[0] + "," + names[2],
                   *[arg for text in profiles for arg in ("--profile", text)],
                   "--output", report) == 0
        assert run("effects", "--coef-file", report, "--output", tmp_path / "e.json") == 0
        for path in (report, tmp_path / "e.json"):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
        fitted, effects = (load_json(path) for path in (report, tmp_path / "e.json"))
        assert len(fitted["coefficients"]["profiles"]) == 4
        assert fitted["coefficients"]["profiles"][1]["values"] == {
            names[0]: 1 / 3, names[1]: -1.0, names[2]: 0.25}
        assert effects["coefficients"] == fitted["coefficients"]
        assert effects["effects"] == fitted["effects"]


class _Discard:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text):
        return len(text)


class TestTableStreaming:
    """A report's tables are written one at a time, from their numbers."""

    @pytest.mark.parametrize("n", [300, 1200])
    def test_the_peak_is_the_rows_and_one_table(self, tmp_path, monkeypatch, n):
        """The traced peak of making and writing the tables of n profiles,
        to stdout and to --output, is at most their rows, the traced peak of
        making one slice's rows, one table's JSON and text, and 64 KB. The
        rows of every slice are made first and held, each slice one float64
        array of 49 numbers a profile: the bytes counted here. Making a
        slice of 256 contrasts of this model holds about 460 KB of stack
        temporaries at its peak. Then stdout and the file get each table's
        text as it is formatted, so one table's text is held at a time. The
        64 KB hold the templates, the arrays' headers, one row as a list of
        floats and the file's write buffer. Holding the rows as lists of
        floats adds some 1.2 KB a profile (1.4 MB at n = 1200), and holding
        the JSON and the text of every table some 3 KB a table: 1 MB at
        n = 300, and 4 MB at n = 1200."""
        outcome, mediator = microcredit_params()
        coef = CoefficientSet(
            outcome.spec, outcome, mediator,
            outcome_vcov=0.01 * np.eye(7), mediator_vcov=0.02 * np.eye(2),
            exposure_levels=(1.0, 0.0),
            profiles=tuple((f"p{i}", CovariateProfile(z=(17.0 + i / 8, float(i % 2), i / 500)))
                           for i in range(n)),
        )
        contrasts = [Contrast(1.0, 0.0, prof) for _, prof in coef.profiles]
        profiles = coefficients_to_doc(coef)["profiles"]
        params = (coef.outcome, coef.mediator, coef.outcome_vcov, coef.mediator_vcov)
        slices = [delta._table_rows(coef.spec, *params,
                                    contrasts[start:start + cli._INFER_BATCH], 0.95)
                  for start in range(0, n, cli._INFER_BATCH)]
        rows_bytes = sum(rows.nbytes for rows in slices)
        tracemalloc.start()
        try:
            delta._table_rows(coef.spec, *params, contrasts[:cli._INFER_BATCH], 0.95)
            slice_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        name, values = profiles[0]["name"], profiles[0]["values"]
        templates = cli._table_templates(tuple(values), cli._INFERENCE_FIELDS)
        one_table = sum(sys.getsizeof(format_table(name, values, slices[0][0].tolist(), templates))
                        for format_table in (cli._table_json, cli._table_text))
        del slices
        monkeypatch.setattr(sys, "stdout", _Discard())
        out = tmp_path / "effects.json"
        tracemalloc.start()
        try:
            tables = cli._effect_tables(coef, contrasts, profiles, 0.95)
            doc = {"config": {"x": 1.0, "x_star": 0.0}, "effects": []}
            cli._emit(doc, str(out), tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [table["profile"] for table in load_json(out)["effects"]] == [
            f"p{i}" for i in range(n)]
        assert peak <= rows_bytes + slice_peak + one_table + 64 * 1024


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

    def test_overflowing_information(self, sim_csv, tmp_path):
        # 0.25 age^2 overflows the information at the start: one ERROR 4 line
        # naming the column, and no warning on stderr
        cols = read_table(sim_csv)
        cols["age"][0] = 1e308
        write_table(tmp_path / "big.csv", cols)
        line = self._error_line("fit", "--input", tmp_path / "big.csv", "--z", "age,edu,loans",
                                code=4)
        assert line == ("ERROR 4: the information matrix overflows: column 'age' reaches "
                        "|value| 1e+308; rescale it")

    def test_overflowing_information_in_the_last_block(self, tmp_path):
        # the same in the last row of a table whose passes run in up to three
        # processes: a worker ignores the overflow as the caller does
        path = tmp_path / "sim.csv"
        rows = 3 * _WORKER_BLOCKS * _BLOCK_ROWS + 1
        assert run("simulate", "--coef-file", "microcredit_table1", "--n", rows,
                   "--seed", 11, "--output", path) == 0
        cols = read_table(path)
        cols["age"][-1] = 1e308
        write_table(tmp_path / "big.csv", cols)
        line = self._error_line("fit", "--input", tmp_path / "big.csv", "--z", "age,edu,loans",
                                code=4)
        assert line == ("ERROR 4: the information matrix overflows: column 'age' reaches "
                        "|value| 1e+308; rescale it")

    @pytest.mark.parametrize("command, intercept", [("effects", 707.5), ("compare", 708.0)])
    def test_overflowing_bridge_term(self, tmp_path, command, intercept):
        # every predictor stays inside +/-709, yet k p2 p3 of A[x, x] overflows
        # at the profiles with loans > 0: a NumericalError, not a SchemaError
        doc = load_json(Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json")
        doc["mediator"]["intercept"] = intercept
        path = tmp_path / "coef.json"
        path.write_text(json.dumps(doc))
        line = self._error_line(command, "--coef-file", path, code=4)
        assert line == "ERROR 4: bridge term A[x, x] is inf: k p2 p3 or p2 p3 overflows"

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

    @staticmethod
    def _wide_bridge_document(path, variance):
        """Every predictor within the exp bound, yet at the profile the
        products (p2 p3 + p4)^2 of the key derivatives overflow; both
        covariances ``variance`` times the identity."""
        spec = ModelSpec(z_names=("a",), v_names=("b",), xz=True, wz=True, xwz=True, xv=True)
        outcome = OutcomeParams(spec, mediator=709.0, confounders=[-709.0],
                                exposure_mediator=-1.0)
        mediator = MediatorParams(spec, intercept=-0.5)
        save_json(coefficients_to_doc(CoefficientSet(
            spec, outcome, mediator,
            outcome_vcov=variance * np.eye(spec.n_outcome_coefs),
            mediator_vcov=variance * np.eye(spec.n_mediator_coefs),
            exposure_levels=(1.0, 0.0),
            profiles=(("p", CovariateProfile(z=[0.5], v=[0.3])),),
        )), path)
        return path

    def test_non_finite_variance(self, tmp_path):
        # a coefficient variance of 1e308 takes J Sigma J^T past the double range
        coef = self._wide_bridge_document(tmp_path / "coef.json", 1e308)
        out = tmp_path / "effects.json"
        line = self._error_line("effects", "--coef-file", coef, "--output", out, code=4)
        assert "variance is not finite" in line
        assert not out.exists()

    def test_overflowing_key_derivative_products_give_finite_errors(self, tmp_path):
        coef = self._wide_bridge_document(tmp_path / "coef.json", 0.01)
        out = tmp_path / "effects.json"
        assert main(["effects", "--coef-file", str(coef), "--output", str(out)]) == 0
        entries = load_json(out)["effects"][0]["effects"]
        assert len(entries) == 7
        assert all(math.isfinite(e["se_log"]) for e in entries)
        assert max(e["se_log"] for e in entries) > 0.0

    def test_overflowing_interval_bound(self, tmp_path):
        # at x - x* = 200 the upper bound of a log-scale interval passes 709
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        doc = coefficients_to_doc(CoefficientSet(
            spec, outcome, mediator,
            outcome_vcov=np.eye(spec.n_outcome_coefs),
            mediator_vcov=np.eye(spec.n_mediator_coefs),
        ))
        save_json(doc, tmp_path / "coef.json")
        out = tmp_path / "effects.json"
        line = self._error_line("effects", "--coef-file", tmp_path / "coef.json",
                                "--x", 200, "--x-star", 0, "--output", out, code=4)
        assert "confidence bound overflows" in line
        assert not out.exists()

    def test_point_estimate_beyond_exp_is_numerical_error(self, tmp_path):
        # at x - x* = 600 the fixture's log PNDE is 1141.8: finite, but its
        # odds ratio is beyond exp()'s range
        out = tmp_path / "effects.json"
        line = self._error_line("effects", "--coef-file", "microcredit_table1",
                                "--x", 300, "--x-star", -300, "--output", out, code=4)
        assert line == "ERROR 4: pnde odds ratio overflows exp(): log estimate 1141.8"
        assert not out.exists()

    def test_overflow_in_a_later_batch(self, tmp_path):
        # 300 profiles, so two infer_many batches; profile 270 (in the second)
        # and profile 291 push the outcome predictor past 709
        spec = ModelSpec(z_names=("a",))
        outcome = OutcomeParams(spec, intercept=-0.5, exposure=0.4, mediator=0.3,
                                confounders=[1.0])
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        big = {269: 800.0, 290: 900.0}
        profiles = tuple((f"p{i}", CovariateProfile(z=[big.get(i, i / 100.0)]))
                         for i in range(300))
        assert cli._INFER_BATCH < 270 <= 2 * cli._INFER_BATCH
        doc = coefficients_to_doc(CoefficientSet(
            spec, outcome, mediator,
            outcome_vcov=0.01 * np.eye(spec.n_outcome_coefs),
            mediator_vcov=0.01 * np.eye(spec.n_mediator_coefs),
            exposure_levels=(1.0, 0.0), profiles=profiles,
        ))
        save_json(doc, tmp_path / "coef.json")
        out = tmp_path / "effects.json"
        line = self._error_line("effects", "--coef-file", tmp_path / "coef.json",
                                "--output", out, code=4)
        assert "799.9" in line
        assert not out.exists()
        coef = load_coefficients(tmp_path / "coef.json")
        contrasts = [Contrast(1.0, 0.0, prof) for _, prof in coef.profiles]
        with pytest.raises(ormediate.MediationError) as info:
            infer_many(spec, *coef.fitted_models(), contrasts)
        assert line == f"ERROR 4: {info.value}"

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--seed", "-1", "--count", "1"], "--seed"),
        (["simulate", "--coef-file", "microcredit_table1", "--n", "10", "--seed", "-1",
          "--output", "{tmp}/sim.csv"], "--seed"),
        (["effects", "--coef-file", "microcredit_table1", "--level", "1.5"],
         "confidence level must be in (0, 1)"),
        (["effects", "--coef-file", "microcredit_table1", "--level", "nan"],
         "confidence level must be in (0, 1)"),
        # a contrast level is checked before the (missing) input is read
        (["fit", "--input", "{tmp}/missing.csv", "--x", "nan"],
         "contrast levels must be finite"),
        (["fit", "--input", "{tmp}/missing.csv", "--x", "inf", "--x-star", "inf"],
         "contrast levels must be finite"),
        (["effects", "--coef-file", "microcredit_table1", "--x", "inf", "--x-star", "inf"],
         "contrast levels must be finite"),
        (["effects", "--coef-file", "microcredit_table1", "--x-star=-inf"],
         "contrast levels must be finite"),
        # numpy refuses a float64 column of these many rows before allocating it
        (["simulate", "--coef-file", "microcredit_table1", "--n", str(10 ** 20),
          "--output", "{tmp}/sim.csv"], "--n"),
        (["simulate", "--coef-file", "microcredit_table1", "--n", str(2 ** 62),
          "--output", "{tmp}/sim.csv"], "--n"),
        # the largest double below 1: 1/2 + level/2 rounds to 1, an infinite quantile
        (["effects", "--coef-file", "microcredit_table1", "--level", "0.9999999999999999"],
         "too close to 1"),
    ])
    def test_bad_seed_and_level(self, tmp_path, argv, flag):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert flag in self._error_line(*argv)
        assert not (tmp_path / "sim.csv").exists()


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

    @pytest.mark.parametrize("edit, message", [
        (_set("outcome", {"intercept": 0.0, "exposure": 0.0, "mediator": 0.0,
                          "exposure_mediator": 0.0}), "outcome: missing coefficients"),
        (_set("vcov", {"outcome": np.eye(7).tolist()}), "vcov: missing keys ['mediator']"),
        (_set("profiles", 1, "name", "edu0_loans0"), "profile names must be distinct"),
        (_set("marginals", "covariates", "height", {"kind": "bernoulli", "p": 0.5}),
         "marginals given for unknown covariates ['height']"),
    ], ids=["parameters-of-another-layout", "one-covariance", "duplicate-profile-names",
            "marginal-of-no-covariate"])
    def test_broken_set_invariant_is_schema_error(self, tmp_path, capsys, edit, message):
        doc = load_json(Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json")
        edit(doc)
        path = tmp_path / "coef.json"
        save_json(doc, path)
        assert run("effects", "--coef-file", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2:") and message in err, err


_HUGE = 10 ** 400  # an integer literal of 401 digits, beyond the double range


class TestOutOfRangeDocuments:
    """A number beyond the double range, or a document nested past the
    recursion limit, ends in one ERROR 2 line: never a traceback."""

    def _error_line(self, capsys, *argv):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 2:"), err
        return lines[0]

    @pytest.mark.parametrize("command, edit, where", [
        ("effects", _set("outcome", "intercept", _HUGE), "outcome.intercept"),
        ("effects", _set("contrast", "x", _HUGE), "contrast.x"),
        ("simulate", _set("marginals", "exposure", "p", _HUGE), "marginals.exposure.p"),
        ("effects", _set("vcov", {"outcome": [[_HUGE if i == j == 0 else float(i == j)
                                               for j in range(7)] for i in range(7)],
                                  "mediator": np.eye(2).tolist()}), "vcov.outcome"),
    ], ids=["intercept", "contrast", "marginal", "vcov"])
    def test_huge_integer_names_the_field(self, tmp_path, capsys, command, edit, where):
        doc = load_json(Path(ormediate.__file__).parent / "fixtures" / "microcredit_table1.json")
        edit(doc)
        path = tmp_path / "coef.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--coef-file", path]
        if command == "simulate":
            argv += ["--n", 10, "--output", tmp_path / "sim.csv"]
        line = self._error_line(capsys, *argv)
        assert line.startswith(f"ERROR 2: {where}: ") and "range of a double" in line
        assert not (tmp_path / "sim.csv").exists()

    @pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000, "1" * 5000],
                             ids=["nested", "too-many-digits"])
    def test_unparsable_document(self, tmp_path, capsys, text):
        path = tmp_path / "coef.json"
        path.write_text(text)
        assert "invalid JSON" in self._error_line(capsys, "effects", "--coef-file", path)


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
        doc = coefficients_to_doc(CoefficientSet(cs.spec, outcome, cs.mediator,
                                                 exposure_levels=(1.0, 0.0), profiles=cs.profiles))
        path = tmp_path / "null_w.json"
        save_json(doc, path)
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", path, "--grid=-2,-6",
                   "--output", out) == 0
        for row in load_json(out)["rows"]:
            if row["effect"] in ("pnde", "tnde"):
                assert row["gap"] == 0.0

    def test_more_than_one_profile_is_a_usage_error(self, tmp_path, capsys):
        """compare tabulates one profile, so a second --profile is refused
        before the coefficient file is read, not dropped."""
        out = tmp_path / "cmp.json"
        profiles = ["--profile", "age=30,edu=0,loans=1", "--profile", "age=40,edu=1,loans=0"]
        for source in ("microcredit_table1", tmp_path / "missing.json"):
            assert run("compare", "--coef-file", source, *profiles, "--output", out) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "ERROR 2: compare tabulates one profile; got 2 --profile flags"]
            assert not out.exists()

    def test_one_profile_is_tabulated(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--profile", "age=40,edu=1,loans=0", "--output", out) == 0
        assert load_json(out)["profile"] == {
            "name": "profile1", "values": {"age": 40.0, "edu": 1.0, "loans": 0.0}}
        assert run("compare", "--coef-file", "microcredit_table1", "--output", out) == 0
        assert load_json(out)["profile"]["name"] == "edu0_loans0"

    def test_bad_grid_rejected(self, capsys):
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid", "a,b") == 2
        assert run("compare", "--coef-file", "microcredit_table1",
                   "--grid", " , ") == 2
        assert "ERROR 2:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "1e400", "-2,inf", "-inf,-4"])
    def test_non_finite_grid_names_the_flag(self, tmp_path, capsys, grid):
        out = tmp_path / "cmp.json"
        assert run("compare", "--coef-file", "microcredit_table1", f"--grid={grid}",
                   "--output", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR 2: --grid") and "not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan", "a,b"])
    def test_grid_is_checked_before_the_coefficient_file(self, tmp_path, capsys, grid):
        assert run("compare", "--coef-file", tmp_path / "missing.json", "--grid", grid) == 2
        assert capsys.readouterr().err.startswith("ERROR 2: --grid")


class TestVerifyCommand:
    def test_zero_count_trivially_passes(self, capsys):
        assert run("verify", "--count", 0) == 0
        out = capsys.readouterr().out
        assert "5/5 suites passed" in out

    @pytest.mark.parametrize("perturb", ["1e-3", "nan"])
    def test_perturbed_zero_count_is_usage_error(self, tmp_path, capsys, perturb):
        # with no draws no suite can fail, so a nonzero --perturb has no run
        out = tmp_path / "verify.json"
        assert run("verify", "--count", 0, "--perturb", perturb, "--output", out) == 2
        err = capsys.readouterr().err
        assert "ERROR 2:" in err and "needs at least one draw" in err
        assert not out.exists()

    @pytest.mark.parametrize("perturb", ["1e-9", "1e-300"])
    def test_perturb_below_twice_the_largest_tolerance_is_usage_error(self, tmp_path, capsys,
                                                                      perturb):
        # a passing error is below its tolerance: only an offset of twice the
        # largest tolerance, 1e-5 for the jacobian suite, must fail every suite
        out = tmp_path / "verify.json"
        assert run("verify", "--count", 20, "--perturb", perturb, "--output", out) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR 2:"), captured.err
        assert "below 2e-05" in lines[0] and captured.out == ""
        assert not out.exists()

    def test_perturb_at_twice_the_largest_tolerance_fails_every_suite(self, capsys):
        assert run("verify", "--count", 20, "--perturb", "2e-5") == 5
        assert capsys.readouterr().out.count("FAIL") == 5

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
        assert 'ormediate = "ormediate.cli:run"' in scripts.splitlines()
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


# the three ways to start the CLI as a script; each ends through cli.run
_ENTRIES = {
    "package": ["-m", "ormediate"],
    "module": ["-m", "ormediate.cli"],
    "run": ["-c", "from ormediate.cli import run; run()"],
}


def _script(entry, *argv, env=None, **kwargs):
    return subprocess.run([sys.executable, *_ENTRIES[entry], *map(str, argv)],
                          env=env or child_env(), **kwargs)


class TestRunEntry:
    """``cli.run`` ends the process without the interpreter's teardown: the
    exit handlers run, stdout and stderr are flushed, and the code is main's."""

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--count", 20], 0),
        (["verify", "--count", 20, "--perturb", "1e-3"], 5),
        (["effects", "--coef-file", "microcredit_table1", "--level", 1.5], 2),
        (["effects", "--coef-file", "microcredit_table1", "--x", 1, "--x-star", 1], 4),
        (["effects", "--no-such-flag"], 2),
    ], ids=["verify", "perturb", "level", "degenerate-contrast", "usage"])
    def test_every_entry_gives_the_same_bytes_and_code(self, tmp_path, argv, code):
        results = []
        for entry in _ENTRIES:
            out = tmp_path / f"{entry}.json"
            proc = _script(entry, *argv, "--output", out, capture_output=True)
            results.append((proc.returncode, proc.stdout, proc.stderr,
                            out.read_bytes() if out.exists() else None))
        assert results[0][0] == code, results[0][2]
        assert results[1] == results[0] and results[2] == results[0]
        assert (results[0][3] is not None) == (code in (0, 5))
        assert b"Traceback" not in results[0][2]

    def test_exit_handlers_run(self, tmp_path):
        marker = tmp_path / "marker"
        code = ("import atexit, pathlib, sys\n"
                f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'ran')\n"
                "sys.argv = ['ormediate', 'verify', '--count', '0']\n"
                "from ormediate.cli import run\n"
                "run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert "5/5 suites passed" in proc.stdout
        assert marker.read_text() == "ran"

    def test_a_fit_leaves_no_child_process_and_no_thread(self, tmp_path):
        """An exit handler, run after main returns, sees no child left to
        reap and one thread: nothing is cut short by ``os._exit``."""
        csv = tmp_path / "sim.csv"
        assert run("simulate", "--coef-file", "microcredit_table1", "--n", 120_000,
                   "--seed", 2, "--output", csv) == 0
        code = ("import atexit, os, sys, threading\n"
                "def check():\n"
                "    try:\n"
                "        os.waitpid(-1, os.WNOHANG)\n"
                "        sys.stderr.write('a child is left\\n')\n"
                "    except ChildProcessError:\n"
                "        pass\n"
                "    threads = (len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task')\n"
                "               else threading.active_count())\n"
                "    sys.stderr.write(f'threads {threads}\\n')\n"
                "atexit.register(check)\n"
                f"sys.argv = ['ormediate', 'fit', '--input', {str(csv)!r}, '--z', 'age,edu,loans']\n"
                "from ormediate.cli import run\n"
                "run()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "threads 1\n"
        assert "outcome model: n=120000" in proc.stdout


class TestStdoutWriteFailure:
    """A failed write to stdout ends in one ``ERROR 2`` line and exit 2, as a
    failed ``--output`` write does: inside the command when stdout is
    unbuffered or its text outgrows the buffer, at ``run``'s flush when the
    text is still buffered. ``--help`` and ``--version`` too, whose write
    argparse would drop."""

    COMMANDS = {
        "verify": ["verify", "--count", 1],
        "effects": ["effects", "--coef-file", "microcredit_table1"],
        "simulate": ["simulate", "--coef-file", "microcredit_table1", "--n", 10],
        "help": ["--help"],
        "version": ["--version"],
        "fit-help": ["fit", "--help"],
    }

    @staticmethod
    def _env(unbuffered):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    def _check(self, proc, reason):
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2, proc.stderr
        assert lines == [f"ERROR 2: cannot write to stdout: {reason}"], proc.stderr

    def _argv(self, command, tmp_path):
        argv = self.COMMANDS[command]
        return argv + ["--output", tmp_path / "sim.csv"] if command == "simulate" else argv

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_full_device(self, tmp_path, command, unbuffered):
        with open("/dev/full", "w") as full:
            proc = _script("package", *self._argv(command, tmp_path), stdout=full,
                           stderr=subprocess.PIPE, text=True, env=self._env(unbuffered))
        self._check(proc, "[Errno 28] No space left on device")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_pipe_whose_reader_has_gone(self, tmp_path, command, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _script("package", *self._argv(command, tmp_path), stdout=write_end,
                           stderr=subprocess.PIPE, text=True, env=self._env(unbuffered))
        finally:
            os.close(write_end)
        self._check(proc, "[Errno 32] Broken pipe")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this platform")
    def test_text_beyond_the_buffer_fails_inside_the_command(self, tmp_path):
        """Buffered, the text of 300 tables outgrows the buffer, so a write
        in the command fails; the flush in ``run`` fails again, unreported."""
        doc = json.loads((Path(ormediate.__file__).parent / "fixtures"
                          / "microcredit_table1.json").read_text(encoding="utf-8"))
        doc["profiles"] = [{**entry, "name": f"p{i}"}
                           for i, entry in enumerate(doc["profiles"] * 50)]
        source = tmp_path / "coef.json"
        source.write_text(json.dumps(doc), encoding="utf-8")
        with open("/dev/full", "w") as full:
            proc = _script("package", "effects", "--coef-file", source, "--output",
                           tmp_path / "out.json", stdout=full, stderr=subprocess.PIPE,
                           text=True, env=self._env(False))
        self._check(proc, "[Errno 28] No space left on device")
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["help", "version", "fit-help"])
    def test_help_and_version_to_a_working_stdout(self, capsys, command, unbuffered):
        """Their text and exit 0 are main's, buffered or not."""
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        proc = _script("package", *self.COMMANDS[command], capture_output=True, text=True,
                       env=self._env(unbuffered))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, text, "")
        assert text.startswith("usage: ormediate" if "help" in command else "ormediate 0.1")

    def test_an_earlier_error_is_the_only_line(self, tmp_path):
        """Text held in the buffer when ``--output`` cannot be written: the
        ``--output`` error is the one line, and stdout's failed flush adds
        none."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _script("package", "effects", "--coef-file", "microcredit_table1",
                           "--output", tmp_path / "missing" / "out.json", stdout=write_end,
                           stderr=subprocess.PIPE, text=True, env=self._env(False))
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"ERROR 2: cannot write {tmp_path / 'missing' / 'out.json'}:"), proc.stderr

