import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ormediate import (
    Contrast,
    CovariateProfile,
    Dataset,
    Marginal,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
    SchemaError,
    infer,
    simulate_dataset,
)
from ormediate import io as table_io
from ormediate.jsonio import _Verbatim
from ormediate.model import MEDIATOR_BLOCKS, OUTCOME_BLOCKS
from ormediate.io import (
    COEFFICIENT_FORMAT,
    REPORT_FORMAT,
    CoefficientSet,
    bind_dataset,
    bundled_fixture_names,
    coefficients_from_doc,
    coefficients_to_doc,
    dataset_columns,
    load_coefficients,
    load_json,
    read_table,
    save_json,
    spec_from_doc,
    spec_to_doc,
    write_json,
    write_table,
)
from helpers import microcredit_params, microcredit_profiles, microcredit_spec, no_child_left


class TestTables:
    def test_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        cols = {
            "y": rng.integers(0, 2, 20).astype(float),
            "x": rng.normal(size=20),
            "weird": np.array([0.1 + 0.2, 1e-17, -3.5e300, 4.0, 0.0] * 4),
        }
        path = tmp_path / "t.csv"
        write_table(path, cols)
        back = read_table(path)
        assert list(back) == ["y", "x", "weird"]
        for name in cols:
            assert np.array_equal(back[name], cols[name])

    def test_header_only_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, {"y": np.array([]), "x": np.array([])})
        assert path.read_text() == "y,x\n"
        back = read_table(path)
        assert back["y"].shape == (0,) and back["x"].shape == (0,)

    @pytest.mark.parametrize("line_by_line", [False, True])
    def test_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, line_by_line):
        if line_by_line:
            monkeypatch.setattr(table_io, "_load_body", lambda handle, width: None)
        cols = {"y": np.array([1.0, 0.0, 1.0]), "x": np.array([0.1 + 0.2, -3.5e300, -0.0])}
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_table(plain, cols)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = read_table(plain), read_table(marked)
        assert list(a) == list(b) == ["y", "x"]
        for name in cols:
            assert a[name].tobytes() == b[name].tobytes() == cols[name].tobytes()

    def test_read_errors(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            read_table(tmp_path / "nope.csv")
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(SchemaError, match="header"):
            read_table(p)
        p.write_text("a,b\n1.0\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_table(p)
        p.write_text("a,b\n1.0,zebra\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_table(p)
        p.write_text("a,a\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="duplicate"):
            read_table(p)
        p.write_text("a,\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="blank"):
            read_table(p)

    def test_line_numbers_count_file_lines(self, tmp_path):
        # the quoted header name spans lines 1-2, so the short row is on line 4
        p = tmp_path / "multiline.csv"
        p.write_text('"a\nb",c\n1,2\n3\n')
        with pytest.raises(SchemaError, match="line 4 has 1 fields"):
            read_table(p)

    def test_oversized_fields_are_schema_errors(self, tmp_path):
        big = "a" * 200_000
        p = tmp_path / "wide.csv"
        p.write_text(f"{big},b\n1.0,2.0\n")
        with pytest.raises(SchemaError, match="line 1: field larger than field limit"):
            read_table(p)
        p.write_text(f"a,b\n1.0,2.0\n3.0,{big}\n")
        with pytest.raises(SchemaError, match="line 3: field larger than field limit"):
            read_table(p)

    def test_write_validation(self, tmp_path):
        with pytest.raises(SchemaError):
            write_table(tmp_path / "x.csv", {})
        with pytest.raises(SchemaError):
            write_table(tmp_path / "x.csv", {"a": np.zeros(3), "b": np.zeros(4)})

    def test_golden_bytes(self, tmp_path):
        # the literal is what the row-by-row csv.writer/repr writer produced
        path = tmp_path / "golden.csv"
        write_table(path, {
            "mixed": np.array([0.1 + 0.2, 1e-310, -0.0, np.nan, np.inf, -np.inf, -3.5e300, 2.0]),
            "binary": np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]),
            "binary_neg_zero": np.array([1.0, 0.0, -0.0, 1.0, 0.0, 1.0, 1.0, 0.0]),
            'odd, "name"': np.array([1e16, 1e-5, 123456789.0, 0.5, -1.0, 5e-324,
                                     1.7976931348623157e308, 100.0]),
        })
        assert path.read_bytes() == (
            b'mixed,binary,binary_neg_zero,"odd, ""name"""\n'
            b"0.30000000000000004,0.0,1.0,1e+16\n"
            b"1e-310,1.0,0.0,1e-05\n"
            b"-0.0,1.0,-0.0,123456789.0\n"
            b"nan,0.0,1.0,0.5\n"
            b"inf,1.0,0.0,-1.0\n"
            b"-inf,0.0,1.0,5e-324\n"
            b"-3.5e+300,0.0,1.0,1.7976931348623157e+308\n"
            b"2.0,1.0,0.0,100.0\n"
        )

    def test_blocks_match_per_value_repr(self, tmp_path):
        # a column that is {0, 1} in the first write block only, and a -0.0 in the last
        n = table_io._WRITE_ROWS + 3
        flips = np.arange(n) % 2.0
        flips[-1] = 0.5
        signs = np.ones(n)
        signs[-2] = -0.0
        cols = {"flips": flips, "signs": signs}
        path = tmp_path / "blocks.csv"
        write_table(path, cols)
        rows = (",".join(repr(float(cols[k][i])) for k in cols) for i in range(n))
        assert path.read_text() == "flips,signs\n" + "".join(f"{r}\n" for r in rows)

    def test_undecodable_files_are_schema_errors(self, tmp_path):
        table = tmp_path / "latin1.csv"
        # past the first decoded chunk, so the error rises inside np.loadtxt
        table.write_bytes(b"a,b\n" + b"1.0,2.0\n" * 2000 + b"3.0,\xff\n")
        with pytest.raises(SchemaError, match="not UTF-8"):
            read_table(table)
        doc = tmp_path / "latin1.json"
        doc.write_bytes(b'{"format": "\xff"}\n')
        with pytest.raises(SchemaError, match="not UTF-8"):
            load_json(doc)

    def test_utf8_header_round_trip(self, tmp_path):
        path = tmp_path / "names.csv"
        write_table(path, {"\u00e2ge": np.array([1.5]), "\u6559\u80b2": np.array([0.0])})
        assert path.read_bytes() == "\u00e2ge,\u6559\u80b2\n1.5,0.0\n".encode("utf-8")
        assert list(read_table(path)) == ["\u00e2ge", "\u6559\u80b2"]

    def test_unwritable_paths_are_schema_errors(self, tmp_path):
        missing = tmp_path / "no_such_dir"
        with pytest.raises(SchemaError, match="cannot write"):
            write_table(missing / "t.csv", {"a": np.zeros(2)})
        with pytest.raises(SchemaError, match="cannot write"):
            save_json({"a": 1}, missing / "d.json")


R = table_io._MIN_RANGE_ROWS


def _ranges(monkeypatch, count):
    monkeypatch.setattr(table_io, "_range_count", lambda rows: count)


def _split_columns(n):
    rng = np.random.default_rng(n)
    return {
        "y": rng.integers(0, 2, n).astype(float),
        "x": rng.normal(size=n),
        "z": np.where(rng.random(n) < 0.5, -0.0, 1.0),
    }


def _per_line_error(path):
    """The SchemaError text read_table gives from the per-line parser."""
    try:
        table_io._read_rows(path)
    except SchemaError as exc:
        return str(exc)
    except UnicodeDecodeError as exc:
        return f"{path}: not UTF-8 text ({exc})"
    raise AssertionError("the per-line parser accepted the file")


_BODY = "".join(f"{i}.5,{-i}e-3\n" for i in range(60))


class TestRangeSplit:
    """Tables cut into row ranges, one per process, read and write as one range does."""

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, R - 1, R, R + 1, 2 * R + 1])
    def test_write_bytes_equal_one_range(self, tmp_path, monkeypatch, count, n):
        cols = _split_columns(n)
        _ranges(monkeypatch, 1)
        write_table(tmp_path / "one.csv", cols)
        _ranges(monkeypatch, count)
        write_table(tmp_path / "split.csv", cols)
        no_child_left()
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_children_format_all_but_the_first_range(self, tmp_path, monkeypatch):
        # the parent formats one range; a failed child's range it formats again
        calls = []
        write_rows = table_io._write_rows
        monkeypatch.setattr(table_io, "_write_rows", lambda *a: calls.append(a[2:]) or write_rows(*a))
        cols = _split_columns(2 * R + 1)
        _ranges(monkeypatch, 1)
        write_table(tmp_path / "one.csv", cols)
        _ranges(monkeypatch, 3)
        calls.clear()
        write_table(tmp_path / "split.csv", cols)
        assert calls == [(0, (2 * R + 1) // 3)]
        monkeypatch.setattr(table_io, "_format_rows", lambda *a: False)
        calls.clear()
        write_table(tmp_path / "failed.csv", cols)
        assert len(calls) == 3
        no_child_left()
        one = (tmp_path / "one.csv").read_bytes()
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "failed.csv").read_bytes() == one

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("text", [
        "a,b\n" + _BODY,
        ("a,b\n" + _BODY).replace("\n", "\r\n"),
        ("a,b\n" + _BODY).replace("\n", "\r"),
        "\ufeffa,b\n" + _BODY,
        '"a\nb",c\n' + _BODY,
        "a,b\n" + _BODY[:-1],
    ], ids=["lf", "crlf", "cr", "bom", "multiline-header", "no-final-newline"])
    def test_read_arrays_equal_one_range(self, tmp_path, monkeypatch, count, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(table_io, "_read_rows", None)  # no fallback
        _ranges(monkeypatch, 1)
        one = read_table(path)
        _ranges(monkeypatch, count)
        split = read_table(path)
        no_child_left()
        assert list(split) == list(one) and len(one) == 2
        for name in one:
            assert len(one[name]) == 60
            assert split[name].tobytes() == one[name].tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("final", [True, False], ids=["final-break", "no-final-break"])
    @pytest.mark.parametrize("breaks", [["\r\n"], ["\r"], ["\n", "\r\n", "\r"], ["\r", "\n"]],
                             ids=["crlf", "cr", "mixed", "cr-lf-alternating"])
    def test_line_breaks_give_the_per_line_parsers_arrays(self, tmp_path, monkeypatch, count,
                                                          final, breaks):
        # the fast reader counts a \r only in a range that has one
        lines = ["a,b", *(f"{i}.5,{-i}e-3" for i in range(60))]
        text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
        if not final:
            text = text.rstrip("\r\n")
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        header, matrix = table_io._read_rows(path)
        monkeypatch.setattr(table_io, "_read_rows", None)  # no fallback
        _ranges(monkeypatch, count)
        back = read_table(path)
        no_child_left()
        assert list(back) == header == ["a", "b"]
        for j, name in enumerate(header):
            assert back[name].tobytes() == matrix[:, j].tobytes()

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("last, wording", [
        (b"59.5,zebra\n", "line 61: could not convert"),
        (b"59.5\n", "line 61 has 1 fields"),
        (b"\n59.5,1.0\n", "line 61 has 0 fields"),
        (b"59.5,\xff\n", "not UTF-8 text"),
    ], ids=["bad-cell", "short-row", "blank-line", "undecodable"])
    def test_errors_in_the_last_range_are_the_per_line_parsers(self, tmp_path, monkeypatch,
                                                                count, last, wording):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n" + _BODY.encode()[: -len("59.5,-59e-3\n")] + last)
        _ranges(monkeypatch, count)
        with pytest.raises(SchemaError) as got:
            read_table(path)
        no_child_left()
        assert str(got.value) == _per_line_error(path)
        assert wording in str(got.value)

    def test_an_error_in_the_first_range_stops_the_children(self, tmp_path, monkeypatch):
        # the parent's own range fails while its children still parse theirs
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n0.5,zebra\n" + _BODY.encode() * 500)
        _ranges(monkeypatch, 3)
        with pytest.raises(SchemaError, match="line 2: could not convert") as got:
            read_table(path)
        no_child_left()
        assert str(got.value) == _per_line_error(path)

    def test_a_failed_reader_child_reads_the_whole_file_again(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(("a,b\n" + _BODY).encode())
        _ranges(monkeypatch, 3)
        monkeypatch.setattr(table_io, "_send_rows", lambda *a: False)
        rows = table_io._read_rows
        fallbacks = []
        monkeypatch.setattr(table_io, "_read_rows", lambda p: fallbacks.append(p) or rows(p))
        back = read_table(path)
        no_child_left()
        assert fallbacks == [path]
        assert back["a"].tolist() == [i + 0.5 for i in range(60)]


def _finite_column(n):
    return st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)


def _binary_column(n, with_neg_zero):
    column = st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)
    if not with_neg_zero or n == 0:
        return column
    return st.tuples(column, st.integers(0, n - 1)).map(
        lambda drawn: drawn[0][: drawn[1]] + [-0.0] + drawn[0][drawn[1] + 1:]
    )


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = {}
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["finite", "binary", "binary_neg_zero"]))
        if kind == "finite":
            values = draw(_finite_column(n_rows))
        else:
            values = draw(_binary_column(n_rows, kind == "binary_neg_zero"))
        columns[f"c{j}"] = np.array(values, dtype=float)
    return columns


# cells and line breaks on which np.loadtxt and the per-line parser could disagree
_NUMBERS = ["1.0", "-0.0", "1e-310", " 2.5", "nan", "-nan", "inf", "\t4"]
_ODD_CELLS = ["1_0", "#", "", '"3"']
_BREAKS = ["\n", "\r\n", "\n\n"]


@st.composite
def _texts(draw):
    width = draw(st.integers(1, 3))
    text = ",".join(f"c{j}" for j in range(width))
    for _ in range(draw(st.integers(0, 6))):
        text += draw(st.sampled_from(_BREAKS))
        if draw(st.booleans()):  # a well-formed row
            cells = st.lists(st.sampled_from(_NUMBERS), min_size=width, max_size=width)
        else:
            cells = st.integers(max(width - 1, 1), width + 1).flatmap(
                lambda n: st.lists(st.sampled_from(_NUMBERS + _ODD_CELLS), min_size=n, max_size=n)
            )
        text += ",".join(draw(cells))
    return text + draw(st.sampled_from(["", *_BREAKS]))


class TestTableProperties:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=_tables())
    @example(columns={
        "specials": np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                              -1e300, 0.1 + 0.2]),
        "binary_neg_zero": np.array([1.0, 0.0, -0.0, 1.0, 1.0, 0.0]),
    })
    def test_write_read_round_trip_is_bit_exact(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        write_table(path, columns)
        back = read_table(path)
        assert list(back) == list(columns)
        for name, values in columns.items():
            assert np.array_equal(back[name].view(np.int64), values.view(np.int64))

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_texts())
    @example(text="c0\n1.0\n\n2.0\n")
    @example(text="c0\n\n")
    @example(text="c0,c1\r\n1_0,-nan\r\n")
    def test_read_matches_the_per_line_parser(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            header, matrix = table_io._read_rows(path)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as got:
                read_table(path)
            assert str(got.value) == str(exc)
            return
        back = read_table(path)
        assert list(back) == header
        for j, name in enumerate(header):
            assert np.array_equal(back[name].view(np.int64), matrix[:, j].view(np.int64))


class TestBinding:
    def _columns(self):
        return {
            "bank": np.array([0.0, 1.0, 1.0, 0.0]),
            "biz": np.array([1.0, 0.0, 1.0, 0.0]),
            "offer": np.array([1.0, 1.0, 0.0, 0.0]),
            "age": np.array([30.0, 40.0, 50.0, 60.0]),
        }

    def test_binds_by_name(self):
        data = bind_dataset(
            self._columns(), outcome="bank", mediator="biz", exposure="offer",
            covariates=("age",),
        )
        assert isinstance(data, Dataset)
        assert np.array_equal(data.y, [0.0, 1.0, 1.0, 0.0])
        assert np.array_equal(data.covariates["age"], [30.0, 40.0, 50.0, 60.0])

    def test_missing_column_is_named(self):
        with pytest.raises(SchemaError, match="'hours'"):
            bind_dataset(self._columns(), outcome="bank", mediator="biz",
                         exposure="offer", covariates=("hours",))
        with pytest.raises(SchemaError, match="'cash'.*outcome"):
            bind_dataset(self._columns(), outcome="cash", mediator="biz",
                         exposure="offer")

    def test_overlapping_bindings_rejected(self):
        with pytest.raises(SchemaError, match="distinct"):
            bind_dataset(self._columns(), outcome="bank", mediator="bank",
                         exposure="offer")
        with pytest.raises(SchemaError, match="distinct"):
            bind_dataset(self._columns(), outcome="bank", mediator="biz",
                         exposure="offer", covariates=("offer",))

    def test_dataset_columns_inverse(self):
        data = bind_dataset(self._columns(), outcome="bank", mediator="biz",
                            exposure="offer", covariates=("age",))
        cols = dataset_columns(data, outcome="bank", mediator="biz", exposure="offer")
        assert list(cols) == ["bank", "biz", "offer", "age"]
        assert np.array_equal(cols["age"], data.covariates["age"])


class TestSpecDocs:
    def test_round_trip(self):
        spec = ModelSpec(z_names=("a", "b"), v_names=("a", "c"), xz=True, wz=True, xv=True)
        assert spec_from_doc(spec_to_doc(spec)) == spec

    def test_unknown_keys_rejected(self):
        doc = spec_to_doc(ModelSpec())
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="unknown"):
            spec_from_doc(doc)


def _full_coefficient_doc():
    spec = microcredit_spec()
    outcome, mediator = microcredit_params()
    profiles = tuple(
        (f"p{i}", prof) for i, prof in enumerate(microcredit_profiles())
    )
    vo = np.arange(49, dtype=float).reshape(7, 7) / 100.0
    vo = (vo + vo.T) / 2.0
    vm = np.array([[0.04, 0.01], [0.01, 0.09]])
    return coefficients_to_doc(CoefficientSet(
        spec,
        outcome,
        mediator,
        outcome_vcov=vo,
        mediator_vcov=vm,
        exposure_levels=(1.0, 0.0),
        profiles=profiles,
        exposure_marginal=Marginal("bernoulli", p=0.55),
        covariate_marginals={"age": Marginal("uniform", low=17.0, high=70.0)},
        description="round-trip check",
    ))


class TestCoefficientDocs:
    def test_round_trip_through_json(self, tmp_path):
        doc = _full_coefficient_doc()
        path = tmp_path / "c.json"
        save_json(doc, path)
        cs = coefficients_from_doc(load_json(path))
        outcome, mediator = microcredit_params()
        assert cs.spec == microcredit_spec()
        assert cs.outcome == outcome and cs.mediator == mediator
        assert np.array_equal(cs.outcome.active_vector(), outcome.active_vector())
        assert cs.exposure_levels == (1.0, 0.0)
        assert [n for n, _ in cs.profiles] == [f"p{i}" for i in range(6)]
        assert cs.profiles[1][1].z == (37.0, 1.0, 0.0)
        assert cs.exposure_marginal == Marginal("bernoulli", p=0.55)
        assert cs.covariate_marginals["age"] == Marginal("uniform", low=17.0, high=70.0)
        assert cs.has_vcov
        assert cs.outcome_vcov.shape == (7, 7)
        assert cs.description == "round-trip check"

    def test_vcov_floats_survive_exactly(self, tmp_path):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=0.1 + 0.2, exposure=-1e-17,
                                mediator=3.3333333333333335, exposure_mediator=0.0)
        mediator = MediatorParams(spec, intercept=np.pi, exposure=-np.e)
        # covariances are symmetric: a @ a.T symmetrised to the bit
        vo, vm = (
            (a @ a.T + (a @ a.T).T) / 2.0
            for a in (np.random.default_rng(3).normal(size=(4, 4)),
                      np.random.default_rng(4).normal(size=(2, 2)))
        )
        doc = coefficients_to_doc(CoefficientSet(spec, outcome, mediator,
                                                 outcome_vcov=vo, mediator_vcov=vm))
        path = tmp_path / "c.json"
        save_json(doc, path)
        cs = coefficients_from_doc(load_json(path))
        assert np.array_equal(cs.outcome.active_vector(), outcome.active_vector())
        assert np.array_equal(cs.outcome_vcov, vo)
        assert np.array_equal(cs.mediator_vcov, vm)

    def test_inactive_block_rejected(self):
        doc = _full_coefficient_doc()
        doc["outcome"]["mediator_confounders"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="inactive"):
            coefficients_from_doc(doc)

    def test_missing_active_block_rejected(self):
        doc = _full_coefficient_doc()
        del doc["outcome"]["confounders"]
        with pytest.raises(SchemaError, match="confounders"):
            coefficients_from_doc(doc)

    def test_wrong_vcov_shape_rejected(self):
        doc = _full_coefficient_doc()
        doc["vcov"]["mediator"] = [[1.0]]
        with pytest.raises(SchemaError, match="2x2"):
            coefficients_from_doc(doc)

    def test_asymmetric_vcov_rejected(self):
        doc = _full_coefficient_doc()
        doc["vcov"]["mediator"] = [[0.04, 0.01], [0.0, 0.09]]
        with pytest.raises(SchemaError, match="vcov.mediator: covariance is not symmetric"):
            coefficients_from_doc(doc)

    def test_negative_variance_rejected(self):
        doc = _full_coefficient_doc()
        doc["vcov"]["outcome"][3][3] = -1e-300
        with pytest.raises(SchemaError, match="vcov.outcome: .*negative variance"):
            coefficients_from_doc(doc)

    def test_format_and_version_checked(self):
        with pytest.raises(SchemaError, match="format"):
            coefficients_from_doc({"format": "something-else"})
        doc = _full_coefficient_doc()
        doc["version"] = 9
        with pytest.raises(SchemaError, match="version"):
            coefficients_from_doc(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = _full_coefficient_doc()
        doc["surprise"] = True
        with pytest.raises(SchemaError, match="unknown keys"):
            coefficients_from_doc(doc)

    def test_one_sided_vcov_rejected(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=0.0)
        mediator = MediatorParams(spec, intercept=0.0)
        with pytest.raises(SchemaError, match="both models or neither"):
            coefficients_to_doc(CoefficientSet(spec, outcome, mediator, outcome_vcov=np.eye(4)))

    def test_report_wrapper_is_unwrapped(self):
        inner = _full_coefficient_doc()
        report = {"format": REPORT_FORMAT, "coefficients": inner}
        cs = coefficients_from_doc(report)
        assert cs.exposure_levels == (1.0, 0.0)
        with pytest.raises(SchemaError, match="no coefficient section"):
            coefficients_from_doc({"format": REPORT_FORMAT})

    def test_shared_covariate_profile(self):
        spec = ModelSpec(z_names=("a", "b"), v_names=("a",))
        outcome = OutcomeParams(spec, intercept=0.0, confounders=(0.1, 0.2))
        mediator = MediatorParams(spec, intercept=0.0, confounders=(0.3,))
        prof = CovariateProfile(z=(1.5, 2.5), v=(1.5,))
        doc = coefficients_to_doc(CoefficientSet(spec, outcome, mediator,
                                                 profiles=(("only", prof),)))
        assert doc["profiles"][0]["values"] == {"a": 1.5, "b": 2.5}
        cs = coefficients_from_doc(doc)
        assert cs.profiles[0][1].z == (1.5, 2.5)
        assert cs.profiles[0][1].v == (1.5,)
        conflicted = CovariateProfile(z=(1.5, 2.5), v=(9.0,))
        with pytest.raises(SchemaError, match="shared covariate"):
            coefficients_to_doc(CoefficientSet(spec, outcome, mediator,
                                               profiles=(("bad", conflicted),)))

    def test_fitted_models_feed_inference(self):
        spec = ModelSpec()
        outcome = OutcomeParams(spec, intercept=-0.7, exposure=0.9, mediator=0.6,
                                exposure_mediator=0.1)
        mediator = MediatorParams(spec, intercept=0.1, exposure=0.5)
        vo = 0.01 * np.eye(4)
        vm = 0.02 * np.eye(2)
        cs = coefficients_from_doc(
            coefficients_to_doc(CoefficientSet(spec, outcome, mediator,
                                               outcome_vcov=vo, mediator_vcov=vm))
        )
        fy, fw = cs.fitted_models()
        res = infer(spec, fy, fw, Contrast(1.0, 0.0))
        assert res.by_name()["te"].se_log > 0.0

    def test_fitted_models_require_vcov(self):
        cs = load_coefficients("microcredit_table1")
        with pytest.raises(SchemaError, match="covariance"):
            cs.fitted_models()


# each covariance check: the model whose matrix breaks it, how, and the message
_BAD_VCOVS = {
    "size": ("outcome", lambda v: v[:3, :3],
             r"vcov\.outcome: covariance must be 7x7, got row lengths \[3, 3, 3\]"),
    "finite": ("mediator", lambda v: _with(v, (0, 0), np.inf),
               r"vcov\.mediator: covariance contains non-finite entries"),
    "symmetric": ("mediator", lambda v: _with(v, (0, 1), 0.0),
                  r"vcov\.mediator: covariance is not symmetric"),
    "variance": ("outcome", lambda v: _with(v, (3, 3), -1e-300),
                 r"vcov\.outcome: covariance has a negative variance on its diagonal"),
}


def _with(matrix, index, value):
    out = np.array(matrix)
    out[index] = value
    return out


class TestCoefficientSetInvariants:
    """The invariants a CoefficientSet checks itself, once: each raises a
    SchemaError from the constructor, from ``_replace`` and from a document
    that breaks it."""

    @pytest.mark.parametrize("check", sorted(_BAD_VCOVS))
    def test_covariances_belong_to_their_models(self, check):
        which, breaking, message = _BAD_VCOVS[check]
        cs = coefficients_from_doc(_full_coefficient_doc())
        bad = {f"{which}_vcov": breaking(getattr(cs, f"{which}_vcov"))}
        with pytest.raises(SchemaError, match=message):
            CoefficientSet(cs.spec, cs.outcome, cs.mediator, **{
                "outcome_vcov": cs.outcome_vcov, "mediator_vcov": cs.mediator_vcov, **bad})
        with pytest.raises(SchemaError, match=message):
            cs._replace(**bad)
        doc = _full_coefficient_doc()
        doc["vcov"][which] = bad[f"{which}_vcov"].tolist()
        with pytest.raises(SchemaError, match=message):
            coefficients_from_doc(doc)

    def test_the_writer_gets_no_covariance_its_reader_refuses(self):
        spec = ModelSpec()
        with pytest.raises(SchemaError, match=r"vcov\.outcome: covariance must be 4x4, "
                                              r"got row lengths \[3, 3, 3\]"):
            CoefficientSet(spec, OutcomeParams(spec), MediatorParams(spec),
                           outcome_vcov=np.eye(3), mediator_vcov=[[1, 0.5], [0, 1]])

    def test_a_covariance_is_held_as_a_float_array_of_its_own(self):
        spec = ModelSpec()
        given = [[1, 0.5], [0.5, 1]]
        cs = CoefficientSet(spec, OutcomeParams(spec), MediatorParams(spec),
                            outcome_vcov=np.eye(4), mediator_vcov=given)
        given[0][0] = 9
        assert cs.mediator_vcov.dtype == float
        assert cs.mediator_vcov.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        assert coefficients_from_doc(coefficients_to_doc(cs)).mediator_vcov.tolist() == \
            [[1.0, 0.5], [0.5, 1.0]]

    def test_parameters_of_another_layout(self):
        cs = coefficients_from_doc(_full_coefficient_doc())
        other = OutcomeParams(ModelSpec())
        with pytest.raises(SchemaError, match="different model layout"):
            CoefficientSet(cs.spec, other, cs.mediator)
        with pytest.raises(SchemaError, match="different model layout"):
            cs._replace(mediator=MediatorParams(ModelSpec()))
        doc = _full_coefficient_doc()
        doc["outcome"] = {"intercept": 0.0, "exposure": 0.0, "mediator": 0.0,
                          "exposure_mediator": 0.0}  # the layout of ModelSpec()
        with pytest.raises(SchemaError, match=r"outcome: missing coefficients \['confounders'\]"):
            coefficients_from_doc(doc)

    def test_covariances_for_both_models_or_neither(self):
        cs = coefficients_from_doc(_full_coefficient_doc())
        with pytest.raises(SchemaError, match="both models or neither"):
            CoefficientSet(cs.spec, cs.outcome, cs.mediator, mediator_vcov=cs.mediator_vcov)
        with pytest.raises(SchemaError, match="both models or neither"):
            cs._replace(outcome_vcov=None)
        doc = _full_coefficient_doc()
        del doc["vcov"]["mediator"]
        with pytest.raises(SchemaError, match=r"vcov: missing keys \['mediator'\]"):
            coefficients_from_doc(doc)

    def test_profile_names_are_distinct(self):
        cs = coefficients_from_doc(_full_coefficient_doc())
        twice = cs.profiles[:1] * 2
        with pytest.raises(SchemaError, match="profile names must be distinct"):
            CoefficientSet(cs.spec, cs.outcome, cs.mediator, profiles=twice)
        with pytest.raises(SchemaError, match="profile names must be distinct"):
            cs._replace(profiles=cs.profiles + twice)
        doc = _full_coefficient_doc()
        doc["profiles"][3]["name"] = "p1"
        with pytest.raises(SchemaError, match="profile names must be distinct"):
            coefficients_from_doc(doc)

    def test_marginals_name_model_covariates(self):
        cs = coefficients_from_doc(_full_coefficient_doc())
        height = {"height": Marginal("bernoulli", p=0.5)}
        message = r"marginals given for unknown covariates \['height'\]"
        with pytest.raises(SchemaError, match=message):
            CoefficientSet(cs.spec, cs.outcome, cs.mediator, covariate_marginals=height)
        with pytest.raises(SchemaError, match=message):
            cs._replace(covariate_marginals={**cs.covariate_marginals, **height})
        doc = _full_coefficient_doc()
        doc["marginals"]["covariates"]["height"] = {"kind": "bernoulli", "p": 0.5}
        with pytest.raises(SchemaError, match=message):
            coefficients_from_doc(doc)


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _covariance(draw, k: int) -> np.ndarray:
    """A k x k matrix a coefficient document accepts as a covariance: exactly
    symmetric, with a non-negative diagonal."""
    m = np.empty((k, k))
    upper = np.triu_indices(k, 1)
    values = draw(st.lists(_finite, min_size=upper[0].size, max_size=upper[0].size))
    m[upper] = values
    m[upper[::-1]] = values
    m[np.diag_indices(k)] = draw(st.lists(
        st.floats(min_value=0.0, allow_infinity=False), min_size=k, max_size=k))
    return m


def _marginals(draw) -> Marginal:
    if draw(st.booleans()):
        return Marginal("bernoulli", p=draw(st.floats(min_value=0.0, max_value=1.0)))
    low, high = sorted((draw(_finite), draw(_finite)))
    return Marginal("uniform", low=low, high=high)


@st.composite
def _coefficient_sets(draw):
    """A CoefficientSet: a marginality-respecting flag set, p and q in 0..3
    drawn from one name pool (so covariates can be shared), and optional
    covariances, contrast, profiles, marginals and description."""
    pool = ["age", "edu", "loans", "income"]
    z_names = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    v_names = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    z, v = draw(st.booleans()), draw(st.booleans())
    xz, wz = draw(st.booleans()) and z, draw(st.booleans()) and z
    xv = draw(st.booleans()) and v
    xwz = draw(st.booleans()) and xz and wz
    spec = ModelSpec(z_names=tuple(z_names), v_names=tuple(v_names),
                     z=z, xz=xz, wz=wz, xwz=xwz, v=v, xv=xv)
    ky, kw = spec.n_outcome_coefs, spec.n_mediator_coefs
    kwargs = {}
    if draw(st.booleans()):
        kwargs["outcome_vcov"] = _covariance(draw, ky)
        kwargs["mediator_vcov"] = _covariance(draw, kw)
    if draw(st.booleans()):
        kwargs["exposure_levels"] = (draw(_finite), draw(_finite))
    names = draw(st.lists(st.text(min_size=1, max_size=4), max_size=3, unique=True))
    kwargs["profiles"] = tuple(
        (name, CovariateProfile.from_named(
            spec, {n: draw(_finite) for n in spec.covariate_names()}))
        for name in names
    )
    if draw(st.booleans()):
        kwargs["exposure_marginal"] = _marginals(draw)
    kwargs["covariate_marginals"] = {
        name: _marginals(draw) for name in spec.covariate_names() if draw(st.booleans())
    }
    kwargs["description"] = draw(st.text(max_size=8))
    return CoefficientSet(
        spec,
        OutcomeParams.from_vector(spec, draw(st.lists(_finite, min_size=ky, max_size=ky))),
        MediatorParams.from_vector(spec, draw(st.lists(_finite, min_size=kw, max_size=kw))),
        **kwargs,
    )


class TestCoefficientDocProperties:
    @settings(deadline=None, max_examples=150)
    @given(coef=_coefficient_sets())
    def test_round_trip_through_json_text(self, coef):
        doc = coefficients_to_doc(coef)
        cs = coefficients_from_doc(json.loads(json.dumps(doc, indent=2)))
        assert cs.spec == coef.spec
        assert cs.outcome == coef.outcome and cs.mediator == coef.mediator
        for key in ("outcome_vcov", "mediator_vcov"):
            if getattr(coef, key) is None:
                assert getattr(cs, key) is None
            else:
                assert np.array_equal(getattr(cs, key), getattr(coef, key))
        assert cs.exposure_levels == coef.exposure_levels
        assert cs.profiles == coef.profiles
        assert cs.exposure_marginal == coef.exposure_marginal
        assert cs.covariate_marginals == coef.covariate_marginals
        assert cs.description == coef.description
        assert coefficients_to_doc(cs) == doc


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.text(),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(min_value=-(2**80), max_value=2**80),
                       st.floats(), st.booleans(), st.none())


def _json_documents():
    return st.recursive(
        _JSON_SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            st.dictionaries(_JSON_KEYS, children, max_size=5),
        ),
        max_leaves=40,
    )


def _written(doc) -> str:
    out = io.StringIO()
    write_json(doc, out)
    return out.getvalue()


class TestJsonWriter:
    """write_json gives the text of json.dumps(doc, indent=2) plus a newline."""

    @settings(deadline=None, max_examples=400)
    @given(doc=_json_documents())
    @example(doc={"a": [], "b": {}, "c": [[], {}, ()], "d": ({"e": [{}]},)})
    @example(doc={"\u00e9\u2603\U0001f600": "\x00\x1f\"\\\n\u2028", "\x7f": ["\ud800"]})
    @example(doc={1: 1, 2.5: -0.0, True: None, None: False, -(2**70): 2**64 + 1})
    @example(doc=[5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -0.0, 0.0,
                  float("nan"), float("inf"), float("-inf")])
    @example(doc={float("nan"): 1, float("inf"): [float("-inf")], float("-inf"): {}})
    @example(doc=[True, False, None, 0, -1, 2**200, "", "nan", "inf"])
    @example(doc=[{True: 0}, {1: 0}, {1.0: 0}, {"1": 0}, {"true": 0}])
    @example(doc=[{"%s": 1, "a%%": "%d"}, {"%s": 2, "a%%": "%"}, [{"%s": 3, "a%%": 4}]])
    def test_bytes_equal_json_dumps(self, doc):
        assert _written(doc) == json.dumps(doc, indent=2) + "\n"

    @settings(deadline=None, max_examples=200)
    @given(doc=st.dictionaries(_JSON_KEYS, _json_documents(), max_size=5),
           tables=st.lists(_json_documents(), max_size=5))
    @example(doc={"a": 1}, tables=[])
    @example(doc={"a": {"effects": []}, "b": [{"effects": [1]}]}, tables=[{"effects": []}])
    @example(doc={"a": '\n  "effects": []', '\n  "effects": []': None}, tables=["x"])
    @example(doc={"%s": 1, "a%%": "%d", "%": {"%s": "%"}}, tables=[{"%s": "%d"}, "%"])
    def test_tables_are_spliced_into_the_top_level_effects_list(self, doc, tables):
        def verbatim(value):  # its text at the indent of a top-level list's items
            return _Verbatim(json.dumps(value, indent=2).replace("\n", "\n    "))

        report = {**doc, "effects": tables}
        made = {**doc, "effects": [verbatim(table) for table in tables]}
        assert _written(made) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [None, True, 0, -0.0, float("nan"), "text", [], {}])
    def test_top_level_scalars_and_empty_containers(self, doc):
        assert _written(doc) == json.dumps(doc, indent=2) + "\n"

    def test_subclasses_are_spelled_as_their_base(self):
        doc = {"f": np.float64(0.1), "nan": np.float64("nan"), "names": ("a", "b")}
        assert _written(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [{"a": object()}, [np.int64(1)], {(1, 2): 0}, {1j: 0}])
    def test_unserialisable_values_and_keys_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _written(doc)

    def test_large_document_equals_json_dumps(self, tmp_path):
        rows = [{"name": f"r{i}", "values": [i * 0.1, -i / 3.0], "ok": i % 2 == 0}
                for i in range(5000)]
        doc = {"rows": rows, "matrix": [[i / 7.0] * 20 for i in range(300)]}
        writes = []

        class Handle:
            def write(self, text):
                writes.append(text)

        write_json(doc, Handle())
        text = json.dumps(doc, indent=2) + "\n"
        assert "".join(writes) == text
        save_json(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == text


class TestReadme:
    TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_coefficient_file_example_loads(self):
        section = self.TEXT.split("### Coefficient files", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        cs = coefficients_from_doc(json.loads(example))
        assert cs.spec.z_names == ("age",)
        assert cs.outcome.confounders.tolist() == [0.01]
        assert [name for name, _ in cs.profiles] == ["typical"]

    def test_block_table_matches_the_layout(self):
        rows = {}
        for line in self.TEXT.splitlines():
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            if len(cells) == 4 and cells[1] in ("outcome", "mediator"):
                rows[cells[0], cells[1]] = cells[2].replace("`", "")
        for model, blocks in (("outcome", OUTCOME_BLOCKS), ("mediator", MEDIATOR_BLOCKS)):
            scalars = ", ".join(b.attr for b in blocks if b.flag is None)
            assert rows.pop(("—", model)) == scalars
            for b in blocks:
                if b.flag is not None:
                    assert rows.pop((b.flag, model)) == b.attr
        assert not rows


class TestBundledFixture:
    def test_listing(self):
        assert "microcredit_table1" in bundled_fixture_names()

    def test_contents_match_reference_values(self):
        cs = load_coefficients("microcredit_table1")
        outcome, mediator = microcredit_params()
        assert cs.spec == microcredit_spec()
        assert cs.outcome == outcome
        assert cs.mediator == mediator
        assert cs.exposure_levels == (1.0, 0.0)
        assert not cs.has_vcov
        profiles = [prof for _, prof in cs.profiles]
        assert [p.z for p in profiles] == [p.z for p in microcredit_profiles()]
        assert set(cs.covariate_marginals) == {"age", "edu", "loans"}
        assert cs.exposure_marginal.kind == "bernoulli"
        assert cs.description

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A coefficient file that starts with a UTF-8 byte-order mark, as
        spreadsheet and Windows editors write it, loads as the plain file."""
        fixture = Path(table_io.__file__).parent / "fixtures" / "microcredit_table1.json"
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        assert load_json(marked) == load_json(fixture)
        assert load_coefficients(marked) == load_coefficients(fixture)

    def test_unknown_name_lists_fixtures(self, tmp_path):
        with pytest.raises(SchemaError, match="microcredit_table1"):
            load_coefficients("no_such_fixture")

    def test_path_takes_priority(self, tmp_path):
        doc = _full_coefficient_doc()
        path = tmp_path / "microcredit_table1"
        save_json(doc, path)
        cs = load_coefficients(path)
        assert cs.description == "round-trip check"
