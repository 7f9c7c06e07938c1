import contextlib
import functools
import io
import json
import math
import tempfile
import tracemalloc
from collections.abc import Mapping
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
from ormediate import cli, coefficients
from ormediate import io as table_io
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
    decode_json,
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


_LONG = 3 * 8192 + 7  # rows: more than three blocks


def _long_table(tmp_path):
    rng = np.random.default_rng(31)
    cols = {
        "y": (rng.random(_LONG) < 0.4).astype(float),
        "w": (rng.random(_LONG) < 0.5).astype(float),
        "x": (rng.random(_LONG) < 0.55).astype(float),
        "age": rng.uniform(17.0, 70.0, _LONG),
        "loans": rng.normal(1.5, 0.8, _LONG),
    }
    path = tmp_path / "long.csv"
    write_table(path, cols)
    return path, cols


class TestReadMemory:
    """read_table gathers every range's rows into one (width, n) array."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_columns_are_contiguous_and_average_as_copies_do(self, tmp_path, monkeypatch,
                                                             count):
        path, cols = _long_table(tmp_path)
        _ranges(monkeypatch, count)
        back = read_table(path)
        no_child_left()
        assert list(back) == list(cols)
        for name, values in cols.items():
            assert back[name].flags.c_contiguous
            assert back[name].tobytes() == values.tobytes()
        means = [bind_dataset(columns, covariates=("age", "loans")).covariate_means()
                 for columns in (back, {name: col.copy() for name, col in back.items()})]
        assert [np.float64(v).tobytes() for v in means[0].values()] == [
            np.float64(v).tobytes() for v in means[1].values()]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_peak_is_the_columns_and_one_range(self, tmp_path, monkeypatch, count):
        """The traced peak of the reading process is at most its columns plus
        the text and the float64 rows of its own range, the first.  Counting
        lines and finding the cuts hold one read of _READ_BYTES at a time.
        Parsing holds the range's text and np.loadtxt's rows, which grow in
        steps to at most twice the rows returned; a range's rows are no more
        than the columns.  Then the text is freed, the columns are made and
        the range's rows copied in and freed, and each child's rows are read
        straight into the columns.  So both stages stay within the bound.
        Reading the whole file into one bytes object, or concatenating the
        ranges' rows, adds the file or a second copy of the columns."""
        path, cols = _long_table(tmp_path)
        body = path.read_bytes()
        start = body.index(b"\n") + 1
        with path.open("rb") as raw:
            lo, hi = table_io._line_ranges(raw, start, len(body), count)[0]
        rows = 8 * len(cols) * body.count(b"\n", lo, hi)
        _ranges(monkeypatch, count)
        read_table(path)  # any one-off allocations of the first call happen here
        tracemalloc.start()
        try:
            back = read_table(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        no_child_left()
        columns = sum(col.nbytes for col in back.values())
        assert peak <= columns + (hi - lo) + rows


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


class _Entries(Mapping):
    """A read-only mapping that is not a dict, as a library caller may pass."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def _set_age(value):
    def edit(doc):
        doc["profiles"][1]["values"]["age"] = value
    return edit


def _as_mappings(doc):
    """``doc`` with its second profile entry and that entry's values as
    mappings that are not dicts."""
    entry = doc["profiles"][1]
    doc["profiles"][1] = _Entries({**entry, "values": _Entries(entry["values"])})


# each edit of the second profile entry of a coefficient document, and the
# full text of the error a read of it raises
_PROFILE_ERRORS = {
    "a bool value": (_set_age(True), "profiles[1].values.age: expected a number, got True"),
    "a string value": (_set_age("30"),
                       "profiles[1].values.age: expected a number, got '30'"),
    "a value beyond the double range": (
        _set_age(10**400), "profiles[1].values.age: number is outside the range of a double"),
    "a NaN value": (_set_age(math.nan), "z profile value nan is not finite"),
    "a null value": (_set_age(None), "profiles[1].values.age: expected a number, got None"),
    "a list as values": (lambda doc: doc["profiles"][1].update(values=[37.0, 1.0, 0.0]),
                         "profiles[1].values: expected a JSON object"),
    "a missing key": (lambda doc: doc["profiles"][1].pop("values"),
                      "profiles[1]: missing keys ['values']"),
    "an unknown key": (lambda doc: doc["profiles"][1].update(extra=1),
                       "profiles[1]: unknown keys ['extra']"),
    "a number as name": (lambda doc: doc["profiles"][1].update(name=3),
                         "profiles[1].name: expected a string, got 3"),
    "a list as entry": (lambda doc: doc["profiles"].__setitem__(1, [1]),
                        "profiles[1]: expected a JSON object"),
    "a bool value in mappings that are not dicts": (
        lambda doc: (_set_age(True)(doc), _as_mappings(doc)),
        "profiles[1].values.age: expected a number, got True"),
    "an unknown key in a mapping that is not a dict": (
        lambda doc: (doc["profiles"][1].update(extra=1), _as_mappings(doc)),
        "profiles[1]: unknown keys ['extra']"),
}


class TestProfileEntryErrors:
    """The full words of each error a profile entry of a coefficient
    document can raise, through load_coefficients of a dict and of a
    mapping that is not a dict."""

    @pytest.mark.parametrize("case", list(_PROFILE_ERRORS))
    @pytest.mark.parametrize("wrap", [dict, _Entries], ids=["dict", "mapping"])
    def test_the_error_is_worded_as_pinned(self, case, wrap):
        edit, message = _PROFILE_ERRORS[case]
        doc = _full_coefficient_doc()
        edit(doc)
        with pytest.raises(SchemaError) as info:
            load_coefficients(wrap(doc))
        assert str(info.value) == message

    def test_mappings_that_are_not_dicts_load_as_dicts(self):
        doc = _full_coefficient_doc()
        _as_mappings(doc)
        assert coefficients_to_doc(load_coefficients(_Entries(doc))) == _full_coefficient_doc()


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


# names with what a template or a splice could trip on: %, quotes,
# backslashes, non-ASCII, line breaks and the lines write_json splices at
_NAMES = st.one_of(
    st.sampled_from(['\n    "profiles": []', '\n  "effects": []', "%s", "%%", '"', "\\",
                     "é", "☃", "\U0001f600"]),
    st.text(alphabet='a%"\\é☃\n []:', min_size=1, max_size=6),
)


def _profiled(z_names, v_names, profiles) -> CoefficientSet:
    """A coefficient set on covariates ``z_names`` and ``v_names``, where a
    name in both is shared, with ``profiles``: (name, values) pairs whose
    values follow ``spec.covariate_names()``."""
    spec = ModelSpec(z_names=z_names, v_names=v_names)
    names = spec.covariate_names()
    return CoefficientSet(spec, OutcomeParams(spec), MediatorParams(spec), profiles=tuple(
        (name, CovariateProfile.from_named(spec, dict(zip(names, values))))
        for name, values in profiles))


@st.composite
def _profiled_sets(draw):
    z = draw(st.lists(_NAMES, max_size=3, unique=True))
    shared = st.sampled_from(z) | _NAMES if z else _NAMES
    v = draw(st.lists(shared, max_size=3, unique=True))
    k = len(ModelSpec(z_names=z, v_names=v).covariate_names())
    count = draw(st.sampled_from([0, 1, 2, 12]))
    names = draw(st.lists(st.text(max_size=3) | _NAMES, min_size=count, max_size=count,
                          unique=True))
    values = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * k)
    return _profiled(tuple(z), tuple(v), [(name, draw(values)) for name in names])


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
        def texts():  # each table's text at the indent of a top-level list's items
            for table in tables:
                yield json.dumps(table, indent=2).replace("\n", "\n    ")

        report = {**doc, "effects": tables}
        out = io.StringIO()
        write_json({**doc, "effects": []}, out, texts())
        assert out.getvalue() == json.dumps(report, indent=2) + "\n"

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(coef=_profiled_sets(), tables=st.lists(st.dictionaries(_NAMES, _NAMES, max_size=2),
                                                  max_size=2))
    @example(coef=_profiled(("a%s",), ("a%s",), ()), tables=[])
    @example(coef=_profiled(("a%s", 'q"\\'), ("a%s",), [("p", (1.5, -0.0))]), tables=[{"t": "%"}])
    @example(coef=_profiled(('\n    "profiles": []', "é☃"), ("b",),
                            [(f"p{i}%s", (i / 7, -i, 1e300 * i)) for i in range(40)]),
             tables=[{}, {"a": '\n  "effects": []'}])
    def test_profiles_are_spliced_into_the_coefficient_section(self, coef, tables):
        """The entries of a coefficient section's profiles list, each its
        cli._profile_json text, spliced by write_json beside a report's
        tables: json.dumps of the report with both lists in it."""
        section = coefficients_to_doc(coef)
        entries = section.get("profiles", [])
        report = {"format": REPORT_FORMAT, "coefficients": section, "effects": tables}
        expected = json.dumps({**report, "coefficients": {**section, "profiles": entries}},
                              indent=2)
        section["profiles"] = []
        out = io.StringIO()
        write_json({**report, "effects": []}, out,
                   (json.dumps(table, indent=2).replace("\n", "\n    ") for table in tables),
                   cli._profile_json(entries))
        assert out.getvalue() == expected + "\n"

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


@functools.cache
def _report_text(n: int) -> str:
    """The text of an `effects` report with vcov on the microcredit model, over
    n profiles: n effect tables after the coefficient section."""
    outcome, mediator = microcredit_params()
    coef = CoefficientSet(
        microcredit_spec(), outcome, mediator,
        outcome_vcov=0.01 * np.eye(7), mediator_vcov=0.02 * np.eye(2),
        exposure_levels=(1.0, 0.0),
        profiles=tuple((f"p{i}", CovariateProfile(z=(17.0 + i / 8, float(i % 2), i / 500)))
                       for i in range(n)),
    )
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "coef.json", Path(tmp) / "report.json"
        save_json(coefficients_to_doc(coef), source)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["effects", "--coef-file", str(source), "--output", str(out)]) == 0
        return out.read_text(encoding="utf-8")


def _whole_read(path):
    """What a coefficient read of the file gives when json.load decodes all of
    it: the document of the CoefficientSet, or the text of its SchemaError."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:
        return f"{path}: invalid JSON ({exc})"
    try:
        return coefficients_to_doc(coefficients_from_doc(doc))
    except SchemaError as exc:
        return str(exc)


def _member_read(path):
    """What load_coefficients gives, as _whole_read words it."""
    try:
        return coefficients_to_doc(load_coefficients(path))
    except SchemaError as exc:
        return str(exc)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _between(text, start, stop):
    """The edit of ``text`` that puts ``stop`` in place of its first ``start``."""
    assert start in text
    return text.replace(start, stop, 1)


# a report's text, edited: each is invalid JSON, or a document no coefficient
# read accepts, but for the one edit in _LOADABLE_EDITS
_EDITED_REPORTS = {
    "truncated inside effects": lambda t: t[:t.index('"effects": [') + 300],
    "truncated inside coefficients": lambda t: t[:t.index('"coefficients": {') + 300],
    "trailing comma in an unread object": lambda t: _between(t, '"mode": "inference"',
                                                            '"mode": "inference",'),
    "trailing comma in an unread list": lambda t: _between(t, '\n  ],\n  "diagnostics"',
                                                          ',\n  ],\n  "diagnostics"'),
    "stray byte in an unread member": lambda t: _between(t, '"effects": [', '"effects": [@'),
    "stray byte in a read member": lambda t: _between(t, '"z_names": [', '"z_names": [@'),
    "trailing data": lambda t: t + "x",
    "a second document": lambda t: t + "{}",
    "5000-digit integer in an unread member": lambda t: _between(
        t, '"level": 0.95', '"level": ' + "7" * 5000),
    "5000-digit integer in a read member": lambda t: _between(
        t, '"version": 1', '"version": ' + "1" * 5000),
    "200,000-deep nesting in an unread member": lambda t: _between(
        t, '"command": "effects"', '"command": ' + "[" * 200_000 + "]" * 200_000),
    "200,000-deep nesting in a read member": lambda t: _between(
        t, '"description": ""', '"description": ' + "[" * 200_000 + "]" * 200_000),
    "a top level that is a list": lambda t: "[" + t + "]",
    "a top level that is a string": lambda t: '"ormediate-report"',
    "an empty file": lambda t: "",
    "an unquoted key": lambda t: _between(t, '"command"', "command"),
    "a lone surrogate escape in an unread key": lambda t: _between(t, '"command"', '"\\udc00"'),
    "an unread member that is not a coefficient key": lambda t: t.replace(
        '"format": "ormediate-report"', '"format": "ormediate-coefficients"', 1),
    "a report without its coefficient section": lambda t: _between(
        t, '"coefficients": {', '"coefficients_": {'),
}
_LOADABLE_EDITS = {"a lone surrogate escape in an unread key"}


class TestMemberReader:
    """load_coefficients decodes only the members a coefficient read uses, and
    reads every file as json.load of the whole file does: the same
    CoefficientSet, or a SchemaError in the same words."""

    @pytest.mark.parametrize("n", [1, 300])
    def test_a_report_loads_as_its_whole_decode(self, tmp_path, n):
        path = tmp_path / "report.json"
        path.write_text(_report_text(n), encoding="utf-8")
        doc = _member_read(path)
        assert doc == _whole_read(path)
        assert len(doc["profiles"]) == n and "vcov" in doc
        members = decode_json(_report_text(n), "report", coefficients._READ_KEYS)
        assert members["format"] == REPORT_FORMAT and members["effects"] is None
        assert list(members) == list(json.loads(_report_text(n)))

    @pytest.mark.parametrize("case", list(_EDITED_REPORTS))
    def test_a_malformed_file_gives_the_whole_decode_error(self, tmp_path, case):
        path = tmp_path / "report.json"
        path.write_text(_EDITED_REPORTS[case](_report_text(2)), encoding="utf-8")
        expected = _whole_read(path)
        assert isinstance(expected, str) == (case not in _LOADABLE_EDITS)
        assert _member_read(path) == expected

    @pytest.mark.parametrize("marks", [1, 2])
    def test_byte_order_marks(self, tmp_path, marks):
        # utf-8-sig drops one mark; json refuses a second one
        path = tmp_path / "report.json"
        path.write_bytes(b"\xef\xbb\xbf" * marks + _report_text(2).encode("utf-8"))
        expected = _whole_read(path)
        assert _member_read(path) == expected
        assert isinstance(expected, str) == (marks == 2)

    def test_duplicate_top_level_keys_keep_the_last_value(self, tmp_path):
        text = _report_text(2)
        path = tmp_path / "report.json"
        path.write_text('{\n  "coefficients": 1,\n  "format": 2,' + text[1:], encoding="utf-8")
        assert _member_read(path) == _whole_read(path) == _member_read(
            _write(tmp_path / "plain.json", text))
        path.write_text(text.rstrip()[:-1] + ',\n  "format": "ormediate-report-2"\n}\n',
                        encoding="utf-8")
        assert _member_read(path) == _whole_read(path)
        assert "format='ormediate-report-2'" in _member_read(path)

    def test_an_unknown_key_of_a_coefficient_document_is_named(self, tmp_path):
        doc = _full_coefficient_doc()
        doc["surprise"] = {"nested": [1, {"deeper": None}]}
        path = tmp_path / "coef.json"
        save_json(doc, path)
        assert _member_read(path) == _whole_read(path) == (
            "coefficient document: unknown keys ['surprise']")

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(data=st.data())
    def test_any_edit_decodes_as_json_loads(self, data):
        """An edit of up to three characters anywhere in a report: the member
        decode gives json.loads's keys, with the same value at each key it
        reads and None at every other, or json.loads's error in its words."""
        text = _report_text(2)
        start = data.draw(st.integers(0, len(text)))
        stop = data.draw(st.integers(start, min(len(text), start + 3)))
        insert = data.draw(st.text(alphabet='{}[]",:0123456789.eE-+ \nx\\', max_size=3))
        text = text[:start] + insert + text[stop:]
        keys = coefficients._READ_KEYS
        try:
            whole = json.loads(text)
        except (ValueError, RecursionError) as exc:
            with pytest.raises(SchemaError) as info:
                decode_json(text, "doc", keys)
            assert str(info.value) == f"doc: invalid JSON ({exc})"
            return
        got = decode_json(text, "doc", keys)
        if not isinstance(whole, dict):
            assert got == whole
            return
        assert list(got) == list(whole)
        for key, value in got.items():
            assert value == whole[key] if key in keys else value is None

    def test_the_peak_is_the_text_twice_and_the_coefficient_section(self, tmp_path):
        """The traced peak of load_coefficients on a report of 1000 tables is
        at most twice its text plus the objects of its coefficient section,
        and 256 KB. Reading holds the file's bytes and the str they decode to,
        one text each (the report is ASCII). The member decode then holds the
        str and the decoded members: the format, the version and the
        coefficient section. A member it does not read leaves a list of one
        None per table (8 bytes, against some 2 KB of text each) and the
        objects of the one table being scanned. Once the str is freed, the
        CoefficientSet, smaller than the section, is built beside it. The
        256 KB hold those lists and the one-off objects of the decoders.
        json.load of the whole report holds its effect tables too, about
        twice their text, which is most of the report."""
        text = _report_text(1000)
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        section = json.dumps(json.loads(text)["coefficients"])
        load_coefficients(path)  # any one-off allocations of the first call happen here
        tracemalloc.start()
        try:
            held = json.loads(section)
            section_bytes = tracemalloc.get_traced_memory()[0]
            del held
            tracemalloc.reset_peak()
            load_coefficients(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text) + section_bytes + 256 * 1024

