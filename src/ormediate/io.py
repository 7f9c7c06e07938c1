"""File formats: comma-delimited data tables, and the coefficient documents
and JSON text of the modules this one re-exports.

Tables are UTF-8 CSV with a mandatory header row, decimal-point numerics, and
no quoting.  Floats are written with ``repr`` so a write/read cycle returns
bit-identical values.

Coefficient documents are read and written by :mod:`ormediate.coefficients`,
and JSON text by :mod:`ormediate.jsonio`; both are re-exported here as the
same objects, so ``io.load_coefficients`` is ``coefficients.load_coefficients``.
A command that reads and writes no CSV (``effects``, ``compare``) imports
those modules alone, and so loads none of the table code below.
"""

from __future__ import annotations

import csv
import itertools
import os
from collections.abc import Mapping
from contextlib import ExitStack
from io import BytesIO, TextIOWrapper
from pathlib import Path

import numpy as np

from . import _Children, _usable_cpus
from .coefficients import (
    COEFFICIENT_FORMAT,
    CoefficientSet,
    Marginal,
    bundled_fixture_names,
    coefficients_from_doc,
    coefficients_to_doc,
    load_coefficients,
    profile_values,
    spec_from_doc,
    spec_to_doc,
)
from .exceptions import SchemaError
from .jsonio import REPORT_FORMAT, decode_json, load_json, save_json, write_json
from .model import Dataset

__all__ = [
    "COEFFICIENT_FORMAT",
    "REPORT_FORMAT",
    "CoefficientSet",
    "Marginal",
    "bind_dataset",
    "bundled_fixture_names",
    "coefficients_from_doc",
    "coefficients_to_doc",
    "dataset_columns",
    "decode_json",
    "load_coefficients",
    "load_json",
    "profile_values",
    "read_table",
    "save_json",
    "spec_from_doc",
    "spec_to_doc",
    "write_json",
    "write_table",
]

# rows formatted per write, so the strings in memory stay small
_WRITE_ROWS = 8192
# fewest rows worth a process of their own: at 20,000 rows two processes
# write in 42 ms against 55 and read in the same 28 ms (2-core guest)
_MIN_RANGE_ROWS = 10_000
_BOM = b"\xef\xbb\xbf"
# bytes per read when the reader streams through a file
_READ_BYTES = 1 << 16
# bytes of the row count a reader child sends before its columns
_COUNT_BYTES = 8


# ---------------------------------------------------------------------------
# delimited tables
# ---------------------------------------------------------------------------


def read_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a UTF-8 comma-delimited file with a header row into named float columns.

    The file is streamed once to count its lines and then cut into ranges of
    whole lines, one per available CPU.  Each process reads and parses its own
    range in one `np.loadtxt` call, all but the first in a forked child that
    sends its rows column by column, so no process holds the whole file.  A
    CPU limit (`taskset`, a cgroup cpuset) gives fewer processes; a limit of
    one CPU gives one.  The columns are the rows of one C-contiguous
    (width, n) array, which each child's rows are read straight into, so the
    reading process peaks at the columns plus its own range's text and rows.
    Where any result could differ from the per-line parser's (any ValueError,
    a row count that shows a skipped blank line, or a child that failed), the
    file is read again line by line, which also words every error message.
    The columns never depend on the number of processes.
    """
    path = Path(path)
    try:
        parsed = _parse(path)
        if parsed is None:
            header, matrix = _read_rows(path)
            parsed = header, matrix.T.copy()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    header, columns = parsed
    return dict(zip(header, columns))


def _read_header(path: Path, reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, expected a header row")
    except csv.Error as exc:
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    header = [name.strip() for name in header]
    if any(not name for name in header):
        raise SchemaError(f"{path}: blank column name in header")
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    return header


def _parse(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The header and the body as a (width, n) array, or None where the
    per-line parser must decide."""
    with path.open("rb") as raw:
        marked = raw.read(len(_BOM)) == _BOM
        raw.seek(0)
        taken: list[str] = []  # the lines the header spans
        handle = TextIOWrapper(raw, encoding="utf-8-sig", newline="")
        try:
            header = _read_header(path, csv.reader(taken.append(line) or line for line in handle))
        except UnicodeDecodeError:
            return None
        finally:
            handle.detach()
        start = len("".join(taken).encode()) + len(_BOM) * marked
        size = raw.seek(0, os.SEEK_END)
        raw.seek(start)
        newlines = sum(chunk.count(b"\n") for chunk in iter(lambda: raw.read(_READ_BYTES), b""))
        first, *rest = _line_ranges(raw, start, size, _range_count(newlines))
    width = len(header)
    try:
        with ExitStack() as stack:
            children = stack.enter_context(_Children())
            received = []
            for lo, hi in rest:
                read_end, write_end = os.pipe()
                with open(write_end, "wb") as sink:
                    pid = children.fork(_send_rows, sink, path, lo, hi, width)
                received.append((pid, stack.enter_context(open(read_end, "rb"))))
            matrix = _load_body(_read_range(path, *first), width)
            if matrix is None:
                return None
            counts = [len(matrix)]
            for _, stream in received:
                count = stream.read(_COUNT_BYTES)
                if len(count) != _COUNT_BYTES:  # the child failed before its rows
                    return None
                counts.append(int.from_bytes(count, "little"))
            columns = np.empty((width, sum(counts)))
            columns[:, : counts[0]] = matrix.T
            del matrix
            lo = counts[0]
            for (pid, stream), count in zip(received, counts[1:]):
                for column in columns[:, lo : lo + count]:
                    if stream.readinto(column) != column.nbytes:
                        return None
                if not children.reap(pid):
                    return None
                lo += count
    except OSError:  # a pipe that could not be made or read
        return None
    return header, columns


def _read_range(path: Path, lo: int, hi: int) -> bytes:
    with path.open("rb") as raw:
        raw.seek(lo)
        return raw.read(hi - lo)


def _send_rows(sink, path: Path, lo: int, hi: int, width: int) -> bool:
    """A reader child's work: parse bytes lo to hi of the file, then send the
    row count and each float64 column in turn."""
    matrix = _load_body(_read_range(path, lo, hi), width)
    if matrix is None:
        return False
    sink.write(len(matrix).to_bytes(_COUNT_BYTES, "little"))
    for column in matrix.T:
        sink.write(np.ascontiguousarray(column).data)
    sink.flush()
    return True


def _load_body(chunk: bytes, width: int) -> np.ndarray | None:
    """Whole lines of a table body through np.loadtxt; None unless that gives
    one row of `width` values per line."""
    lines = chunk.count(b"\n")
    if b"\r" in chunk:  # a lone \r ends a line too
        lines += chunk.count(b"\r") - chunk.count(b"\r\n")
    lines += not chunk.endswith((b"\n", b"\r"))  # a last line with no break
    handle = TextIOWrapper(BytesIO(chunk), encoding="utf-8", newline="")
    try:
        first = next(handle, "")
        if not first.strip():
            # no rows (no numpy "no data" warning), or a blank first line
            return None
        matrix = np.loadtxt(
            itertools.chain((first,), handle), delimiter=",", comments=None, dtype=float, ndmin=2
        )
    except ValueError:  # a bad cell or a decode error
        return None
    return matrix if matrix.shape == (lines, width) else None


def _read_rows(path: Path) -> tuple[list[str], np.ndarray]:
    """The per-line parser: `float` on every cell, line-numbered errors."""
    with path.open("r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = _read_header(path, reader)
        rows = []
        try:
            for row in reader:
                if len(row) != len(header):
                    raise SchemaError(
                        f"{path}: line {reader.line_num} has {len(row)} fields, "
                        f"expected {len(header)}"
                    )
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError as exc:
                    raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
        except csv.Error as exc:
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def write_table(path: str | Path, columns: Mapping[str, np.ndarray]) -> None:
    """Write named float columns as UTF-8 CSV; `repr` floats round-trip exactly.

    A large table is cut into row ranges, one per available CPU, and each
    range is formatted by its own process: all but the first by a forked
    child, into an unlinked file beside `path` that is then appended.  A CPU
    limit (`taskset`, a cgroup cpuset) gives fewer processes; a limit of one
    CPU gives one.  The bytes never depend on the number of processes.
    """
    names = list(columns)
    if not names:
        raise SchemaError("cannot write a table with no columns")
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    lengths = {arr.shape for arr in arrays}
    if any(arr.ndim != 1 for arr in arrays) or len(lengths) != 1:
        raise SchemaError("table columns must be 1-d arrays of a single length")
    path = Path(path)
    n = len(arrays[0])
    try:
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerow(names)
            _write_ranges(handle, path.parent, arrays, _row_ranges(n, _range_count(n)))
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _write_ranges(handle, directory: Path, arrays: list[np.ndarray], ranges) -> None:
    """Write each range's rows in order.  A child formats every range but the
    first into an unlinked file in `directory`; the parent formats any range
    whose child could not start or failed."""
    import shutil
    import tempfile

    first, *rest = ranges
    with ExitStack() as stack:
        children = stack.enter_context(_Children())
        forked = []
        for lo, hi in rest:
            try:
                part = stack.enter_context(tempfile.TemporaryFile(dir=directory))
            except OSError:
                forked.append((lo, hi, None, None))
                continue
            forked.append((lo, hi, part, children.fork(_format_rows, part, arrays, lo, hi)))
        _write_rows(handle, arrays, *first)
        for lo, hi, part, pid in forked:
            if children.reap(pid):
                handle.flush()
                part.seek(0)
                shutil.copyfileobj(part, handle.buffer)
            else:
                _write_rows(handle, arrays, lo, hi)


def _format_rows(part, arrays: list[np.ndarray], lo: int, hi: int) -> bool:
    """A writer child's work: rows lo to hi into the file `part`."""
    with open(part.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        _write_rows(out, arrays, lo, hi)
    return True


def _write_rows(handle, arrays: list[np.ndarray], lo: int, hi: int) -> None:
    for start in range(lo, hi, _WRITE_ROWS):
        stop = min(start + _WRITE_ROWS, hi)
        block = [_column_strings(arr[start:stop]) for arr in arrays]
        handle.write("\n".join(map(",".join, zip(*block))))
        handle.write("\n")


def _column_strings(arr: np.ndarray) -> list[str]:
    """`repr` of each value; all {0.0, 1.0} without -0.0 takes a two-string lookup."""
    if np.all((arr == 0.0) | (arr == 1.0)) and not np.signbit(arr).any():
        return list(map(("0.0", "1.0").__getitem__, arr.astype(np.intp).tolist()))
    return list(map(repr, arr.tolist()))


def _range_count(rows: int) -> int:
    """Processes for a table of `rows` rows: one per usable CPU, with at least
    _MIN_RANGE_ROWS rows each, and one where there is no fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), rows // _MIN_RANGE_ROWS))


def _row_ranges(n: int, count: int) -> list[tuple[int, int]]:
    """Up to `count` contiguous, nonempty ranges of n rows; (0, 0) for none."""
    edges = sorted({n * i // count for i in range(count + 1)})
    return list(zip(edges, edges[1:])) or [(0, n)]


def _line_ranges(raw, start: int, size: int, count: int) -> list[tuple[int, int]]:
    """Up to `count` contiguous ranges of the bytes from `start` to `size` of
    the file `raw`, each cut just after a newline."""
    edges = [start]
    for i in range(1, count):
        raw.seek(max(edges[-1], start + (size - start) * i // count))
        raw.readline()  # to just after the next newline, or to the end
        if raw.tell() < size:
            edges.append(raw.tell())
    edges.append(size)
    return list(zip(edges, edges[1:]))


def bind_dataset(
    columns: Mapping[str, np.ndarray],
    *,
    outcome: str = "y",
    mediator: str = "w",
    exposure: str = "x",
    covariates: tuple[str, ...] = (),
) -> Dataset:
    """Assemble a Dataset from named columns, failing on any missing binding."""
    bindings = {"outcome": outcome, "mediator": mediator, "exposure": exposure}
    for role, name in bindings.items():
        if name not in columns:
            raise SchemaError(f"missing bound column {name!r} (for {role})")
    for name in covariates:
        if name not in columns:
            raise SchemaError(f"missing bound column {name!r} (covariate)")
    overlap = {outcome, mediator, exposure}
    if len(overlap) != 3 or overlap & set(covariates):
        raise SchemaError("outcome/mediator/exposure/covariate bindings must be distinct")
    return Dataset(
        y=columns[outcome],
        w=columns[mediator],
        x=columns[exposure],
        covariates={name: columns[name] for name in covariates},
    )


def dataset_columns(
    data: Dataset,
    *,
    outcome: str = "y",
    mediator: str = "w",
    exposure: str = "x",
) -> dict[str, np.ndarray]:
    """Flatten a Dataset back into named columns (inverse of bind_dataset)."""
    cols: dict[str, np.ndarray] = {outcome: data.y, mediator: data.w, exposure: data.x}
    for name, values in data.covariates.items():
        if name in cols:
            raise SchemaError(f"covariate name {name!r} collides with a bound column")
        cols[name] = values
    return cols
