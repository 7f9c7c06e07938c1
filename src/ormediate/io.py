"""File formats: comma-delimited data tables and JSON coefficient documents.

Tables are UTF-8 CSV with a mandatory header row, decimal-point numerics, and
no quoting.  Floats are written with ``repr`` so a write/read cycle returns
bit-identical values.

Coefficient documents are JSON files that carry a model layout, both fitted
coefficient vectors (grouped by block, excluded blocks omitted), and
optionally: per-model covariance matrices, a default exposure contrast, named
covariate profiles, and simulation marginals.  In memory a document is one
:class:`CoefficientSet`, which checks its own invariants when built;
``coefficients_to_doc`` writes a set and ``coefficients_from_doc`` reads one.
Fit reports embed one of these documents, so a report can be fed anywhere a
coefficient file is accepted.
JSON text is written and read by :mod:`ormediate.jsonio`, re-exported here.
A marginal is a :class:`Marginal`, defined here beside the documents that
carry it (``simulate`` re-exports it), so reading a document never loads the
simulator.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import os
from contextlib import ExitStack
from importlib import resources
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from . import _Children, _usable_cpus
from .exceptions import SchemaError
from .jsonio import REPORT_FORMAT, load_json, save_json, write_json
from .model import (
    BLOCK_FLAGS,
    CovariateProfile,
    Dataset,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
)
from .record import ValueRecord, _set

if TYPE_CHECKING:
    from .logit import FittedModel

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

COEFFICIENT_FORMAT = "ormediate-coefficients"

# rows formatted per write, so the strings in memory stay small
_WRITE_ROWS = 8192
# fewest rows worth a process of their own: at 20,000 rows two processes
# write in 42 ms against 55 and read in the same 28 ms (2-core guest)
_MIN_RANGE_ROWS = 10_000
_BOM = b"\xef\xbb\xbf"


# ---------------------------------------------------------------------------
# delimited tables
# ---------------------------------------------------------------------------


def read_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a UTF-8 comma-delimited file with a header row into named float columns.

    A large body is cut into ranges of whole lines, one per available CPU, and
    each range is parsed in one `np.loadtxt` call, all but the first in a
    forked child.  A CPU limit (`taskset`, a cgroup cpuset) gives fewer
    processes; a limit of one CPU gives one.  Where any result could differ
    from the per-line parser's (any ValueError, a row count that shows a
    skipped blank line, or a child that failed), the file is read again line
    by line, which also words every error message.  The columns never depend
    on the number of processes.
    """
    path = Path(path)
    try:
        parsed = _parse(path)
        if parsed is None:
            header, matrix = _read_rows(path)
            parsed = header, [matrix]
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    header, parts = parsed
    return {name: np.concatenate([part[:, j] for part in parts]) for j, name in enumerate(header)}


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


def _parse(path: Path) -> tuple[list[str], list[np.ndarray]] | None:
    """The header and the body's row blocks in file order, or None where the
    per-line parser must decide."""
    data = path.read_bytes()
    taken: list[str] = []  # the lines the header spans
    with TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline="") as handle:
        try:
            header = _read_header(path, csv.reader(taken.append(line) or line for line in handle))
        except UnicodeDecodeError:
            return None
    start = len("".join(taken).encode()) + len(_BOM) * data.startswith(_BOM)
    first, *rest = _line_ranges(data, start, _range_count(data.count(b"\n", start)))
    width = len(header)
    try:
        with ExitStack() as stack:
            children = stack.enter_context(_Children())
            received = []
            for lo, hi in rest:
                read_end, write_end = os.pipe()
                with open(write_end, "wb") as sink:
                    pid = children.fork(_send_rows, sink, data, lo, hi, width)
                received.append((pid, stack.enter_context(open(read_end, "rb"))))
            parts = [_load_body(data[first[0] : first[1]], width)]
            del data  # each child has its own
            if parts[0] is None:
                return None
            for pid, stream in received:
                rows = stream.read()
                if not children.reap(pid):
                    return None
                parts.append(np.frombuffer(rows).reshape(-1, width))
    except OSError:  # a pipe that could not be made or read
        return None
    return header, parts


def _send_rows(sink, data: bytes, lo: int, hi: int, width: int) -> bool:
    """A reader child's work: parse data[lo:hi] and send its float64 rows."""
    matrix = _load_body(data[lo:hi], width)
    if matrix is None:
        return False
    sink.write(matrix.data)
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


def _line_ranges(data: bytes, start: int, count: int) -> list[tuple[int, int]]:
    """Up to `count` contiguous ranges of data[start:], each cut just after a newline."""
    edges = [start]
    for i in range(1, count):
        cut = data.find(b"\n", max(edges[-1], start + (len(data) - start) * i // count)) + 1
        if 0 < cut < len(data):
            edges.append(cut)
    edges.append(len(data))
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


# ---------------------------------------------------------------------------
# model layout documents
# ---------------------------------------------------------------------------


def spec_to_doc(spec: ModelSpec) -> dict:
    return {
        "z_names": list(spec.z_names),
        "v_names": list(spec.v_names),
        "blocks": {flag: getattr(spec, flag) for flag in BLOCK_FLAGS},
    }


def spec_from_doc(doc: Mapping) -> ModelSpec:
    _require_keys(doc, {"z_names", "v_names", "blocks"}, where="model")
    blocks = doc["blocks"]
    _require_keys(blocks, set(BLOCK_FLAGS), where="model.blocks")
    for flag in BLOCK_FLAGS:
        if not isinstance(blocks[flag], bool):
            raise SchemaError(f"model.blocks.{flag}: expected true or false, got {blocks[flag]!r}")
    return ModelSpec(
        z_names=_list(doc["z_names"], where="model.z_names"),
        v_names=_list(doc["v_names"], where="model.v_names"),
        **{flag: blocks[flag] for flag in BLOCK_FLAGS},
    )


def _list(value, *, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a JSON array, got {value!r}")
    return value


def _object(value, *, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{where}: expected a JSON object")
    return value


def _string(value, *, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where}: expected a string, got {value!r}")
    return value


def _number(value, *, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: number is outside the range of a double") from None


def _require_keys(doc: Mapping, expected: set[str], *, where: str) -> None:
    _object(doc, where=where)
    missing = expected - set(doc)
    extra = set(doc) - expected
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    if extra:
        raise SchemaError(f"{where}: unknown keys {sorted(extra)}")


# ---------------------------------------------------------------------------
# coefficient documents
# ---------------------------------------------------------------------------


class Marginal(ValueRecord):
    """Sampling law for one simulated column: bernoulli(p) or uniform(low, high)."""

    __slots__ = FIELDS = ("kind", "p", "low", "high")

    def __init__(self, kind: str, p: float = 0.5, low: float = 0.0, high: float = 1.0):
        if kind == "bernoulli":
            if not 0.0 <= p <= 1.0:
                raise SchemaError(f"bernoulli probability {p!r} outside [0, 1]")
        elif kind == "uniform":
            if not (math.isfinite(low) and math.isfinite(high)) or high < low:
                raise SchemaError(f"bad uniform range [{low!r}, {high!r}]")
        else:
            raise SchemaError(f"unknown marginal kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "low", low)
        _set(self, "high", high)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "bernoulli":
            return (rng.random(n) < self.p).astype(float)
        return rng.uniform(self.low, self.high, n)


class CoefficientSet(ValueRecord):
    """Parsed contents of a coefficient document; no covariate marginals by
    default. Building one, by ``_replace`` too, checks that both parameter
    sets belong to ``spec``, that covariances come for both models or for
    neither, that each is a covariance of its model (see
    :func:`_checked_vcov`), that profile names are distinct, and that
    covariate marginals name only model covariates. It holds each covariance
    as a float array of its own."""

    __slots__ = FIELDS = ("spec", "outcome", "mediator", "outcome_vcov", "mediator_vcov",
                          "exposure_levels", "profiles", "exposure_marginal",
                          "covariate_marginals", "description")

    def __init__(
        self,
        spec: ModelSpec,
        outcome: OutcomeParams,
        mediator: MediatorParams,
        outcome_vcov: np.ndarray | None = None,
        mediator_vcov: np.ndarray | None = None,
        exposure_levels: tuple[float, float] | None = None,
        profiles: tuple[tuple[str, CovariateProfile], ...] = (),
        exposure_marginal: Marginal | None = None,
        covariate_marginals: dict[str, Marginal] | None = None,
        description: str = "",
    ):
        if outcome.spec != spec or mediator.spec != spec:
            raise SchemaError("coefficient vectors were built for a different model layout")
        if (outcome_vcov is None) != (mediator_vcov is None):
            raise SchemaError("provide covariance matrices for both models or neither")
        if outcome_vcov is not None:
            outcome_vcov = _checked_vcov(outcome_vcov, spec.n_outcome_coefs, where="vcov.outcome")
            mediator_vcov = _checked_vcov(mediator_vcov, spec.n_mediator_coefs,
                                          where="vcov.mediator")
        if len({name for name, _ in profiles}) != len(profiles):
            raise SchemaError("profile names must be distinct")
        if covariate_marginals is None:
            covariate_marginals = {}
        unknown = set(covariate_marginals) - set(spec.covariate_names())
        if unknown:
            raise SchemaError(f"marginals given for unknown covariates {sorted(unknown)}")
        _set(self, "spec", spec)
        _set(self, "outcome", outcome)
        _set(self, "mediator", mediator)
        _set(self, "outcome_vcov", outcome_vcov)
        _set(self, "mediator_vcov", mediator_vcov)
        _set(self, "exposure_levels", exposure_levels)
        _set(self, "profiles", profiles)
        _set(self, "exposure_marginal", exposure_marginal)
        _set(self, "covariate_marginals", covariate_marginals)
        _set(self, "description", description)

    @property
    def has_vcov(self) -> bool:
        return self.outcome_vcov is not None

    def fitted_models(self) -> tuple[FittedModel, FittedModel]:
        """Wrap the stored vectors as fitted models for the inference layer."""
        from .logit import FittedModel

        if not self.has_vcov:
            raise SchemaError(
                "coefficient document carries no covariance matrices; "
                "only point estimates are available"
            )
        return tuple(
            FittedModel(
                coefficients=params.active_vector(),
                vcov=vcov,
                log_likelihood=math.nan,
                iterations=0,
                converged=True,
                n=0,
                column_names=self.spec.terms(params.BLOCKS),
            )
            for params, vcov in (
                (self.outcome, self.outcome_vcov),
                (self.mediator, self.mediator_vcov),
            )
        )


def _params_to_doc(params) -> dict:
    """The included blocks, scalars first and then arrays, each in table order."""
    layout = params.spec.layout(params.BLOCKS)
    doc: dict = {b.attr: getattr(params, b.attr) for b, _ in layout if b.flag is None}
    for b, _ in layout:
        if b.flag is not None:
            doc[b.attr] = [float(v) for v in getattr(params, b.attr)]
    return doc


def _params_from_doc(cls, spec: ModelSpec, doc, *, where: str):
    _object(doc, where=where)
    layout = spec.layout(cls.BLOCKS)
    extra = set(doc) - {b.attr for b, _ in layout}
    if extra:
        raise SchemaError(f"{where}: unknown or inactive coefficient blocks {sorted(extra)}")
    missing = [b.attr for b, _ in layout if b.attr not in doc]
    if missing:
        raise SchemaError(f"{where}: missing coefficients {sorted(missing)}")
    kwargs = {}
    for b, _ in layout:
        key = f"{where}.{b.attr}"
        if b.flag is None:
            kwargs[b.attr] = _number(doc[b.attr], where=key)
        else:
            kwargs[b.attr] = tuple(_number(v, where=key) for v in _list(doc[b.attr], where=key))
    return cls(spec, **kwargs)


def _vcov_from_doc(entry, *, where: str) -> list[list[float]]:
    return [[_number(v, where=where) for v in _list(row, where=where)]
            for row in _list(entry, where=where)]


def _checked_vcov(vcov, size: int, *, where: str) -> np.ndarray:
    """``vcov`` as a float array of its own, once it is a ``size`` x ``size``
    matrix of finite entries, exactly symmetric, with no negative variance."""
    try:
        lengths = [len(row) for row in vcov]
    except TypeError:  # not a sequence of rows
        lengths = None
    if lengths != [size] * size:
        raise SchemaError(f"{where}: covariance must be {size}x{size}, got row lengths {lengths}")
    arr = np.array(vcov, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: covariance contains non-finite entries")
    # exact: fit writes (V + V^T) / 2, which is symmetric to the bit
    if not np.array_equal(arr, arr.T):
        raise SchemaError(f"{where}: covariance is not symmetric")
    if np.any(np.diag(arr) < 0.0):
        raise SchemaError(f"{where}: covariance has a negative variance on its diagonal")
    return arr


def _marginal_to_doc(marginal: Marginal) -> dict:
    if marginal.kind == "bernoulli":
        return {"kind": "bernoulli", "p": marginal.p}
    return {"kind": "uniform", "low": marginal.low, "high": marginal.high}


def _marginal_from_doc(doc, *, where: str) -> Marginal:
    if not isinstance(doc, Mapping) or "kind" not in doc:
        raise SchemaError(f"{where}: marginal needs a 'kind' field")
    kind = doc["kind"]
    if kind == "bernoulli":
        _require_keys(doc, {"kind", "p"}, where=where)
        return Marginal("bernoulli", p=_number(doc["p"], where=f"{where}.p"))
    if kind == "uniform":
        _require_keys(doc, {"kind", "low", "high"}, where=where)
        low, high = (_number(doc[key], where=f"{where}.{key}") for key in ("low", "high"))
        return Marginal("uniform", low=low, high=high)
    raise SchemaError(f"{where}: unknown marginal kind {kind!r}")


def coefficients_to_doc(coef: CoefficientSet) -> dict:
    """Serialize a coefficient set to a JSON-ready document."""
    spec = coef.spec
    doc: dict = {
        "format": COEFFICIENT_FORMAT,
        "version": 1,
        "description": coef.description,
        "model": spec_to_doc(spec),
        "outcome": _params_to_doc(coef.outcome),
        "mediator": _params_to_doc(coef.mediator),
    }
    if coef.has_vcov:
        doc["vcov"] = {"outcome": coef.outcome_vcov.tolist(),
                       "mediator": coef.mediator_vcov.tolist()}
    if coef.exposure_levels is not None:
        doc["contrast"] = {
            "x": float(coef.exposure_levels[0]),
            "x_star": float(coef.exposure_levels[1]),
        }
    if coef.profiles:
        doc["profiles"] = [
            {"name": name, "values": profile_values(spec, profile)}
            for name, profile in coef.profiles
        ]
    marginals = coef.covariate_marginals
    if coef.exposure_marginal is not None or marginals:
        entry: dict = {}
        if coef.exposure_marginal is not None:
            entry["exposure"] = _marginal_to_doc(coef.exposure_marginal)
        if marginals:
            entry["covariates"] = {
                name: _marginal_to_doc(marginals[name])
                for name in spec.covariate_names()
                if name in marginals
            }
        doc["marginals"] = entry
    return doc


def profile_values(spec: ModelSpec, profile: CovariateProfile) -> dict[str, float]:
    """Express a profile as a name->value mapping; shared names appear once."""
    profile.check_against(spec)
    values: dict[str, float] = {}
    for name, val in zip(spec.z_names, profile.z):
        values[name] = float(val)
    for name, val in zip(spec.v_names, profile.v):
        if name in values and values[name] != float(val):
            raise SchemaError(f"profile assigns two values to shared covariate {name!r}")
        values[name] = float(val)
    return values


def coefficients_from_doc(doc: Mapping) -> CoefficientSet:
    """Parse and validate a coefficient document (or the one inside a report)."""
    if not isinstance(doc, Mapping):
        raise SchemaError("coefficient document must be a JSON object")
    if doc.get("format") == REPORT_FORMAT:
        inner = doc.get("coefficients")
        if inner is None:
            raise SchemaError("report document carries no coefficient section")
        return coefficients_from_doc(inner)
    if doc.get("format") != COEFFICIENT_FORMAT:
        raise SchemaError(
            f"not a coefficient document (format={doc.get('format')!r}, "
            f"expected {COEFFICIENT_FORMAT!r})"
        )
    allowed = {
        "format",
        "version",
        "description",
        "model",
        "outcome",
        "mediator",
        "vcov",
        "contrast",
        "profiles",
        "marginals",
    }
    extra = set(doc) - allowed
    if extra:
        raise SchemaError(f"coefficient document: unknown keys {sorted(extra)}")
    version = doc.get("version", 1)
    if isinstance(version, bool) or version != 1:
        raise SchemaError(f"unsupported coefficient document version {doc.get('version')!r}")
    for key in ("model", "outcome", "mediator"):
        if key not in doc:
            raise SchemaError(f"coefficient document: missing section {key!r}")

    spec = spec_from_doc(doc["model"])
    outcome = _params_from_doc(OutcomeParams, spec, doc["outcome"], where="outcome")
    mediator = _params_from_doc(MediatorParams, spec, doc["mediator"], where="mediator")

    outcome_vcov = mediator_vcov = None
    if "vcov" in doc and doc["vcov"] is not None:
        _require_keys(doc["vcov"], {"outcome", "mediator"}, where="vcov")
        outcome_vcov = _vcov_from_doc(doc["vcov"]["outcome"], where="vcov.outcome")
        mediator_vcov = _vcov_from_doc(doc["vcov"]["mediator"], where="vcov.mediator")

    exposure_levels = None
    if "contrast" in doc and doc["contrast"] is not None:
        _require_keys(doc["contrast"], {"x", "x_star"}, where="contrast")
        exposure_levels = tuple(
            _number(doc["contrast"][key], where=f"contrast.{key}") for key in ("x", "x_star")
        )

    profiles: list[tuple[str, CovariateProfile]] = []
    for i, entry in enumerate(_list(doc.get("profiles", []), where="profiles")):
        where = f"profiles[{i}]"
        _require_keys(entry, {"name", "values"}, where=where)
        name = _string(entry["name"], where=f"{where}.name")
        values = _object(entry["values"], where=f"{where}.values")
        values = {k: _number(v, where=f"{where}.values.{k}") for k, v in values.items()}
        profiles.append((name, CovariateProfile.from_named(spec, values)))

    exposure_marginal = covariate_marginals = None
    if "marginals" in doc and doc["marginals"] is not None:
        entry = doc["marginals"]
        if not isinstance(entry, Mapping) or set(entry) - {"exposure", "covariates"}:
            raise SchemaError("marginals: expected keys 'exposure' and/or 'covariates'")
        if "exposure" in entry:
            exposure_marginal = _marginal_from_doc(entry["exposure"], where="marginals.exposure")
        covariates = _object(entry.get("covariates", {}), where="marginals.covariates")
        covariate_marginals = {
            name: _marginal_from_doc(sub, where=f"marginals.covariates[{name!r}]")
            for name, sub in covariates.items()
        }

    return CoefficientSet(
        spec=spec,
        outcome=outcome,
        mediator=mediator,
        outcome_vcov=outcome_vcov,
        mediator_vcov=mediator_vcov,
        exposure_levels=exposure_levels,
        profiles=tuple(profiles),
        exposure_marginal=exposure_marginal,
        covariate_marginals=covariate_marginals,
        description=_string(doc.get("description", ""), where="description"),
    )


# ---------------------------------------------------------------------------
# the bundled fixtures
# ---------------------------------------------------------------------------


def bundled_fixture_names() -> tuple[str, ...]:
    root = resources.files("ormediate") / "fixtures"
    return tuple(
        sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))
    )


def load_coefficients(source: str | Path | Mapping) -> CoefficientSet:
    """Load a coefficient document from a mapping, a path, or a bundled name."""
    if isinstance(source, Mapping):
        return coefficients_from_doc(source)
    path = Path(source)
    if path.exists():
        return coefficients_from_doc(load_json(path))
    name = str(source)
    if "/" not in name and not name.endswith(".json"):
        bundled = resources.files("ormediate") / "fixtures" / f"{name}.json"
        if bundled.is_file():
            return coefficients_from_doc(json.loads(bundled.read_text(encoding="utf-8-sig")))
    raise SchemaError(
        f"no coefficient file at {source!r} and no bundled fixture of that name "
        f"(bundled: {', '.join(bundled_fixture_names()) or 'none'})"
    )
