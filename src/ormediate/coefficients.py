"""Coefficient documents: the JSON form of a :class:`CoefficientSet`.

A coefficient document carries a model layout, both fitted coefficient
vectors (grouped by block, excluded blocks omitted), and optionally:
per-model covariance matrices, a default exposure contrast, named covariate
profiles, and simulation marginals.  In memory a document is one
:class:`CoefficientSet`, which checks its own invariants when built;
``coefficients_to_doc`` writes a set and ``coefficients_from_doc`` reads one.
Fit reports embed one of these documents, so a report can be fed anywhere a
coefficient file is accepted.  A marginal is a :class:`Marginal`, defined
here beside the documents that carry it (``simulate`` re-exports it), so
reading a document never loads the simulator.

The reader's checks are plain ``isinstance`` tests: against
``collections.abc.Mapping`` for an object, and against ``float`` before
``numbers.Real`` for a number.  Where an error names a profile entry's
member, the name is a ``str.format`` template and its arguments, filled
only when the check raises, so the entries, thousands in a long report,
build no names.

This module is apart from :mod:`ormediate.io`, which re-exports it, so a
command that reads a coefficient file and writes a report (``effects``,
``compare``) loads no CSV code.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from importlib import resources
from pathlib import Path

import numpy as np

from .exceptions import SchemaError
from .jsonio import REPORT_FORMAT, decode_json, load_json
from .model import (
    BLOCK_FLAGS,
    CovariateProfile,
    MediatorParams,
    ModelSpec,
    OutcomeParams,
)
from .record import ValueRecord, _set

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .logit import FittedModel

__all__ = [
    "COEFFICIENT_FORMAT",
    "CoefficientSet",
    "Marginal",
    "bundled_fixture_names",
    "coefficients_from_doc",
    "coefficients_to_doc",
    "load_coefficients",
    "profile_values",
    "spec_from_doc",
    "spec_to_doc",
]

COEFFICIENT_FORMAT = "ormediate-coefficients"
# the top-level keys of a coefficient document
_DOCUMENT_KEYS = frozenset({"format", "version", "description", "model", "outcome", "mediator",
                            "vcov", "contrast", "profiles", "marginals"})
# the top-level members coefficients_from_doc reads, of a document or of a
# report (its format and coefficient section); a read decodes only these
_READ_KEYS = _DOCUMENT_KEYS | {"coefficients"}
# the keys of a model layout, of its blocks, and of a profile entry
_SPEC_KEYS = frozenset({"z_names", "v_names", "blocks"})
_BLOCK_KEYS = frozenset(BLOCK_FLAGS)
_PROFILE_KEYS = frozenset({"name", "values"})

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
    _require_keys(doc, _SPEC_KEYS, "model")
    blocks = doc["blocks"]
    _require_keys(blocks, _BLOCK_KEYS, "model.blocks")
    for flag in BLOCK_FLAGS:
        if not isinstance(blocks[flag], bool):
            raise SchemaError(f"model.blocks.{flag}: expected true or false, got {blocks[flag]!r}")
    return ModelSpec(
        z_names=_list(doc["z_names"], "model.z_names"),
        v_names=_list(doc["v_names"], "model.v_names"),
        **{flag: blocks[flag] for flag in BLOCK_FLAGS},
    )


def _named(where: str, args: tuple) -> str:
    """The member an error names: the template ``where`` filled with
    ``args``, or ``where`` itself when there are none."""
    return where.format(*args) if args else where


def _list(value, where: str, *args) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{_named(where, args)}: expected a JSON array, got {value!r}")
    return value


def _object(value, where: str, *args) -> Mapping:
    if not isinstance(value, Mapping):
        raise SchemaError(f"{_named(where, args)}: expected a JSON object")
    return value


def _string(value, where: str, *args) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{_named(where, args)}: expected a string, got {value!r}")
    return value


def _number(value, where: str, *args) -> float:
    if type(value) is float:  # what json decodes every fraction and exponent to
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SchemaError(f"{_named(where, args)}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(
            f"{_named(where, args)}: number is outside the range of a double") from None


def _require_keys(doc: Mapping, expected: set[str] | frozenset[str], where: str, *args) -> None:
    _object(doc, where, *args)
    if doc.keys() != expected:
        keys = set(doc)
        if expected - keys:
            raise SchemaError(f"{_named(where, args)}: missing keys {sorted(expected - keys)}")
        raise SchemaError(f"{_named(where, args)}: unknown keys {sorted(keys - expected)}")


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
            uniforms = rng.random(n)
            return np.less(uniforms, self.p, out=uniforms)  # 1.0 below p, else 0.0
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
    _object(doc, where)
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
            kwargs[b.attr] = _number(doc[b.attr], key)
        else:
            kwargs[b.attr] = tuple(_number(v, key) for v in _list(doc[b.attr], key))
    return cls(spec, **kwargs)


def _vcov_from_doc(entry, *, where: str) -> list[list[float]]:
    return [[_number(v, where) for v in _list(row, where)]
            for row in _list(entry, where)]


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
        _require_keys(doc, {"kind", "p"}, where)
        return Marginal("bernoulli", p=_number(doc["p"], f"{where}.p"))
    if kind == "uniform":
        _require_keys(doc, {"kind", "low", "high"}, where)
        low, high = (_number(doc[key], f"{where}.{key}") for key in ("low", "high"))
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
    extra = set(doc) - _DOCUMENT_KEYS
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
        _require_keys(doc["vcov"], {"outcome", "mediator"}, "vcov")
        outcome_vcov = _vcov_from_doc(doc["vcov"]["outcome"], where="vcov.outcome")
        mediator_vcov = _vcov_from_doc(doc["vcov"]["mediator"], where="vcov.mediator")

    exposure_levels = None
    if "contrast" in doc and doc["contrast"] is not None:
        _require_keys(doc["contrast"], {"x", "x_star"}, "contrast")
        exposure_levels = tuple(
            _number(doc["contrast"][key], f"contrast.{key}") for key in ("x", "x_star")
        )

    profiles: list[tuple[str, CovariateProfile]] = []
    for i, entry in enumerate(_list(doc.get("profiles", []), "profiles")):
        _require_keys(entry, _PROFILE_KEYS, "profiles[{}]", i)
        name = _string(entry["name"], "profiles[{}].name", i)
        values = _object(entry["values"], "profiles[{}].values", i)
        values = {k: _number(v, "profiles[{}].values.{}", i, k) for k, v in values.items()}
        profiles.append((name, CovariateProfile.from_named(spec, values)))

    exposure_marginal = covariate_marginals = None
    if "marginals" in doc and doc["marginals"] is not None:
        entry = doc["marginals"]
        if not isinstance(entry, Mapping) or set(entry) - {"exposure", "covariates"}:
            raise SchemaError("marginals: expected keys 'exposure' and/or 'covariates'")
        if "exposure" in entry:
            exposure_marginal = _marginal_from_doc(entry["exposure"], where="marginals.exposure")
        covariates = _object(entry.get("covariates", {}), "marginals.covariates")
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
        description=_string(doc.get("description", ""), "description"),
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
    """Load a coefficient document from a mapping, a path, or a bundled name.
    A file or a bundled fixture is decoded only in the members that
    :func:`coefficients_from_doc` reads (``jsonio.decode_json``): a fit
    report's ``format`` and ``coefficients``, not its effect tables. Every
    other member is still checked as ``json.loads`` checks it, so a file is
    refused, and its error worded, as when the whole of it is decoded."""
    if isinstance(source, Mapping):
        return coefficients_from_doc(source)
    path = Path(source)
    if path.exists():
        return coefficients_from_doc(load_json(path, _READ_KEYS))
    name = str(source)
    if "/" not in name and not name.endswith(".json"):
        bundled = resources.files("ormediate") / "fixtures" / f"{name}.json"
        if bundled.is_file():
            text = bundled.read_text(encoding="utf-8-sig")
            return coefficients_from_doc(decode_json(text, name, _READ_KEYS))
    raise SchemaError(
        f"no coefficient file at {source!r} and no bundled fixture of that name "
        f"(bundled: {', '.join(bundled_fixture_names()) or 'none'})"
    )
