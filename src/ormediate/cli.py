"""Command-line surface.

Subcommands:

* ``fit`` — read a CSV dataset, fit both logistic models, and report
  per-profile effect estimates with delta-method inference.
* ``effects`` — compute effects straight from a coefficient file (or from a
  previous fit report); inference when the file carries covariance matrices,
  point estimates otherwise.
* ``simulate`` — draw a synthetic dataset from a coefficient file's models
  and marginals, deterministically from ``--seed``.
* ``compare`` — sweep the outcome intercept over a grid and tabulate the
  exact effects against their rare-outcome approximations.
* ``verify`` — run the randomized self-verification suites.

A fit report is the effects report of the coefficient set it fitted, plus a
``models`` section: one function builds the ``coefficients``, ``effects`` and
``diagnostics`` sections of both, so ``effects`` on a fit report reproduces
its tables.

Exit codes: 0 success, 2 schema/usage, 3 fit failure, 4 numerical
degeneracy, 5 verification failure.  Errors print a single
``ERROR <code>: message`` line on stderr.  Output contains no timestamps or
environment detail, so identical invocations produce identical bytes.

Importing this module loads only ``argparse`` and the exception classes, so
``--help``, ``--version`` and usage errors load no numeric code.  Each
``_cmd_*`` handler imports the modules it runs once the arguments are parsed.
Besides ``model``, ``_products`` (every BLAS and LAPACK call), ``record``
and ``jsonio`` (the report writer), they are:

* ``fit``: ``io`` (the CSV tables), ``coefficients``, ``logit``, ``effects``
  and ``delta``
* ``effects``: ``coefficients`` (the coefficient documents) and ``effects``,
  and ``delta`` when the file carries covariances; no fitting or CSV code
  (``logit``, ``io``, ``csv``)
* ``compare``: ``coefficients`` and ``effects``
* ``simulate``: ``io``, ``coefficients`` and ``simulate``
* ``verify``: ``verify``, ``oracle``, ``effects`` and ``delta``, and no CSV,
  coefficient-document or fitting code (``io``, ``coefficients``, ``logit``)

The records these modules define are plain classes (``record.Record``), so
importing a module generates and compiles no code, and no command loads
``dataclasses``.

The effect tables of a report are made in one process, in slices of at
most _INFER_BATCH profiles, straight from the resolved coefficient set: each
slice's delta-method numbers come from one stack of its parameter sets and
covariances (``delta._table_rows``) and are held as one float64 array. Each
table's JSON and text come from the report's one JSON and one text template,
since every profile names the same covariates; see ``_effect_tables``. The
JSON template is ``json.dumps`` of a table whose numbers are placeholders
(``_table_templates``). The entries of the coefficient section's
``profiles`` list are made the same way, from one template per report
(``_profile_json``). The report itself is plain JSON data whose ``effects``
list and ``profiles`` list are empty; the tables and the entries travel
beside it, and ``jsonio.write_json`` writes each text into its list, so
every report is ``json.dumps(report, indent=2)`` plus a newline. The numbers of
every table are made before any output; then stdout and the report are
written table by table, each table's text formatted as it is written, so
one table's text is held at a time.

Once the arguments are parsed, and only if numpy is not loaded yet, `main`
sets ``OPENBLAS_NUM_THREADS=1`` whatever the caller set, so a command loads
OpenBLAS with one thread.  By default OpenBLAS starts one worker thread per
core, and those workers spin for CPU time that the design-sized products here
never repay; one thread gives the same bytes.  A caller that loaded numpy first
(a library user, a test calling `main`) keeps its own setting and environment.

The scripts (``python -m ormediate``, ``python -m ormediate.cli`` and the
``ormediate`` console script) start the CLI through `run`, not `main`. It
calls `main`, runs the exit handlers (``atexit``, which coverage and site
hooks use), flushes stdout and stderr, and leaves by ``os._exit`` with main's
code. That skips the interpreter's teardown: clearing every module and the
final garbage collections, which took 12-16 ms a command once numpy is loaded
(Python 3.11, numpy 2.4, on a 2-vCPU guest). A failed write to stdout,
whether in `main` or at that flush, is one ``ERROR 2`` line, as a failed
``--output`` write is; so is one of ``--help`` or ``--version`` text, which
argparse would drop. `main` itself still returns, so tests, in-process
callers and benchmarks keep a normal interpreter; a usage error's
``SystemExit`` and any uncaught exception leave `run` through the normal
exit too.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .exceptions import FitError, MediationError, NumericalError, SchemaError

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator
    from typing import NoReturn

    from .coefficients import CoefficientSet
    from .model import CovariateProfile, ModelSpec

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_FIT = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

_DEFAULT_GRID = "-2,-4,-6,-8,-10,-12,-14"
# contrasts per slice of a report (one delta-method stack), so only one slice
# of numbers lives at a time; each stack costs about 1 ms whatever its size,
# and from 128 to 1000 contrasts per stack the cost per contrast is flat
_INFER_BATCH = 256


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of ``--help`` or
    ``--version`` text to stdout raises the ``SchemaError`` of any failed
    stdout write, where argparse would drop it. Its subcommand parsers are
    of this class too."""

    def _print_message(self, message, file=None):
        if not message or file is not sys.stdout:
            return super()._print_message(message, file)
        try:
            file.write(message)
        except OSError as exc:
            raise _stdout_error(exc) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ormediate",
        description=(
            "Exact causal mediation effects on the odds-ratio scale for a "
            "binary outcome and binary mediator, both fit by logistic "
            "regression."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_output(p):
        p.add_argument("--output", default=None, help="write the JSON report here")

    def add_contrast(p):
        p.add_argument("--x", type=float, default=None,
                       help="active exposure level (default: coefficient file, else 1)")
        p.add_argument("--x-star", dest="x_star", type=float, default=None,
                       help="reference exposure level (default: coefficient file, else 0)")

    def add_profiles(p, count="repeatable"):
        p.add_argument("--profile", action="append", default=[], metavar="NAME=VALUE,...",
                       help=f"covariate profile as comma-separated name=value pairs ({count})")

    def add_level(p):
        p.add_argument("--level", type=float, default=0.95,
                       help="confidence level (default 0.95)")

    p = sub.add_parser("fit", help="fit both models from a CSV dataset and report effects")
    p.add_argument("--input", required=True, help="CSV dataset with a header row")
    p.add_argument("--outcome", default="y", help="outcome column (default y)")
    p.add_argument("--mediator", default="w", help="mediator column (default w)")
    p.add_argument("--exposure", default="x", help="exposure column (default x)")
    p.add_argument("--z", default="", metavar="NAMES",
                   help="comma-separated outcome-model covariate columns")
    p.add_argument("--v", default="", metavar="NAMES",
                   help="comma-separated mediator-model covariate columns")
    p.add_argument("--interactions", default="", metavar="BLOCKS",
                   help="comma-separated interaction blocks to include out of "
                        "xz, wz, xwz, xv (xwz implies xz and wz)")
    add_contrast(p)
    add_profiles(p)
    add_level(p)
    add_output(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("effects", help="compute effects from a coefficient file")
    p.add_argument("--coef-file", required=True, dest="coef_file",
                   help="coefficient JSON file, fit report, or bundled fixture name")
    add_contrast(p)
    add_profiles(p)
    add_level(p)
    add_output(p)
    p.set_defaults(handler=_cmd_effects)

    p = sub.add_parser("simulate", help="draw a synthetic dataset from a coefficient file")
    p.add_argument("--coef-file", required=True, dest="coef_file")
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--output", required=True, help="CSV path to write")
    p.add_argument("--outcome", default="y", help="outcome column name (default y)")
    p.add_argument("--mediator", default="w", help="mediator column name (default w)")
    p.add_argument("--exposure", default="x", help="exposure column name (default x)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("compare", help="exact vs rare-outcome approximation over an intercept grid")
    p.add_argument("--coef-file", required=True, dest="coef_file")
    p.add_argument("--grid", default=_DEFAULT_GRID, metavar="B0,B0,...",
                   help=f"outcome intercepts to sweep (default {_DEFAULT_GRID})")
    add_contrast(p)
    add_profiles(p, "at most one; default: the file's first profile")
    add_output(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("verify", help="run the randomized self-verification suites")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--count", type=int, default=1000,
                   help="draws per suite (default 1000)")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="fault-injection offset; nonzero values must fail")
    add_output(p)
    p.set_defaults(handler=_cmd_verify)

    return parser


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _parse_interactions(text: str) -> dict[str, bool]:
    """Whether each interaction block (a switched block with an x or w
    factor) is included; xwz implies xz and wz."""
    from .model import MEDIATOR_BLOCKS, OUTCOME_BLOCKS

    choices = [b.flag for b in OUTCOME_BLOCKS + MEDIATOR_BLOCKS if b.flag and (b.x or b.w)]
    tokens = set(_parse_names(text))
    unknown = tokens - set(choices)
    if unknown:
        raise SchemaError(
            f"unknown interaction blocks {sorted(unknown)}; "
            f"choose from {', '.join(choices)}"
        )
    if "xwz" in tokens:
        tokens |= {"xz", "wz"}
    return {flag: flag in tokens for flag in choices}


def _parse_profiles(spec: ModelSpec, texts) -> list[tuple[str, CovariateProfile]]:
    from .model import CovariateProfile

    out = []
    for i, text in enumerate(texts, start=1):
        mapping: dict[str, float] = {}
        for item in _parse_names(text):
            if "=" not in item:
                raise SchemaError(
                    f"profile entries must be name=value pairs, got {item!r}"
                )
            key, _, raw = item.partition("=")
            key = key.strip()
            if key in mapping:
                raise SchemaError(f"profile sets {key!r} twice")
            try:
                mapping[key] = float(raw)
            except ValueError:
                raise SchemaError(f"profile value for {key!r} is not a number: {raw!r}")
        out.append((f"profile{i}", CovariateProfile.from_named(spec, mapping)))
    return out


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(token) for token in _parse_names(text)]
    except ValueError as exc:
        raise SchemaError(f"--grid must be comma-separated numbers: {exc}")
    if not grid:
        raise SchemaError("--grid is empty")
    for beta0 in grid:
        if not math.isfinite(beta0):
            raise SchemaError(f"--grid intercept {beta0!r} is not finite")
    return grid


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise SchemaError(f"--seed must be non-negative, got {seed}")


def _check_level(level: float) -> None:
    """The range check of ``delta._wald_quantile``, made before any work. A
    level so near 1 that 1/2 + level/2 rounds to 1 is refused too: its Wald
    quantile is infinite, and so is every interval bound it would report."""
    if not 0.0 < level < 1.0:
        raise SchemaError(f"confidence level must be in (0, 1), got {level!r}")
    if 0.5 + level / 2.0 == 1.0:
        raise SchemaError(
            f"confidence level {level!r} is too close to 1: its Wald quantile is infinite"
        )


def _resolve_levels(args, stored: tuple[float, float] | None) -> tuple[float, float]:
    """(x, x*) from the flags, else the stored levels, else (1, 0); a
    non-finite level, then a degenerate contrast, raises."""
    stored = stored or (1.0, 0.0)
    x = stored[0] if args.x is None else args.x
    x_star = stored[1] if args.x_star is None else args.x_star
    if not (math.isfinite(x) and math.isfinite(x_star)):
        raise SchemaError(f"contrast levels must be finite, got x={x!r}, x*={x_star!r}")
    if x == x_star:
        raise NumericalError(
            f"degenerate contrast: x and x* are both {x!r}, every effect is "
            "identically 1"
        )
    return x, x_star


def _resolve_profiles(args, coef: CoefficientSet) -> list[tuple[str, CovariateProfile]]:
    if args.profile:
        return _parse_profiles(coef.spec, args.profile)
    if coef.profiles:
        return list(coef.profiles)
    if not coef.spec.covariate_names():
        from .model import CovariateProfile

        return [("baseline", CovariateProfile())]
    raise SchemaError(
        "the model has covariates but no profiles are available; pass --profile "
        "or use a coefficient file that bundles profiles"
    )


def _load_resolved(args) -> CoefficientSet:
    """The --coef-file set with its exposure levels and profiles resolved."""
    from .coefficients import load_coefficients

    coef = load_coefficients(args.coef_file)
    levels = _resolve_levels(args, coef.exposure_levels)
    return coef._replace(exposure_levels=levels, profiles=tuple(_resolve_profiles(args, coef)))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _model_doc(model, level: float) -> dict:
    from .delta import wald_table

    return {
        "n": model.n,
        "log_likelihood": model.log_likelihood,
        "iterations": model.iterations,
        "converged": model.converged,
        "terms": wald_table(model, level),
    }


# the numbers of each effect in a report table, in the order of delta._effect_rows
_INFERENCE_FIELDS = ("log", "odds_ratio", "se_log", "se_or", "ci_lower", "ci_upper", "p_value")
_POINT_FIELDS = ("log", "odds_ratio")


def _effect_sections(coef: CoefficientSet, level: float) -> tuple[dict, Callable, list[dict]]:
    """The ``coefficients``, ``effects`` and ``diagnostics`` sections of a
    report on ``coef``, whose exposure levels and profiles are resolved:
    delta-method inference when it has covariances, point estimates otherwise.
    They are plain JSON data, with ``effects`` and the coefficient section's
    ``profiles`` empty lists. What fills them comes beside them, for
    :func:`_emit`: the factory of :func:`_effect_tables`, and the entries of
    ``profiles``."""
    from .coefficients import coefficients_to_doc
    from .effects import special_case_report
    from .model import Contrast

    contrasts = [Contrast(*coef.exposure_levels, prof) for _, prof in coef.profiles]
    coefficients = coefficients_to_doc(coef)
    profiles, coefficients["profiles"] = coefficients["profiles"], []
    # the tables name the profiles and their values as the entries do
    tables = _effect_tables(coef, contrasts, profiles, level)
    notes = list(special_case_report(coef.outcome, coef.mediator, contrasts[0]).identities)
    if not coef.has_vcov:
        notes.append("no covariance matrices in the coefficient file: "
                     "point estimates only")
    sections = {"coefficients": coefficients, "effects": [], "diagnostics": {"notes": notes}}
    return sections, tables, profiles


def _point_rows(coef: CoefficientSet, contrasts: list):
    """The (log, odds ratio) of each effect at each contrast, effect by effect
    in the order of ``EffectSet.odds_ratios``: one float64 row per contrast."""
    import numpy as np

    from .effects import natural_effects

    rows = []
    for contrast in contrasts:
        effect_set = natural_effects(coef.outcome, coef.mediator, contrast)
        logs = (*effect_set.log_values(), effect_set.log_cde_at[0], effect_set.log_cde_at[1])
        rows.append([v for pair in zip(logs, effect_set.odds_ratios().values()) for v in pair])
    return np.array(rows)


def _effect_tables(coef: CoefficientSet, contrasts: list, profiles: list[dict],
                   level: float) -> Callable[[Callable], Iterator[str]]:
    """The effect tables of the profiles, each named and valued by its entry
    of ``profiles`` (the ``profiles`` of the report's coefficient section):
    a function that yields, for each table in turn, its text by
    :func:`_table_json` or :func:`_table_text`. The numbers of every table
    are made first, in slices of at most _INFER_BATCH contrasts, each one
    float64 array: ``delta._table_rows`` of the set's parameter sets and
    covariances with covariances, ``natural_effects`` contrast by contrast
    without. So a failing profile raises before any text is written, and
    only one table's text is held at a time."""
    from functools import partial

    if coef.has_vcov:
        from .delta import _table_rows

        rows_of = partial(_table_rows, coef.spec, coef.outcome, coef.mediator,
                          coef.outcome_vcov, coef.mediator_vcov, level=level)
        fields = _INFERENCE_FIELDS
    else:
        rows_of, fields = partial(_point_rows, coef), _POINT_FIELDS
    # every profile names the same covariates in the same order (io.profile_values)
    templates = _table_templates(tuple(profiles[0]["values"]), fields)
    slices = [rows_of(contrasts[start:start + _INFER_BATCH])
              for start in range(0, len(contrasts), _INFER_BATCH)]

    def tables(format_table: Callable) -> Iterator[str]:
        rows = (row for block in slices for row in block)
        for profile, row in zip(profiles, rows):
            yield format_table(profile["name"], profile["values"], row.tolist(), templates)

    return tables


def _table_templates(keys: tuple, fields: tuple):
    """The JSON and the text templates of the tables whose profile values
    have ``keys`` and whose effects have ``fields``, and the getter of a
    table's numbers (values, then effects) in the order of the text's. Both
    are made from one table whose numbers are slots, floats whose value is
    NaN. The JSON template is the :func:`_json_template` of the table, with
    its profile a NaN too, at the indent of the report's ``effects`` list.
    The text's is the table rendered with its profile %s,
    its keys' % doubled and each slot the % conversion of its format, noted
    in the order the text formats them."""
    from operator import itemgetter

    from .effects import _TABLE_ORDER
    from .jsonio import _TABLE_INDENT

    order: list[int] = []

    class Slot(float):
        def __format__(self, spec: str) -> str:
            order.append(slots.index(self))  # by identity: a NaN equals nothing
            return "%" + spec.lstrip(">")

    slots = [Slot("nan") for _ in range(len(keys) + len(_TABLE_ORDER) * len(fields))]
    numbers = iter(slots)
    values = {key: next(numbers) for key in keys}
    effects = [{"name": name, **{field: next(numbers) for field in fields}}
               for name in _TABLE_ORDER]
    table = _json_template({"profile": math.nan, "values": values, "effects": effects},
                           _TABLE_INDENT)
    text = "\n".join(_render_effect_table({
        "profile": "%s",
        "values": {key.replace("%", "%%"): slot for key, slot in values.items()},
        "effects": effects,
    }))
    return table, text, itemgetter(*order)


def _table_text(name: str, values: dict, row: list, templates: tuple) -> str:
    """The text lines of one effect table, joined: the table of profile
    ``name`` with ``values``, whose effects have the numbers of ``row``. It
    is one ``%`` over the text template of the report's
    :func:`_table_templates`, for these value keys and the row's fields."""
    _, text_template, text_order = templates
    return text_template % (name, *text_order((*values.values(), *row)))


def _table_json(name: str, values: dict, row: list, templates: tuple) -> str:
    """The JSON text of the table of :func:`_table_text`, at the indent of
    the report's ``effects`` list: the JSON template :func:`_filled` with
    the name, the values and the row."""
    return _filled(templates[0], name, (*values.values(), *row))


def _profile_json(profiles: list[dict]) -> Iterator[str]:
    """The JSON text of each entry of ``profiles``, the profiles of a
    report's coefficient section, at the indent of that list's items: one
    template for them all, since every entry names the same covariates
    (``coefficients.profile_values``), :func:`_filled` with each entry's
    name and values."""
    if not profiles:
        return
    from .jsonio import _PROFILE_INDENT

    keys = profiles[0]["values"]
    template = _json_template({"name": math.nan, "values": dict.fromkeys(keys, math.nan)},
                              _PROFILE_INDENT)
    for entry in profiles:
        yield _filled(template, entry["name"], tuple(entry["values"].values()))


def _json_template(obj: dict, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` with ``indent`` before each line after
    the first, as a ``%`` template: its % doubled, and each NaN at a line
    end, the place of a value (a key never ends a line), a %s."""
    import json

    text = json.dumps(obj, indent=2).replace("%", "%%").replace("\n", indent)
    return text.replace("NaN,\n", "%s,\n").replace("NaN\n", "%s\n")


def _filled(template: str, name: str, numbers: tuple) -> str:
    """The ``%`` of a JSON template with ``name`` and ``numbers``, each
    spelled as ``json.dumps`` spells it: the name by ``json.dumps``, and a
    finite number by ``%s``, its ``repr``; when one is not finite, every
    number by ``json.dumps``."""
    from json import dumps

    if not math.isfinite(sum(numbers)):  # a sum past the double range is inf too
        numbers = map(dumps, numbers)
    return template % (dumps(name), *numbers)


def _report(command: str, config: dict, **sections) -> dict:
    from .jsonio import REPORT_FORMAT

    doc = {
        "format": REPORT_FORMAT,
        "version": 1,
        "command": command,
        "config": config,
    }
    doc.update(sections)
    return doc


def _write_stdout(lines: Iterable[str]) -> None:
    """Write each line to stdout, as it is made; a failed write raises a
    ``SchemaError``, as a failed ``--output`` write does."""
    write = sys.stdout.write
    try:
        for line in lines:
            write(line + "\n")
    except OSError as exc:
        raise _stdout_error(exc) from exc


def _stdout_error(exc: OSError) -> SchemaError:
    return SchemaError(f"cannot write to stdout: {exc}")


def _emit(doc: dict, output: str | None, tables: Callable | None = None,
          profiles: list[dict] = ()) -> None:
    """Print the text of ``doc``, and then write ``doc`` to ``output`` if one
    is given. ``tables``, the factory of :func:`_effect_tables`, gives the
    texts of the effect tables that follow ``doc``'s header on stdout and
    fill its empty ``effects`` list in the file; the entries ``profiles``
    fill the empty ``profiles`` list of its coefficient section there. Each
    line, and each table, is written as it is made."""
    _write_stdout(_render(doc, tables(_table_text) if tables else ()))
    if output:
        from .jsonio import save_json

        save_json(doc, output, tables(_table_json) if tables else (), _profile_json(profiles))


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _render(doc: dict, tables: Iterable[str]) -> Iterator[str]:
    """The lines of the text of ``doc``, where ``tables`` yields the text of
    each effect table, which follows a blank line."""
    if "models" in doc:
        for which in ("outcome", "mediator"):
            yield from _render_model(which, doc["models"][which])
            yield ""
    if "effects" in doc:
        contrast = doc["config"]
        yield f"exposure contrast: x={_fmt(contrast['x'])} vs x*={_fmt(contrast['x_star'])}"
        for table in tables:
            yield ""
            yield table
    if "rows" in doc:
        yield from _render_compare(doc)
    if "suites" in doc:
        yield from (suite["line"] for suite in doc["suites"])
        total = len(doc["suites"])
        passed = sum(suite["passed"] for suite in doc["suites"])
        yield f"{passed}/{total} suites passed"
    notes = doc.get("diagnostics", {}).get("notes", [])
    if notes:
        yield ""
        yield from (f"note: {note}" for note in notes)


def _render_model(which: str, model: dict) -> list[str]:
    lines = [
        f"{which} model: n={model['n']}, log-likelihood={_fmt(model['log_likelihood'])}, "
        f"iterations={model['iterations']}, "
        f"converged={'yes' if model['converged'] else 'no'}"
    ]
    width = max(len(t["term"]) for t in model["terms"])
    lines.append(
        f"  {'term':<{width}}  {'estimate':>12}  {'se':>12}  {'z':>9}  {'p':>10}"
    )
    for t in model["terms"]:
        lines.append(
            f"  {t['term']:<{width}}  {t['estimate']:>12.6g}  {t['se']:>12.6g}  "
            f"{t['z']:>9.3f}  {t['p']:>10.3g}"
        )
    return lines


def _render_effect_table(table: dict) -> list[str]:
    values = ", ".join(f"{k}={_fmt(v)}" for k, v in table["values"].items())
    lines = [f"profile {table['profile']}" + (f": {values}" if values else "")]
    entries = table["effects"]
    with_se = "se_log" in entries[0]
    if with_se:
        lines.append(
            f"  {'effect':<6}  {'odds-ratio':>11}  {'log':>9}  {'se(log)':>9}  "
            f"{'ci-lower':>10}  {'ci-upper':>10}  {'p':>10}"
        )
        for e in entries:
            lines.append(
                f"  {e['name']:<6}  {e['odds_ratio']:>11.6g}  {e['log']:>9.4f}  "
                f"{e['se_log']:>9.4f}  {e['ci_lower']:>10.6g}  {e['ci_upper']:>10.6g}  "
                f"{e['p_value']:>10.3g}"
            )
    else:
        lines.append(f"  {'effect':<6}  {'odds-ratio':>11}  {'log':>9}")
        for e in entries:
            lines.append(
                f"  {e['name']:<6}  {e['odds_ratio']:>11.6g}  {e['log']:>9.4f}"
            )
    return lines


def _render_compare(doc: dict) -> list[str]:
    profile = doc["profile"]
    values = ", ".join(f"{k}={_fmt(v)}" for k, v in profile["values"].items())
    lines = [
        f"profile {profile['name']}" + (f": {values}" if values else ""),
        f"  {'beta0':>7}  {'effect':<6}  {'log-exact':>11}  {'log-approx':>11}  {'gap':>10}",
    ]
    for row in doc["rows"]:
        lines.append(
            f"  {row['beta0']:>7.4g}  {row['effect']:<6}  {row['log_exact']:>11.6f}  "
            f"{row['log_approx']:>11.6f}  {row['gap']:>10.3e}"
        )
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    _check_level(args.level)  # a bad --level or --x fails before any work
    x, x_star = _resolve_levels(args, None)
    from .coefficients import CoefficientSet
    from .io import bind_dataset, read_table
    from .logit import fit as fit_logistic
    from .model import MediatorParams, ModelSpec, OutcomeParams, build_design

    columns = read_table(args.input)
    z = _parse_names(args.z)
    v = _parse_names(args.v)
    blocks = _parse_interactions(args.interactions)
    spec = ModelSpec(z_names=z, v_names=v, **blocks)
    data = bind_dataset(
        columns,
        outcome=args.outcome,
        mediator=args.mediator,
        exposure=args.exposure,
        covariates=spec.covariate_names(),
    )
    data.validate_against(spec)
    for role, name, column in (("outcome", args.outcome, data.y),
                               ("mediator", args.mediator, data.w)):
        if column.min() == column.max():
            raise SchemaError(
                f"{role} column {name!r} has only one level ({column[0]:g}); "
                "a logistic model needs both 0 and 1"
            )

    # one design at a time: each is dropped once its model is fitted
    outcome_fit, mediator_fit = (
        fit_logistic(*build_design(data, spec, target), column_names=terms)
        for target, terms in (("outcome", spec.outcome_terms()),
                              ("mediator", spec.mediator_terms()))
    )
    if args.profile:
        profiles = _parse_profiles(spec, args.profile)
    else:
        profiles = [("mean", data.mean_profile(spec))]
    coef = CoefficientSet(
        spec,
        OutcomeParams.from_vector(spec, outcome_fit.coefficients),
        MediatorParams.from_vector(spec, mediator_fit.coefficients),
        outcome_vcov=outcome_fit.vcov,
        mediator_vcov=mediator_fit.vcov,
        exposure_levels=(x, x_star),
        profiles=tuple(profiles),
        description=f"fitted from {args.input} (n={data.n})",
    )
    models = {
        "outcome": _model_doc(outcome_fit, args.level),
        "mediator": _model_doc(mediator_fit, args.level),
    }
    sections, tables, profiles = _effect_sections(coef, args.level)
    doc = _report(
        "fit",
        {
            "input": str(args.input),
            "outcome": args.outcome,
            "mediator": args.mediator,
            "exposure": args.exposure,
            "z": list(z),
            "v": list(v),
            "interactions": sorted(f for f, on in blocks.items() if on),
            "x": x,
            "x_star": x_star,
            "level": args.level,
            "profile_source": "given" if args.profile else "sample-means",
        },
        models=models,
        **sections,
    )
    _emit(doc, args.output, tables, profiles)
    return EXIT_OK


def _cmd_effects(args) -> int:
    _check_level(args.level)  # a bad --level fails before any work, in either mode
    coef = _load_resolved(args)
    x, x_star = coef.exposure_levels
    sections, tables, profiles = _effect_sections(coef, args.level)
    doc = _report(
        "effects",
        {
            "coef_file": str(args.coef_file),
            "x": x,
            "x_star": x_star,
            "level": args.level,
            "mode": "inference" if coef.has_vcov else "point-estimates",
        },
        **sections,
    )
    _emit(doc, args.output, tables, profiles)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .io import dataset_columns, load_coefficients, write_table
    from .simulate import simulate_dataset

    coef = load_coefficients(args.coef_file)
    if not 0 <= args.n <= sys.maxsize // 8:  # numpy refuses a longer float64 column
        raise SchemaError(
            f"--n must be between 0 and {sys.maxsize // 8}, the most rows a float64 column "
            f"holds, got {args.n}"
        )
    _check_seed(args.seed)
    try:
        data = simulate_dataset(
            coef.spec,
            coef.outcome,
            coef.mediator,
            args.n,
            args.seed,
            covariate_marginals=coef.covariate_marginals,
            exposure_marginal=coef.exposure_marginal,
        )
        columns = dataset_columns(
            data, outcome=args.outcome, mediator=args.mediator, exposure=args.exposure
        )
        write_table(args.output, columns)
    except MemoryError as exc:
        raise SchemaError(f"--n {args.n} rows do not fit in memory ({exc})") from exc
    _write_stdout([f"wrote {data.n} rows ({', '.join(columns)}) to {args.output}"])
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .effects import EFFECT_ORDER, approx_effects, natural_effects
    from .coefficients import profile_values
    from .model import Contrast, OutcomeParams

    grid = _parse_grid(args.grid)  # a bad --grid or --profile fails before the file is read
    if len(args.profile) > 1:
        raise SchemaError(f"compare tabulates one profile; got {len(args.profile)} --profile flags")
    coef = _load_resolved(args)
    x, x_star = coef.exposure_levels
    name, prof = coef.profiles[0]
    contrast = Contrast(x, x_star, prof)

    rows = []
    for beta0 in grid:
        vector = coef.outcome.active_vector()
        vector[0] = beta0
        outcome = OutcomeParams.from_vector(coef.spec, vector)
        exact = dict(zip(EFFECT_ORDER, natural_effects(outcome, coef.mediator, contrast).log_values()))
        approx = dict(zip(EFFECT_ORDER, approx_effects(outcome, coef.mediator, contrast).log_values()))
        for effect in EFFECT_ORDER:
            rows.append(
                {
                    "beta0": beta0,
                    "effect": effect,
                    "log_exact": exact[effect],
                    "log_approx": approx[effect],
                    "gap": abs(exact[effect] - approx[effect]),
                }
            )

    doc = _report(
        "compare",
        {
            "coef_file": str(args.coef_file),
            "x": x,
            "x_star": x_star,
            "grid": grid,
        },
        profile={"name": name, "values": profile_values(coef.spec, prof)},
        rows=rows,
    )
    _emit(doc, args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.count < 0:
        raise SchemaError(f"--count must be non-negative, got {args.count}")
    _check_seed(args.seed)
    # import the report writer before the run: without a bytecode cache,
    # compiling it on top of the run's heap raised the peak RSS by 0.6 MB
    from . import jsonio
    from .verify import run_all

    results = run_all(seed=args.seed, count=args.count, perturb=args.perturb)
    passed = all(r.passed for r in results)
    doc = _report(
        "verify",
        {"seed": args.seed, "count": args.count, "perturb": args.perturb},
        suites=[{**r._asdict(), "line": r.line()} for r in results],
        passed=passed,
    )
    _emit(doc, args.output)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _fail(code: int, exc: Exception) -> int:
    print(f"ERROR {code}: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "numpy" not in sys.modules:
            # read by OpenBLAS when numpy loads; its default is one spinning
            # worker per core, which the small products here never use
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return args.handler(args)
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, exc)
    except FitError as exc:
        return _fail(EXIT_FIT, exc)
    except NumericalError as exc:
        return _fail(EXIT_NUMERIC, exc)
    except MediationError as exc:
        return _fail(EXIT_SCHEMA, exc)


def run() -> NoReturn:
    """The script entry point: :func:`main` on the command line, then the
    process ends without the interpreter's teardown. The exit handlers run,
    stdout and stderr are flushed, and ``os._exit`` leaves with main's code.
    A failed flush of stdout is one ``ERROR 2`` line and exit 2, unless main
    has already reported an error. ``--help`` and ``--version``, whose
    ``SystemExit(0)`` may leave their text in the buffer, end the same way.
    A usage error's ``SystemExit`` and any uncaught exception leave ``run``
    as they leave main, through the normal exit."""
    import atexit

    try:
        code = main()
    except SystemExit as exc:
        if exc.code != 0:
            raise
        code = EXIT_OK
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code in (EXIT_OK, EXIT_VERIFY):  # no ERROR line yet
            code = _fail(EXIT_SCHEMA, _stdout_error(exc))
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()
