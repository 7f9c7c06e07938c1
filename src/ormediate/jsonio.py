"""JSON documents: the writer every report and coefficient file goes
through, and the reader of coefficient files.

:func:`write_json` writes exactly ``json.dumps(doc, indent=2) + "\n"``, by
the standard library's encoder. Its one special case is the report's
effect tables: the items of a top-level ``effects`` list may be
``_Verbatim``, JSON text made ahead (each one ``%`` over a template; see
``cli._table_templates``). The writer encodes the document with that list
empty and writes each table's text in its place.
This module is apart from :mod:`ormediate.io`, which re-exports it, so a
command that only writes a report (``verify``) loads no CSV or
coefficient-document code.
"""

from __future__ import annotations

import json
from pathlib import Path

from .exceptions import SchemaError

__all__ = ["REPORT_FORMAT", "load_json", "save_json", "write_json"]

REPORT_FORMAT = "ormediate-report"

# the line of an empty top-level "effects" list in json.dumps(doc, indent=2):
# only top-level keys sit at a two-space indent, and a JSON string holds no
# raw line break, so the document has it at most once
_EMPTY_EFFECTS = '\n  "effects": []'


class _Verbatim:
    """The JSON text of one item of a report's top-level ``effects`` list,
    as ``json.dumps(report, indent=2)`` spells that item there: its lines
    after the first start with four spaces."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def write_json(doc, handle) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to a text handle, where
    each ``_Verbatim`` item of a top-level ``effects`` list stands for the
    value whose text it holds."""
    tables = doc.get("effects") if isinstance(doc, dict) else None
    if not (isinstance(tables, list) and tables
            and all(isinstance(table, _Verbatim) for table in tables)):
        handle.write(json.dumps(doc, indent=2))
        handle.write("\n")
        return
    head, _, tail = json.dumps({**doc, "effects": []}, indent=2).partition(_EMPTY_EFFECTS)
    handle.write(head + '\n  "effects": [')
    sep = "\n    "
    for table in tables:
        # one write per table: joining them first raises the peak memory
        handle.write(sep + table.text)
        sep = ",\n    "
    handle.write("\n  ]" + tail + "\n")


def save_json(doc, path: str | Path) -> None:
    try:
        with Path(path).open("w", encoding="utf-8") as handle:
            write_json(doc, handle)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def load_json(path: str | Path) -> dict:
    try:
        with Path(path).open("r", encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer beyond Python's digit limit, or
        # nesting deeper than the recursion limit
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
