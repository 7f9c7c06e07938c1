"""JSON documents: the writer every report and coefficient file goes
through, and the reader of coefficient files.

:func:`write_json` writes exactly ``json.dumps(doc, indent=2) + "\n"``, by
the standard library's encoder, where ``doc`` is plain JSON data. Two lists
of a report come beside it, as texts made by one ``%`` over a template each
(see ``cli._json_template``): its effect tables, and the profile entries of
its coefficient section. The standard library encodes an indented document
in pure Python, item by item, so the writer encodes the document with both
lists empty and splices the texts into them, at two places, each text as
it is made, so no more than one table's text is held.

:func:`decode_json` is ``json.loads`` that may decode only some top-level
members of an object: a coefficient read needs a report's ``format`` and
``coefficients``, not its effect tables, which are most of its text. Every
other member is still scanned by the standard library's decoder, so the
text is checked exactly as ``json.loads`` checks it, and on any error the
text is decoded again by ``json.loads`` to word the error as it does.

This module is apart from :mod:`ormediate.io`, which re-exports it, so a
command that only writes a report (``verify``) loads no CSV or
coefficient-document code, and one that reads a coefficient file
(``effects``, ``compare``) no CSV code.
"""

from __future__ import annotations

import json
from json.decoder import WHITESPACE, scanstring
from pathlib import Path

from .exceptions import SchemaError

__all__ = ["REPORT_FORMAT", "decode_json", "load_json", "save_json", "write_json"]

REPORT_FORMAT = "ormediate-report"

# the lines of the two empty lists write_json fills, as json.dumps(doc,
# indent=2) spells them: a report's top-level "effects", and the "profiles"
# of a top-level member, its coefficient section. A JSON string holds no raw
# line break, so each is the line of a key at the depth its indent gives,
# and a report has each once (tests/test_cli.py, TestPlainReport)
_EMPTY_EFFECTS = '\n  "effects": []'
_EMPTY_PROFILES = '\n    "profiles": []'


def _item_indent(line: str) -> str:
    """Where the lines of an item start in the list of ``line``: a line
    break, then the indent of the list's key and two spaces more."""
    return line[:line.index('"')] + "  "


# the indents the texts write_json splices take after each line break
_TABLE_INDENT = _item_indent(_EMPTY_EFFECTS)
_PROFILE_INDENT = _item_indent(_EMPTY_PROFILES)

_DECODER = json.JSONDecoder()
# decodes as _DECODER does, with the same checks, and drops every object it
# decodes, so a member that is not read leaves only lists of None behind
_SKIMMER = json.JSONDecoder(object_pairs_hook=lambda pairs: None)


def write_json(doc, handle, tables=(), profiles=()) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to a text handle, with the
    texts ``tables`` yields spliced in turn into the top-level ``effects``
    list of ``doc``, and those ``profiles`` yields into the ``profiles`` list
    of a top-level member; each list is empty in ``doc``, and there at most
    once. Each text is an item of its list as ``json.dumps(doc, indent=2)``
    spells it there: its lines after the first are indented as the list's
    items are, by ``_TABLE_INDENT`` for a table and ``_PROFILE_INDENT``
    for a profile."""
    text = json.dumps(doc, indent=2)
    done = 0
    # the lists in the order they come; one that is absent (at -1) gets no texts
    for at, line, texts in sorted((text.find(line), line, texts) for line, texts in
                                  ((_EMPTY_EFFECTS, tables), (_EMPTY_PROFILES, profiles))):
        if at >= 0:
            handle.write(text[done:at])
            _write_items(handle, line, texts)
            done = at + len(line)
    handle.write(text[done:] + "\n")


def _write_items(handle, line: str, texts) -> None:
    """Write ``line``, that of an empty list, with the texts as its items."""
    indent = _item_indent(line)
    sep, end = line[:-1] + indent, line
    for text in texts:
        # one write per item: joining them first raises the peak memory
        handle.write(sep + text)
        sep, end = "," + indent, indent[:-2] + "]"
    handle.write(end)


def save_json(doc, path: str | Path, tables=(), profiles=()) -> None:
    """:func:`write_json` to the file at ``path``."""
    try:
        with Path(path).open("w", encoding="utf-8") as handle:
            write_json(doc, handle, tables, profiles)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def load_json(path: str | Path, keys=None):
    """The JSON document in the file at ``path``, by :func:`decode_json`:
    the whole document, or with ``keys`` only those top-level members."""
    try:
        with Path(path).open("r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    return decode_json(text, path, keys)


def decode_json(text: str, where, keys=None):
    """``json.loads(text)``, where an invalid text raises a ``SchemaError``
    that names ``where``. With ``keys``, a top-level object decodes only its
    members named in ``keys``; every other member is checked as
    ``json.loads`` checks it and kept as its key with the value None. Any
    other document, and any text ``json.loads`` refuses, goes through
    ``json.loads`` itself. The walk scans each member one level nearer the
    top of the stack than ``json.loads`` does, so a member nested to within
    a level of the recursion limit, a depth that moves with the caller's
    stack anyway, is read where ``json.loads`` would overflow."""
    try:
        if keys is not None:
            try:
                return _members(text, keys)
            except (ValueError, RecursionError):
                pass  # json.loads below words the error, or reads what the walk does not
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer beyond Python's digit limit, or
        # nesting deeper than the recursion limit
        raise SchemaError(f"{where}: invalid JSON ({exc})") from exc


def _members(text: str, keys) -> dict:
    """The top-level object of ``text`` with only its members in ``keys``
    decoded, by the steps of the standard library's object scanner; a
    ValueError for any text that is not one whole JSON object."""
    end = WHITESPACE.match(text, 0).end()
    if text[end:end + 1] != "{":
        raise ValueError("not a JSON object")
    end = WHITESPACE.match(text, end + 1).end()
    doc = {}
    if text[end:end + 1] == "}":
        end += 1
    else:
        while True:
            if text[end:end + 1] != '"':
                raise ValueError("expecting a property name")
            key, end = scanstring(text, end + 1)
            end = WHITESPACE.match(text, end).end()
            if text[end:end + 1] != ":":
                raise ValueError("expecting ':'")
            end = WHITESPACE.match(text, end + 1).end()
            if key in keys:
                doc[key], end = _DECODER.raw_decode(text, end)
            else:
                _, end = _SKIMMER.raw_decode(text, end)
                doc[key] = None
            end = WHITESPACE.match(text, end).end()
            if text[end:end + 1] == "}":
                end += 1
                break
            if text[end:end + 1] != ",":
                raise ValueError("expecting ',' or '}'")
            end = WHITESPACE.match(text, end + 1).end()
    if WHITESPACE.match(text, end).end() != len(text):
        raise ValueError("extra data")
    return doc
