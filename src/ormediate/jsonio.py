"""JSON documents: the writer every report and coefficient file goes
through, and the reader of coefficient files.

:func:`write_json` writes exactly ``json.dumps(doc, indent=2) + "\n"``, with
fewer calls: a list or dict that holds only scalars is one block of text.
A value inside a list or dict may also be a ``_Verbatim``, JSON text made
ahead (the CLI's effect tables, each one ``%`` over a template) that the
writer copies as it stands.
This module is apart from :mod:`ormediate.io`, which re-exports it, so a
command that only writes a report (``verify``) loads no CSV or
coefficient-document code.
"""

from __future__ import annotations

import itertools
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .exceptions import SchemaError

__all__ = ["REPORT_FORMAT", "load_json", "save_json", "write_json"]

REPORT_FORMAT = "ormediate-report"

_FLOAT_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_WRITE_CHUNK = 1 << 16  # characters buffered between writes to the handle


class _Verbatim:
    """JSON text that the writer copies as it stands, in place of one value
    of a list or dict: the text ``write_json`` would write for that value
    there, the indents of its lines included."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _json_scalar(value) -> str | None:
    """json's spelling of a scalar, or None for a list, tuple, dict or
    ``_Verbatim``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_SPELLING.get(text, text)
    if isinstance(value, (list, tuple, dict, _Verbatim)):
        return None
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# _json_scalar for each exact type it meets most, in one call; float.__repr__
# says nan, inf and -inf, which _json_scalars respells
_SPELLERS = {
    float: float.__repr__,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    **dict.fromkeys((list, tuple, dict), lambda _: None),
}


def _json_scalars(values) -> list:
    """:func:`_json_scalar` of each value."""
    texts = [_SPELLERS.get(type(v), _json_scalar)(v) for v in values]
    if not _FLOAT_SPELLING.keys().isdisjoint(texts):
        texts = [_FLOAT_SPELLING.get(t, t) for t in texts]
    return texts


def _json_head(key) -> str:
    """A dict key, coerced to a str as json coerces it and spelled, then ": "."""
    if not isinstance(key, str):
        if not (isinstance(key, (float, int)) or key is None):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _json_scalar(key)
    return encode_basestring_ascii(key) + ": "


def _json_template(mapping: dict, newline: str, templates: dict) -> str:
    """The text of a dict of scalars whose lines start at ``newline``, with
    a %s for each value. Dicts with the same str keys share one template;
    others get their own, since 1, 1.0 and True are one key spelled three ways."""
    shape = (tuple(mapping), newline)
    template = templates.get(shape)
    if template is None:
        inner = newline + "  "
        items = [_json_head(key).replace("%", "%%") + "%s" for key in mapping]
        template = "{" + inner + ("," + inner).join(items) + newline + "}"
        if all(type(key) is str for key in mapping):
            templates[shape] = template
    return template


def _json_blocks(container, newline: str, put, templates: dict) -> None:
    """Pass the text of ``json.dumps(container, indent=2)`` to ``put`` in
    blocks, for a list, tuple or dict whose lines start at ``newline`` (a
    line break and its indent). A container that holds only scalars is one
    block, made by one join or one template; the others put a block between
    child containers. A ``_Verbatim`` is its own text."""
    if isinstance(container, _Verbatim):
        put(container.text)
        return
    if not container:
        put("{}" if isinstance(container, dict) else "[]")
        return
    inner = newline + "  "
    if isinstance(container, dict):
        children = list(container.values())
        texts = _json_scalars(children)
        if None not in texts:
            put(_json_template(container, newline, templates) % tuple(texts))
            return
        opening, closing, heads = "{", "}", list(map(_json_head, container))
    else:
        children = container
        texts = _json_scalars(children)
        if None not in texts:
            put("[" + inner + ("," + inner).join(texts) + newline + "]")
            return
        opening, closing, heads = "[", "]", itertools.repeat("")
    sep = opening + inner
    for head, text, child in zip(heads, texts, children):
        if text is None:
            put(sep + head)
            _json_blocks(child, inner, put, templates)
        else:
            put(sep + head + text)
        sep = "," + inner
    put(newline + closing)


def write_json(doc, handle) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` to a text handle, in
    writes of about 64k characters."""
    buffer: list[str] = []
    size = 0

    def put(text: str) -> None:
        nonlocal size
        buffer.append(text)
        size += len(text)
        if size >= _WRITE_CHUNK:
            handle.write("".join(buffer))
            buffer.clear()
            size = 0

    if isinstance(doc, (list, tuple, dict)):
        _json_blocks(doc, "\n", put, {})
    else:
        buffer.append(_json_scalar(doc))
    buffer.append("\n")
    handle.write("".join(buffer))


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
