"""In-memory span recorder for the traced benchmark run.

The tracer wraps public functions of the ``ormediate`` modules from the
outside: every module attribute that refers to a wrapped function is replaced
while the tracer is installed and restored afterwards, so a call made through
any module (``cli`` calling ``io.read_table``, ``verify`` calling
``natural_effects``) records a span.  The package's own files are not
changed.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# A hook turns (args, kwargs, result) into span attributes; a label turns
# (args, kwargs) into the span's name when one function serves several layers.


def _fit_attrs(args, kwargs, result):
    names = kwargs.get("column_names") or ()
    return {
        "iterations": int(result.iterations),
        # the outcome design is the one that carries the mediator column
        "role": "outcome" if "w" in names else "mediator",
    }


def _design_attrs(args, kwargs, result):
    return {"bytes": int(sum(getattr(a, "nbytes", 0) for a in result))}


def _file_attrs(position):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}

    return attrs


def _suite_label(args, kwargs):
    return f"verify.{args[0] if args else kwargs['name']}"


PACKAGE = "ormediate"

# (module, function, attribute hook, span label): the layer boundaries.
TARGETS = (
    ("cli", "main", None, None),
    ("io", "read_table", _file_attrs(0), None),
    ("io", "write_table", _file_attrs(0), None),
    ("io", "bind_dataset", None, None),
    ("io", "coefficients_to_doc", None, None),
    ("io", "save_json", _file_attrs(1), None),
    ("io", "load_coefficients", None, None),
    ("simulate", "simulate_dataset", None, None),
    ("model", "build_design", _design_attrs, None),
    ("logit", "fit", _fit_attrs, None),
    ("delta", "infer", None, None),
    ("delta", "jacobian_log_effects", None, None),
    ("effects", "natural_effects", None, None),
    ("oracle", "tables_from_params", None, None),
    ("oracle", "mediation_formula_effects", None, None),
    ("oracle", "finite_diff", None, None),
    ("verify", "run_suite", None, _suite_label),
)


class Tracer:
    """Records spans (name, start, end, parent span, op id) around wrapped calls."""

    def __init__(self):
        self.op = ""
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook, label):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "name": label(args, kwargs) if label else name,
                "start": perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a target a module no longer has is skipped."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, func_name, hook, label in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{module_name}.{func_name}", hook, label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - child_time[s["id"]] for s in self.spans]

    def write(self, path) -> None:
        """Write the spans as JSON lines, with self time and times from the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w") as handle:
            for span, self_s in zip(self.spans, self.self_times()):
                row = dict(span, start=span["start"] - t0, end=span["end"] - t0, self_s=self_s)
                handle.write(json.dumps(row) + "\n")
