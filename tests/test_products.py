"""Every BLAS and LAPACK operation of the package lives in ``ormediate._products``:
no other module holds a matrix product, a dot product or a ``numpy.linalg``
name. And the batching promises its callers rely on hold under every
OpenBLAS kernel this host can run: a batch of row sums has each row's bits,
a stack of quadratic forms each slice's, and a fit the same bits however
many worker processes share its passes."""

import ast
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ormediate
from helpers import child_env
from ormediate import _products, logit

PACKAGE = Path(ormediate.__file__).parent
HOME = PACKAGE / "_products.py"
# numpy's products, reached as np.<name> or numpy.<name>
_NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def products_in(source: str) -> list[tuple[int, str]]:
    """(line, what) of each matrix product, dot product or ``numpy.linalg``
    name in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add((line, "@"))
        elif isinstance(node, ast.Attribute):
            if node.attr == "linalg":
                found.add((line, "numpy.linalg"))
            elif (node.attr in _NUMPY_PRODUCTS and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")):
                found.add((line, f"np.{node.attr}"))
            elif node.attr == "dot":
                found.add((line, ".dot("))
        elif isinstance(node, ast.Import):
            found.update((line, alias.name) for alias in node.names
                         if alias.name.startswith("numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.linalg"):
                found.add((line, f"from {node.module}"))
            elif node.module == "numpy":
                found.update((line, f"from numpy import {alias.name}") for alias in node.names
                             if alias.name in _NUMPY_PRODUCTS | {"linalg"})
    return sorted(found)


class TestOneHome:
    def test_no_module_but_products_holds_a_product(self):
        found = [f"{path.relative_to(PACKAGE)}:{line}: {what}"
                 for path in sorted(PACKAGE.rglob("*.py")) if path != HOME
                 for line, what in products_in(path.read_text(encoding="utf-8"))]
        assert found == []

    def test_the_scan_sees_the_products_module_s_own(self):
        assert products_in(HOME.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("source", [
        "c = a @ b", "a @= b", "np.dot(a, b)", "numpy.matmul(a, b)", "np.einsum('i,i', a, b)",
        "np.inner(a, b)", "np.vdot(a, b)", "np.tensordot(a, b)", "a.dot(b)", "a.T.dot(b)",
        "np.linalg.solve(a, b)", "try:\n    f()\nexcept np.linalg.LinAlgError:\n    pass",
        "from numpy.linalg import inv", "from numpy import linalg", "from numpy import dot",
        "import numpy.linalg",
    ])
    def test_each_form_is_found(self, source):
        assert products_in(source)

    @pytest.mark.parametrize("source", [
        "c = a * b", "@property\ndef f(self):\n    return 1", "x.sum()", "np.add(a, b)",
        "'a @ b'", "from . import _products\n_products.inner(a, b)",
    ])
    def test_other_code_is_not(self, source):
        assert products_in(source) == []


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def check_batching_invariants(cases: int = 200) -> None:
    """The promises of ``_products`` that hold within one kernel, on
    ``cases`` seeded draws each; run in a child under each kernel."""
    rng = np.random.default_rng(36)
    for case in range(cases):
        width, n = 1 + case % 8, int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
        blocks = scale[0] * rng.normal(size=(n, 1, width))
        profiles = scale[1] * rng.normal(size=(n, width, 1))
        if width == 1:  # a -0.0 coefficient at a positive profile keeps its sign
            blocks[::3] = -0.0
            profiles[::3] = np.abs(profiles[::3])
        got = _products.row_sums(blocks, profiles)
        want = [_products.row_sum(b[0], p[:, 0]) for b, p in zip(blocks, profiles)]
        assert _bits(got) == _bits(want), ("row_sums", case)
    for case in range(cases):
        k, m, n = int(rng.integers(1, 12)), (1, 5)[case % 2], int(rng.integers(1, 64))
        b = rng.normal(size=(k, k))
        s = b @ b.T
        a = 10.0 ** rng.uniform(-3.0, 3.0) * rng.normal(size=(n, m, k))
        got = _products.quadratic_forms(a, s)
        assert _bits(got) == _bits([x @ s @ x.T for x in a]), ("quadratic_forms", case)
    # twelve blocks: two ranges of logit._WORKER_BLOCKS, so a second CPU forks a worker
    rows = 2 * logit._WORKER_BLOCKS * logit._BLOCK_ROWS
    X = np.column_stack([np.ones(rows), rng.random(rows) < 0.5, rng.normal(size=(rows, 3))])
    p = _products.probabilities(X, np.array([-0.5, 0.8, 0.3, -0.2, 0.1]))
    y = (rng.random(rows) < p).astype(float)
    fits = []
    for cpus in (1, 2):
        logit._usable_cpus = lambda: cpus
        assert len(logit._Passes(X, y)._ranges) == cpus
        model = logit.fit(X, y)
        fits.append((_bits(model.coefficients), _bits(model.vcov), repr(model.log_likelihood)))
    assert fits[0] == fits[1], "fit"


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _openblas_configuration() -> str:
    """The build line of numpy's OpenBLAS; empty where numpy names none."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without show_config's dicts
        return ""
    return blas.get("openblas configuration", "") if "openblas" in blas.get("name", "") else ""


# each OPENBLAS_CORETYPE, the CPU feature it needs, and the names OpenBLAS may
# report for it: a DYNAMIC_ARCH build without DYNAMIC_OLDER serves Prescott
# with its Katmai kernels, and a build without Zen kernels serves Zen with
# Haswell's
_KERNELS = {
    "Prescott": ("SSE3", {"Prescott", "Katmai"}),
    "Nehalem": ("SSE42", {"Nehalem"}),
    "Sandybridge": ("AVX", {"Sandybridge"}),
    "Haswell": ("AVX2", {"Haswell"}),
    "Zen": ("AVX2", {"Zen", "Haswell"}),
    "SkylakeX": ("AVX512F", {"SkylakeX"}),
}


@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_the_batching_invariants_hold_under_each_kernel(kernel):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"the OpenBLAS kernels named here are x86-64's, not {platform.machine()}'s")
    if "DYNAMIC_ARCH" not in _openblas_configuration():
        pytest.skip("numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, so "
                    "OPENBLAS_CORETYPE cannot pick its kernel")
    feature, names = _KERNELS[kernel]
    if not _cpu_features().get(feature):
        pytest.skip(f"the {kernel} kernel needs {feature}, which this CPU lacks")
    env = {**child_env(), "OPENBLAS_CORETYPE": kernel, "OPENBLAS_VERBOSE": "2",
           "OPENBLAS_NUM_THREADS": "1"}
    here = Path(__file__).resolve().parent
    script = (f"import sys; sys.path.insert(0, {str(here)!r}); "
              "import test_products; test_products.check_batching_invariants()")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    cores = [line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
             if line.startswith("Core:")]
    assert len(cores) == 1 and cores[0] in names, done.stderr
