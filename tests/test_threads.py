"""A command loads OpenBLAS with one thread whatever the caller set, so its
reports cannot depend on ``OPENBLAS_NUM_THREADS``; ``cli.main`` in a process
that already loaded numpy leaves the environment alone."""

import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ormediate.cli import main
from helpers import child_env
from test_output_bytes import GOLDEN

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def _openblas() -> tuple[str, str]:
    """The scipy-openblas library numpy loaded and its thread-count getter;
    skips, naming the BLAS numpy reports, where there is none."""
    numpy_dir = Path(np.__file__).resolve().parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*scipy_openblas*"),
                       *numpy_dir.glob(".dylibs/*scipy_openblas*")]):
        handle = ctypes.CDLL(str(lib))
        for symbol in _GET_THREADS:
            if hasattr(handle, symbol):
                return str(lib), symbol
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        found = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        found = "a BLAS that numpy does not name"
    pytest.skip(f"numpy links {found}, not a scipy-openblas with a thread-count getter")


def _threads_after(setup: str, env: dict) -> int:
    """The OpenBLAS thread count of a fresh interpreter after running `setup`."""
    lib, symbol = _openblas()
    code = (
        f"{setup}\n"
        "import ctypes\n"
        "import numpy\n"
        f"get = getattr(ctypes.CDLL({lib!r}), {symbol!r})\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "print(get())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


class TestCommandThreads:
    def test_a_command_loads_openblas_with_one_thread(self):
        env = {**child_env(), "OPENBLAS_NUM_THREADS": "2"}
        setup = ("from ormediate.cli import main\n"
                 "assert main(['effects', '--coef-file', 'microcredit_table1']) == 0")
        assert _threads_after(setup, env) == 1

    def test_the_probe_sees_the_callers_setting_without_the_cli(self):
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("one usable CPU: OpenBLAS caps its threads at the CPU count")
        env = {**child_env(), "OPENBLAS_NUM_THREADS": "2"}
        assert _threads_after("import ormediate", env) == 2

    @pytest.mark.parametrize("setting", [None, "3"])
    def test_main_after_numpy_leaves_the_environment_alone(self, monkeypatch, capsys, setting):
        if setting is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", setting)
        before = dict(os.environ)
        assert main(["effects", "--coef-file", "microcredit_table1"]) == 0
        assert dict(os.environ) == before


def _run(argv, cwd, setting) -> bytes:
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run([sys.executable, "-m", "ormediate", *argv], capture_output=True,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_COMMANDS = {
    "effects": (["effects", "--coef-file", "microcredit_table1"], None),
    "verify": (["verify", "--count", "300", "--seed", "1"], "verify-300-1"),
    # the pinned fit-mean report: simulate --n 5000 --seed 5, then this fit
    "fit": (["fit", "--input", "sim.csv", "--z", "age,edu,loans", "--v", "age,loans"],
            "fit-mean"),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_bytes_do_not_depend_on_the_callers_thread_setting(tmp_path, command):
    argv, golden = _COMMANDS[command]
    if command == "fit":
        _run(["simulate", "--coef-file", "microcredit_table1", "--n", "5000", "--seed", "5",
              "--output", "sim.csv"], tmp_path, None)
    seen = set()
    for setting in (None, "1", "2"):
        stdout = _run([*argv, "--output", f"{command}.json"], tmp_path, setting)
        seen.add((stdout, (tmp_path / f"{command}.json").read_bytes()))
    assert len(seen) == 1
    if golden is not None:
        (_, report), = seen
        assert hashlib.sha256(report).hexdigest() == GOLDEN[golden]
