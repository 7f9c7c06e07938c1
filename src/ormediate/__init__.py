"""Exact odds-ratio mediation effects for binary outcomes and binary mediators.

The names in ``__all__`` are exported lazily (PEP 562): ``import ormediate``
loads no submodule, and the first access to a name imports the submodule that
defines it. So ``import ormediate.cli`` and ``ormediate --help`` load no
numeric code; each command imports only the modules it runs.
"""

import os
import sys
from importlib import import_module

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "coefficients": ("Marginal",),
    "delta": ("EffectInference", "InferenceResult", "infer", "infer_many", "wald_table"),
    "effects": (
        "EFFECT_ORDER",
        "EffectSet",
        "SpecialCaseReport",
        "a_term",
        "a_term_inputs",
        "approx_effects",
        "jacobian_log_effects",
        "natural_effects",
        "special_case_report",
    ),
    "exceptions": (
        "ConvergenceError",
        "CovarianceError",
        "DegenerateProbabilityError",
        "FitError",
        "MediationError",
        "NumericalError",
        "PredictorOverflowError",
        "SchemaError",
        "SeparationError",
        "SingularDesignError",
    ),
    "logit": ("FittedModel", "fit", "predict_prob"),
    "model": (
        "EXP_LIMIT",
        "Contrast",
        "CovariateProfile",
        "Dataset",
        "MediatorParams",
        "ModelSpec",
        "OutcomeParams",
        "build_design",
        "e_w",
        "e_y",
    ),
    "oracle": (
        "ProbabilityTables",
        "finite_diff",
        "g_y_check",
        "mediation_formula_effects",
        "tables_from_params",
    ),
    "simulate": ("simulate_dataset",),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOMES)


def __getattr__(name: str):
    # any other name raises, so `from ormediate import cli` imports the submodule
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which `taskset`
    and a cgroup cpuset narrow, or the CPU count where there is no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _every_block(test, arr, rows: int) -> bool:
    """Whether the array-valued test holds at every entry of arr, taken
    `rows` rows at a time, so no temporary grows with len(arr)."""
    return all(test(arr[start : start + rows]).all() for start in range(0, len(arr), rows))


def _ranges(units: int, least: int, cpus: int) -> list[range]:
    """The contiguous ranges of `units` units that forked processes share out:
    one per usable CPU, each of at least `least` units, cut at units*i//count;
    one range where there is no fork. No range is empty unless units is 0."""
    count = max(1, min(cpus, units // least)) if hasattr(os, "fork") else 1
    return [range(units * i // count, units * (i + 1) // count) for i in range(count)]


class _Children:
    """The forked children of one call, for work cut into `_ranges`: the CSV
    reader's, the CSV writer's and the IRLS passes'. A reader child and a
    pass worker each talk to the parent over a socket pair of their own, made
    by `connect`. Every child closes the parent ends of the earlier ones as
    it starts: a child that held one would keep that child's input open, and
    a worker that reads to the end of its input would never leave. On
    leaving the `with`, the parent ends are closed, and a child not yet
    reaped is no longer wanted: it is killed, and every child is reaped.

    A child leaves only through os._exit, so it runs no exit handler and
    flushes no buffer it shares with the parent, and its work writes nothing
    to stdout or stderr. A child may run BLAS: OpenBLAS stops its threads
    before a fork (pthread_atfork) and starts them again on demand, and under
    the CLI the forking process has none, as `cli.main` loads OpenBLAS with
    one thread. Python 3.12 and later warn about any fork in a process with
    threads."""

    def __init__(self):
        self._running: list[int] = []
        self._ends: list = []  # the parent's end of each connected child's socket pair

    def fork(self, work, *args) -> int | None:
        """Run work(*args) in a child that exits 0 if it returns true; None if
        no child could start."""
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        try:
            pid = os.fork()
        except (AttributeError, OSError):  # no fork on this platform, or none to be had
            return None
        if pid == 0:
            code = 1
            try:
                for end in self._ends:
                    end.close()
                code = 0 if work(*args) else 1
            finally:
                os._exit(code)
        self._running.append(pid)
        return pid

    def connect(self, work, *args) -> tuple[int, object] | None:
        """Run work(end, *args) in a child, as `fork` does, where `end` is the
        child's end of a new socket pair: the child's pid and the parent's
        end, or None if no child could start."""
        import socket

        try:
            ours, theirs = socket.socketpair()
        except OSError:
            return None
        self._ends.append(ours)
        with theirs:
            pid = self.fork(work, theirs, *args)
        return None if pid is None else (pid, ours)

    @staticmethod
    def send(end, data) -> None:
        """All of `data` to a connected end; OSError, not SIGPIPE, once it is closed."""
        import socket

        end.sendall(data, socket.MSG_NOSIGNAL)

    @staticmethod
    def receive(end, buffer) -> int:
        """Fill `buffer` from a connected end: fewer bytes only where its input ends."""
        import socket

        return end.recv_into(buffer, 0, socket.MSG_WAITALL)

    def reap(self, pid: int | None) -> bool:
        """Wait for a child; True if its work succeeded."""
        if pid is None:
            return False
        self._running.remove(pid)
        return os.waitpid(pid, 0)[1] == 0

    def __enter__(self) -> "_Children":
        return self

    def __exit__(self, *exc) -> None:
        import signal

        for end in self._ends:
            end.close()
        for pid in self._running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._running.clear()
