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
    "delta": ("EffectInference", "InferenceResult", "infer", "infer_many"),
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
    "io": ("Marginal",),
    "logit": ("FittedModel", "fit", "predict_prob", "wald_table"),
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


class _Children:
    """The forked children of one call, for work cut into ranges: the CSV
    reader's and writer's and the IRLS passes'. On leaving the `with`, a
    child not yet reaped is no longer wanted: it is killed, and every child
    is reaped.

    A child leaves only through os._exit, so it runs no exit handler and
    flushes no buffer it shares with the parent, and its work writes nothing
    to stdout or stderr. A child may run BLAS: OpenBLAS stops its threads
    before a fork (pthread_atfork) and starts them again on demand, and under
    the CLI the forking process has none, as `cli.main` loads OpenBLAS with
    one thread. Python 3.12 and later warn about any fork in a process with
    threads."""

    def __init__(self):
        self._running: list[int] = []

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
                code = 0 if work(*args) else 1
            finally:
                os._exit(code)
        self._running.append(pid)
        return pid

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

        for pid in self._running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._running.clear()
