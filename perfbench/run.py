#!/usr/bin/env python3
"""ormediate benchmark: end-to-end CLI and library timings, per-layer spans.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload csv-roundtrip --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the next op starts only when
the previous one has ended, and no op starts that would, at the median op
time so far, end after ``--seconds``.  CLI ops run ``python -m ormediate.cli``
in a child process, timed from process start to exit; CPU time and peak RSS
come from that child's ``wait4`` usage.  ``library-fit`` runs in-process.

The host's speed drifts by tens of percent over tens of seconds, so every
end-to-end time is speed-adjusted: multiplied by ``REF_SECONDS`` over the
time of a fixed reference job (``SpeedReference``) run just before and just
after the op.  The raw times are printed beside the adjusted ones and kept
in the ``--record`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays every op
in-process as well, once plain and once with spans around the public
functions of each module (see ``tracer.py``), and prints the per-layer
metrics: self times (span minus its child spans) unless the name says
otherwise, exact per-op counts, and the tracing overhead.  The spans are
written to ``.bench_out/spans/``.  ``--record FILE`` appends the result and
the machine stamp as one JSON line, the input of ``compare.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The fail ratio is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_IMPORTS = 3  # fresh interpreters per run behind setup_s
# median time of SpeedReference.time() on a shared 2-core KVM guest (Xeon,
# 2.1 GHz); only the ratio to it matters
REF_SECONDS = 0.12
FIXTURE = "microcredit_table1"
SE_GATE = 5.0  # fitted coefficients must lie within this many SE of the fixture
REL_GATE = 1e-12  # in-process recomputation must match the report this closely

# metric names and units are defined once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SUITES = ("oracle-equivalence", "decomposition", "jacobian", "bracketing", "g-y-identity")


class BenchError(Exception):
    """The program under test failed an op or a correctness gate."""


@dataclass
class Op:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    speed: float = 1.0  # multiply wall and cpu by this to get speed-adjusted seconds


class SpeedReference:
    """A fixed piece of work that does not touch ormediate: a pure-Python loop,
    numpy passes over an 8 MB array, and a fresh interpreter importing a few
    standard-library modules.  Timed between ops, it tracks the speed of a
    shared host, which drifts by tens of percent over tens of seconds; wall
    and CPU times scaled by it are steady enough to compare."""

    def __init__(self, spawner: "Spawner"):
        import numpy as np

        self._np = np
        self._spawner = spawner
        self._a = np.linspace(0.0, 1.0, 1_000_000)
        self._b = np.empty_like(self._a)
        self._last = self.time()

    def time(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        for _ in range(24):
            self._np.multiply(self._a, 1.0000001, out=self._b)
            self._b.sum()
        self._spawner.run(["-I", "-c", "import argparse, decimal, email.parser, json"])
        return perf_counter() - start

    def speed(self) -> float:
        """REF_SECONDS over the mean reference time just before and just after
        the interval that has ended now."""
        now = self.time()
        factor = 2.0 * REF_SECONDS / (self._last + now)
        self._last = now
        return factor


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int


class Spawner:
    """Client of ``spawner.py``, which starts every child of the benchmark."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args) -> Child:
        """Run ``python args...`` to exit; wall from start to exit, usage from wait4."""
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the spawner process ended")
        return Child(**json.loads(line))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=170)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_GATE * max(abs(a), abs(b))


def within_se(fitted_vec, vcov, truth_vec) -> bool:
    import numpy as np

    se = np.sqrt(np.diag(vcov))
    return fitted_vec.shape == truth_vec.shape and bool(
        np.all(np.abs(fitted_vec - truth_vec) <= SE_GATE * se)
    )


def self_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_main(pkg, argv) -> float:
    """Run ``cli.main(argv)`` in-process with stdout discarded; return its wall time."""
    with open(os.devnull, "w") as sink, redirect_stdout(sink):
        start = perf_counter()
        code = pkg.cli.main(argv)
        wall = perf_counter() - start
    if code != 0:
        raise BenchError(f"in-process {argv[0]} exited {code}")
    return wall


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """An op is one or more CLI commands, each in a fresh interpreter."""

    name = ""
    work_unit = ""
    units_per_op = 0

    def __init__(self, pkg, seed: int, work: Path, spawner: Spawner):
        self.pkg, self.seed, self.work, self.spawner = pkg, seed, work, spawner
        self.gate_failures: list[str] = []
        self.digests = None

    def setup(self) -> None:
        pass

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        """Files whose bytes must be identical on every op."""
        return []

    def check_first(self) -> None:
        """Deeper checks on the first op's outputs; raise BenchError on failure."""

    def check(self) -> None:
        sums = [digest(p) for p in self.outputs()]
        if self.digests is None:
            self.check_first()
            self.digests = sums
        elif sums != self.digests:
            raise BenchError("output bytes differ from the first op")

    def op(self) -> Op:
        children = [self.spawner.run(["-m", "ormediate.cli", *argv]) for argv in self.commands()]
        ok = all(c.code == 0 for c in children)
        if ok:
            try:
                self.check()
            except (BenchError, OSError, KeyError, ValueError) as exc:  # missing or malformed output
                print(f"# gate failed: {exc}", file=sys.stderr)
                ok = False
        else:
            print(f"# exit codes {[c.code for c in children]}", file=sys.stderr)
        return Op(
            wall=sum(c.wall for c in children),
            cpu=sum(c.cpu for c in children),
            rss_mb=max(c.rss_mb for c in children),
            ok=ok,
        )

    def replay(self) -> None:
        for argv in self.commands():
            call_main(self.pkg, argv)

    def traced_op(self, tracer, index: int) -> tuple[Op, dict]:
        op = self.op()
        walls = {}
        # alternate which replay goes first, so neither always runs cold
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            start = perf_counter()
            if traced:
                tracer.op = str(index)
                with tracer:
                    self.replay()
            else:
                self.replay()
            walls[traced] = perf_counter() - start
        self.traced_extra(tracer, index)
        return op, {"plain": walls[False], "traced": walls[True], "startup": op.wall - walls[False]}

    def traced_extra(self, tracer, index: int) -> None:
        pass


class CsvRoundtrip(CliWorkload):
    name = "csv-roundtrip"
    work_unit = "rows"
    units_per_op = 200_000

    def setup(self) -> None:
        io = self.pkg.io
        self.fixture = io.load_coefficients(FIXTURE)
        self.csv = self.work / "data.csv"
        self.report = self.work / "fit.json"
        self.profiles = []
        for _, prof in self.fixture.profiles:
            values = io.profile_values(self.fixture.spec, prof)
            self.profiles += ["--profile", ",".join(f"{k}={v!r}" for k, v in values.items())]

    def commands(self):
        return [
            ["simulate", "--coef-file", FIXTURE, "--n", str(self.units_per_op),
             "--seed", str(self.seed), "--output", str(self.csv)],
            ["fit", "--input", str(self.csv), "--z", ",".join(self.fixture.spec.z_names),
             *self.profiles, "--output", str(self.report)],
        ]

    def outputs(self):
        return [self.csv, self.report]

    def check_first(self):
        fitted = self.pkg.io.load_coefficients(str(self.report))
        truth = self.fixture
        if not (
            within_se(fitted.outcome.active_vector(), fitted.outcome_vcov,
                      truth.outcome.active_vector())
            and within_se(fitted.mediator.active_vector(), fitted.mediator_vcov,
                          truth.mediator.active_vector())
        ):
            raise BenchError(f"a fitted coefficient is more than {SE_GATE} SE from the fixture")


class EffectsSweep(CliWorkload):
    name = "effects-sweep"
    work_unit = "profiles"
    units_per_op = 1000
    fit_rows = 40_000
    checked_profiles = 25

    def setup(self) -> None:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        data = self.work / "fit-input.csv"
        self.coef_file = self.work / "coefficients.json"
        self.out = self.work / "effects.json"
        profiles = []
        for _ in range(self.units_per_op):
            age, edu, loans = rng.uniform(17.0, 70.0), float(rng.random() < 0.5), rng.uniform(0.0, 3.0)
            profiles += ["--profile", f"age={age!r},edu={edu!r},loans={loans!r}"]
        call_main(self.pkg, ["simulate", "--coef-file", FIXTURE, "--n", str(self.fit_rows),
                             "--seed", str(self.seed), "--output", str(data)])
        call_main(self.pkg, ["fit", "--input", str(data), "--z", "age,edu,loans", "--v", "age,loans",
                             "--interactions", "xz,wz,xwz,xv", *profiles,
                             "--output", str(self.coef_file)])
        self.sample = rng.choice(self.units_per_op, self.checked_profiles, replace=False)

    def commands(self):
        return [["effects", "--coef-file", str(self.coef_file), "--output", str(self.out)]]

    def outputs(self):
        return [self.out]

    def check_first(self):
        pkg = self.pkg
        coef = pkg.io.load_coefficients(str(self.coef_file))
        outcome_fit, mediator_fit = coef.fitted_models()
        x, x_star = coef.exposure_levels
        doc = json.loads(self.out.read_text())
        if doc["config"]["mode"] != "inference":
            raise BenchError("effects did not run in inference mode")
        tables = {t["profile"]: {e["name"]: e for e in t["effects"]} for t in doc["effects"]}
        for i in self.sample:
            name, prof = coef.profiles[int(i)]
            result = pkg.delta.infer(coef.spec, outcome_fit, mediator_fit,
                                     pkg.model.Contrast(x, x_star, prof), level=0.95)
            for e in (*result.effects, *result.cde):
                got = tables[name][e.name]
                pairs = ((e.log_estimate, got["log"]), (e.se_log, got["se_log"]),
                         (e.ci_lower, got["ci_lower"]), (e.ci_upper, got["ci_upper"]),
                         (e.p_value, got["p_value"]))
                if not all(close(a, b) for a, b in pairs):
                    raise BenchError(f"{name}/{e.name} differs from in-process infer")


class Verify(CliWorkload):
    name = "verify"
    work_unit = "draws"
    count = 300
    units_per_op = count * len(SUITES)

    def setup(self) -> None:
        self.out = self.work / "verify.json"
        perturbed = self.work / "perturbed.json"
        child = self.spawner.run(["-m", "ormediate.cli", "verify", "--count", str(self.count),
                                  "--seed", str(self.seed), "--perturb", "1e-3",
                                  "--output", str(perturbed)])
        suites = json.loads(perturbed.read_text())["suites"] if perturbed.exists() else []
        self.perturb_failed = sum(not s["passed"] for s in suites)
        if child.code != 5:
            self.gate_failures.append(f"--perturb 1e-3 exited {child.code}, expected 5")

    def commands(self):
        return [["verify", "--count", str(self.count), "--seed", str(self.seed),
                 "--output", str(self.out)]]

    def check(self):
        doc = json.loads(self.out.read_text())
        suites = doc["suites"]
        if not (doc["passed"] and len(suites) == len(SUITES) and all(s["passed"] for s in suites)):
            raise BenchError("verify did not pass 5/5 suites")

    def traced_extra(self, tracer, index):
        # per-suite times come from run_suite, replayed as an op of its own
        tracer.op = f"{index}/suites"
        with tracer:
            for name in self.pkg.verify.SUITE_NAMES:
                self.pkg.verify.run_suite(name, seed=self.seed, count=self.count)


class LibraryFit:
    """In-process: build both designs and fit both models on 1M simulated rows."""

    name = "library-fit"
    work_unit = "rows"
    units_per_op = 1_000_000

    def __init__(self, pkg, seed: int, work: Path, spawner: Spawner):
        self.pkg, self.seed = pkg, seed
        self.gate_failures: list[str] = []
        self.coefficients = None

    def setup(self) -> None:
        pkg = self.pkg
        self.fixture = pkg.io.load_coefficients(FIXTURE)
        f = self.fixture
        self.data = pkg.simulate.simulate_dataset(
            f.spec, f.outcome, f.mediator, self.units_per_op, self.seed,
            covariate_marginals=f.covariate_marginals, exposure_marginal=f.exposure_marginal,
        )
        self.fits()  # warm-up: the first fit in a process pays for growing the heap

    def fits(self):
        model, logit, spec = self.pkg.model, self.pkg.logit, self.fixture.spec
        design_y, y = model.build_design(self.data, spec, "outcome")
        outcome = logit.fit(design_y, y, column_names=spec.outcome_terms())
        design_w, w = model.build_design(self.data, spec, "mediator")
        mediator = logit.fit(design_w, w, column_names=spec.mediator_terms())
        return outcome, mediator

    def check(self, outcome, mediator) -> None:
        got = outcome.coefficients.tobytes() + mediator.coefficients.tobytes()
        if self.coefficients is None:
            f = self.fixture
            if not (within_se(outcome.coefficients, outcome.vcov, f.outcome.active_vector())
                    and within_se(mediator.coefficients, mediator.vcov,
                                  f.mediator.active_vector())):
                raise BenchError(f"a fitted coefficient is more than {SE_GATE} SE from the fixture")
            self.coefficients = got
        elif got != self.coefficients:
            raise BenchError("coefficients differ bitwise from the first op")

    def op(self) -> Op:
        cpu0, start = self_cpu(), perf_counter()
        outcome, mediator = self.fits()
        wall, cpu = perf_counter() - start, self_cpu() - cpu0
        try:
            self.check(outcome, mediator)
            ok = True
        except BenchError as exc:
            print(f"# gate failed: {exc}", file=sys.stderr)
            ok = False
        # an in-process op has no child: this is the process's high-water mark
        return Op(wall=wall, cpu=cpu, rss_mb=self_rss_mb(), ok=ok)

    def traced_op(self, tracer, index: int) -> tuple[Op, dict]:
        walls = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.op = str(index)
                with tracer:
                    op = self.op()
            else:
                op = self.op()
            walls[traced] = op.wall
        return op, {"plain": walls[False], "traced": walls[True], "startup": 0.0}


WORKLOADS = {w.name: w for w in (CsvRoundtrip, EffectsSweep, Verify, LibraryFit)}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the slowest op while fewer than 20 ops leave that
    percentile below the median."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= 20 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(setups: list[Op], ops: list[Op], units_per_op: int) -> tuple[dict, dict]:
    """Speed-adjusted metrics, and the same computed from raw times."""

    def summary(scale):
        walls = [op.wall * scale(op) for op in ops]
        tail_value, tail_pct = tail(walls)
        values = {
            "setup_s": statistics.median(op.wall * scale(op) for op in setups),
            "op_s.p50": statistics.median(walls),
            "op_s.tail": tail_value,
            "work_per_s": units_per_op * len(ops) / sum(walls),
            "cpu_s.p50": statistics.median(op.cpu * scale(op) for op in ops),
            "peak_rss_mb": max(op.rss_mb for op in ops),
        }
        return {name: values[name] for name in UNITS}, tail_pct

    values, tail_pct = summary(lambda op: op.speed)
    raw, _ = summary(lambda op: 1.0)
    n = {name: len(ops) for name in values}
    n["setup_s"] = len(setups)
    return values, {"n": n, "tail_percentile": tail_pct, "raw": raw,
                    "op_walls": [op.wall for op in ops], "speeds": [op.speed for op in ops]}


def per_op_sums(tracer) -> dict[str, dict[str, float]]:
    """op id -> key -> total over that op's spans (self time, wall, calls, bytes)."""
    sums: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        d, name = sums[span["op"]], span["name"]
        d[name + ".s"] += self_s
        d[name + ".wall"] += span["end"] - span["start"]
        d[name + ".calls"] += 1
        d[name + ".bytes"] += span.get("bytes", 0)
        d["spans"] += 1
        if name == "logit.fit":
            d[f"logit.fit.{span['role']}.s"] += self_s
            d["logit.fit.iterations"] += span["iterations"]
    return sums


def layer_metrics(tracer, extras: list[dict]) -> tuple[dict, dict]:
    sums = per_op_sums(tracer)
    ops = [d for op, d in sums.items() if "/" not in op]
    suite_ops = [d for op, d in sums.items() if op.endswith("/suites")]

    def med(key, rows=ops):
        return statistics.median(d.get(key, 0.0) for d in rows) if rows else 0.0

    def ratio(num_key, den_key, scale=1.0):
        num = sum(d.get(num_key, 0.0) for d in ops)
        den = sum(d.get(den_key, 0.0) for d in ops)
        return scale * num / den if den else 0.0

    def per_call(name):
        return ratio(name + ".s", name + ".calls")

    plain = statistics.median(e["plain"] for e in extras)
    traced = statistics.median(e["traced"] for e in extras)
    values = {
        "cli.startup_s": statistics.median(e["startup"] for e in extras),
        "cli.main.s": med("cli.main.wall"),
        "cli.self_s": med("cli.main.s"),
        "io.read_table.mb_per_s": ratio("io.read_table.bytes", "io.read_table.s", 1e-6),
        "io.write_table.mb_per_s": ratio("io.write_table.bytes", "io.write_table.s", 1e-6),
        "io.save_json.bytes": med("io.save_json.bytes"),
        "model.build_design.bytes": med("model.build_design.bytes"),
        "logit.fit.outcome.s": med("logit.fit.outcome.s"),
        "logit.fit.mediator.s": med("logit.fit.mediator.s"),
        "logit.fit.iterations": med("logit.fit.iterations"),
        "logit.fit.s_per_iter": ratio("logit.fit.s", "logit.fit.iterations"),
        "delta.infer.calls": med("delta.infer.calls"),
        "effects.natural_effects.calls": med("effects.natural_effects.calls"),
        "trace.overhead_s": traced - plain,
        "trace.overhead_ratio": (traced - plain) / plain,
        "trace.spans_per_op": med("spans"),
    }
    for name in ("io.read_table", "io.write_table", "io.bind_dataset", "io.coefficients_to_doc",
                 "io.save_json", "io.load_coefficients", "simulate.simulate_dataset",
                 "model.build_design"):
        values[name + ".s"] = med(name + ".s")
    for name in ("delta.infer", "delta.jacobian_log_effects", "effects.natural_effects",
                 "oracle.tables_from_params", "oracle.mediation_formula_effects",
                 "oracle.finite_diff"):
        values[name + ".s_per_call"] = per_call(name)
    for suite in SUITES:
        # a suite's own span is inclusive: the time run_suite takes for it
        values[f"verify.{suite}.s"] = med(f"verify.{suite}.wall", suite_ops)
    values = {name: float(values[name]) for name in LAYER_UNITS}
    n = {name: len(ops) for name in values}
    n.update({f"verify.{suite}.s": len(suite_ops) for suite in SUITES})
    n.update({k: len(extras) for k in ("cli.startup_s", "trace.overhead_s", "trace.overhead_ratio")})
    return values, {"n": n}


# ---------------------------------------------------------------------------
# machine stamp
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes, func.restype = [], ctypes.c_int
                return int(func())
    return None


def package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": package_version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_pinned": False,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_package():
    """Import ormediate from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ormediate
    from ormediate import cli, delta, io, logit, model, simulate, verify

    if Path(ormediate.__file__).resolve().parent != (SRC / "ormediate").resolve():
        raise SystemExit(f"error: ormediate imported from {ormediate.__file__}, not {SRC}")
    return argparse.Namespace(cli=cli, delta=delta, io=io, logit=logit, model=model,
                              simulate=simulate, verify=verify)


def measure_setup(spawner: Spawner, reference: SpeedReference) -> list[Op]:
    imports = []
    for _ in range(SETUP_IMPORTS):
        child = spawner.run(["-c", "import ormediate.cli"])
        if child.code != 0:
            raise BenchError(f"importing ormediate.cli exited {child.code}")
        imports.append(Op(child.wall, child.cpu, child.rss_mb, True, reference.speed()))
    return imports


def run(args, pkg, work: Path, spawner: Spawner) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload](pkg, args.seed, work, spawner)
    # per-layer numbers stay raw: the traced run takes no speed reference
    reference = None if args.trace else SpeedReference(spawner)
    setups = measure_setup(spawner, reference) if reference else []
    workload.setup()
    if reference:
        reference.speed()  # restart the reference clock after set-up

    tracer = None
    if args.trace:
        tracer = Tracer()
    ops, extras, durations = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        start = perf_counter()
        if tracer is None:
            op = workload.op()
            op.speed = reference.speed()
            ops.append(op)
        else:
            op, extra = workload.traced_op(tracer, len(ops))
            ops.append(op)
            extras.append(extra)
        durations.append(perf_counter() - start)
        if perf_counter() + statistics.median(durations) > deadline:
            break

    failed = sum(not op.ok for op in ops)
    if tracer is None:
        values, info = end_to_end(setups, ops, workload.units_per_op)
        units = UNITS
    else:
        values, info = layer_metrics(tracer, extras)
        units = LAYER_UNITS
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": failed == 0 and not workload.gate_failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    info.update(gate_failures=workload.gate_failures, work_unit=workload.work_unit,
                units_per_op=workload.units_per_op)
    if hasattr(workload, "perturb_failed"):
        info["perturb_suites_failed"] = workload.perturb_failed
    return result, info


def report(args, result, info, stamp) -> None:
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ({info['units_per_op']} {info['work_unit']} per op)")
    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        note = f"n={info['n'][name]}"
        if "raw" in info and UNITS[name] != "MB":
            note += f", raw {info['raw'][name]:.6g}"
        if name == "op_s.tail":
            note += f", p{info['tail_percentile']:.0f}"
        if name == "work_per_s":
            note += f", {info['work_unit']}/s"
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']:<7} ({note})")
    print(f"{'fail_ratio':<44} {result['failed']:>7d}/{result['attempted']:<6d}")
    if "perturb_suites_failed" in info:
        print(f"# --perturb 1e-3: {info['perturb_suites_failed']}/{len(SUITES)} suites failed")
    for failure in info["gate_failures"]:
        print(f"# gate failed: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result as a JSON line here")
    args = parser.parse_args(argv)
    args.seed %= 2**31

    if not (SRC / "ormediate" / "__init__.py").is_file():
        print(f"error: no ormediate package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with Spawner(env) as spawner:
            pkg = load_package()
            result, info = run(args, pkg, work, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = machine_stamp()
    report(args, result, info, stamp)
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "stamp": stamp, "info": info, "result": result}
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
