import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ormediate import (
    ConvergenceError,
    FittedModel,
    NumericalError,
    SchemaError,
    SeparationError,
    SingularDesignError,
    fit,
    predict_prob,
    wald_table,
)
from ormediate import _Children, logit
from ormediate.delta import _two_sided_p, _wald_quantile
from ormediate.logit import _BLOCK_ROWS, _RANK_RTOL, _WORKER_BLOCKS
from ormediate.oracle import finite_diff
from helpers import child_env, no_child_left


def _evaluate(X, y, beta):
    """One pass at ``beta``, with workers of its own."""
    with logit._Passes(X, y) as evaluate:
        return evaluate(beta)


def _sim_design(rng, n, beta):
    k = len(beta)
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
    prob = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (rng.random(n) < prob).astype(float)
    return X, y


class TestFit:
    def test_intercept_only_balanced(self):
        n = 50
        y = np.array([1.0] * 25 + [0.0] * 25)
        m = fit(np.ones((n, 1)), y)
        assert m.converged
        assert m.coefficients[0] == 0.0  # score is exactly zero at the start
        assert m.vcov[0, 0] == pytest.approx(4.0 / n, rel=1e-12)

    def test_saturated_two_by_two(self):
        # 30/100 events at x=0, 60/100 at x=1: slope = logit(0.6)-logit(0.3) = log(3.5)
        x = np.r_[np.zeros(100), np.ones(100)]
        y = np.r_[np.ones(30), np.zeros(70), np.ones(60), np.zeros(40)]
        m = fit(np.column_stack([np.ones(200), x]), y)
        assert m.coefficients[1] == pytest.approx(math.log(3.5), abs=1e-9)
        assert m.coefficients[0] == pytest.approx(math.log(3.0 / 7.0), abs=1e-9)

    def test_score_is_zero_at_solution(self):
        rng = np.random.default_rng(3)
        X, y = _sim_design(rng, 800, [-0.4, 0.9, -0.6])
        m = fit(X, y)
        _, score, _ = _evaluate(X, y, m.coefficients)
        assert np.max(np.abs(score)) < 1e-8

    def test_recovers_truth_within_4_se(self):
        rng = np.random.default_rng(42)
        beta = np.array([-0.5, 0.8, 0.4])
        X, y = _sim_design(rng, 5000, beta)
        m = fit(X, y)
        assert np.all(np.abs(m.coefficients - beta) < 4.0 * m.standard_errors)

    def test_refit_bit_identical(self):
        rng = np.random.default_rng(5)
        X, y = _sim_design(rng, 400, [0.2, -0.7])
        a, b = fit(X, y), fit(X, y)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.vcov, b.vcov)
        assert a.log_likelihood == b.log_likelihood

    def test_separation_raises(self):
        x = np.r_[np.zeros(20), np.ones(20)]
        y = x.copy()  # y == x: perfectly separated
        with pytest.raises(SeparationError):
            fit(np.column_stack([np.ones(40), x]), y)

    def test_constant_response_raises(self):
        X = np.column_stack([np.ones(30), np.arange(30.0)])
        with pytest.raises(SeparationError):
            fit(X, np.ones(30))

    def test_singular_design_names_columns(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=60)
        X = np.column_stack([np.ones(60), z, 2.0 * z])
        y = (rng.random(60) < 0.5).astype(float)
        with pytest.raises(SingularDesignError, match="dup"):
            fit(X, y, column_names=("const", "z", "dup"))

    def test_overflowing_information_names_the_column(self):
        # 0.25 * 1e308**2 overflows: a NumericalError naming the column, and
        # no RuntimeWarning (pytest makes one an error)
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(60), rng.normal(size=60), rng.normal(size=60)])
        X[5, 2] = -1e308
        y = (rng.random(60) < 0.5).astype(float)
        with pytest.raises(NumericalError, match=r"column 'age' reaches \|value\| 1e\+308"):
            fit(X, y, column_names=("const", "z", "age"))

    def test_iteration_budget(self):
        rng = np.random.default_rng(13)
        X, y = _sim_design(rng, 300, [0.3, 1.2])
        with pytest.raises(ConvergenceError) as err:
            fit(X, y, max_iter=1)
        assert len(err.value.trace) >= 1

    def test_schema_checks(self):
        with pytest.raises(SchemaError):
            fit(np.ones((3, 1)), np.array([0.0, 2.0, 1.0]))  # non-binary
        with pytest.raises(SchemaError):
            fit(np.ones((2, 3)), np.array([0.0, 1.0]))  # n < k
        with pytest.raises(SchemaError):
            fit(np.array([[1.0, np.nan]]), np.array([1.0]))

    @pytest.mark.parametrize("max_iter", [-1, 2.5, 100.0, True, "100", None])
    def test_an_iteration_budget_that_is_no_count_is_a_schema_error(self, max_iter):
        rng = np.random.default_rng(13)
        X, y = _sim_design(rng, 300, [0.3, 1.2])
        with pytest.raises(SchemaError, match="max_iter must be a non-negative integer"):
            fit(X, y, max_iter=max_iter)

    def test_an_iteration_budget_of_numpy_zero_fits_a_design_solved_at_zero(self):
        X, y = np.ones((4, 1)), np.array([0.0, 1.0, 0.0, 1.0])
        assert fit(X, y, max_iter=np.int64(0)).iterations == 0

    def test_column_names_as_one_string_is_a_schema_error(self):
        rng = np.random.default_rng(13)
        X, y = _sim_design(rng, 300, [0.3, 1.2])
        with pytest.raises(SchemaError, match="not the string 'ab'"):
            fit(X, y, column_names="ab")
        assert fit(X, y, column_names=["a", "b"]).column_names == ("a", "b")

    def test_input_checks_read_every_block_in_the_same_order(self):
        # the first bad value sits in the last block, past three whole ones
        n = 3 * _BLOCK_ROWS + 5
        X, y = np.ones((n, 2)), np.zeros(n)
        X[-1, 1], y[0] = np.inf, 0.5
        with pytest.raises(SchemaError, match="design matrix contains non-finite values"):
            fit(X, y)
        X[-1, 1], y[0], y[-1] = 0.0, 0.0, 2.0
        with pytest.raises(SchemaError, match="response must be binary 0/1"):
            fit(X, y)

    def test_design_with_no_columns_is_a_schema_error(self, monkeypatch):
        monkeypatch.setattr(logit, "_Passes", lambda *a: pytest.fail("a pass ran"))
        with pytest.raises(SchemaError, match="no columns"):
            fit(np.zeros((3, 0)), [0.0, 1.0, 0.0])


class TestKernel:
    @pytest.mark.parametrize("seed", range(5))
    def test_score_and_info_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 3))])
        y = (rng.random(200) < 0.4).astype(float)
        beta = rng.normal(size=4) * 0.5
        _, score, info = _evaluate(X, y, beta)

        def loglik(b):
            return _evaluate(X, y, b)[0]

        grad = finite_diff(loglik, beta)
        assert np.max(np.abs(score - grad)) < 1e-7 * np.max(np.abs(score))
        # a difference of differences needs a coarser step than the default 1e-6
        hessian = finite_diff(lambda b: finite_diff(loglik, b, rel_step=1e-4), beta, rel_step=1e-4)
        assert np.max(np.abs(info + hessian)) < 1e-6 * np.max(np.abs(info))

    def _blocked_problem(self):
        rng = np.random.default_rng(21)
        n = 3 * _BLOCK_ROWS + 17  # three full blocks and a short one
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 4))])
        y = (rng.random(n) < 0.35).astype(float)
        return X, y, rng.normal(size=5) * 0.4

    def test_blocks_agree_with_one_pass(self):
        X, y, beta = self._blocked_problem()
        ll, score, info = _evaluate(X, y, beta)
        # the whole design at once, as one numpy expression per quantity
        eta = X @ beta
        mu = 1.0 / (1.0 + np.exp(-eta))
        ref_ll = float(y @ eta - np.logaddexp(0.0, eta).sum())
        ref_score = X.T @ (y - mu)
        ref_info = (X * (mu * (1.0 - mu))[:, None]).T @ X
        assert ll == pytest.approx(ref_ll, rel=1e-12, abs=0)
        assert np.max(np.abs(score - ref_score)) <= 1e-12 * np.max(np.abs(ref_score))
        assert np.max(np.abs(info - ref_info)) <= 1e-12 * np.max(np.abs(ref_info))

    def test_repeat_call_bit_identical(self):
        X, y, beta = self._blocked_problem()
        (ll_a, score_a, info_a), (ll_b, score_b, info_b) = (
            _evaluate(X, y, beta),
            _evaluate(X, y, beta),
        )
        assert ll_a == ll_b
        assert score_a.tobytes() == score_b.tobytes()
        assert info_a.tobytes() == info_b.tobytes()

    def test_fit_allocates_no_design_sized_temporary(self):
        rng = np.random.default_rng(8)
        X, y = _sim_design(rng, 200_000, [-0.3, 0.5, -0.2, 0.4, 0.1, -0.6, 0.3])
        assert X.flags.c_contiguous and X.dtype == np.float64
        fit(X, y)  # any one-off allocations of the first call happen here
        tracemalloc.start()
        try:
            fit(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4

    def test_input_checks_hold_no_n_row_temporary(self):
        # a pass holds one block's weighted rows and a few block-length
        # vectors; whole-design checks would add an n x k bool array
        rng = np.random.default_rng(8)
        X, y = _sim_design(rng, 200_000, [-0.3, 0.5, -0.2, 0.4, 0.1, -0.6, 0.3])
        fit(X, y)
        tracemalloc.start()
        try:
            fit(X, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * X[:_BLOCK_ROWS].nbytes


def _record_forks(monkeypatch) -> list[int]:
    """The pids of the workers forked from now on, in order."""
    pids: list[int] = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


class _BlockLog:
    """Which process computed each block: every process appends a line per
    block to one file (O_APPEND, one write per line)."""

    def __init__(self, monkeypatch, path):
        self._path = path
        path.touch()
        block_sums = logit._block_sums

        def recording(X, y, beta, start):
            with open(path, "a") as log:
                log.write(f"{os.getpid()} {start}\n")
            return block_sums(X, y, beta, start)

        monkeypatch.setattr(logit, "_block_sums", recording)

    def take(self) -> dict[int, list[int]]:
        """The block starts each process computed since the last take."""
        seen: dict[int, list[int]] = {}
        for line in self._path.read_text().splitlines():
            pid, start = map(int, line.split())
            seen.setdefault(pid, []).append(start)
        self._path.write_text("")
        return seen


@pytest.fixture
def block_log(monkeypatch, tmp_path):
    return _BlockLog(monkeypatch, tmp_path / "blocks.log")


class TestWorkerPass:
    """A pass shares its blocks out among the fitting process and one forked
    worker per other usable CPU, and the bits never depend on how many there
    are."""

    @staticmethod
    def _problem():
        # three processes' worth of blocks, and a short last block
        rng = np.random.default_rng(29)
        n = 3 * _WORKER_BLOCKS * _BLOCK_ROWS + 2 * _BLOCK_ROWS + 101
        X, y = _sim_design(rng, n, [-0.4, 0.6, -0.3, 0.2, 0.5])
        return X, y

    @staticmethod
    def _bits(model):
        return (model.coefficients.tobytes(), model.vcov.tobytes(),
                repr(model.log_likelihood), model.iterations)

    def test_the_worker_count_does_not_change_the_bits(self, monkeypatch, block_log):
        X, y = self._problem()
        beta = np.array([-0.2, 0.5, -0.1, 0.3, 0.4])
        results = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(logit, "_usable_cpus", lambda: cpus)
            ll, score, info = _evaluate(X, y, beta)
            seen = block_log.take()
            assert len(seen) == cpus
            # each process takes a contiguous range of blocks, the caller the first
            ranges = sorted(seen.values())
            assert seen[os.getpid()] == ranges[0]
            assert [s for r in ranges for s in r] == list(range(0, len(y), _BLOCK_ROWS))
            results.append((repr(ll), score.tobytes(), info.tobytes(), *self._bits(fit(X, y))))
            block_log.take()
        assert results[0] == results[1] == results[2]

    # the zero start and the general pass share out their blocks alike
    _BETAS = pytest.mark.parametrize(
        "beta", [np.zeros(5), np.array([0.1, -0.2, 0.3, -0.4, 0.5])], ids=["zero", "general"])

    @_BETAS
    def test_a_worker_takes_at_least_its_share_of_blocks(self, monkeypatch, block_log, beta):
        X, y = self._problem()
        rows = (2 * _WORKER_BLOCKS - 1) * _BLOCK_ROWS  # one block short of two processes
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 8)
        _evaluate(X[:rows], y[:rows], beta)
        assert list(block_log.take()) == [os.getpid()]
        _evaluate(X[: rows + 1], y[: rows + 1], beta)
        assert len(block_log.take()) == 2

    def test_a_wide_design_of_one_block_stays_in_the_caller(self, monkeypatch, block_log):
        # the width never makes a range, so none is empty: 16 columns, one block
        rng = np.random.default_rng(31)
        X, y = _sim_design(rng, _BLOCK_ROWS, np.linspace(-0.3, 0.3, 16))
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 8)
        _evaluate(X, y, np.zeros(16))
        assert list(block_log.take()) == [os.getpid()]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_overflow_in_the_last_block_raises_without_a_warning(
            self, monkeypatch, block_log, cpus):
        # the pass at beta = 0 runs under np.errstate(over="ignore"); a worker
        # raises on every category its caller does not ignore, so it ignores
        # the overflow too and keeps its block (pytest makes a RuntimeWarning
        # an error, which would surface here)
        X, y = self._problem()
        X[-1, 2] = -1e308
        monkeypatch.setattr(logit, "_usable_cpus", lambda: cpus)
        with pytest.raises(NumericalError, match=r"column 'age' reaches \|value\| 1e\+308"):
            fit(X, y, column_names=("const", "z", "age", "edu", "loans"))
        seen = block_log.take()
        last = (len(y) - 1) // _BLOCK_ROWS * _BLOCK_ROWS
        assert len(seen) == cpus
        assert last not in seen[os.getpid()]
        no_child_left()

    @_BETAS
    def test_an_exception_in_a_worker_reaches_the_caller(self, monkeypatch, block_log, beta):
        X, y = self._problem()
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 3)
        failure = ZeroDivisionError("in the last block")
        last = (len(y) - 1) // _BLOCK_ROWS * _BLOCK_ROWS
        block_sums = logit._block_sums

        def failing(X, y, beta, start):
            if start == last:
                raise failure
            return block_sums(X, y, beta, start)

        monkeypatch.setattr(logit, "_block_sums", failing)
        with pytest.raises(ZeroDivisionError) as err:
            _evaluate(X, y, beta)
        assert err.value is failure
        seen = block_log.take()
        assert len(seen) == 3
        # the worker failed, so the caller took its range
        assert seen[os.getpid()][-1] == last - _BLOCK_ROWS
        no_child_left()

    def test_a_warning_in_a_worker_is_the_callers_alone(self, monkeypatch, capfd):
        # warnings are errors in a worker, so the caller computes the range
        # again and warns once, as one process would, and the worker prints
        # nothing
        X, y = self._problem()
        beta = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        expected = _evaluate(X, y, beta)
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 3)
        last = (len(y) - 1) // _BLOCK_ROWS * _BLOCK_ROWS
        block_sums = logit._block_sums

        def warning(X, y, beta, start):
            if start == last:
                warnings.warn("in the last block", UserWarning)
            return block_sums(X, y, beta, start)

        monkeypatch.setattr(logit, "_block_sums", warning)
        with pytest.warns(UserWarning, match="in the last block") as record:
            ll, score, info = _evaluate(X, y, beta)
        assert len(record) == 1
        assert capfd.readouterr() == ("", "")
        assert (ll, score.tobytes(), info.tobytes()) == (
            expected[0], expected[1].tobytes(), expected[2].tobytes())
        no_child_left()

    def test_the_caller_takes_a_range_whose_worker_cannot_fork(self, monkeypatch, block_log):
        X, y = self._problem()
        beta = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 3)
        forked = _evaluate(X, y, beta)
        assert len(block_log.take()) == 3

        def refuse():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        ll, score, info = _evaluate(X, y, beta)
        assert list(block_log.take()) == [os.getpid()]
        assert (ll, score.tobytes(), info.tobytes()) == (
            forked[0], forked[1].tobytes(), forked[2].tobytes())

    @pytest.mark.parametrize("victim, before", [(0, 2), (1, 4)])
    def test_a_worker_killed_between_passes_does_not_change_the_bits(
            self, monkeypatch, victim, before):
        X, y = self._problem()
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 3)
        expected = self._bits(fit(X, y))
        pids = _record_forks(monkeypatch)
        passes = []
        call = logit._Passes.__call__

        def killing(self, beta):
            passes.append(beta)
            if len(passes) == before:  # the worker is dead when the pass starts
                os.kill(pids[victim], signal.SIGKILL)
                os.waitid(os.P_PID, pids[victim], os.WEXITED | os.WNOWAIT)
            return call(self, beta)

        monkeypatch.setattr(logit._Passes, "__call__", killing)
        assert self._bits(fit(X, y)) == expected
        assert len(pids) == 2 and len(passes) > before
        no_child_left()

    @pytest.mark.parametrize("ending", ["returns", "raises"])
    def test_no_worker_outlives_a_fit(self, monkeypatch, ending):
        X, y = self._problem()
        monkeypatch.setattr(logit, "_usable_cpus", lambda: 3)
        pids = _record_forks(monkeypatch)
        reaped = []
        reap = _Children.reap
        monkeypatch.setattr(_Children, "reap", lambda self, pid: reaped.append(reap(self, pid)))
        if ending == "returns":
            fit(X, y)
            # each worker left through os._exit(0) at the end of its input
            assert reaped == [True, True]
        else:
            with pytest.raises(ConvergenceError):
                fit(X, y, max_iter=1)
            assert reaped == []  # killed and reaped
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_no_worker_outlives_a_killed_fit(self):
        # the fitting process stalls in its own range of the first general
        # pass, and is killed there: each worker's input ends, and it leaves
        code = textwrap.dedent(f"""
            import os, time
            import numpy as np
            from ormediate import logit
            logit._usable_cpus = lambda: 3
            fork, parent = os.fork, os.getpid()

            def recording():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            os.fork = recording
            block_sums = logit._block_sums

            def stalling(X, y, beta, start):
                if os.getpid() == parent and beta.any():
                    print("stalled", flush=True)
                    time.sleep(60)
                return block_sums(X, y, beta, start)

            logit._block_sums = stalling
            rng = np.random.default_rng(29)
            n = {3 * _WORKER_BLOCKS * _BLOCK_ROWS}
            X = np.column_stack([np.ones(n), rng.normal(size=n)])
            logit.fit(X, (rng.random(n) < 0.5).astype(float))
        """)
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                                env=child_env())
        pids = []
        try:
            for line in proc.stdout:
                if line == "stalled\n":
                    break
                pids.append(int(line))
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 30
        try:
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(_running, pids))
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether a process runs; a zombie that awaits its reaper has ended."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


# negative cells, whose products with a zero coefficient are -0.0, -0.0 and
# subnormal cells, which the weighting keeps or rounds, and large ones
_CELLS = st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 0.3,
                          -2.75, 1e150, -7e100])
# a single short block, a full one and a short one, or three threads' blocks;
# at many block lengths -m log1p(1) is not the stage's sum of m log1p(1)
_ROWS = st.one_of(st.integers(1, _BLOCK_ROWS + 100),
                  st.just(3 * _WORKER_BLOCKS * _BLOCK_ROWS + 101))


class TestZeroStart:
    """At beta = 0 a block skips the general stage but gives its bits."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(rows=_ROWS, k=st.integers(1, 4), cells=st.lists(_CELLS, min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_the_zero_start_is_the_general_stage_at_zero(self, rows, k, cells, seed):
        rng = np.random.default_rng(seed)
        X = rng.choice(np.array(cells), size=(rows, k))
        y = rng.integers(0, 2, size=rows).astype(float)
        beta = np.zeros(k)

        def general(X, y, beta, start):
            return logit._general_sums(X[start : start + _BLOCK_ROWS],
                                       y[start : start + _BLOCK_ROWS], beta)

        results = []
        with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
            patch.setattr(logit, "_usable_cpus", lambda: 3)
            for block_sums in (logit._block_sums, general):
                patch.setattr(logit, "_block_sums", block_sums)
                ll, score, info = _evaluate(X, y, beta)
                results.append((np.float64(ll).tobytes(), score.tobytes(), info.tobytes()))
        assert results[0] == results[1]

    def test_a_zero_start_runs_no_general_stage(self, monkeypatch):
        rng = np.random.default_rng(31)
        X, y = _sim_design(rng, 3 * _BLOCK_ROWS + 17, [-0.4, 0.6, -0.3])
        logit._zero_loglik(17)  # the one-off runs of the general stage
        logit._zero_loglik(_BLOCK_ROWS)
        monkeypatch.setattr(logit, "_general_sums", lambda *a: pytest.fail("a general stage ran"))
        _evaluate(X, y, np.zeros(3))
        _evaluate(X, y, np.array([0.0, -0.0, 0.0]))


class TestRankScreen:
    def test_near_collinear_design_raises_naming_columns(self):
        rng = np.random.default_rng(17)
        z = rng.normal(size=300)
        X = np.column_stack([np.ones(300), z, z + 2.5e-11 * rng.normal(size=300)])
        sv = np.linalg.svd(X, compute_uv=False)
        assert 1e-12 < sv[-1] / sv[0] < _RANK_RTOL
        y = (rng.random(300) < 0.5).astype(float)
        with pytest.raises(SingularDesignError, match=r"\['near', 'z'\]"):
            fit(X, y, column_names=("const", "z", "near"))

    @staticmethod
    def _large_units():
        # column 2 in units a million times smaller than the simulation's, as
        # income in dollars: X'X's eigenvalue ratio is about 1e-12
        rng = np.random.default_rng(23)
        X, y = _sim_design(rng, 2000, [-0.2, 0.7, -0.5])
        X[:, 2] *= 1e6
        return X, y

    def test_column_rescaled_by_1e_minus_6_still_fits(self):
        X, y = self._large_units()
        rescaled = X.copy()
        rescaled[:, 2] *= 1e-6
        large, unit = fit(X, y), fit(rescaled, y)
        assert unit.coefficients[:2] == pytest.approx(large.coefficients[:2], rel=1e-9)
        assert unit.coefficients[2] == pytest.approx(1e6 * large.coefficients[2], rel=1e-9)

    def test_svd_runs_only_when_the_screen_leaves_doubt(self, monkeypatch):
        calls = []
        check_rank = logit._check_rank
        monkeypatch.setattr(
            logit, "_check_rank", lambda X, names: calls.append(names) or check_rank(X, names)
        )
        X, y = self._large_units()
        fit(X, y)
        assert len(calls) == 1
        X[:, 2] *= 1e-6
        fit(X, y)
        assert len(calls) == 1


class TestPredictAndSummary:
    def _toy_model(self, coefs):
        k = len(coefs)
        return FittedModel(
            coefficients=np.asarray(coefs, dtype=float),
            vcov=np.eye(k),
            log_likelihood=0.0,
            iterations=0,
            converged=True,
            n=1,
            column_names=tuple(f"c{i}" for i in range(k)),
        )

    def test_predict_prob_value(self):
        m = self._toy_model([-1.246, 1.903])
        assert predict_prob(m, [1.0, 1.0]) == pytest.approx(0.6586, abs=5e-5)
        assert predict_prob(m, [1.0, 0.0]) == pytest.approx(
            1.0 / (1.0 + math.exp(1.246)), rel=1e-12
        )

    def test_predict_prob_matrix_and_range(self):
        m = self._toy_model([0.0, 50.0])
        probs = predict_prob(m, np.array([[1.0, -20.0], [1.0, 0.0], [1.0, 20.0]]))
        assert probs.shape == (3,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_wald_table(self):
        rng = np.random.default_rng(31)
        X, y = _sim_design(rng, 400, [0.2, 0.9])
        rows = wald_table(fit(X, y, column_names=("const", "x")), level=0.95)
        assert [r["term"] for r in rows] == ["const", "x"]
        for r in rows:
            assert r["ci_lower"] < r["estimate"] < r["ci_upper"]
            assert 0.0 <= r["p"] <= 1.0
        # z and p match the analytic relation
        r = rows[1]
        assert r["z"] == pytest.approx(r["estimate"] / r["se"], rel=1e-12)


class TestNormalHelpers:
    @pytest.mark.parametrize(
        "level, expected",
        [
            (0.8, 1.2815515655446004),
            (0.9, 1.6448536269514722),
            (0.95, 1.959963984540054),
            (0.99, 2.5758293035489004),
        ],
    )
    def test_wald_quantile_reference_values(self, level, expected):
        assert _wald_quantile(level) == pytest.approx(expected, rel=0, abs=2e-15)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(SchemaError, match="confidence level"):
            _wald_quantile(level)

    def test_wald_quantile_at_level_rounding_to_one_is_infinite(self):
        assert _wald_quantile(math.nextafter(1.0, 0.0)) == math.inf

    @staticmethod
    def _fallback_quantile(level: float) -> float:
        """``_wald_quantile`` where ``_statistics`` does not import: through
        a ``statistics`` imported afresh, which then has its Python
        ``_normal_dist_inv_cdf``."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(sys.modules, "_statistics", None)
            mp.delitem(sys.modules, "statistics", raising=False)
            quantile = _wald_quantile(level)
            if math.isfinite(quantile):  # made by the fallback, not by the rule at 1
                assert sys.modules["statistics"]._normal_dist_inv_cdf.__module__ == "statistics"
        return quantile

    @pytest.mark.parametrize("level", [1e-300, 0.5, 0.9, 0.95, 1 - 2 ** -52])
    def test_wald_quantile_fallback_gives_the_same_bits(self, level):
        quantile = _wald_quantile(level)
        assert math.isfinite(quantile)
        assert self._fallback_quantile(level).hex() == quantile.hex()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    def test_wald_quantile_fallback_gives_the_same_bits_over_a_sweep(self, level):
        assert self._fallback_quantile(level).hex() == _wald_quantile(level).hex()

    def test_wald_quantile_fallback_keeps_the_level_rules(self):
        assert self._fallback_quantile(math.nextafter(1.0, 0.0)) == math.inf
        with pytest.raises(SchemaError, match="confidence level"):
            self._fallback_quantile(1.0)

    def test_two_sided_p_is_one_at_zero(self):
        assert _two_sided_p(0.0) == 1.0

    @pytest.mark.parametrize(
        "z, expected",
        [
            (1.959963984540054, 0.05),
            (5.0, 5.733031437583866e-07),
            (10.0, 1.523970604832094e-23),
        ],
    )
    def test_two_sided_p_reference_values(self, z, expected):
        assert _two_sided_p(z) == pytest.approx(expected, rel=1e-12, abs=0)
        assert _two_sided_p(-z) == _two_sided_p(z)

    @pytest.mark.parametrize("z", [38.5, 40.0])
    def test_two_sided_p_far_tail_is_finite_and_nonnegative(self, z):
        p = _two_sided_p(z)
        assert math.isfinite(p) and p >= 0.0

    def test_two_sided_p_is_zero_at_infinity(self):
        assert _two_sided_p(math.inf) == 0.0
        assert _two_sided_p(-math.inf) == 0.0

    def test_wald_table_zero_se_branch(self):
        model = FittedModel(
            coefficients=np.array([0.7, 0.0]),
            vcov=np.zeros((2, 2)),
            log_likelihood=0.0,
            iterations=0,
            converged=True,
            n=1,
            column_names=("c0", "c1"),
        )
        nonzero, zero = wald_table(model)
        assert nonzero["z"] == math.inf and nonzero["p"] == 0.0
        assert zero["z"] == 0.0 and zero["p"] == 1.0
