"""Logistic regression by Newton iteration (IRLS), written against the raw
log-likelihood: no weights, no regularisation, observed-information covariance.

The update solves ``info(beta) step = score(beta)`` and halves the step until
the log-likelihood is non-decreasing. Each candidate costs one pass over the
design: blocks of ``_BLOCK_ROWS`` rows are read once, and each block adds its
share of the log-likelihood, score and information while it is in cache, so
an accepted candidate brings the next score and information with it and no
temporary grows with n. The first pass, at the zero start, needs no exp,
log1p or tanh: the predictor is +-0 in every row, so each row's probability
is 1/2 and its weight 1/4, and a block adds X'(y - 1/2), 0.25 X'X and a
log-likelihood that depends only on its length, taken once per length from a
run of the general pass; the bits are the general pass's. The blocks of a
large design are shared out among worker processes, one per usable CPU,
forked once per fit; their sums come back as float64 bytes and are added in
block order, so the bits do not depend on how many workers there are, and a
worker that fails leaves its blocks to the fitting process. Each block's
products, the Newton solve, the covariance inverse and the rank check are
operations of ``_products``, which holds every BLAS and LAPACK call.
Convergence requires both a small score (max |score| < 1e-8) and a small
relative log-likelihood change (< 1e-10).

Rank-deficient designs and quasi-separated responses raise immediately rather
than returning garbage coefficients, and so does a column large enough to
overflow the information. The information at the zero start is
0.25 X'X; when its eigenvalues show the design clearly full rank, the SVD of
the design is skipped, and otherwise that SVD decides and names the collinear
columns.
"""

from __future__ import annotations

import functools
import numbers
import warnings
from contextlib import ExitStack

import numpy as np

from . import _Children, _every_block, _products, _usable_cpus
from .exceptions import (
    ConvergenceError,
    NumericalError,
    SchemaError,
    SeparationError,
    SingularDesignError,
)
from .record import Record

__all__ = ["FittedModel", "fit", "predict_prob"]

_RANK_RTOL = 1e-10
_SCORE_TOL = 1e-8
_LOGLIK_REL_TOL = 1e-10
_MAX_HALVINGS = 10
_SEPARATION_BOUND = 15.0
_BLOCK_ROWS = 8192
# the fewest blocks a worker process takes. A fork, the first pass's copies
# of written pages and the reaping cost 3-4 ms per fit on a 2-core guest;
# two ranges start to pay at 6 blocks of 7 columns and at 24-32 blocks of 2
_WORKER_BLOCKS = 6
_ERR_KINDS = ("divide", "over", "under", "invalid")  # the np.errstate categories
# eigenvalue ratio of X'X above which the design is full rank without an SVD
_SCREEN_RTOL = 1e-8


class FittedModel(Record):
    """A converged logistic fit.

    ``coefficients`` follow the design column order; ``vcov`` is the inverse
    observed information at the optimum.
    """

    __slots__ = FIELDS = ("coefficients", "vcov", "log_likelihood", "iterations", "converged",
                          "n", "column_names")

    @property
    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.diag(self.vcov))


def _check_rank(X: np.ndarray, names: tuple[str, ...]) -> None:
    sv = _products.singular_values(X)
    if sv[0] == 0.0 or sv[-1] <= sv[0] * _RANK_RTOL:
        _, s, vt = _products.svd(X)
        null = vt[s <= s[0] * _RANK_RTOL] if s[0] > 0 else vt
        involved = sorted(
            {names[j] for row in np.atleast_2d(null) for j in np.flatnonzero(np.abs(row) > 0.1)}
        )
        raise SingularDesignError(
            f"design matrix is rank deficient; collinear columns: {involved}"
        )


def _check_information(info0: np.ndarray, X: np.ndarray, names: tuple[str, ...]) -> None:
    """Raise :class:`NumericalError` when the information at beta = 0,
    0.25 X'X, overflowed: it names the column with the largest |value| among
    those whose row of the information is not finite."""
    bad = np.flatnonzero(~np.isfinite(info0).all(axis=1))
    if bad.size:
        peaks = np.abs(X[:, bad]).max(axis=0)
        j = int(np.argmax(peaks))
        raise NumericalError(
            f"the information matrix overflows: column {names[bad[j]]!r} reaches "
            f"|value| {peaks[j]:.6g}; rescale it"
        )


def _surely_full_rank(info0: np.ndarray) -> bool:
    """Whether the information at beta = 0, which is exactly 0.25 X'X and
    finite, proves the design full rank. An eigenvalue ratio above
    ``_SCREEN_RTOL`` puts the singular-value ratio of X above 1e-4: far above
    ``_RANK_RTOL`` and above the rounding error of the Gram matrix. False
    means only that the SVD of ``_check_rank`` must decide."""
    eig = _products.eigenvalues(info0)
    return bool(eig[0] > _SCREEN_RTOL * eig[-1])


class _Passes:
    """The passes of one fit over ``X`` and ``y``: a call gives the
    log-likelihood, score vector and observed information at ``beta``, from
    one read of the design in blocks of ``_BLOCK_ROWS`` rows.

    Each block's predictor, probabilities and weighted rows are formed while
    the block is in cache, so no n-length temporary is made. The blocks are
    cut into one contiguous range per usable CPU, with at least
    ``_WORKER_BLOCKS`` blocks in each. Entering the ``with`` forks a worker
    process for each range but the first. A pass sends ``beta`` to the
    workers, computes the first range in the caller, and reads each block's
    sums from the workers as float64 bytes; the caller adds them in block
    order, so the result does not depend on the number of workers and a
    repeat call is bit-identical.

    A worker runs with every ``np.errstate`` category that the caller does
    not ignore set to raise, and with warnings as errors. A worker that
    could not start, died or failed is lost, and the caller computes its
    range from then on, so every warning, exception and bit is the serial
    pass's. A worker leaves through os._exit at the end of its input, and
    leaving the ``with`` reaps every worker.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self._X, self._y = X, y
        starts = range(0, len(y), _BLOCK_ROWS)
        count = max(1, min(_usable_cpus(), len(starts) // _WORKER_BLOCKS))
        self._ranges = [starts[len(starts) * i // count : len(starts) * (i + 1) // count]
                        for i in range(count)]
        # (pid, socket) of each range's worker; None where the caller computes
        self._workers: list = [None] * count
        self._children = _Children()

    def __enter__(self) -> "_Passes":
        with ExitStack() as stack:
            stack.push(self)  # reaps the workers forked so far if a fork raises
            for i in range(1, len(self._ranges)):
                self._workers[i] = self._start(self._ranges[i])
            stack.pop_all()
        return self

    def _start(self, blocks: range) -> tuple[int, object] | None:
        """A worker for ``blocks``: its pid and the caller's end of its socket,
        or None where none could start."""
        import socket

        try:
            ours, theirs = socket.socketpair()
        except OSError:
            return None
        with theirs:
            pid = self._children.fork(self._serve, blocks, theirs, ours)
        if pid is None:
            ours.close()
            return None
        return pid, ours

    def __exit__(self, kind, *exc) -> None:
        live = [worker for worker in self._workers if worker is not None]
        for _, sock in live:
            sock.close()
        if kind is None:  # each worker leaves at the end of its input
            for pid, _ in live:
                self._children.reap(pid)
        self._children.__exit__(kind, *exc)

    def __call__(self, beta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        k = len(beta)
        errors = np.geterr()
        task = beta.tobytes() + bytes(errors[kind] == "ignore" for kind in _ERR_KINDS)
        for i, worker in enumerate(self._workers):
            if worker is not None:
                self._send(i, task)
        ll, score, info = 0.0, np.zeros(k), np.zeros((k, k))
        for i, blocks in enumerate(self._ranges):
            sums = self._received(i, (len(blocks), 1 + k + k * k))
            if sums is None:
                parts = (_block_sums(self._X, self._y, beta, start) for start in blocks)
            else:
                parts = ((float(row[0]), row[1 : k + 1], row[k + 1 :].reshape(k, k))
                         for row in sums)
            for block_ll, block_score, block_info in parts:
                ll += block_ll
                score += block_score
                info += block_info
        return ll, score, info

    def _send(self, i: int, task: bytes) -> None:
        import socket

        try:
            self._workers[i][1].sendall(task, socket.MSG_NOSIGNAL)
        except OSError:
            self._lose(i)

    def _received(self, i: int, shape: tuple[int, int]) -> np.ndarray | None:
        """The block sums of range ``i`` from its worker; None if it has none
        or they do not all arrive."""
        worker = self._workers[i]
        if worker is None:
            return None
        import socket

        sums = np.empty(shape)
        try:
            if worker[1].recv_into(sums, sums.nbytes, socket.MSG_WAITALL) == sums.nbytes:
                return sums
        except OSError:
            pass
        self._lose(i)
        return None

    def _lose(self, i: int) -> None:
        """Take range ``i`` from its worker for good; leaving the ``with``
        kills and reaps it."""
        self._workers[i][1].close()
        self._workers[i] = None

    def _serve(self, blocks: range, sock, ours) -> bool:
        """A worker's loop: the sums of ``blocks`` at each task read from
        ``sock``, sent back as float64s; True at the end of its input. The
        caller's sockets are closed first, so that the caller's exit ends
        the input of every worker."""
        import socket

        ours.close()
        for worker in self._workers:
            if worker is not None:
                worker[1].close()
        warnings.simplefilter("error")
        k = self._X.shape[1]
        task = bytearray(8 * k + len(_ERR_KINDS))
        sums = np.empty((len(blocks), 1 + k + k * k))
        while True:
            got = sock.recv_into(task, len(task), socket.MSG_WAITALL)
            if got < len(task):
                return got == 0
            beta = np.frombuffer(task, count=k).copy()
            flags = task[8 * k :]
            with np.errstate(**{kind: "ignore" if flag else "raise"
                                for kind, flag in zip(_ERR_KINDS, flags)}):
                for row, start in zip(sums, blocks):
                    ll, score, info = _block_sums(self._X, self._y, beta, start)
                    row[0], row[1 : k + 1], row[k + 1 :] = ll, score, info.ravel()
            sock.sendall(sums, socket.MSG_NOSIGNAL)


def _block_sums(
    X: np.ndarray, y: np.ndarray, beta: np.ndarray, start: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """The log-likelihood, score and information of the block at row
    ``start``: :func:`_general_sums`, or at beta = 0, where the predictor of a
    finite design is +-0, mu 0.5 and the weight 0.25, the same bits from the
    same BLAS operands with no exp, log1p or tanh."""
    xb, yb = X[start : start + _BLOCK_ROWS], y[start : start + _BLOCK_ROWS]
    if not beta.any():
        score = _products.column_sums(xb, yb - 0.5)
        return _zero_loglik(len(yb)), score, _products.gram(xb, 0.25)
    return _general_sums(xb, yb, beta)


def _general_sums(
    xb: np.ndarray, yb: np.ndarray, beta: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """The log-likelihood, score and information of the rows ``xb``. Two
    work vectors are reused in place, which rounds as the plain expressions
    ``inner(yb, eta) - (max(eta, 0) + log1p(exp(-|eta|))).sum()``,
    ``mu = 0.5 * (1 + tanh(0.5 * eta))``, ``column_sums(xb, yb - mu)`` and
    ``gram(xb, (mu * (1 - mu))[:, None])`` do, with fewer numpy calls and
    temporaries."""
    eta = _products.predictors(xb, beta)
    # log(1 + e^eta) in np.logaddexp(0, eta)'s stable form, but several
    # times faster: numpy vectorises exp and log1p, not logaddexp
    tmp = np.copysign(eta, -1.0)
    np.log1p(np.exp(tmp, out=tmp), out=tmp)
    acc = np.maximum(eta, 0.0)
    acc += tmp
    ll = float(_products.inner(yb, eta)) - float(acc.sum())
    mu = np.multiply(eta, 0.5, out=tmp)
    np.tanh(mu, out=mu)
    mu += 1.0
    mu *= 0.5
    score = _products.column_sums(xb, np.subtract(yb, mu, out=acc))
    weight = np.subtract(1.0, mu, out=acc)
    weight *= mu
    return ll, score, _products.gram(xb, weight[:, None])


@functools.lru_cache(maxsize=None)
def _zero_loglik(rows: int) -> float:
    """The log-likelihood that :func:`_general_sums` gives ``rows`` rows whose
    predictor is zero: a run of that stage, as -rows * log1p(1) may round
    otherwise."""
    return _general_sums(np.zeros((rows, 1)), np.zeros(rows), np.ones(1))[0]


def fit(
    design: np.ndarray,
    response: np.ndarray,
    *,
    column_names: tuple[str, ...] | None = None,
    max_iter: int = 100,
) -> FittedModel:
    """Fit a logistic regression of ``response`` on ``design``.

    Raises :class:`SingularDesignError` for rank-deficient designs (naming the
    collinear columns), :class:`NumericalError` when a column is so large that
    its information overflows (naming the column), :class:`SeparationError`
    when a coefficient runs past ``_SEPARATION_BOUND`` with the likelihood
    still climbing, and
    :class:`ConvergenceError` (carrying the iteration trace) when the budget
    runs out. Fitting the same arrays twice is bit-identical: the optimiser is
    deterministic, starts from zero and sums the row blocks of each pass in
    order. The pass at zero computes no exp, log1p or tanh, and gives the bits
    the general pass would. The design is read once per step-halving candidate
    and is not copied when it is already a C-contiguous float array; the rank
    check reads the information at zero and falls back to an SVD of the design
    only when that leaves doubt. The passes over a large design share its
    blocks with worker processes, one per usable CPU (``taskset`` narrows
    them), forked once per fit and reaped before it returns or raises; the
    result is the same bits whatever their number.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise SchemaError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    if isinstance(column_names, str):
        raise SchemaError(f"column_names must be a sequence of names, not the string "
                          f"{column_names!r}")
    X = np.ascontiguousarray(design, dtype=float)
    y = np.ascontiguousarray(response, dtype=float).reshape(-1)
    if X.ndim != 2:
        raise SchemaError(f"design must be 2-d, got shape {X.shape}")
    n, k = X.shape
    if k == 0:
        raise SchemaError("design has no columns")
    if y.size != n:
        raise SchemaError(f"response length {y.size} does not match {n} design rows")
    if not _every_block(np.isfinite, X, _BLOCK_ROWS):
        raise SchemaError("design matrix contains non-finite values")
    if not _every_block(lambda block: (block == 0.0) | (block == 1.0), y, _BLOCK_ROWS):
        raise SchemaError("response must be binary 0/1")
    if n < k:
        raise SchemaError(f"{n} rows cannot identify {k} coefficients")
    names = tuple(column_names) if column_names is not None else tuple(
        f"col{j}" for j in range(k)
    )
    if len(names) != k:
        raise SchemaError(f"{len(names)} column names for {k} columns")

    with _Passes(X, y) as evaluate:
        beta, ll, iterations, info = _newton(evaluate, X, names, max_iter)
    try:
        vcov = _products.inverse(info)
    except _products.LinAlgError:
        raise SingularDesignError("information matrix is singular at the optimum") from None
    vcov = (vcov + vcov.T) / 2.0
    return FittedModel(
        coefficients=beta,
        vcov=vcov,
        log_likelihood=ll,
        iterations=iterations,
        converged=True,
        n=n,
        column_names=names,
    )


def _newton(
    evaluate: _Passes, X: np.ndarray, names: tuple[str, ...], max_iter: int
) -> tuple[np.ndarray, float, int, np.ndarray]:
    """Newton iterations with step-halving from beta = 0, each candidate one
    pass of ``evaluate``: the optimum, its log-likelihood, the iteration count
    and the information there."""
    beta = np.zeros(X.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        ll, score, info = evaluate(beta)
    _check_information(info, X, names)
    if not _surely_full_rank(info):
        _check_rank(X, names)
    rel_change = np.inf
    iterations = 0
    trace = [{"iteration": 0, "loglik": ll, "max_score": float(np.max(np.abs(score)))}]

    while True:
        max_score = np.max(np.abs(score))
        if max_score < _SCORE_TOL and (iterations == 0 or rel_change < _LOGLIK_REL_TOL):
            return beta, ll, iterations, info
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} Newton iterations "
                f"(max |score| = {max_score:.3e})",
                trace=trace,
            )
        try:
            step = _products.solve(info, score)
        except _products.LinAlgError:
            raise SingularDesignError(
                f"information matrix is singular at iteration {iterations + 1}"
            ) from None

        scale, halvings = 1.0, 0
        slack = 1e-9 * (abs(ll) + 1.0)
        while True:
            candidate = beta + scale * step
            ll_new, score_new, info_new = evaluate(candidate)
            if np.isfinite(ll_new) and ll_new >= ll - slack:
                break
            if halvings >= _MAX_HALVINGS:
                raise ConvergenceError(
                    f"step-halving failed to find a non-decreasing step at "
                    f"iteration {iterations + 1}",
                    trace=trace,
                )
            scale *= 0.5
            halvings += 1

        rel_change = abs(ll_new - ll) / (abs(ll_new) + 1.0)
        increased = ll_new > ll
        beta, ll, score, info = candidate, ll_new, score_new, info_new
        iterations += 1
        trace.append(
            {
                "iteration": iterations,
                "loglik": ll,
                "max_score": float(np.max(np.abs(score))),
                "halvings": halvings,
            }
        )
        if np.max(np.abs(beta)) > _SEPARATION_BOUND and increased:
            worst = names[int(np.argmax(np.abs(beta)))]
            raise SeparationError(
                f"coefficient {worst!r} passed {_SEPARATION_BOUND:g} with the "
                "likelihood still increasing; the data are (quasi-)separated"
            )


def predict_prob(model: FittedModel, row) -> float | np.ndarray:
    """P(response = 1) for one design row (returns a float) or a stack of rows
    (returns a vector). Probabilities are strictly inside (0, 1): saturated
    predictors are clamped to the nearest representable interior value."""
    arr = np.asarray(row, dtype=float)
    prob = np.clip(_products.probabilities(arr, model.coefficients), np.finfo(float).tiny,
                   np.nextafter(1.0, 0.0))
    if arr.ndim == 1:
        return float(prob)
    return prob
