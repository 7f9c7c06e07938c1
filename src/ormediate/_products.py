"""Every BLAS and LAPACK operation whose bits reach a report or a fit's verdict.

OpenBLAS sums a product in an order that depends on the kernel it picks for
the CPU (SkylakeX, Haswell, Zen, ...), so the last bits of these operations,
and of every number computed from them, do too. Every such operation of the
package lives here, and nowhere else: ``tests/test_products.py`` parses the
package and fails on a matrix product, a dot product or a ``numpy.linalg``
name outside this module. Each operation is one numpy call, or one fixed
expression around one, so a change of summation order is a change to this
module alone. Within one kernel each operation keeps the batching promises
its callers rely on; ``tests/test_products.py`` checks them under every
kernel the host can run.

The numpy reductions that stay outside are not BLAS: the block
log-likelihood's ``.sum()`` in ``logit`` and ``Dataset.covariate_means``'
``.mean()`` are numpy's own pairwise sums, and no OpenBLAS kernel takes
part in them.

The operations, and the pinned digests (SHA-256 of a report, or of a list of
values) that read each one. The digests of ``test_output_bytes.py`` are
named by their ``GOLDEN`` keys; the ``fit`` and ``verify`` cases of
``test_threads.py`` pin ``fit-mean`` and ``verify-1`` again:

* :func:`row_sum`: a coefficient block's sum at one profile, in the scalar
  predictor path of ``model``. Read by every ``TestGoldenBits`` digest of
  ``test_predictor_algebra.py``, by ``effects-point`` and by the ``verify``
  digests (the oracle's profile sums).
* :func:`row_sums`: the same sums for a batch of rows, each row's bits its
  :func:`row_sum`. Read by ``verify``, ``effects`` and ``fit-*``.
* :func:`quadratic_forms`: the delta method's stacked J Sigma J^T and the
  CDE variances g V g^T. Read by ``effects`` and ``fit-*``.
* :func:`predictors`, :func:`inner`, :func:`column_sums` and :func:`gram`:
  the IRLS block sums (predictor, log-likelihood term, score and
  information), and :func:`solve` and :func:`inverse` for the Newton step
  and the covariance. Read by ``fit-*``, through every number of the fit.
* :func:`probabilities`: logistic probabilities of design rows, for
  ``simulate`` and ``logit.predict_prob``. Read by ``fit-*``, whose data
  ``simulate`` draws.
* :func:`eigenvalues`, :func:`singular_values` and :func:`svd`: the fit's
  rank screen, and the rank check it leaves in doubt. They decide a verdict
  (full rank, or the collinear columns named); ``fit-*`` reach only the
  screen, and no digest reads their bits.

``test_layout.py::test_all_blocks_document_bytes`` makes its covariances
with a product of its own, so it too moves with the kernel.
"""

from __future__ import annotations

import numpy as np

# raised by solve and inverse on a singular matrix
LinAlgError = np.linalg.LinAlgError


def row_sum(coefs: np.ndarray, values) -> float:
    """coefs' values, one block at one profile, as a Python float."""
    return float(np.dot(coefs, np.asarray(values, dtype=float)))


def row_sums(blocks: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """Each row's sum, (N,), of ``blocks`` (N, 1, width) by ``profiles``
    (N, width, 1). numpy's matmul runs each 1 x width by width x 1 product
    through the dot routine ``np.dot`` runs on two vectors, so a row's sum
    has the bits of its :func:`row_sum`; a matrix product over the rows,
    ``einsum`` or an elementwise sum would not. Width 1 is a plain product,
    as ``np.dot`` takes it: the dot routine adds it to 0.0 and so loses the
    sign of a -0.0."""
    if blocks.shape[2] == 1:
        return blocks[:, 0, 0] * profiles[:, 0, 0]
    return (blocks @ profiles).reshape(-1)


def quadratic_forms(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """a s a^T for each (m, k) slice of ``a`` (N, m, k), a stacked product
    equal slice by slice to the 2-d one."""
    return a @ s @ a.transpose(0, 2, 1)


def predictors(design: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The linear predictor of each design row: ``design @ coefs``."""
    return design @ coefs


def probabilities(design: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """The logistic probability of each design row, 1 / (1 + e^-eta) as
    0.5 (1 + tanh(eta / 2)), which neither overflows nor loses the tails."""
    return 0.5 * (1.0 + np.tanh(0.5 * predictors(design, coefs)))


def inner(a: np.ndarray, b: np.ndarray):
    """a'b of two vectors."""
    return a @ b


def column_sums(xb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """xb' r: each column of the rows ``xb`` times ``r``, summed over rows."""
    return xb.T @ r


def gram(xb: np.ndarray, weight) -> np.ndarray:
    """(xb * weight)' xb, ``weight`` a column of row weights or one weight
    for every row."""
    return (xb * weight).T @ xb


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b, by LAPACK; raises :data:`LinAlgError` if a is singular."""
    return np.linalg.solve(a, b)


def inverse(a: np.ndarray) -> np.ndarray:
    """a^-1, by LAPACK; raises :data:`LinAlgError` if a is singular."""
    return np.linalg.inv(a)


def singular_values(x: np.ndarray) -> np.ndarray:
    """The singular values of ``x``, largest first."""
    return np.linalg.svd(x, compute_uv=False)


def svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thin singular value decomposition (u, s, vt) of ``x``."""
    return np.linalg.svd(x, full_matrices=False)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of the symmetric ``a``, in ascending order."""
    return np.linalg.eigvalsh(a)
