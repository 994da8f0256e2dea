"""Small complex linear-algebra helpers shared by the other modules."""

import numpy as np


class NumericalError(ArithmeticError):
    """A matrix that must be Hermitian positive definite turned out not to be."""


def adjoint(a):
    """Conjugate transpose over the last two axes, so it applies to stacks of matrices."""
    return np.swapaxes(a, -1, -2).conj()


def hermitize(a):
    """Average nominally Hermitian matrices with their adjoints to kill round-off drift.

    The result is C-ordered whatever the batch shape, so the BLAS calls it
    feeds round the same way for a stack as for each of its matrices.
    """
    a = np.asarray(a)
    return 0.5 * np.add(a, adjoint(a), order="C")


def logdet2_hpd(a):
    """log2(det(a)) of a Hermitian positive-definite matrix via Cholesky.

    Never forms the determinant itself, so it stays accurate for large,
    well-conditioned log-dets. A stack (..., n, n) gives an array of shape
    (...); a single matrix gives a scalar.
    """
    try:
        chol = np.linalg.cholesky(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc
    return 2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)
