"""Small complex linear-algebra helpers shared by the other modules."""

import numpy as np


class NumericalError(ArithmeticError):
    """A matrix that must be Hermitian positive definite turned out not to be."""


def adjoint(a):
    """Conjugate transpose over the last two axes, so it applies to stacks of matrices."""
    return np.swapaxes(a, -1, -2).conj()


def hermitize(a):
    """Average nominally Hermitian matrices with their adjoints to kill round-off drift."""
    a = np.asarray(a)
    return 0.5 * (a + adjoint(a))


def logdet2_hpd(a):
    """log2(det(a)) of a Hermitian positive-definite matrix via Cholesky.

    Never forms the determinant itself, so it stays accurate for large,
    well-conditioned log-dets.
    """
    try:
        chol = np.linalg.cholesky(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc
    return 2.0 * float(np.sum(np.log2(np.real(np.diag(chol)))))
