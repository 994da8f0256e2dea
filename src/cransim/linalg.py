"""Small complex linear-algebra helpers; Hermitian matrices reach LAPACK unsymmetrised."""

import numpy as np


class NumericalError(ArithmeticError):
    """A matrix that must be Hermitian positive definite turned out not to be."""


def adjoint(a):
    """Conjugate transpose over the last two axes, so it applies to stacks of matrices."""
    return np.swapaxes(a, -1, -2).conj()


def gram(X, rho, phi=None):
    """I_K + rho * sum_l X_l' (Phi_l + I)^{-1} X_l for X (..., L, rows, K), phi (..., L, rows).

    phi=None means Phi = 0 and weights no copy of X; an infinite phi entry
    weights its row by exactly 0. The leading axes of X, phi and rho broadcast.
    """
    W = X if phi is None else X / (np.asarray(phi, dtype=float) + 1.0)[..., None]
    W, X = (a.reshape(a.shape[:-3] + (-1, a.shape[-1])) for a in (W, X))
    rho, K = np.asarray(rho, dtype=float)[..., None, None], X.shape[-1]
    G = (rho * (adjoint(X) @ W)).astype(complex, copy=False)
    G[..., range(K), range(K)] += 1.0
    return G


def logdet2_hpd(a):
    """log2(det(a)) of a Hermitian positive-definite matrix via Cholesky.

    Reads only the lower triangle and the real diagonal, as LAPACK's Cholesky does. Never
    forms the determinant itself, so it stays accurate for large, well-conditioned log-dets.
    A stack (..., n, n) gives an array of shape (...); a single matrix gives a scalar.
    """
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"matrix is not positive definite: {exc}") from exc
    return 2.0 * np.log2(np.diagonal(chol, axis1=-2, axis2=-1).real).sum(axis=-1)
