"""Greedy matched-filter dimension reduction.

Each receiver keeps N orthonormal filter directions built by Gram-Schmidt from
the channel vectors of greedily selected users. Selection is round-robin over
receivers; every stage picks the user whose projected channel maximises the
joint mutual-information gain, evaluated cheaply through a running K x K
inverse that is refreshed with a rank-1 update after each pick.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, adjoint, hermitize, logdet2_hpd

log = logging.getLogger(__name__)

# squared projected norm below this is treated as a linearly dependent candidate
DEGENERATE_PROJECTION_TOL = 1e-12

# relative tie window in the argmax; lowest user index wins inside it
ARGMAX_TIE_REL_TOL = 1e-12

GAIN_IDENTITY_TOL = 1e-8


@dataclass
class DimensionReductionResult:
    """Outcome of a greedy selection run.

    S[l] is the ordered list of users selected at receiver l, and Q (L, M, N)
    stacks the matching orthonormal bases: Q[l][:, i] is the direction picked
    in round i. A receiver that was skipped in a round keeps a zero column
    there; a skip repeats in every later round, so the real columns always
    form a prefix and Q[..., :n] is the basis of the n-round run.
    mi_trajectory holds the joint mutual information in bits after every
    single selection step (N*L entries; a skipped receiver repeats the
    previous value). A_final is the inverse (I + rho * sum H' Q Q' H)^{-1}
    after the last step.
    """

    S: list
    Q: np.ndarray
    mi_trajectory: np.ndarray
    A_final: np.ndarray

    @property
    def mi(self) -> float:
        """Joint mutual information of the reduced-dimension signals, bits."""
        return float(self.mi_trajectory[-1])


@dataclass
class EquivalentChannelDiagnostics:
    """Eigen-structure of the accumulated equivalent channel at one stage.

    upsilon are its eigenvalues sorted descending with eigenvectors in the
    columns of U; gamma is the candidate's captured signal power and c its
    unit-norm projection onto the user-symbol space (None when degenerate).
    """

    upsilon: np.ndarray
    U: np.ndarray
    gamma: float
    c: np.ndarray | None


def orthonormalize(F, tol=1e-12):
    """Gram-Schmidt with column dropping: returns an orthonormal basis of span(F).

    Columns whose residual energy falls below tol times their own energy are
    rejected as linearly dependent.
    """
    F = np.asarray(F, dtype=complex)
    cols = []
    for j in range(F.shape[1]):
        v = F[:, j].copy()
        energy = float(np.real(v.conj() @ v))
        if energy == 0.0:
            continue
        for q in cols:
            v -= (q.conj() @ v) * q
        residual = float(np.real(v.conj() @ v))
        if residual <= tol * energy:
            continue
        # second pass for numerical orthogonality
        for q in cols:
            v -= (q.conj() @ v) * q
        cols.append(v / np.linalg.norm(v))
    if not cols:
        return np.zeros((F.shape[0], 0), dtype=complex)
    return np.column_stack(cols)


def joint_mi(filters, H, rho):
    """Joint mutual information of the filtered signals, in bits.

    filters holds one matrix of filter columns per receiver (a list, or a stack
    when every receiver has the same count); raw (non-orthonormal) filters are
    orthonormalized first, which leaves the result unchanged for
    linearly independent columns and drops dependent ones.
    Returns log2 det(I_K + rho * sum_l H_l' Q_l Q_l' H_l).
    """
    K = H[0].shape[1]
    B = np.eye(K, dtype=complex)
    for F, Hl in zip(filters, H):
        Q = orthonormalize(F)
        if Q.shape[1] == 0:
            continue
        T = Q.conj().T @ Hl
        B += rho * (T.conj().T @ T)
    return logdet2_hpd(B)


def _gram(T, rho):
    """I_K + rho * sum_l T_l' T_l for a stack T of shape (L, rows, K)."""
    T = T.reshape(-1, T.shape[-1])
    return np.eye(T.shape[1], dtype=complex) + rho * (T.conj().T @ T)


def full_joint_mi(H, rho):
    """Unconstrained joint MI of the full-dimension received signals H (L, M, K), bits."""
    return logdet2_hpd(_gram(np.asarray(H), rho))


def signal_space_basis(H):
    """Orthonormal bases (L, M, min(M, K)) of the receivers' signal subspaces.

    This is the identity dimension reduction behind the local-compression
    baseline: it loses no information, and the decorrelated eigenvalues equal
    the nonzero eigenvalues of H_l H_l'.
    """
    return np.linalg.qr(H)[0]


def selection_metric(A, H, P, h):
    """Ratio-form greedy score of one candidate channel vector.

    (h'P H A H' P h) / (h'P h): the norm of h cancels, so the score depends
    only on the direction of the projected candidate. Degenerate projections
    score -inf.
    """
    w = P @ np.asarray(h, dtype=complex)
    n2 = float(np.real(w.conj() @ w))
    if n2 <= DEGENERATE_PROJECTION_TOL:
        return -np.inf
    return float(np.real(w.conj() @ (H @ (A @ (H.conj().T @ w))))) / n2


def rank1_update(A, H, q, rho):
    """Refresh A = (I + rho * sum of filtered outer products)^{-1} after adding filter q.

    Sherman-Morrison on the added term rho * H'q q'H:
    A' = A - (A H'q)(A H'q)' / (1/rho + q'H A H'q).
    """
    u = H.conj().T @ np.asarray(q, dtype=complex)
    Au = A @ u
    denom = 1.0 / rho + float(np.real(u.conj() @ Au))
    return A - np.outer(Au, Au.conj()) / denom


def stage_gain_diagnostics(A, H, q, rho):
    """MI gain of appending filter q, with the eigen-decomposed cross-check.

    Returns (EquivalentChannelDiagnostics, gain_bits). The gain is computed
    both from the determinant lemma, log2(1 + rho q'H A H'q), and from the
    eigen form log2(1 + gamma * sum_i rho |u_i'c|^2 / (1 + rho upsilon_i));
    disagreement beyond tolerance raises NumericalError. A degenerate
    candidate (H'q = 0) yields zero gain and c = None.
    """
    u = H.conj().T @ np.asarray(q, dtype=complex)
    gamma = float(np.real(u.conj() @ u))

    d, U = np.linalg.eigh(hermitize(A))       # d ascending <=> upsilon descending
    upsilon = (1.0 / d - 1.0) / rho
    if np.any(upsilon < -1e-9):
        raise NumericalError("running inverse has eigenvalues above 1; not a valid state")
    upsilon = np.maximum(upsilon, 0.0)

    if gamma <= DEGENERATE_PROJECTION_TOL:
        diag = EquivalentChannelDiagnostics(upsilon=upsilon, U=U, gamma=gamma, c=None)
        return diag, 0.0

    c = u / np.sqrt(gamma)
    gain_lemma = float(np.log2(1.0 + rho * np.real(u.conj() @ (A @ u))))
    proj = np.abs(U.conj().T @ c) ** 2
    gain_eig = float(np.log2(1.0 + gamma * np.sum(rho * proj / (1.0 + rho * upsilon))))
    if abs(gain_lemma - gain_eig) > GAIN_IDENTITY_TOL * max(1.0, abs(gain_lemma)):
        raise NumericalError(
            f"stage-gain identity violated: lemma {gain_lemma!r} vs eigen {gain_eig!r}")
    diag = EquivalentChannelDiagnostics(upsilon=upsilon, U=U, gamma=gamma, c=c)
    return diag, gain_lemma


def mfgs_select(H, rho, N):
    """Round-robin greedy selection of N matched-filter directions per receiver.

    In every round each receiver (in index order) picks, among its not yet
    selected users, the one maximising
        (h' P H A H' P h) / (h' P h)
    where P projects out its already chosen directions. The winning projected
    channel is normalized into the next Gram-Schmidt basis vector, the running
    inverse A gets a rank-1 update, and the joint MI is recorded. Ties within
    a relative window go to the lowest user index. Candidates whose projection
    is numerically degenerate are excluded; if none remain the receiver is
    skipped for the round with a logged warning and a zero column in Q.

    H is the (L, M, K) stack of channel matrices.
    """
    H = np.asarray(H)
    L, M, K = H.shape
    if not 1 <= N <= min(M, K):
        raise ValueError(f"N must satisfy 1 <= N <= min(M, K) = {min(M, K)}")

    A = np.eye(K, dtype=complex)
    P = np.tile(np.eye(M, dtype=complex), (L, 1, 1))
    S = [[] for _ in range(L)]
    Q = np.zeros((L, M, N), dtype=complex)
    mi = 0.0
    trajectory = []

    for rnd in range(N):
        for l in range(L):
            Hl = H[l]
            W = P[l] @ Hl                                   # projected candidate vectors
            pnorm2 = np.real(np.einsum("ik,ik->k", W.conj(), W))
            B = Hl @ A @ Hl.conj().T
            num = np.real(np.einsum("ik,ik->k", W.conj(), B @ W))

            eligible = np.ones(K, dtype=bool)
            eligible[S[l]] = False
            eligible &= pnorm2 > DEGENERATE_PROJECTION_TOL
            if not np.any(eligible):
                log.warning("receiver %d has no independent candidates in round %d; skipped",
                            l, rnd)
                trajectory.append(mi)
                continue

            metric = np.where(eligible, num / np.where(pnorm2 > 0, pnorm2, 1.0), -np.inf)
            best = float(np.max(metric))
            window = ARGMAX_TIE_REL_TOL * max(1.0, abs(best))
            chosen = int(np.nonzero(metric >= best - window)[0][0])

            w = W[:, chosen]
            q = w / np.linalg.norm(w)
            gain = float(np.log2(1.0 + rho * metric[chosen]))
            A = hermitize(rank1_update(A, Hl, q, rho))
            P[l] = P[l] - np.outer(q, q.conj())
            S[l].append(chosen)
            Q[l, :, rnd] = q
            mi += gain
            trajectory.append(mi)

    return DimensionReductionResult(S=S, Q=Q, mi_trajectory=np.asarray(trajectory),
                                    A_final=A)


def truncate_selection(result, H, rho, n):
    """First-n-rounds view of a selection run (valid by the prefix property).

    Slices S, Q and the MI trajectory to n rounds and recomputes the final
    inverse directly for the truncated basis.
    """
    L = len(result.S)
    full_rounds = min(len(s) for s in result.S)
    if not 1 <= n <= full_rounds:
        raise ValueError(f"n must satisfy 1 <= n <= {full_rounds}")
    S = [list(s[:n]) for s in result.S]
    Q = result.Q[..., :n]
    A = np.linalg.inv(hermitize(_gram(adjoint(Q) @ H, rho)))
    return DimensionReductionResult(S=S, Q=Q,
                                    mi_trajectory=result.mi_trajectory[:n * L].copy(),
                                    A_final=hermitize(A))
