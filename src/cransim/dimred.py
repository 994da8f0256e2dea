"""Greedy matched-filter dimension reduction.

Each receiver keeps N orthonormal filter directions built by Gram-Schmidt from
the channel vectors of greedily selected users. Selection is round-robin over
receivers; every stage picks the user whose projected channel maximises the
joint mutual-information gain, read off the receiver's M x M block H_l A H_l'
of the inverse A; each block catches up on the picks since its last turn with
one matrix product, and A itself is never formed.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, gram, logdet2_hpd

# squared projected norm below this is treated as a linearly dependent candidate
DEGENERATE_PROJECTION_TOL = 1e-12

# relative tie window in the argmax; lowest user index wins inside it
ARGMAX_TIE_REL_TOL = 1e-12

MAX_RHO = 1e12  # largest linear SNR (120 dB); above it the greedy's round-off can give NaN


@dataclass
class DimensionReductionResult:
    """Outcome of a greedy selection run.

    users (L, N) holds the user picked at receiver l in round i, -1 for a
    round the receiver was skipped, and Q (L, M, N) stacks the matching
    orthonormal bases: Q[l][:, i] is the direction picked in round i, a zero
    column for a skip. A skip repeats in every later round, so the real
    picks and columns always form a prefix and Q[..., :n] is the basis of
    the n-round run. mi_trajectory holds the joint mutual information in
    bits after every single selection step (N*L entries; a skipped receiver
    repeats the previous value). A batched run puts its batch axes in front
    of every field.
    """

    users: np.ndarray
    Q: np.ndarray
    mi_trajectory: np.ndarray

    @property
    def S(self):
        """Ordered per-receiver user lists without skips (nested one level per batch axis)."""
        return _user_lists(self.users.tolist(), self.users.ndim - 2)

    @property
    def mi(self):
        """Joint mutual information of the reduced-dimension signals, bits (per element)."""
        return self.mi_trajectory[..., -1]


def full_joint_mi(H, rho):
    """Unconstrained joint MI of the full-dimension received signals H (..., L, M, K), bits.

    Leading axes of H and the shape of rho broadcast to a batch, which gives
    an array of MIs; an unbatched call gives a scalar.
    """
    return logdet2_hpd(gram(np.asarray(H), rho))


def signal_space_basis(H):
    """Orthonormal bases (L, M, min(M, K)) of the receivers' signal subspaces.

    This is the identity dimension reduction behind the local-compression
    baseline: it loses no information, and the decorrelated eigenvalues equal
    the nonzero eigenvalues of H_l H_l'.
    """
    return np.linalg.qr(H)[0]


def mfgs_select(H, rho, N):
    """Round-robin greedy selection of N matched-filter directions per receiver.

    In every round each receiver (in index order) picks, among its not yet
    selected users, the one maximising
        (h' P H A H' P h) / (h' P h)
    where P projects out its already chosen directions. The winning projected
    channel is normalized into the next Gram-Schmidt basis vector q and the gain
    is recorded. The inverse A = (I + rho * sum H'qq'H)^{-1} = I - sum u'u, over
    the steps' rows u = q'H A / sqrt(1/rho + gain), is never formed: receiver l
    keeps Y_l = H_l A H_l', which at its turn subtracts the rows added since its
    last one. The scores are clamped at 0, as round-off can take a spent
    candidate below it. Ties within a relative window go to the lowest user
    index. Candidates whose projection is numerically degenerate are excluded;
    if none remain the receiver is skipped for the round, which is recorded as
    data only: pick -1 and a zero column in Q.

    H is the (..., L, M, K) stack of channel matrices and rho a scalar or an
    array in (0, MAX_RHO]; any leading axes of H and the shape of rho broadcast
    to a batch of independent problems run in lockstep, each with its own
    blocks, candidates, skips and ties. The fields of the result then carry the
    batch axes in front. An unbatched call is the batch of one.
    """
    H = np.asarray(H)
    L, M, K = H.shape[-3:]
    if not 1 <= N <= min(M, K):
        raise ValueError(f"N must satisfy 1 <= N <= min(M, K) = {min(M, K)}")
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho > 0) & (rho <= MAX_RHO)):
        raise ValueError(f"rho must lie in (0, 1e12] (120 dB), got {rho}")
    batch = np.broadcast(H[..., 0, 0, 0], rho).shape
    if H.shape[:-3] != batch:
        H = np.broadcast_to(H, batch + (L, M, K))
    H = np.ascontiguousarray(H.reshape(-1, L, M, K))   # one layout, so one rounding, per batch
    rho = np.full(batch, rho).reshape(-1)
    B = len(rho)

    # Y_l = H_l A H_l' once it has the rows so far; from H before W exists, sparing a stack
    Y = H @ adjoint(H.astype(complex, copy=False))
    W = H.astype(complex)                    # candidates projected off the chosen directions
    Wf = W.view(float).reshape(W.shape + (2,))   # a view of W with re, im on a last axis
    Uc = np.zeros((B, K, N * L), dtype=complex)    # the steps' rows u, stored as columns u'
    inv_rho = 1.0 / rho
    avail = np.ones((B, L, K), dtype=bool)
    picks = np.empty((B, L, N), dtype=int)
    Q = np.zeros((B, L, M, N), dtype=complex)
    gains = np.empty((B, N * L))
    metric = np.empty((B, K))
    at = np.arange(B)

    for rnd in range(N):
        # W_l and avail[:, l] change only at receiver l's own turn, after it scored
        pnorm2 = np.einsum("...mkp,...mkp->...k", Wf, Wf)    # no stack-sized temporary
        eligible = (pnorm2 > DEGENERATE_PROJECTION_TOL) & avail
        for l in range(L):
            s, Yl, Wl = rnd * L + l, Y[:, l], W[:, l]
            Z = H[:, l] @ Uc[:, :, max(0, s - L):s]     # the rows since receiver l's last turn
            Yl -= Z @ adjoint(Z)
            num = np.maximum((Wl.conj() * (Yl @ Wl)).real.sum(axis=-2), 0.0)
            metric.fill(-np.inf)
            np.divide(num, pnorm2[:, l], out=metric, where=eligible[:, l])

            best = metric.max(axis=-1)
            window = ARGMAX_TIE_REL_TOL * np.maximum(1.0, np.abs(best))
            chosen = (metric >= (best - window)[:, None]).argmax(axis=-1)
            gain = metric[at, chosen]
            norm = np.sqrt(pnorm2[at, l, chosen])
            skip = best == -np.inf
            if skip.any():
                # q = 0 and a zero gain add a zero row u and leave W and the MI as
                # they are; the receiver's state never changes again, so every
                # later round skips it too and marking user K-1 as taken is harmless
                gain[skip] = 0.0
                norm[skip] = np.inf
                chosen[skip] = -1
            q = Wl.swapaxes(1, 2)[at, chosen] / norm[:, None]      # C-ordered (B, M)

            gains[:, s] = gain
            # f = q'W_l = q'H_l, so u' = (f' - Uc (f Uc)') / sqrt(1/rho + gain) over past steps
            f = q.conj()[:, None, :] @ Wl
            u = f[:, 0].conj() - ((f @ Uc[:, :, :s]).conj() @ Uc[:, :, :s].swapaxes(1, 2))[:, 0]
            Uc[:, :, s] = u / np.sqrt(inv_rho + gain)[:, None]
            Wl -= q[:, :, None] * f
            avail[at, l, chosen] = False
            picks[at, l, rnd] = chosen
            Q[:, l, :, rnd] = q

    return DimensionReductionResult(
        users=picks.reshape(batch + (L, N)),
        Q=Q.reshape(batch + Q.shape[1:]),
        mi_trajectory=np.cumsum(np.log2(1.0 + rho[:, None] * gains),
                                axis=-1).reshape(batch + gains.shape[1:]))


def _user_lists(picks, depth):
    """Ragged per-receiver user lists from nested (..., L, N) picks, -1 marking skips."""
    if depth:
        return [_user_lists(p, depth - 1) for p in picks]
    return [[k for k in row if k >= 0] for row in picks]


def truncate_selection(result, n):
    """First-n-rounds view of an unbatched selection run (valid by the prefix property).

    Slices the picks, Q and the MI trajectory to n rounds.
    """
    full_rounds = min(map(len, result.S))
    if not 1 <= n <= full_rounds:
        raise ValueError(f"n must satisfy 1 <= n <= {full_rounds}")
    Q = result.Q[..., :n]
    return DimensionReductionResult(users=result.users[:, :n].copy(), Q=Q,
                                    mi_trajectory=result.mi_trajectory[:n * len(Q)].copy())
