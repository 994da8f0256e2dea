"""Per-receiver transform coding of the reduced-dimension signals.

Each receiver decorrelates its filtered signal, waterfills the fronthaul
budget over the component log-eigenvalues, and models each scalar quantiser
as additive Gaussian noise at the rate-distortion level. Receivers compress
independently, so every step runs on (L, ...) stacks in one numpy call. No
bit-level codec is built; fixed-rate Lloyd-Max quantisation can be modelled
by a per-scalar rate surcharge.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, adjoint, hermitize

# extra bits per scalar for fixed-rate Lloyd-Max quantisers relative to
# ideal Gaussian compression
LLOYD_MAX_RATE_PENALTY = 1.4

EIG_CLAMP_TOL = 1e-12


@dataclass
class CompressionPlan:
    """Transform-coding state for all receivers at a given fronthaul rate.

    Arrays are stacked over receivers on their leading axis, with n the
    reduced dimension: the descending eigenvalues lam (L, n) of the filtered
    signal covariances, waterfilled rates (L, n), quantisation-noise
    diagonals Phi (L, n), equivalent channels G = V' Q' H (L, n, K) under the
    decorrelating transforms V, and active component counts (L,).
    Phi = np.inf marks a dropped zero-rate component: its detection weight
    1 / (Phi + 1) is exactly 0, which is information-equivalent to not
    forwarding it. A stacked plan puts its design axes in front of all
    of these, and the axes of an array of rates in front of rates, Phi and
    active as well.
    """

    lam: np.ndarray
    rates: np.ndarray
    Phi: np.ndarray
    G: np.ndarray
    active: np.ndarray


def decorrelate(T):
    """Eigendecomposition of T T' for filtered channels T = Q' H: transforms and eigenvalues.

    Works on the trailing two axes, so T (..., n, K) may be a stack. Returns
    (V, lam) with lam sorted descending and the columns of V ordered to
    match; numerically negative eigenvalues within a tolerance relative to
    each matrix's own largest |eigenvalue| are clamped to 0.
    """
    w, V = np.linalg.eigh(hermitize(T @ adjoint(T)))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, initial=0.0))
    if np.any(w < -EIG_CLAMP_TOL * scale[..., None]):
        raise NumericalError("signal covariance has a significantly negative eigenvalue")
    w = np.maximum(w, 0.0)
    return V[..., ::-1], w[..., ::-1]


def check_surcharge(surcharge):
    """Reject a per-scalar rate surcharge that is negative or not finite."""
    if not (np.isfinite(surcharge) and surcharge >= 0):
        raise ValueError(f"surcharge must be a finite number >= 0, got {surcharge!r}")


def waterfill(lam, R, surcharge=0.0):
    """Waterfilling rate allocation over component eigenvalues.

    Over the active set of n components, r_i = R_eff/n + log2(lam_i) - mean
    log2(lam_j), where R_eff = R - surcharge * n charges any fixed per-scalar
    quantiser overhead against the budget. Components with non-positive rates
    are removed (they are always the smallest eigenvalues) and the allocation
    repeated until all remaining rates are positive. With a surcharge the
    active count this settles on is a heuristic, not the capacity-optimal
    count: another count can give more capacity.

    lam may be a stack (..., n) of descending rows and R an array that
    broadcasts against lam.shape[:-1]: each row gets its own budget, and
    passes over the whole stack repeat until no row drops a component (a
    settled row recomputes to the same bits). Returns (rates, n_active) over
    the broadcast leading axes, zeros for inactive components.
    """
    check_surcharge(surcharge)
    lam = np.asarray(lam, dtype=float)
    R = np.asarray(R, dtype=float)[..., None]
    if not np.all(R >= 0):      # NaN fails too
        raise ValueError("rate budget must be >= 0")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative")
    if np.any(np.diff(lam, axis=-1) > 1e-12 * np.maximum(1.0, lam[..., :1])):
        raise ValueError("eigenvalues must be sorted descending")

    active = np.broadcast_to(lam > 0, np.broadcast_shapes(R.shape, lam.shape))
    log_lam = np.log2(np.where(lam > 0, lam, 1.0))
    while True:
        n = np.maximum(np.count_nonzero(active, axis=-1), 1)[..., None]
        mean = np.sum(np.where(active, log_lam, 0.0), axis=-1, keepdims=True) / n
        r = (R - surcharge * n) / n + log_lam - mean
        keep = active & (r > 0)
        if np.array_equal(keep, active):
            return np.where(keep, r, 0.0), np.count_nonzero(keep, axis=-1)
        active = keep


def quant_noise(lam, rates, rho, variances=None):
    """Quantisation-noise diagonal Phi_i = var_i / (2^r_i - 1), np.inf for dropped components.

    The quantiser-input variances var default to rho lam_i + 1, the
    decorrelated components' own; under imperfect CSI pass the true ones.
    rates may carry leading axes in front of the variances' (one allocation
    per fronthaul rate). Negative rates violate the waterfilling contract.
    """
    if variances is None:
        variances = rho * np.asarray(lam, dtype=float) + 1.0
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    return np.divide(variances, 2.0 ** rates - 1.0, out=np.full(rates.shape, np.inf),
                     where=rates > 0)


def true_component_variances(V, Q, omega, H_true, rho):
    """Actual variances of the quantiser inputs when CSI is imperfect.

    The transform chain omega^{-1/2} Q V was designed from whitened estimated
    channels, but the signal passing through it came over the true channel,
    so the component variances are
    diag(V'Q' (rho H H' + I) Q V) / omega. omega holds the equivalent-noise
    level of each receiver, shape (..., L) for stacked inputs, and rho
    broadcasts against the (..., L, n) result.
    """
    w = 1.0 / np.sqrt(np.asarray(omega, dtype=float))
    T = w[..., None, None] * (Q @ V)      # (..., M, n)
    Z = adjoint(H_true) @ T               # (..., K, n)
    sig = rho * np.real(np.einsum("...kn,...kn->...n", Z.conj(), Z))
    noise = np.real(np.einsum("...mn,...mn->...n", T.conj(), T))
    return sig + noise


def build_plan(Q, H, R, rho, H_true=None, omega=None, surcharge=0.0):
    """Assemble the compression plan of every receiver in one stacked pass.

    Q (..., L, M, n) holds the reduced bases and H (..., L, M, K) the
    channels the transforms and rate allocation are designed from (true
    channels, or whitened estimates under imperfect CSI); rho is a scalar or
    an array over their leading axes. When H_true and the equivalent-noise
    levels omega (..., L) are given, the quantisation-noise levels are
    evaluated against the true channels instead of the design eigenvalues.
    The transforms and G depend on the design alone, so one decorrelation
    serves every fronthaul rate: R may be an array, whose axes then lead
    rates and Phi (shape R.shape + lam.shape).
    """
    rho = np.asarray(rho, dtype=float)[..., None, None]
    T = adjoint(Q) @ H
    V, lam = decorrelate(T)
    R = np.reshape(R, np.shape(R) + (1,) * (lam.ndim - 1))
    rates, active = waterfill(lam, R, surcharge=surcharge)
    var = None if H_true is None else true_component_variances(V, Q, omega, H_true, rho)
    phi = quant_noise(lam, rates, rho, variances=var)
    return CompressionPlan(lam=lam, rates=rates, Phi=phi, G=adjoint(V) @ T, active=active)
