"""Per-receiver transform coding of the reduced-dimension signals.

Each receiver decorrelates its filtered signal, waterfills the fronthaul
budget over the component log-eigenvalues, and models each scalar quantiser
as additive Gaussian noise at the rate-distortion level. No bit-level codec
is built; fixed-rate Lloyd-Max quantisation can be modelled by a per-scalar
rate surcharge.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, hermitize

# extra bits per scalar for fixed-rate Lloyd-Max quantisers relative to
# ideal Gaussian compression
LLOYD_MAX_RATE_PENALTY = 1.4

EIG_CLAMP_TOL = 1e-12


@dataclass
class CompressionPlan:
    """Transform-coding state for all receivers at a given fronthaul rate.

    Per receiver: decorrelating transform V (unitary columns, eigenvector
    order matching the descending eigenvalues lam), waterfilled rates,
    quantisation-noise diagonal Phi (np.inf marks dropped zero-rate
    components), equivalent channel G = V' Q' H, and the number of active
    components.
    """

    V: list
    lam: list
    rates: list
    Phi: list
    G: list
    active: list

    def active_channels(self):
        """Rows of G and entries of Phi restricted to positive-rate components.

        Receivers with no active component are omitted entirely; dropping a
        component is information-equivalent to infinite quantisation noise.
        """
        G_act, phi_act = [], []
        for G, phi, r in zip(self.G, self.Phi, self.rates):
            mask = r > 0
            if not np.any(mask):
                continue
            G_act.append(G[mask, :])
            phi_act.append(phi[mask])
        return G_act, phi_act


def decorrelate(Q, H):
    """Eigendecomposition of Q' H H' Q: decorrelating transform and eigenvalues.

    Returns (V, lam) with lam sorted descending and the columns of V ordered to
    match; numerically negative eigenvalues within tolerance are clamped to 0.
    """
    T = Q.conj().T @ H
    S = hermitize(T @ T.conj().T)
    w, V = np.linalg.eigh(S)
    if np.any(w < -EIG_CLAMP_TOL * max(1.0, float(np.max(np.abs(w), initial=0.0)))):
        raise NumericalError("signal covariance has a significantly negative eigenvalue")
    w = np.maximum(w, 0.0)
    return V[:, ::-1], w[::-1]


def waterfill(lam, R, surcharge=0.0):
    """Waterfilling rate allocation over component eigenvalues.

    Over the active set of n components, r_i = R_eff/n + log2(lam_i) - mean
    log2(lam_j), where R_eff = R - surcharge * n charges any fixed per-scalar
    quantiser overhead against the budget. Components with non-positive rates
    are removed (they are always the smallest eigenvalues) and the allocation
    repeated until all remaining rates are positive. With a surcharge the
    active count this settles on is a heuristic, not the capacity-optimal
    count: another count can give more capacity.

    Returns (rates, n_active) with zeros for inactive components.
    """
    lam = np.asarray(lam, dtype=float)
    if R < 0:
        raise ValueError("rate budget must be >= 0")
    if np.any(lam < 0):
        raise ValueError("eigenvalues must be non-negative")
    if np.any(np.diff(lam) > 1e-12 * max(1.0, float(lam[0]) if lam.size else 1.0)):
        raise ValueError("eigenvalues must be sorted descending")

    rates = np.zeros(lam.size)
    active = np.nonzero(lam > 0)[0]
    while active.size > 0:
        n = active.size
        r_eff = R - surcharge * n
        log_lam = np.log2(lam[active])
        r = r_eff / n + log_lam - np.mean(log_lam)
        keep = r > 0
        if np.all(keep):
            rates[active] = r
            return rates, int(n)
        active = active[keep]
    return rates, 0


def quant_noise(lam, rates, rho):
    """Quantisation-noise diagonal for decorrelated components with variances rho*lam + 1.

    Phi_i = (rho lam_i + 1) / (2^r_i - 1) for active components, np.inf for
    dropped ones. Negative rates violate the waterfilling contract.
    """
    variances = rho * np.asarray(lam, dtype=float) + 1.0
    return quant_noise_from_variances(variances, rates)


def quant_noise_from_variances(variances, rates):
    """Quantisation-noise diagonal from explicit per-component input variances."""
    variances = np.asarray(variances, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    phi = np.full(rates.shape, np.inf)
    act = rates > 0
    phi[act] = variances[act] / (2.0 ** rates[act] - 1.0)
    return phi


def true_component_variances(V, Q, omega_inv_sqrt, H_true, rho):
    """Actual variances of the quantiser inputs when CSI is imperfect.

    The transform chain Omega^{-1/2} Q V was designed from estimated channels,
    but the signal passing through it came over the true channel, so the
    component variances are diag(V'Q'Omega^{-1/2} (rho H H' + I) Omega^{-1/2} Q V).
    """
    T = omega_inv_sqrt @ (Q @ V)          # (M, N)
    Z = H_true.conj().T @ T               # (K, N)
    sig = rho * np.real(np.einsum("kn,kn->n", Z.conj(), Z))
    noise = np.real(np.einsum("mn,mn->n", T.conj(), T))
    return sig + noise


def approx_quant_noise(lam, R, N, rho):
    """High-rate approximation rho * (prod lam)^(1/N) * 2^(-R/N).

    Diagnostic only; assumes all N components are active and is tight when
    rho*lam and 2^(R/N) are both large.
    """
    lam = np.asarray(lam, dtype=float)[:N]
    return float(rho * np.exp(np.mean(np.log(lam))) * 2.0 ** (-R / N))


def build_plan(Q_list, H_list, R, rho, H_true_list=None, omega_inv_sqrt_list=None,
               surcharge=0.0):
    """Assemble the full compression plan across receivers.

    H_list carries the channels the transforms and rate allocation are designed
    from (true channels, or whitened estimates under imperfect CSI). When
    H_true_list and omega_inv_sqrt_list are given, the quantisation-noise
    levels are evaluated against the true channels instead of the design
    eigenvalues.
    """
    V_all, lam_all, rate_all, phi_all, G_all, active_all = [], [], [], [], [], []
    for l, (Q, H) in enumerate(zip(Q_list, H_list)):
        V, lam = decorrelate(Q, H)
        rates, n_active = waterfill(lam, R, surcharge=surcharge)
        if H_true_list is None:
            phi = quant_noise(lam, rates, rho)
        else:
            var = true_component_variances(V, Q, omega_inv_sqrt_list[l], H_true_list[l], rho)
            phi = quant_noise_from_variances(var, rates)
        G = V.conj().T @ (Q.conj().T @ H)
        V_all.append(V)
        lam_all.append(lam)
        rate_all.append(rates)
        phi_all.append(phi)
        G_all.append(G)
        active_all.append(n_active)
    return CompressionPlan(V=V_all, lam=lam_all, rates=rate_all, Phi=phi_all,
                           G=G_all, active=active_all)
