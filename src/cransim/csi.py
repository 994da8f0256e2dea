"""MMSE channel estimation from orthogonal pilots, and noise whitening.

Estimation error is absorbed into an equivalent noise with covariance
Omega_l = omega_l I, omega_l = 1 + rho * sum_k err_var[l, k]; whitening by
omega_l^{-1/2} restores a unit-variance noise model so the dimension-reduction
and compression stages can run unchanged on the whitened estimated channels.
All arrays are stacked over receivers on their leading axis.
"""

import numpy as np

from .linalg import NumericalError


def estimate_channels(channels, pilot_snr, rng):
    """Per-link MMSE estimate from one orthogonal pilot symbol at SNR pilot_snr.

    With prior per-antenna variance s2 = p_k beta_lk and pilot observation
    y = sqrt(pilot_snr) h + n (unit-variance noise), the estimate is
    h_hat = sqrt(pilot_snr) s2 / (1 + pilot_snr s2) * y with error variance
    s2 / (1 + pilot_snr s2) per antenna. pilot_snr is numeric (the harness
    skips estimation under genie CSI), a number or an array of SNRs: the pilot
    noise is drawn once and every SNR scales the same draw. Returns (H_hat,
    err_var) of shapes pilot_snr.shape + (L, M, K) and pilot_snr.shape + (L, K).
    """
    L, M, K = channels.H.shape
    snr = np.asarray(pilot_snr, dtype=float)[..., None, None]
    if np.any(snr <= 0):
        raise ValueError("pilot_snr must be > 0")

    sigma2 = channels.p[None, :] * channels.beta          # (L, K) prior variance
    noise = (rng.standard_normal((L, M, K)) + 1j * rng.standard_normal((L, M, K))) / np.sqrt(2.0)
    coeff = np.sqrt(snr) * sigma2 / (1.0 + snr * sigma2)   # (..., L, K)
    H_hat = coeff[..., None, :] * (np.sqrt(snr)[..., None] * channels.H + noise)
    err_var = sigma2 / (1.0 + snr * sigma2)
    return H_hat, err_var


def whiten(H_hat, err_var, rho):
    """Equivalent-noise levels omega_l = 1 + rho * sum_k err_var[l, k] and whitened estimates.

    The error covariances are isotropic, so Omega_l = omega_l I and whitening
    scales each receiver's estimate by omega_l^{-1/2}. Returns (H_check, omega)
    with H_check of shape (..., L, M, K) and omega of shape (..., L), where the
    leading axes of a batched estimate and of an array rho broadcast.
    """
    omega = 1.0 + np.asarray(rho)[..., None] * np.sum(err_var, axis=-1)
    bad = np.argwhere(omega <= 0)
    if bad.size:
        raise NumericalError(
            f"equivalent-noise covariance for receiver {bad[0][-1]} is not positive definite")
    w = 1.0 / np.sqrt(omega)
    return w[..., None, None] * H_hat, omega
