"""Scenario generation: geometry, large-scale fading, power control, Rayleigh channels.

All randomness flows through an explicitly passed numpy Generator, so a trial
is reproducible from (config, seed) and trials can run concurrently as long as
each one owns its own generator stream.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

PERFECT_CSI = "perfect"

# log-distance reference; absolute scale is absorbed by power control anyway
REF_DISTANCE_M = 1.0


def is_integer(value):
    """True for Python and numpy integers, False for bool and everything else."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """True for Python and numpy real numbers, False for bool and everything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SystemConfig:
    """Scalar parameters of one simulated uplink deployment.

    K users, L receivers with M antennas each; every receiver forwards N
    signal components over a fronthaul link of `fronthaul_rate` bits per
    channel use. `rho` and `pilot_snr` are linear SNRs; `pilot_snr` may be
    the string "perfect" for genie CSI.
    """

    K: int = 8
    L: int = 4
    M: int = 8
    N: int = 2
    rho: float = 10.0 ** 1.5
    fronthaul_rate: float = 8.0
    pilot_snr: float | str = PERFECT_CSI
    area_side_m: float = 200.0
    user_height_m: float = 1.0
    rx_height_m: float = 6.0
    pathloss_exponent: float = 2.9
    shadow_sigma_db: float = 5.7
    rng_seed: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def max_components(self) -> int:
        """Largest usable reduced dimension: min(M, K)."""
        return min(self.M, self.K)

    def validate(self):
        for name in ("K", "L", "M", "N", "rng_seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("rho", "area_side_m", "user_height_m", "rx_height_m",
                     "pathloss_exponent", "shadow_sigma_db"):
            value = getattr(self, name)
            if not (is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
        if self.K < 1 or self.L < 1 or self.M < 1:
            raise ValueError("K, L, M must be positive integers")
        if not 1 <= self.N <= self.max_components:
            raise ValueError(f"N must satisfy 1 <= N <= min(M, K) = {self.max_components}")
        if self.rho <= 0:
            raise ValueError("rho must be a positive linear SNR")
        # NaN fails; inf is the unquantized limit
        if not (is_real(self.fronthaul_rate) and self.fronthaul_rate >= 0):
            raise ValueError("fronthaul_rate must be a real number >= 0 (inf for no "
                             f"quantisation), got {self.fronthaul_rate!r}")
        if self.pilot_snr != PERFECT_CSI and not (
                is_real(self.pilot_snr) and math.isfinite(self.pilot_snr) and self.pilot_snr > 0):
            raise ValueError(f"pilot_snr must be a finite number > 0 or '{PERFECT_CSI}', "
                             f"got {self.pilot_snr!r}")
        if self.area_side_m <= 0 or self.user_height_m < 0 or self.rx_height_m < 0:
            raise ValueError("geometry parameters must be non-negative (area side positive)")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow_sigma_db must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be a non-negative integer")


@dataclass
class Geometry:
    """3-D coordinates (meters) of users and receivers."""

    user_xyz: np.ndarray  # (K, 3)
    rx_xyz: np.ndarray    # (L, 3)


@dataclass
class ChannelRealization:
    """One channel draw: stacked per-receiver matrices plus the large-scale state behind them."""

    H: np.ndarray               # (L, M, K) complex; H[l][:, k] is user k's channel at receiver l
    beta: np.ndarray            # (L, K) large-scale gains, linear
    p: np.ndarray               # (K,) power-control coefficients, linear


def large_scale_fading(user_xyz, rx_xyz, config, rng):
    """Log-distance path loss with i.i.d. log-normal shadowing per (receiver, user) link.

    beta[l, k] = (d_lk / d0)^(-alpha) * 10^(X/10), X ~ Normal(0, shadow_sigma_db^2),
    with d_lk the 3-D distance. Shadowing is drawn even when sigma is zero so the
    generator stream stays aligned across configurations.
    """
    user_xyz = np.asarray(user_xyz, dtype=float)
    rx_xyz = np.asarray(rx_xyz, dtype=float)
    diff = rx_xyz[:, None, :] - user_xyz[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    shadow_db = rng.normal(0.0, config.shadow_sigma_db, size=dist.shape)
    return (dist / REF_DISTANCE_M) ** (-config.pathloss_exponent) * 10.0 ** (shadow_db / 10.0)


def generate_geometry(config, rng):
    """Drop users and receivers uniformly in the service square and compute beta."""
    side = config.area_side_m
    user_xy = rng.uniform(0.0, side, size=(config.K, 2))
    rx_xy = rng.uniform(0.0, side, size=(config.L, 2))
    user_xyz = np.column_stack([user_xy, np.full(config.K, config.user_height_m)])
    rx_xyz = np.column_stack([rx_xy, np.full(config.L, config.rx_height_m)])
    geometry = Geometry(user_xyz=user_xyz, rx_xyz=rx_xyz)
    beta = large_scale_fading(user_xyz, rx_xyz, config, rng)
    return geometry, beta


def power_control(beta):
    """Power control equalizing total mean received power: p_k * sum_l beta_lk / L = 1."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("all large-scale gains must be strictly positive")
    return beta.shape[0] / beta.sum(axis=0)


def generate_channels(config, beta, p, rng):
    """Draw h_lk ~ CN(0, p_k beta_lk I_M), i.i.d. over antennas and links.

    Variance splits equally between real and imaginary parts (circular symmetry).
    Full rank is a probability-1 event, so it is not checked per draw.
    """
    beta = np.asarray(beta, dtype=float)
    p = np.asarray(p, dtype=float)
    L, K, M = config.L, config.K, config.M
    scale = np.sqrt(p[None, None, :] * beta[:, None, :] / 2.0)  # (L, 1, K) -> broadcast (L, M, K)
    raw = rng.standard_normal((L, M, K)) + 1j * rng.standard_normal((L, M, K))
    return ChannelRealization(H=raw * scale, beta=beta, p=p)


def generate_realization(config, rng):
    """Geometry, power control and one channel draw in the canonical stream order."""
    _, beta = generate_geometry(config, rng)
    return generate_channels(config, beta, power_control(beta), rng)
