"""Capacity metrics: optimal and LMMSE detection, references and bounds.

Equivalent channels G (L, n, K) and quantisation-noise diagonals Phi (L, n)
always come stacked over receivers, as in CompressionPlan. Phi = inf marks
a dropped component, whose detection weight 1 / (Phi + 1) is exactly 0, so
no row filtering is needed. Stacks of detection problems put their axes in
front, G (..., L, n, K) and Phi (..., L, n), which broadcast against each
other and against rho.
"""

from dataclasses import dataclass

import numpy as np

from .dimred import full_joint_mi
from .linalg import gram, logdet2_hpd


@dataclass
class CapacityReport:
    """Capacity summary of one realization under one compression pipeline.

    Under imperfect CSI (csi_mode "lower-bound"), sum_capacity, user_capacity,
    reduced_mi and full_mi are the achievable lower-bound quantities computed
    on the whitened estimated channels; cutset always refers to the true ones.
    """

    sum_capacity: float
    user_capacity: np.ndarray
    sqinr: np.ndarray
    cutset: float
    full_mi: float
    reduced_mi: float
    csi_mode: str = "perfect"


def sum_capacity(G, phi, rho):
    """Sum capacity log2 det(I_K + rho * sum_l G_l' (Phi_l + I)^{-1} G_l), bits/use.

    Everything dropped (all Phi infinite) gives exactly 0. A stack gives an
    array over its leading axes.
    """
    return logdet2_hpd(gram(G, rho, phi))


def lmmse_sqinr(B):
    """Per-user SQINR and capacity under LMMSE symbol detection, from B = gram(G, rho, phi).

    B = I_K + rho sum G'(Phi+I)^{-1}G is the detection matrix, (..., K, K); SQINR_k =
    1 / [B^{-1}]_kk - 1 and C_k = log2(1 + SQINR_k). Returns (sqinr, user_capacity), both (..., K).
    B needs no symmetrising: an anti-Hermitian residue E moves Re diag(B^{-1}) at O(E^2) only.
    """
    d = np.real(np.diagonal(np.linalg.inv(B), axis1=-2, axis2=-1))
    sqinr = np.maximum(1.0 / d - 1.0, 0.0)
    return sqinr, np.log2(1.0 + sqinr)


def cutset_bound(H, rho, R):
    """min(R*L, full joint MI): upper bound on any compression scheme's sum capacity."""
    return min(R * len(H), full_joint_mi(H, rho))


def capacity_report(G, phi, H_cutset, H_reference, rho, R, reduced_mi,
                    csi_mode="perfect"):
    """Assemble the CapacityReport for one realized compression pipeline.

    H_reference carries the channels the pipeline was designed on (whitened
    estimates under imperfect CSI) and fixes full_mi; H_cutset carries the true
    channels for the cut-set bound.
    """
    sqinr, user_c = lmmse_sqinr(gram(G, rho, phi))
    return CapacityReport(
        sum_capacity=sum_capacity(G, phi, rho),
        user_capacity=user_c,
        sqinr=sqinr,
        cutset=cutset_bound(H_cutset, rho, R),
        full_mi=full_joint_mi(H_reference, rho),
        reduced_mi=reduced_mi,
        csi_mode=csi_mode,
    )
