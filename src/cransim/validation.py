"""Oracles and the invariant checks behind `cransim validate`.

Each oracle re-derives a production value by an independent route (scratch
greedy search, the slogdet joint MI of arbitrary filters through their own
projectors, the eigen form of the stage gain); run_validation checks the
pipeline against them and against hand-computed cases, returning a list of
(name, passed, detail).
"""

from dataclasses import dataclass

import numpy as np

from . import capacity as cap
from .compression import build_plan, quant_noise, waterfill
from .dimred import DEGENERATE_PROJECTION_TOL, full_joint_mi, mfgs_select, signal_space_basis
from .harness import run_trial, trial_stream
from .linalg import NumericalError
from .scenario import SystemConfig, generate_realization, power_control

GAIN_IDENTITY_TOL = 1e-8


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


def random_channels(K, L, M, rng):
    """Plain i.i.d. complex Gaussian channels, stacked (L, M, K), drawn receiver by receiver."""
    return np.stack([(rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K)))
                     / np.sqrt(2.0) for _ in range(L)])


def _joint_matrix(filters, H, rho):
    """I_K + rho * sum_l (P_l H_l)'(P_l H_l), where P_l = F_l F_l^+ projects onto span(F_l).

    This is the whitened MI matrix of the filtered signals F_l' y_l, whose
    noise covariance is F_l' F_l, so the filter columns may be non-orthonormal,
    dependent, zero or absent (an (M, 0) filter).
    """
    B = np.eye(H[0].shape[1], dtype=complex)
    for F, Hl in zip(filters, H):
        F = np.asarray(F, dtype=complex)
        T = F @ np.linalg.pinv(F) @ Hl
        B += rho * (T.conj().T @ T)
    return B


def joint_mi(filters, H, rho):
    """Joint MI in bits of arbitrary filters, one matrix of columns per receiver.

    The slogdet of _joint_matrix: a route independent of the package's Cholesky.
    """
    sign, logdet = np.linalg.slogdet(_joint_matrix(filters, H, rho))
    if sign.real <= 0:
        raise NumericalError("joint-MI matrix is not positive definite")
    return logdet / np.log(2.0)


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

    d, U = np.linalg.eigh(A)    # d ascending <=> upsilon descending
    upsilon = (1.0 / d - 1.0) / rho
    if np.any(upsilon < -1e-9):
        raise NumericalError("A has eigenvalues above 1; not a valid inverse")
    upsilon = np.maximum(upsilon, 0.0)

    if gamma <= DEGENERATE_PROJECTION_TOL:
        return EquivalentChannelDiagnostics(upsilon=upsilon, U=U, gamma=gamma, c=None), 0.0

    c = u / np.sqrt(gamma)
    gain_lemma = float(np.log2(1.0 + rho * np.real(u.conj() @ (A @ u))))
    proj = np.abs(U.conj().T @ c) ** 2
    gain_eig = float(np.log2(1.0 + gamma * np.sum(rho * proj / (1.0 + rho * upsilon))))
    if abs(gain_lemma - gain_eig) > GAIN_IDENTITY_TOL * max(1.0, abs(gain_lemma)):
        raise NumericalError(
            f"stage-gain identity violated: lemma {gain_lemma!r} vs eigen {gain_eig!r}")
    return EquivalentChannelDiagnostics(upsilon=upsilon, U=U, gamma=gamma, c=c), gain_lemma


def greedy_reference(H, rho, N):
    """Oracle for mfgs_select: the joint MI recomputed from scratch for every candidate.

    No inverse, blocks or bases: a candidate is scored by joint_mi of the
    raw channels of the users picked so far plus its own, one whose squared
    residual off their span is at most DEGENERATE_PROJECTION_TOL is excluded,
    and ties break to the lowest user index within a relative window, as
    documented. Returns the users per receiver.
    """
    L, K = len(H), H[0].shape[1]
    S = [[] for _ in range(L)]
    for _ in range(N):
        for l in range(L):
            F = H[l][:, S[l]]
            P = F @ np.linalg.pinv(F)
            options = []
            for k in range(K):
                resid = H[l][:, k] - P @ H[l][:, k]
                if k in S[l] or float(np.real(resid.conj() @ resid)) <= DEGENERATE_PROJECTION_TOL:
                    continue
                trial = [H[i][:, S[i] + [k] if i == l else S[i]] for i in range(L)]
                options.append((k, joint_mi(trial, H, rho)))
            if options:
                best = max(v for _, v in options)
                window = 1e-12 * max(1.0, abs(best))
                S[l].append(next(k for k, v in options if v >= best - window))
    return S


def run_validation(seed=0):
    """Run every check; returns [(name, passed, detail), ...]."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # power control: defining property and hand case
    beta = rng.uniform(0.1, 10.0, size=(4, 6))
    p = power_control(beta)
    norm = p * beta.sum(axis=0) / beta.shape[0]
    check("power control normalizes mean received power",
          np.allclose(norm, 1.0, atol=1e-12), f"max dev {np.max(np.abs(norm - 1)):.2e}")
    check("power control hand case [3,1] -> 1/2",
          abs(power_control(np.array([[3.0], [1.0]]))[0] - 0.5) < 1e-15)

    # determinism of the generation pipeline
    cfg = SystemConfig(K=6, L=3, M=4, N=2, rng_seed=seed)
    a = generate_realization(cfg, trial_stream(cfg.rng_seed, 0))
    b = generate_realization(cfg, trial_stream(cfg.rng_seed, 0))
    check("seeded generation is deterministic",
          np.array_equal(a.H, b.H))

    # data-processing identity and lossless limit
    H = random_channels(6, 3, 4, rng)
    F = [Hl[:, :3] @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
         for Hl in H]
    mi_raw = joint_mi(F, H, 10.0)
    mi_orth = joint_mi([np.linalg.qr(Fl)[0] for Fl in F], H, 10.0)
    check("joint MI invariant under invertible filter mixing",
          abs(mi_raw - mi_orth) < 1e-8, f"diff {abs(mi_raw - mi_orth):.2e}")
    sel = mfgs_select(H, 10.0, 4)
    check("full-dimension selection recovers the unconstrained MI",
          abs(sel.mi - full_joint_mi(H, 10.0)) < 1e-8)

    # greedy against scratch recomputation
    H = random_channels(5, 2, 3, rng)
    sel = mfgs_select(H, 8.0, 2)
    check("greedy selection matches scratch per-stage search",
          sel.S == greedy_reference(H, 8.0, 2), f"{sel.S}")

    # greedy gains: the MI trajectory after every step against joint_mi of the picks so far
    H = random_channels(6, 3, 4, rng)
    sel = mfgs_select(H, 12.0, 3)
    err = np.max([abs(sel.mi_trajectory[3 * r + l]
                      - joint_mi([Q[:, :r + (j <= l)] for j, Q in enumerate(sel.Q)], H, 12.0))
                  for r in range(3) for l in range(3)])
    check("greedy trajectory gives the joint MI after every step", err < 1e-8,
          f"max err {err:.2e} bits")

    # stage-gain eigen identity (raises internally on violation) + eigenvalue growth
    direct = np.linalg.inv(_joint_matrix(sel.Q, H, 12.0))
    q = sel.Q[0][:, 0]
    diag, gain = stage_gain_diagnostics(direct, H[0], q, 12.0)
    check("stage-gain eigen identity holds", gain >= 0,
          f"gain {gain:.3f} bits, top eigenvalue {diag.upsilon[0]:.3f}")

    # waterfilling hand cases and rate budget
    rates, n_act = waterfill(np.array([4.0, 1.0]), 4.0)
    check("waterfill [4,1] at R=4 gives [3,1]",
          np.allclose(rates, [3.0, 1.0]) and n_act == 2, f"{rates}")
    rates, n_act = waterfill(np.array([8.0, 1e-3]), 2.0)
    check("waterfill [8,1e-3] at R=2 drops the weak component",
          np.allclose(rates, [2.0, 0.0]) and n_act == 1, f"{rates}")
    lam = np.sort(rng.uniform(0.5, 20.0, size=5))[::-1]
    rates, n_act = waterfill(lam, 11.0)
    phi = quant_noise(lam, rates, 10.0)
    act = rates > 0
    used = np.sum(np.log2(1.0 + (10.0 * lam[act] + 1.0) / phi[act]))
    check("quantiser rates reproduce the fronthaul budget",
          abs(used - 11.0) < 1e-6 and abs(np.sum(rates) - 11.0) < 1e-9,
          f"sum rate {np.sum(rates):.12f}")

    # end-to-end ordering chain on one realization
    cfg = SystemConfig(K=8, L=4, M=8, N=2, rho=10.0 ** 1.5, fronthaul_rate=6.0,
                       rng_seed=seed)
    rec = run_trial(cfg, mode="proposed", trial=1)
    m = rec.metrics
    chain = (m["lmmse_sum_capacity"] <= m["sum_capacity"] + 1e-9
             and m["sum_capacity"] <= m["reduced_mi"] + 1e-9
             and m["reduced_mi"] <= m["full_mi"] + 1e-9
             and m["sum_capacity"] <= m["cutset"] + 1e-9)
    check("capacity ordering chain LMMSE <= sum <= reduced <= full, sum <= cutset",
          chain, f"sum {m['sum_capacity']:.3f}, cutset {m['cutset']:.3f}")

    # baseline pipeline at generous rate approaches the unconstrained MI
    cfg = SystemConfig(K=4, L=2, M=4, N=2, fronthaul_rate=200.0, rng_seed=seed)
    rec = run_trial(cfg, mode="local_baseline", trial=2)
    gap = rec.metrics["full_mi"] - rec.metrics["sum_capacity"]
    check("rate-unconstrained baseline approaches the full MI",
          0 <= gap < 1e-4, f"gap {gap:.2e} bits")

    # local baseline eigenvalues: signal-space basis is lossless
    H = random_channels(4, 2, 3, rng)
    Q = signal_space_basis(H)
    check("baseline signal-space basis is lossless",
          abs(joint_mi(Q, H, 5.0) - full_joint_mi(H, 5.0)) < 1e-8)

    # compression plan sanity at two rates in one stacked plan: monotone rates,
    # shrinking noise
    plan = build_plan(Q, H, np.array([4.0, 8.0]), 5.0)
    mono = np.all(plan.rates[1] >= plan.rates[0] - 1e-12)
    phi_mono = np.all(plan.Phi[1] <= plan.Phi[0] * (1 + 1e-12))
    check("higher fronthaul rate never lowers a component rate or raises its noise",
          mono and phi_mono)
    caps = cap.sum_capacity(plan.G, plan.Phi, 5.0)
    check("sum capacity is monotone in the fronthaul rate", caps[1] >= caps[0] - 1e-9,
          f"{caps[0]:.3f} -> {caps[1]:.3f}")

    return results
