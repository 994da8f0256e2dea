"""Self-contained oracle and invariant checks, runnable from the CLI.

Each check re-derives its expected value through an independent route
(scratch recomputation, direct inversion, hand-computed cases) and compares
the production path against it. Returns a list of (name, passed, detail).
"""

import numpy as np

from . import capacity as cap
from .compression import build_plan, quant_noise, waterfill
from .dimred import (full_joint_mi, joint_mi, mfgs_select, orthonormalize,
                     signal_space_basis, stage_gain_diagnostics)
from .harness import run_trial, trial_stream
from .linalg import NumericalError
from .scenario import SystemConfig, generate_realization, power_control


def random_channels(K, L, M, rng):
    """Plain i.i.d. complex Gaussian channel set, one (M, K) matrix per receiver."""
    return [(rng.standard_normal((M, K)) + 1j * rng.standard_normal((M, K))) / np.sqrt(2.0)
            for _ in range(L)]


def _joint_matrix(bases, H, rho):
    """I_K + rho * sum_l H_l' Q_l Q_l' H_l, formed directly from the bases."""
    B = np.eye(H[0].shape[1], dtype=complex)
    for Q, Hl in zip(bases, H):
        T = np.asarray(Q).conj().T @ Hl
        B += rho * (T.conj().T @ T)
    return B


def mi_reference(bases, H, rho):
    """Joint MI in bits via slogdet: an independent route from the package's Cholesky."""
    sign, logdet = np.linalg.slogdet(_joint_matrix(bases, H, rho))
    if sign.real <= 0:
        raise NumericalError("joint-MI matrix is not positive definite")
    return logdet / np.log(2.0)


def greedy_reference(H, rho, N):
    """Oracle for mfgs_select: the joint MI recomputed from scratch for every candidate.

    No running inverse and no projection matrices: Gram-Schmidt residuals are
    formed against the stored bases, and ties break to the lowest user index
    within a relative window, as documented. Returns the users per receiver.
    """
    L = len(H)
    M, K = H[0].shape
    S = [[] for _ in range(L)]
    bases = [np.zeros((M, 0), dtype=complex) for _ in range(L)]
    for _ in range(N):
        for l in range(L):
            options = []
            for k in range(K):
                if k in S[l]:
                    continue
                h = H[l][:, k].astype(complex)
                resid = h - bases[l] @ (bases[l].conj().T @ h)
                if float(np.real(resid.conj() @ resid)) <= 1e-12:
                    continue
                q = resid / np.linalg.norm(resid)
                trial = [np.column_stack([bases[i], q]) if i == l else bases[i]
                         for i in range(L)]
                options.append((k, mi_reference(trial, H, rho), q))
            if not options:
                continue
            best = max(v for _, v, _ in options)
            window = 1e-12 * max(1.0, abs(best))
            k, _, q = next(opt for opt in options if opt[1] >= best - window)
            S[l].append(k)
            bases[l] = np.column_stack([bases[l], q])
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
          all(np.array_equal(x, y) for x, y in zip(a.H, b.H)))

    # data-processing identity and lossless limit
    H = random_channels(6, 3, 4, rng)
    F = [Hl[:, :3] @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
         for Hl in H]
    mi_raw = joint_mi(F, H, 10.0)
    mi_orth = joint_mi([orthonormalize(Fl) for Fl in F], H, 10.0)
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

    # rank-1 update against direct inversion
    H = random_channels(6, 3, 4, rng)
    sel = mfgs_select(H, 12.0, 3)
    direct = np.linalg.inv(_joint_matrix(sel.Q, H, 12.0))
    err = np.linalg.norm(sel.A_final - direct) / np.linalg.norm(direct)
    check("rank-1 running inverse matches direct inversion", err < 1e-8, f"rel err {err:.2e}")

    # stage-gain eigen identity (raises internally on violation) + eigenvalue growth
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

    # compression plan sanity at two rates: monotone rates, shrinking noise
    plan_lo = build_plan(Q, H, 4.0, 5.0)
    plan_hi = build_plan(Q, H, 8.0, 5.0)
    mono = all(np.all(hi >= lo - 1e-12) for lo, hi in zip(plan_lo.rates, plan_hi.rates))
    phi_mono = all(np.all(hi <= lo * (1 + 1e-12)) for lo, hi in zip(plan_lo.Phi, plan_hi.Phi))
    check("higher fronthaul rate never lowers a component rate or raises its noise",
          mono and phi_mono)
    caps = [cap.sum_capacity(*p.active_channels(), 5.0, K=4) for p in (plan_lo, plan_hi)]
    check("sum capacity is monotone in the fronthaul rate", caps[1] >= caps[0] - 1e-9,
          f"{caps[0]:.3f} -> {caps[1]:.3f}")

    return results
