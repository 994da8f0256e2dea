import numpy as np
import pytest

from cransim.capacity import (capacity_report, cutset_bound, lmmse_sqinr, lmmse_weights,
                              sum_capacity)
from cransim.compression import build_plan
from cransim.dimred import full_joint_mi, joint_mi, mfgs_select
from cransim.scenario import SystemConfig, generate_realization
from cransim.validation import random_channels


def _pipeline(cfg, seed, R=None):
    ch = generate_realization(cfg, np.random.default_rng(seed))
    sel = mfgs_select(ch.H, cfg.rho, cfg.N)
    plan = build_plan(sel.Q, ch.H, cfg.fronthaul_rate if R is None else R, cfg.rho)
    G, phi = plan.active_channels()
    return ch, sel, G, phi


class TestSumCapacity:
    def test_scalar_hand_case(self):
        g = np.array([[0.8 - 0.6j]])
        phi = np.array([2.0])
        rho = 5.0
        expected = np.log2(1 + rho * abs(g[0, 0]) ** 2 / (phi[0] + 1))
        assert sum_capacity([g], [phi], rho) == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_limit_equals_reduced_mi(self, rng):
        H = random_channels(5, 2, 4, rng)
        sel = mfgs_select(H, 9.0, 2)
        G = [Ql.conj().T @ Hl for Ql, Hl in zip(sel.Q, H)]
        phi = [np.zeros(2) for _ in range(2)]
        assert sum_capacity(G, phi, 9.0) == pytest.approx(joint_mi(sel.Q, H, 9.0), abs=1e-8)

    def test_everything_dropped_gives_zero(self):
        assert sum_capacity([], [], 10.0, K=4) == 0.0
        sq, uc = lmmse_sqinr([], [], 10.0, K=4)
        assert np.all(sq == 0) and np.all(uc == 0)
        with pytest.raises(ValueError):
            sum_capacity([], [], 10.0)


class TestLmmse:
    def test_single_user_matched_filter(self, rng):
        # one user, one receiver, no quantisation noise: SQINR = rho ||h||^2
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        q = h / np.linalg.norm(h)
        G = [q.conj().T @ h]                # 1 x 1
        phi = [np.zeros(1)]
        rho = 3.0
        sqinr, cap = lmmse_sqinr(G, phi, rho)
        assert sqinr[0] == pytest.approx(rho * np.linalg.norm(h) ** 2, rel=1e-10)
        assert cap[0] == pytest.approx(np.log2(1 + sqinr[0]), rel=1e-12)

    def test_orthogonal_users_lmmse_is_optimal(self):
        # orthogonal equivalent channel columns: detection decouples per user
        G = [np.diag([2.0, 1.5, 0.7, 0.3]).astype(complex)]
        phi = [np.array([0.5, 0.1, 2.0, 0.0])]
        rho = 8.0
        _, cap = lmmse_sqinr(G, phi, rho)
        assert cap.sum() == pytest.approx(sum_capacity(G, phi, rho), abs=1e-8)

    def test_lmmse_never_beats_sum_capacity(self, rng):
        for seed in range(10):
            cfg = SystemConfig(K=6, L=3, M=4, N=2, fronthaul_rate=7.0, rng_seed=seed)
            _, _, G, phi = _pipeline(cfg, seed)
            _, cap = lmmse_sqinr(G, phi, cfg.rho, K=cfg.K)
            assert cap.sum() <= sum_capacity(G, phi, cfg.rho, K=cfg.K) + 1e-9

    def test_explicit_weights_attain_the_sqinr(self, rng):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, fronthaul_rate=6.0, rng_seed=11)
        _, _, G, phi = _pipeline(cfg, 11)
        rho = cfg.rho
        sqinr, _ = lmmse_sqinr(G, phi, rho, K=cfg.K)
        W = lmmse_weights(G, phi, rho)
        T = sum(Wl @ Gl for Wl, Gl in zip(W, G))
        noise = sum(Wl @ np.diag(np.asarray(pl) + 1.0) @ Wl.conj().T
                    for Wl, pl in zip(W, phi))
        for k in range(cfg.K):
            signal = rho * abs(T[k, k]) ** 2
            interference = rho * (np.sum(np.abs(T[k, :]) ** 2) - abs(T[k, k]) ** 2)
            achieved = signal / (interference + np.real(noise[k, k]))
            assert achieved == pytest.approx(sqinr[k], rel=1e-8)


class TestCutset:
    def test_zero_rate_is_zero(self, rng):
        H = random_channels(3, 2, 3, rng)
        assert cutset_bound(H, 10.0, 0.0) == 0.0

    def test_unconstrained_limit_is_full_mi(self, rng):
        H = random_channels(3, 2, 3, rng)
        assert cutset_bound(H, 10.0, 1e9) == pytest.approx(full_joint_mi(H, 10.0))

    def test_rate_limited_regime(self):
        cfg = SystemConfig(K=8, L=4, M=8, N=2, rho=10 ** 1.5, rng_seed=0)
        ch = generate_realization(cfg, np.random.default_rng(0))
        R = 2.0
        full = full_joint_mi(ch.H, cfg.rho)
        assert R * cfg.L < full          # the min is genuinely rate-limited here
        assert cutset_bound(ch.H, cfg.rho, R) == R * cfg.L


class TestOrderingChain:
    @pytest.mark.parametrize("K,L,M,N", [(8, 4, 8, 2), (6, 2, 3, 2), (3, 2, 5, 2)])
    def test_chain_on_random_instances(self, K, L, M, N):
        for seed in range(5):
            cfg = SystemConfig(K=K, L=L, M=M, N=N, fronthaul_rate=5.0, rng_seed=seed)
            ch, sel, G, phi = _pipeline(cfg, seed)
            c_sum = sum_capacity(G, phi, cfg.rho, K=K)
            _, cap = lmmse_sqinr(G, phi, cfg.rho, K=K)
            reduced = sel.mi
            full = full_joint_mi(ch.H, cfg.rho)
            cut = cutset_bound(ch.H, cfg.rho, cfg.fronthaul_rate)
            assert cap.sum() <= c_sum + 1e-9
            assert c_sum <= reduced + 1e-9
            assert reduced <= full + 1e-9
            assert c_sum <= cut + 1e-9

    def test_sum_capacity_monotone_in_rate(self):
        cfg = SystemConfig(K=6, L=3, M=4, N=2, rng_seed=8)
        ch = generate_realization(cfg, np.random.default_rng(8))
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        prev = -1.0
        for R in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]:
            plan = build_plan(sel.Q, ch.H, R, cfg.rho)
            G, phi = plan.active_channels()
            c = sum_capacity(G, phi, cfg.rho, K=cfg.K)
            assert c >= prev - 1e-9
            prev = c


class TestReport:
    def test_report_fields_are_consistent(self):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, fronthaul_rate=6.0, rng_seed=4)
        ch, sel, G, phi = _pipeline(cfg, 4)
        rep = capacity_report(G, phi, ch.H, ch.H, cfg.rho, cfg.fronthaul_rate, sel.mi)
        assert rep.csi_mode == "perfect"
        assert rep.sum_capacity == pytest.approx(sum_capacity(G, phi, cfg.rho, K=cfg.K))
        assert rep.user_capacity.shape == (cfg.K,)
        assert rep.cutset == pytest.approx(cutset_bound(ch.H, cfg.rho, cfg.fronthaul_rate))
        assert rep.reduced_mi == pytest.approx(sel.mi)
        assert rep.full_mi == pytest.approx(full_joint_mi(ch.H, cfg.rho))
