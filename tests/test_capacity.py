import numpy as np
import pytest

from cransim.capacity import capacity_report, cutset_bound, lmmse_sqinr, sum_capacity
from cransim.compression import build_plan
from cransim.dimred import full_joint_mi, mfgs_select
from cransim.linalg import adjoint, gram
from cransim.scenario import SystemConfig, generate_realization
from cransim.validation import joint_mi, random_channels


def lmmse_weights(G, phi, rho):
    """Explicit LMMSE combining weights, stacked (L, K, n) like G.

    W_l = rho * (I + rho sum G'(Phi+I)^{-1}G)^{-1} G_l' (Phi_l + I)^{-1}, formed
    by direct inversion; a dropped component gets a zero column.
    """
    Gw = G / (phi + 1.0)[..., None]
    B = np.eye(G.shape[-1]) + rho * sum(adjoint(Gl) @ Wl for Gl, Wl in zip(G, Gw))
    return rho * (np.linalg.inv(B) @ adjoint(Gw))


def _pipeline(cfg, seed, R=None):
    ch = generate_realization(cfg, np.random.default_rng(seed))
    sel = mfgs_select(ch.H, cfg.rho, cfg.N)
    plan = build_plan(sel.Q, ch.H, cfg.fronthaul_rate if R is None else R, cfg.rho)
    return ch, sel, plan.G, plan.Phi


class TestSumCapacity:
    def test_scalar_hand_case(self):
        g = np.array([[0.8 - 0.6j]])
        phi = np.array([2.0])
        rho = 5.0
        expected = np.log2(1 + rho * abs(g[0, 0]) ** 2 / (phi[0] + 1))
        assert sum_capacity(g[None], phi[None], rho) == pytest.approx(expected, rel=1e-12)

    def test_zero_noise_limit_equals_reduced_mi(self, rng):
        H = random_channels(5, 2, 4, rng)
        sel = mfgs_select(H, 9.0, 2)
        G = sel.Q.conj().swapaxes(-1, -2) @ H
        phi = np.zeros((2, 2))
        assert sum_capacity(G, phi, 9.0) == pytest.approx(joint_mi(sel.Q, H, 9.0), abs=1e-8)

    def test_everything_dropped_gives_zero(self):
        G = np.ones((2, 3, 4), dtype=complex)
        phi = np.full((2, 3), np.inf)
        assert sum_capacity(G, phi, 10.0) == 0.0
        sq, uc = lmmse_sqinr(gram(G, 10.0, phi))
        assert sq.shape == (4,) and np.all(sq == 0) and np.all(uc == 0)


    def test_skipped_rounds_and_dropped_components_contribute_nothing(self, rng):
        # receiver 0 has a rank-1 channel, so its second greedy round is skipped
        # and its Q keeps a zero column
        H = random_channels(4, 2, 3, rng)
        H[0] = H[0][:, :1] @ (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
        rho, R = 6.0, 5.0
        sel = mfgs_select(H, rho, 2)
        assert len(sel.S[0]) == 1 and np.all(sel.Q[0][:, 1] == 0)
        plan = build_plan(sel.Q, H, R, rho)
        assert np.isinf(plan.Phi[0, 1])
        # the same receivers planned on their real columns alone
        real = [build_plan(sel.Q[l:l + 1, :, :len(s)], H[l:l + 1], R, rho)
                for l, s in enumerate(sel.S)]
        G = np.concatenate([p.G[0] for p in real])
        phi = np.concatenate([p.Phi[0] for p in real])
        assert sum_capacity(plan.G, plan.Phi, rho) == pytest.approx(
            sum_capacity(G, phi, rho), rel=1e-12)
        assert sum_capacity(sel.Q.conj().swapaxes(-1, -2) @ H, np.zeros((2, 2)), rho) == (
            pytest.approx(sel.mi, rel=1e-12))
        # rows with Phi = inf add nothing, whatever their channel
        junk = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        padded = sum_capacity(np.concatenate([G, junk]),
                              np.concatenate([phi, np.full(3, np.inf)]), rho)
        assert padded == pytest.approx(sum_capacity(G, phi, rho), rel=1e-12)
        sq, _ = lmmse_sqinr(gram(np.concatenate([G, junk]), rho,
                                 np.concatenate([phi, np.full(3, np.inf)])))
        assert np.allclose(sq, lmmse_sqinr(gram(G, rho, phi))[0], rtol=1e-12)

    def test_stack_equals_slices(self, rng):
        # G over 2 designs, Phi over 3 rates x 2 designs, rho per design; one slice
        # drops a component and one drops everything
        H = random_channels(5, 3, 4, rng)
        rho = np.array([2.0, 30.0])
        Q = mfgs_select(np.stack([H, H]), rho, 2).Q
        G = Q.conj().swapaxes(-1, -2) @ H
        phi = rng.uniform(0.1, 3.0, size=(3, 2, 3, 2))
        phi[1, 0, 2, 1] = np.inf
        phi[2, 1] = np.inf
        caps = sum_capacity(G, phi, rho)
        sqinr, user = lmmse_sqinr(gram(G, rho, phi))
        assert caps.shape == (3, 2) and sqinr.shape == user.shape == (3, 2, 5)
        for i in range(3):
            for d in range(2):
                assert caps[i, d] == sum_capacity(G[d], phi[i, d], rho[d])
                one_sq, one_user = lmmse_sqinr(gram(G[d], rho[d], phi[i, d]))
                assert np.array_equal(sqinr[i, d], one_sq)
                assert np.array_equal(user[i, d], one_user)
        assert caps[2, 1] == 0.0 and np.all(user[2, 1] == 0)


class TestLmmse:
    def test_single_user_matched_filter(self, rng):
        # one user, one receiver, no quantisation noise: SQINR = rho ||h||^2
        h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        q = h / np.linalg.norm(h)
        G = (q.conj().T @ h)[None]          # one receiver, 1 x 1
        phi = np.zeros((1, 1))
        rho = 3.0
        sqinr, cap = lmmse_sqinr(gram(G, rho, phi))
        assert sqinr[0] == pytest.approx(rho * np.linalg.norm(h) ** 2, rel=1e-10)
        assert cap[0] == pytest.approx(np.log2(1 + sqinr[0]), rel=1e-12)

    def test_anti_hermitian_residue_moves_the_sqinr_only_at_second_order(self, rng):
        G = random_channels(6, 3, 4, rng)
        B = gram(G, 10.0, rng.uniform(0.1, 3.0, G.shape[:-1]))
        R = rng.standard_normal(B.shape) + 1j * rng.standard_normal(B.shape)
        size = 1e-8 * np.linalg.norm(B)
        sq = lmmse_sqinr(B)[0]
        anti, herm = R - adjoint(R), R + adjoint(R)
        moved = lmmse_sqinr(B + size * anti / np.linalg.norm(anti))[0]
        assert np.max(np.abs(moved - sq) / sq) < 1e-14
        # a Hermitian residue of the same size moves it at first order
        moved = lmmse_sqinr(B + size * herm / np.linalg.norm(herm))[0]
        assert np.max(np.abs(moved - sq) / sq) > 1e-11

    def test_swapped_axis_stack_equals_each_matrix_alone(self, rng):
        G = np.stack([random_channels(5, 2, 4, rng) for _ in range(4)])
        B = gram(G, 10.0)
        view = np.ascontiguousarray(B.swapaxes(0, 1)).swapaxes(0, 1)   # same values, not contiguous
        sqinr, user = lmmse_sqinr(view)
        for i, b in enumerate(B):
            one_sq, one_user = lmmse_sqinr(b)
            assert np.array_equal(sqinr[i], one_sq) and np.array_equal(user[i], one_user)

    def test_orthogonal_users_lmmse_is_optimal(self):
        # orthogonal equivalent channel columns: detection decouples per user
        G = np.diag([2.0, 1.5, 0.7, 0.3]).astype(complex)[None]
        phi = np.array([[0.5, 0.1, 2.0, 0.0]])
        rho = 8.0
        _, cap = lmmse_sqinr(gram(G, rho, phi))
        assert cap.sum() == pytest.approx(sum_capacity(G, phi, rho), abs=1e-8)

    def test_lmmse_never_beats_sum_capacity(self, rng):
        for seed in range(10):
            cfg = SystemConfig(K=6, L=3, M=4, N=2, fronthaul_rate=7.0, rng_seed=seed)
            _, _, G, phi = _pipeline(cfg, seed)
            _, cap = lmmse_sqinr(gram(G, cfg.rho, phi))
            assert cap.sum() <= sum_capacity(G, phi, cfg.rho) + 1e-9

    def test_explicit_weights_attain_the_sqinr(self, rng):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, fronthaul_rate=6.0, rng_seed=11)
        _, _, G, phi = _pipeline(cfg, 11)
        rho = cfg.rho
        sqinr, _ = lmmse_sqinr(gram(G, rho, phi))
        W = lmmse_weights(G, phi, rho)
        T = sum(Wl @ Gl for Wl, Gl in zip(W, G))
        act = np.isfinite(phi)              # dropped components carry zero weight
        noise = sum(Wl[:, a] @ np.diag(pl[a] + 1.0) @ Wl[:, a].conj().T
                    for Wl, pl, a in zip(W, phi, act))
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
            c_sum = sum_capacity(G, phi, cfg.rho)
            _, cap = lmmse_sqinr(gram(G, cfg.rho, phi))
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
            c = sum_capacity(plan.G, plan.Phi, cfg.rho)
            assert c >= prev - 1e-9
            prev = c


class TestReport:
    def test_report_fields_are_consistent(self):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, fronthaul_rate=6.0, rng_seed=4)
        ch, sel, G, phi = _pipeline(cfg, 4)
        rep = capacity_report(G, phi, ch.H, ch.H, cfg.rho, cfg.fronthaul_rate, sel.mi)
        assert rep.csi_mode == "perfect"
        assert rep.sum_capacity == pytest.approx(sum_capacity(G, phi, cfg.rho))
        assert rep.user_capacity.shape == (cfg.K,)
        assert rep.cutset == pytest.approx(cutset_bound(ch.H, cfg.rho, cfg.fronthaul_rate))
        assert rep.reduced_mi == pytest.approx(sel.mi)
        assert rep.full_mi == pytest.approx(full_joint_mi(ch.H, cfg.rho))
