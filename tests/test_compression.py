import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.capacity import sum_capacity
from cransim.compression import (LLOYD_MAX_RATE_PENALTY, approx_quant_noise, build_plan,
                                 decorrelate, quant_noise, true_component_variances,
                                 waterfill)
from cransim.csi import estimate_channels, whiten
from cransim.dimred import mfgs_select, signal_space_basis
from cransim.scenario import PERFECT_CSI, SystemConfig, generate_realization
from cransim.validation import random_channels


def _lam_lists(draw_sorted=True):
    return st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8).map(
        lambda xs: np.sort(np.asarray(xs))[::-1])


class TestDecorrelate:
    def test_already_diagonal_input(self):
        # Q = I and orthogonal channel rows: the covariance is diagonal already
        Q = np.eye(2, dtype=complex)
        H = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        V, lam = decorrelate(Q, H)
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))   # columns are +/- unit vectors

    def test_reconstruction(self, rng):
        H = random_channels(5, 1, 4, rng)[0]
        Q = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
        V, lam = decorrelate(Q, H)
        S = Q.conj().T @ H @ H.conj().T @ Q
        assert np.max(np.abs(V @ np.diag(lam) @ V.conj().T - S)) < 1e-10 * max(1, lam[0])
        assert np.max(np.abs(V.conj().T @ V - np.eye(3))) < 1e-10
        assert np.all(np.diff(lam) <= 0)

    def test_full_dimension_eigenvalues_match_channel_gram(self, rng):
        # baseline basis: decorrelated eigenvalues equal those of H H'
        H = random_channels(5, 1, 3, rng)[0]
        Q = signal_space_basis([H])[0]
        V, lam = decorrelate(Q, H)
        expected = np.sort(np.linalg.eigvalsh(H @ H.conj().T))[::-1]
        assert np.allclose(lam, expected, atol=1e-10 * max(1, expected[0]))


class TestWaterfill:
    def test_hand_case_two_components(self):
        rates, n = waterfill(np.array([4.0, 1.0]), 4.0)
        assert rates.tolist() == [3.0, 1.0]
        assert n == 2

    def test_hand_case_active_set_shrinks(self):
        rates, n = waterfill(np.array([8.0, 1e-3]), 2.0)
        assert rates.tolist() == [2.0, 0.0]
        assert n == 1

    def test_equal_eigenvalues_split_evenly(self):
        rates, n = waterfill(np.full(4, 2.7), 10.0)
        assert np.allclose(rates, 2.5)
        assert n == 4

    def test_zero_rate_and_zero_eigenvalues(self):
        rates, n = waterfill(np.array([3.0, 1.0]), 0.0)
        assert np.all(rates == 0) and n == 0
        rates, n = waterfill(np.zeros(3), 5.0)
        assert np.all(rates == 0) and n == 0

    def test_zero_eigenvalues_never_allocated(self):
        rates, n = waterfill(np.array([4.0, 1.0, 0.0]), 6.0)
        assert rates[2] == 0.0
        assert abs(rates.sum() - 6.0) < 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, 2.0]), 4.0)     # ascending
        with pytest.raises(ValueError):
            waterfill(np.array([2.0, 1.0]), -1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([2.0, -1.0]), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(_lam_lists(), st.floats(min_value=0.0, max_value=64.0))
    def test_budget_and_positivity(self, lam, R):
        rates, n = waterfill(lam, R)
        assert np.all(rates >= 0)
        assert n == int(np.sum(rates > 0))
        if n >= 1:
            assert abs(rates.sum() - R) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(_lam_lists(), st.floats(min_value=0.0, max_value=40.0),
           st.floats(min_value=0.01, max_value=20.0))
    def test_monotone_in_rate(self, lam, R, dR):
        lo, _ = waterfill(lam, R)
        hi, _ = waterfill(lam, R + dR)
        assert np.all(hi >= lo - 1e-12)

    def test_surcharge_reduces_effective_budget(self):
        lam = np.array([4.0, 1.0])
        rates, n = waterfill(lam, 6.0, surcharge=LLOYD_MAX_RATE_PENALTY)
        assert n >= 1
        # delivered Gaussian-equivalent rates plus per-scalar overhead fill the budget
        assert abs(rates.sum() + LLOYD_MAX_RATE_PENALTY * n - 6.0) < 1e-9
        plain, _ = waterfill(lam, 6.0)
        assert np.all(rates <= plain + 1e-12)

    def test_surcharge_can_drop_everything(self):
        rates, n = waterfill(np.array([2.0, 1.9]), 1.0, surcharge=1.4)
        assert n <= 1   # 2 * 1.4 > 1, so at most one scalar is affordable


class TestQuantNoise:
    def test_hand_case(self):
        phi = quant_noise(np.array([3.0]), np.array([2.0]), rho=1.0)
        assert phi[0] == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_zero_rate_is_dropped(self):
        phi = quant_noise(np.array([3.0, 1.0]), np.array([2.0, 0.0]), rho=1.0)
        assert np.isinf(phi[1])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            quant_noise(np.array([1.0]), np.array([-0.1]), rho=1.0)

    def test_compression_rate_identity(self, rng):
        # sum_i log2(1 + (rho lam_i + 1)/Phi_i) recovers the fronthaul budget
        for _ in range(20):
            lam = np.sort(rng.uniform(0.01, 50.0, size=6))[::-1]
            R = rng.uniform(0.5, 40.0)
            rho = rng.uniform(0.1, 100.0)
            rates, n = waterfill(lam, R)
            phi = quant_noise(lam, rates, rho)
            act = rates > 0
            used = np.sum(np.log2(1.0 + (rho * lam[act] + 1.0) / phi[act]))
            assert abs(used - R) < 1e-6

    def test_monotone_in_rate(self, rng):
        lam = np.sort(rng.uniform(0.1, 30.0, size=5))[::-1]
        prev = None
        for R in [2.0, 5.0, 10.0, 20.0]:
            rates, _ = waterfill(lam, R)
            phi = quant_noise(lam, rates, 12.0)
            if prev is not None:
                assert np.all(phi <= prev * (1 + 1e-12))
            prev = phi

    def test_perfect_csi_equals_zero_error_imperfect(self, rng):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, rng_seed=3)
        ch = generate_realization(cfg, np.random.default_rng(3))
        csi = estimate_channels(ch, PERFECT_CSI, np.random.default_rng(0))
        H_check, winv = whiten(csi, cfg.rho)
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        plan_perf = build_plan(sel.Q, ch.H, 8.0, cfg.rho)
        plan_csi = build_plan(sel.Q, H_check, 8.0, cfg.rho,
                              H_true_list=ch.H, omega_inv_sqrt_list=winv)
        for a, b in zip(plan_perf.Phi, plan_csi.Phi):
            finite = np.isfinite(a)
            assert np.array_equal(finite, np.isfinite(b))
            assert np.allclose(a[finite], b[finite], rtol=1e-10)

    def test_true_variances_reduce_to_design_values_under_perfect_csi(self, rng):
        H = random_channels(4, 1, 3, rng)[0]
        Q = signal_space_basis([H])[0]
        V, lam = decorrelate(Q, H)
        var = true_component_variances(V, Q, np.eye(3), H, rho=7.0)
        assert np.allclose(var, 7.0 * lam + 1.0, atol=1e-10)


class TestApproxQuantNoise:
    def test_equal_eigenvalues_limit(self):
        # exact (rho lam + 1)/(2^(R/N) - 1) vs approx rho lam 2^(-R/N): ratio -> 1
        lam = np.full(2, 50.0)
        rho = 1e3
        R = 40.0
        rates, _ = waterfill(lam, R)
        exact = quant_noise(lam, rates, rho)[0]
        approx = approx_quant_noise(lam, R, 2, rho)
        assert approx / exact == pytest.approx(1.0, rel=1e-3)

    def test_moderate_case_within_five_percent(self):
        lam = np.array([4.0, 1.0])
        rho, R = 100.0, 20.0
        rates, _ = waterfill(lam, R)
        exact = quant_noise(lam, rates, rho)
        approx = approx_quant_noise(lam, R, 2, rho)
        assert abs(approx - exact.mean()) / exact.mean() < 0.05

    def test_zero_rate_edge_goes_through_exact_path(self):
        rates, n = waterfill(np.array([4.0, 1.0]), 0.0)
        assert n == 0
        phi = quant_noise(np.array([4.0, 1.0]), rates, rho=10.0)
        assert np.all(np.isinf(phi))


class TestBuildPlan:
    def test_rate_budget_across_receivers(self, rng):
        cfg = SystemConfig(K=6, L=3, M=4, N=2, rng_seed=1)
        ch = generate_realization(cfg, np.random.default_rng(1))
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        plan = build_plan(sel.Q, ch.H, 9.0, cfg.rho)
        for rates, n in zip(plan.rates, plan.active):
            if n >= 1:
                assert abs(rates.sum() - 9.0) < 1e-9

    def test_infinite_rate_limit_recovers_reduced_mi(self, rng):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, rng_seed=2)
        ch = generate_realization(cfg, np.random.default_rng(2))
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        plan = build_plan(sel.Q, ch.H, 400.0, cfg.rho)
        G, phi = plan.active_channels()
        cap = sum_capacity(G, phi, cfg.rho, K=cfg.K)
        assert abs(cap - sel.mi) < 1e-6

    def test_active_channels_drop_zero_rate_rows(self, rng):
        lam_like = random_channels(4, 2, 3, rng)
        Q = signal_space_basis(lam_like)
        plan = build_plan(Q, lam_like, 1.0, rho=5.0)
        G, phi = plan.active_channels()
        for Gl, pl in zip(G, phi):
            assert Gl.shape[0] == pl.size
            assert np.all(np.isfinite(pl)) and np.all(pl > 0)
