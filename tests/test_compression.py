import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.capacity import sum_capacity
from cransim.compression import (LLOYD_MAX_RATE_PENALTY, build_plan, decorrelate, quant_noise,
                                 true_component_variances, waterfill)
from cransim.csi import estimate_channels, whiten
from cransim.dimred import mfgs_select, signal_space_basis
from cransim.scenario import SystemConfig, generate_realization
from cransim.validation import random_channels


def _lam_lists(draw_sorted=True):
    return st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8).map(
        lambda xs: np.sort(np.asarray(xs))[::-1])


def _waterfill_loop(lam, R, surcharge):
    """Reference drop-and-repeat waterfill of one row, on its compacted active set."""
    rates = np.zeros(lam.size)
    active = np.nonzero(lam > 0)[0]
    while active.size > 0:
        n = active.size
        log_lam = np.log2(lam[active])
        r = (R - surcharge * n) / n + log_lam - np.mean(log_lam)
        if np.all(r > 0):
            rates[active] = r
            return rates, n
        active = active[r > 0]
    return rates, 0


class TestDecorrelate:
    def test_already_diagonal_input(self):
        # Q = I and orthogonal channel rows: the covariance is diagonal already
        Q = np.eye(2, dtype=complex)
        H = np.array([[2.0, 0.0], [0.0, 1.0]], dtype=complex)
        V, lam = decorrelate(Q.conj().T @ H)
        assert np.allclose(lam, [4.0, 1.0])
        assert np.allclose(np.abs(V), np.eye(2))   # columns are +/- unit vectors

    def test_reconstruction(self, rng):
        H = random_channels(5, 1, 4, rng)[0]
        Q = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
        V, lam = decorrelate(Q.conj().T @ H)
        S = Q.conj().T @ H @ H.conj().T @ Q
        assert np.max(np.abs(V @ np.diag(lam) @ V.conj().T - S)) < 1e-10 * max(1, lam[0])
        assert np.max(np.abs(V.conj().T @ V - np.eye(3))) < 1e-10
        assert np.all(np.diff(lam) <= 0)

    def test_full_dimension_eigenvalues_match_channel_gram(self, rng):
        # baseline basis: decorrelated eigenvalues equal those of H H'
        H = random_channels(5, 1, 3, rng)[0]
        Q = signal_space_basis([H])[0]
        V, lam = decorrelate(Q.conj().T @ H)
        expected = np.sort(np.linalg.eigvalsh(H @ H.conj().T))[::-1]
        assert np.allclose(lam, expected, atol=1e-10 * max(1, expected[0]))

    def test_swapped_axis_stack_equals_each_matrix_alone(self, rng):
        T = np.stack([random_channels(6, 1, 3, rng)[0] for _ in range(4)])
        view = np.ascontiguousarray(T.swapaxes(0, 1)).swapaxes(0, 1)   # same values, not contiguous
        V, lam = decorrelate(view)
        for i, t in enumerate(T):
            one_V, one_lam = decorrelate(t)
            assert np.array_equal(V[i], one_V) and np.array_equal(lam[i], one_lam)


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
        for R in (np.nan, np.array([2.0, np.nan])):
            with pytest.raises(ValueError, match="rate budget"):
                waterfill(np.array([4.0, 1.0]), R)
        for surcharge in (-5.0, -1e-12, np.nan, np.inf):
            with pytest.raises(ValueError, match="surcharge must be a finite number >= 0"):
                waterfill(np.array([4.0, 1.0]), 4.0, surcharge=surcharge)

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

    @pytest.mark.parametrize("surcharge", [0.0, LLOYD_MAX_RATE_PENALTY])
    def test_stack_equals_rowwise(self, surcharge):
        # rows settle on different active counts, some after several drops
        lam = np.array([[9.0, 4.0, 2.0, 1.0],
                        [50.0, 1.0, 1e-3, 1e-6],
                        [3.0, 3.0, 3.0, 0.0],
                        [1.0, 0.5, 0.25, 0.125],
                        [0.0, 0.0, 0.0, 0.0]])
        distinct = 0
        for R in (0.0, 0.7, 2.5, 6.0, 9.0, 20.0):
            rates, n = waterfill(lam, R, surcharge=surcharge)
            assert rates.shape == lam.shape and n.shape == (5,)
            rows = [waterfill(row, R, surcharge=surcharge) for row in lam]
            assert np.array_equal(rates, np.array([r for r, _ in rows]))
            assert n.tolist() == [int(k) for _, k in rows]
            for row, r, k in zip(lam, rates, n):
                want, k_want = _waterfill_loop(row, R, surcharge)
                assert k == k_want
                assert np.allclose(r, want, rtol=1e-12, atol=1e-12)
            distinct = max(distinct, len(set(n.tolist())))
        assert distinct >= 3

    @pytest.mark.parametrize("surcharge", [0.0, LLOYD_MAX_RATE_PENALTY])
    def test_rate_array_equals_scalar_calls(self, surcharge):
        lam = np.array([[9.0, 4.0, 2.0, 1.0],
                        [50.0, 1.0, 1e-3, 1e-6],
                        [3.0, 3.0, 3.0, 0.0],
                        [1.0, 0.5, 0.25, 0.125]])
        R = np.array([0.0, 0.7, 2.5, 6.0, 9.0, 20.0])
        rates, n = waterfill(lam, R[:, None], surcharge=surcharge)
        assert rates.shape == (6, 4, 4) and n.shape == (6, 4)
        for i, r in enumerate(R):
            want, n_want = waterfill(lam, r, surcharge=surcharge)
            assert np.array_equal(rates[i], want) and np.array_equal(n[i], n_want)
        assert len(set(n.ravel().tolist())) >= 3
        # one budget per row
        per_row, _ = waterfill(lam, R[1:5], surcharge=surcharge)
        for l in range(4):
            assert np.array_equal(per_row[l], waterfill(lam[l], R[l + 1],
                                                        surcharge=surcharge)[0])
        with pytest.raises(ValueError, match="budget"):
            waterfill(lam, np.array([[1.0], [-1.0]]))

    def test_stack_checks_each_row_on_its_own_scale(self):
        # row 1 is out of order by 1e-6: tiny next to row 0's top eigenvalue, but
        # far beyond its own tolerance
        with pytest.raises(ValueError, match="sorted"):
            waterfill(np.array([[1e9, 1.0], [0.5, 0.500001]]), 4.0)


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

    def test_rate_past_float_range_is_noiseless_like_an_infinite_one(self):
        # 2^1100 overflows a float; RuntimeWarnings are errors in this suite
        phi = quant_noise(np.array([3.0, 1.0]), np.array([1100.0, np.inf]), rho=1.0)
        assert np.array_equal(phi, [0.0, 0.0])

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
        H_check, omega = whiten(ch.H, np.zeros((cfg.L, cfg.K)), cfg.rho)
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        plan_perf = build_plan(sel.T, 8.0, cfg.rho)
        plan_csi = build_plan(sel.Q.conj().swapaxes(-1, -2) @ H_check, 8.0, cfg.rho, Q=sel.Q,
                              H_true=ch.H, omega=omega)
        for a, b in zip(plan_perf.Phi, plan_csi.Phi):
            finite = np.isfinite(a)
            assert np.array_equal(finite, np.isfinite(b))
            assert np.allclose(a[finite], b[finite], rtol=1e-10)

    def test_true_variances_reduce_to_design_values_under_perfect_csi(self, rng):
        H = random_channels(4, 1, 3, rng)[0]
        Q = signal_space_basis([H])[0]
        V, lam = decorrelate(Q.conj().T @ H)
        var = true_component_variances(V, Q, 1.0, H, rho=7.0)
        assert np.allclose(var, 7.0 * lam + 1.0, atol=1e-10)


def approx_quant_noise(lam, R, N, rho):
    """High-rate approximation rho * (prod lam)^(1/N) * 2^(-R/N), all N components active."""
    return rho * np.exp(np.mean(np.log(np.asarray(lam, dtype=float)[:N]))) * 2.0 ** (-R / N)


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
        plan = build_plan(sel.T, 9.0, cfg.rho)
        for rates, n in zip(plan.rates, plan.active):
            if n >= 1:
                assert abs(rates.sum() - 9.0) < 1e-9

    def test_infinite_rate_limit_recovers_reduced_mi(self, rng):
        cfg = SystemConfig(K=5, L=2, M=4, N=2, rng_seed=2)
        ch = generate_realization(cfg, np.random.default_rng(2))
        sel = mfgs_select(ch.H, cfg.rho, cfg.N)
        plan = build_plan(sel.T, 400.0, cfg.rho)
        cap = sum_capacity(plan.G, plan.Phi, cfg.rho)
        assert abs(cap - sel.mi) < 1e-6

    @pytest.mark.parametrize("csi", ["perfect", "pilot"])
    def test_stack_equals_one_receiver_plans(self, csi):
        cfg = SystemConfig(K=6, L=3, M=4, N=3, pilot_snr=5.0, rng_seed=4)
        ch = generate_realization(cfg, np.random.default_rng(4))
        H, kw = ch.H, {}
        if csi == "pilot":
            H, omega = whiten(*estimate_channels(ch, cfg.pilot_snr, np.random.default_rng(5)),
                              cfg.rho)
            kw = dict(H_true=ch.H, omega=omega)
        sel = mfgs_select(H, cfg.rho, cfg.N)
        if kw:
            kw["Q"] = sel.Q
        for R in (1.0, 3.0, 9.0):
            plan = build_plan(sel.T, R, cfg.rho, surcharge=0.4, **kw)
            assert plan.G.shape == (3, 3, 6) and plan.Phi.shape == (3, 3)
            for l in range(3):
                one = build_plan(sel.T[l:l + 1], R, cfg.rho, surcharge=0.4,
                                 **{k: v[l:l + 1] for k, v in kw.items()})
                assert np.array_equal(one.rates[0], plan.rates[l])
                assert np.array_equal(one.Phi[0], plan.Phi[l])
                assert np.array_equal(one.lam[0], plan.lam[l])
                assert np.allclose(one.G[0], plan.G[l], rtol=0, atol=1e-12)
                assert one.active[0] == plan.active[l]

    @pytest.mark.parametrize("surcharge", [0.0, LLOYD_MAX_RATE_PENALTY])
    @pytest.mark.parametrize("csi", ["perfect", "pilot"])
    def test_rate_and_design_stack_equals_per_rate_plans(self, csi, surcharge):
        # two designs (rho values) x four rates in one call, against 8 unstacked plans
        cfg = SystemConfig(K=6, L=3, M=4, N=3, pilot_snr=5.0, rng_seed=6)
        ch = generate_realization(cfg, np.random.default_rng(6))
        rho = np.array([3.0, 40.0])
        H, kw = np.stack([ch.H, ch.H]), {}
        if csi == "pilot":
            H, omega = whiten(*estimate_channels(ch, np.full(2, cfg.pilot_snr),
                                                 np.random.default_rng(7)), rho)
            kw = dict(H_true=ch.H, omega=omega)
        sel = mfgs_select(H, rho, cfg.N)
        if kw:
            kw["Q"] = sel.Q
        R = np.array([0.0, 1.0, 3.0, 9.0])
        plan = build_plan(sel.T, R, rho, surcharge=surcharge, **kw)
        assert plan.G.shape == (2, 3, 3, 6) and plan.lam.shape == (2, 3, 3)
        assert plan.Phi.shape == plan.rates.shape == (4, 2, 3, 3)
        assert plan.active.shape == (4, 2, 3)
        for d in range(2):
            for i, r in enumerate(R):
                one = build_plan(sel.T[d], r, rho[d], surcharge=surcharge,
                                 **{k: v if k == "H_true" else v[d] for k, v in kw.items()})
                for field in ("lam", "G"):
                    assert np.array_equal(getattr(one, field), getattr(plan, field)[d])
                for field in ("rates", "Phi", "active"):
                    assert np.array_equal(getattr(one, field), getattr(plan, field)[i, d])
