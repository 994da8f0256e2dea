import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.scenario import (SystemConfig, generate_channels, generate_geometry,
                              generate_realization, large_scale_fading, power_control)


def _cfg(**kw):
    base = dict(K=4, L=2, M=3, N=2, rng_seed=1)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_defaults_are_valid(self):
        cfg = SystemConfig()
        assert cfg.max_components == 8

    @pytest.mark.parametrize("kw", [
        dict(K=0), dict(L=0), dict(M=0), dict(N=0), dict(N=4),
        dict(rho=0.0), dict(rho=-1.0), dict(fronthaul_rate=-0.5),
        dict(pilot_snr=0.0), dict(pilot_snr="genie"), dict(shadow_sigma_db=-1.0),
        dict(rng_seed=-3),
        dict(rho=float("nan")), dict(rho=float("inf")), dict(fronthaul_rate=float("nan")),
        dict(pilot_snr=float("nan")), dict(pilot_snr=float("inf")),
        dict(area_side_m=float("inf")), dict(user_height_m=float("nan")),
        dict(area_side_m=0.0), dict(user_height_m=-1.0), dict(rx_height_m=-1.0),
        dict(pathloss_exponent=float("nan")), dict(shadow_sigma_db=float("inf")),
        dict(K=True, N=1), dict(L=True), dict(M=True, N=1), dict(N=True), dict(rng_seed=False),
        dict(N=2.0), dict(rng_seed=1.5),
        dict(rho="x"), dict(pilot_snr=None), dict(fronthaul_rate="8"),
        dict(shadow_sigma_db=[1]), dict(rho=True), dict(fronthaul_rate=False),
    ])
    def test_invalid_fields_raise(self, kw):
        with pytest.raises(ValueError):
            _cfg(**kw)

    def test_infinite_fronthaul_rate_is_the_unquantized_limit(self):
        assert _cfg(fronthaul_rate=float("inf")).fronthaul_rate == float("inf")

    def test_numpy_integers_are_integers(self):
        assert _cfg(K=np.int64(4), N=np.int64(2), rng_seed=np.int64(7)).K == 4

    def test_n_bounded_by_min_of_m_and_k(self):
        _cfg(K=2, M=5, N=2)
        with pytest.raises(ValueError):
            _cfg(K=2, M=5, N=3)


class TestGeometryAndFading:
    def test_colocated_link_deterministic_gain(self):
        # user under the receiver: 3-D distance is the 5 m height difference
        cfg = _cfg(shadow_sigma_db=0.0)
        user = np.array([[10.0, 20.0, 1.0]])
        rx = np.array([[10.0, 20.0, 6.0]])
        beta = large_scale_fading(user, rx, cfg, np.random.default_rng(0))
        assert beta.shape == (1, 1)
        assert beta[0, 0] == pytest.approx(5.0 ** -2.9, rel=1e-12)

    def test_zero_shadowing_is_distance_deterministic(self):
        cfg = _cfg(shadow_sigma_db=0.0)
        user = np.array([[0.0, 0.0, 1.0], [30.0, 40.0, 1.0]])
        rx = np.array([[0.0, 0.0, 6.0]])
        b1 = large_scale_fading(user, rx, cfg, np.random.default_rng(1))
        b2 = large_scale_fading(user, rx, cfg, np.random.default_rng(999))
        assert np.array_equal(b1, b2)
        d = np.sqrt(30.0 ** 2 + 40.0 ** 2 + 5.0 ** 2)
        assert b1[0, 1] == pytest.approx(d ** -2.9, rel=1e-12)

    def test_fixed_seed_reproduces_geometry_and_beta(self):
        cfg = _cfg()
        g1, b1 = generate_geometry(cfg, np.random.default_rng(42))
        g2, b2 = generate_geometry(cfg, np.random.default_rng(42))
        assert np.array_equal(b1, b2)
        assert np.array_equal(g1.user_xyz, g2.user_xyz)
        assert np.array_equal(g1.rx_xyz, g2.rx_xyz)

    def test_positions_inside_area_and_heights(self):
        cfg = _cfg(K=50, L=10)
        geo, beta = generate_geometry(cfg, np.random.default_rng(3))
        assert np.all((geo.user_xyz[:, :2] >= 0) & (geo.user_xyz[:, :2] <= cfg.area_side_m))
        assert np.all(geo.user_xyz[:, 2] == cfg.user_height_m)
        assert np.all(geo.rx_xyz[:, 2] == cfg.rx_height_m)
        assert beta.shape == (10, 50)
        assert np.all(beta > 0)


class TestPowerControl:
    def test_identity_case(self):
        assert np.allclose(power_control(np.ones((3, 5))), 1.0)

    def test_hand_case_two_receivers(self):
        p = power_control(np.array([[3.0], [1.0]]))
        assert p[0] == pytest.approx(0.5, abs=0)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            power_control(np.array([[1.0, 0.0], [2.0, 3.0]]))
        with pytest.raises(ValueError):
            power_control(np.array([[-1.0], [2.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
    def test_normalization_property(self, L, K, seed):
        beta = np.random.default_rng(seed).uniform(1e-6, 1e3, size=(L, K))
        p = power_control(beta)
        assert np.allclose(p * beta.sum(axis=0) / L, 1.0, rtol=1e-12)


class TestChannels:
    def test_per_antenna_variance_matches_moment(self):
        # 100 draws x 100 antennas of a single link = 1e4 samples of |h|^2
        cfg = _cfg(K=1, L=1, M=100, N=1)
        beta = np.array([[0.37]])
        p = np.array([2.2])
        rng = np.random.default_rng(11)
        samples = []
        for _ in range(100):
            ch = generate_channels(cfg, beta, p, rng)
            samples.append(np.abs(ch.H[0][:, 0]) ** 2)
        samples = np.concatenate(samples)
        target = p[0] * beta[0, 0]
        stderr = target / np.sqrt(samples.size)   # |h|^2 is exponential: std = mean
        assert abs(samples.mean() - target) < 3 * stderr

    def test_zero_variance_gives_exact_zero(self):
        cfg = _cfg(K=2, L=1, M=3, N=1)
        ch = generate_channels(cfg, np.array([[1.0, 1.0]]), np.array([0.0, 1.0]),
                               np.random.default_rng(0))
        assert np.all(ch.H[0][:, 0] == 0)
        assert np.any(ch.H[0][:, 1] != 0)

    def test_fixed_seed_bit_identical(self):
        cfg = _cfg()
        r1 = generate_realization(cfg, np.random.default_rng(5))
        r2 = generate_realization(cfg, np.random.default_rng(5))
        assert all(np.array_equal(a, b) for a, b in zip(r1.H, r2.H))
        assert np.array_equal(r1.p, r2.p)

    def test_received_power_normalization_monte_carlo(self):
        # (1/(M L)) sum_l E||h_lk||^2 = 1 per user, within 1% over 1e4 draws
        cfg = _cfg(K=2, L=2, M=4, N=2)
        rng = np.random.default_rng(17)
        geo, beta = generate_geometry(cfg, rng)
        p = power_control(beta)
        acc = np.zeros(cfg.K)
        n_draws = 10_000
        for _ in range(n_draws):
            ch = generate_channels(cfg, beta, p, rng)
            acc += sum(np.sum(np.abs(Hl) ** 2, axis=0) for Hl in ch.H)
        mean_power = acc / (n_draws * cfg.M * cfg.L)
        assert np.all(np.abs(mean_power - 1.0) < 0.01)

    def test_generated_matrices_are_full_rank(self):
        cfg = _cfg(K=8, L=4, M=8, N=4)
        rng = np.random.default_rng(23)
        for _ in range(100):
            ch = generate_realization(cfg, rng)
            for Hl in ch.H:
                sv = np.linalg.svd(Hl, compute_uv=False)
                assert sv[-1] > 1e-10 * sv[0]
