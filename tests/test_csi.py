import numpy as np
import pytest

from cransim.csi import estimate_channels, whiten
from cransim.linalg import NumericalError
from cransim.scenario import (ChannelRealization, SystemConfig, generate_channels,
                              generate_realization)


def _channels(seed=0, K=4, L=2, M=3):
    cfg = SystemConfig(K=K, L=L, M=M, N=min(2, min(M, K)), rng_seed=seed)
    return generate_realization(cfg, np.random.default_rng(seed))


def _zero_error(ch):
    """The estimates of genie CSI: the true channels with no estimation error."""
    L, _, K = ch.H.shape
    return ch.H, np.zeros((L, K))


class TestEstimation:
    def test_perfect_sentinel_degenerates(self):
        ch = _channels()
        H_hat, err_var = _zero_error(ch)
        assert np.array_equal(H_hat, ch.H)
        assert np.all(err_var == 0)
        H_check, omega = whiten(H_hat, err_var, rho=10.0)
        assert np.array_equal(H_check, ch.H)
        assert np.all(omega == 1.0)

    def test_hand_case_unit_prior_unit_pilot(self):
        # s2 = 1, pilot SNR 1 -> error variance 1/2
        ch = ChannelRealization(H=np.ones((1, 1, 1), dtype=complex),
                                beta=np.array([[1.0]]), p=np.array([1.0]))
        _, err_var = estimate_channels(ch, 1.0, np.random.default_rng(0))
        assert err_var[0, 0] == pytest.approx(0.5, rel=1e-15)

    def test_rejects_nonpositive_pilot_snr(self):
        ch = _channels()
        with pytest.raises(ValueError):
            estimate_channels(ch, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            estimate_channels(ch, "genie", np.random.default_rng(0))

    def test_error_variance_monte_carlo(self):
        # empirical E||h - h_hat||^2 / M matches the closed form within 3 SE
        cfg = SystemConfig(K=1, L=1, M=100, N=1, rng_seed=0)
        beta = np.array([[0.8]])
        p = np.array([1.5])
        rng = np.random.default_rng(7)
        pilot_snr = 2.0
        errs = []
        for _ in range(100):
            ch = generate_channels(cfg, beta, p, rng)
            H_hat, _ = estimate_channels(ch, pilot_snr, rng)
            errs.append(np.abs(ch.H[0][:, 0] - H_hat[0][:, 0]) ** 2)
        errs = np.concatenate(errs)
        s2 = p[0] * beta[0, 0]
        target = s2 / (1.0 + pilot_snr * s2)
        stderr = target / np.sqrt(errs.size)
        assert abs(errs.mean() - target) < 3 * stderr

    def test_estimate_error_orthogonality(self):
        # MMSE orthogonality: E[h_hat * conj(h - h_hat)] = 0, checked statistically
        cfg = SystemConfig(K=1, L=1, M=200, N=1, rng_seed=0)
        beta = np.array([[1.3]])
        p = np.array([1.0])
        rng = np.random.default_rng(3)
        cross = []
        for _ in range(50):
            ch = generate_channels(cfg, beta, p, rng)
            H_hat, _ = estimate_channels(ch, 1.7, rng)
            err = ch.H[0][:, 0] - H_hat[0][:, 0]
            cross.append(H_hat[0][:, 0] * err.conj())
        cross = np.concatenate(cross)
        stderr = np.std(cross.real) / np.sqrt(cross.size)
        assert abs(cross.mean().real) < 4 * stderr
        assert abs(cross.mean().imag) < 4 * stderr

    def test_error_variance_decreases_with_pilot_snr(self):
        ch = _channels(seed=5)
        prev = None
        for snr in [0.1, 1.0, 10.0, 100.0]:
            _, ev = estimate_channels(ch, snr, np.random.default_rng(0))
            if prev is not None:
                assert np.all(ev < prev)
            prev = ev


class TestWhitening:
    def test_zero_error_is_identity_whitening(self):
        ch = _channels(seed=2)
        H_hat, err_var = _zero_error(ch)
        H_check, omega = whiten(H_hat, err_var, rho=25.0)
        assert np.array_equal(H_check, H_hat)
        assert np.all(omega == 1.0)

    def test_scalar_case(self):
        # M = K = 1: Omega = 1 + rho*err_var and h_check = h_hat / sqrt(Omega)
        ch = ChannelRealization(H=np.array([[[2.0 + 1.0j]]]),
                                beta=np.array([[1.0]]), p=np.array([1.0]))
        H_hat, err_var = estimate_channels(ch, 4.0, np.random.default_rng(0))
        rho = 3.0
        H_check, omega = whiten(H_hat, err_var, rho)
        ev = err_var[0, 0]
        assert omega[0] == pytest.approx(1.0 + rho * ev, rel=1e-15)
        expected = H_hat[0, 0, 0] / np.sqrt(1.0 + rho * ev)
        assert H_check[0, 0, 0] == pytest.approx(expected, rel=1e-15)

    def test_whitening_is_inverse_square_root(self):
        ch = _channels(seed=9)
        H_hat, err_var = estimate_channels(ch, 2.5, np.random.default_rng(1))
        H_check, omega = whiten(H_hat, err_var, rho=12.0)
        assert omega.shape == (2,)
        assert np.allclose(omega, 1.0 + 12.0 * err_var.sum(axis=1), rtol=1e-15)
        # each receiver's estimate is scaled by omega_l^(-1/2)
        assert np.max(np.abs(H_check * np.sqrt(omega)[:, None, None] - H_hat)) < (
            1e-12 * np.max(np.abs(H_hat)))

    def test_non_positive_definite_raises(self):
        ch = _channels(seed=4)
        H_hat, err_var = estimate_channels(ch, 1.0, np.random.default_rng(0))
        err_var[:] = -1.0   # forged: forces a non-positive Omega diagonal
        with pytest.raises(NumericalError):
            whiten(H_hat, err_var, rho=10.0)
