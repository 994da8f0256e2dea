import numpy as np
import pytest

from cransim.linalg import NumericalError, adjoint, gram, logdet2_hpd
from cransim.validation import random_channels


def test_logdet_of_a_matrix_that_is_not_positive_definite_raises():
    with pytest.raises(NumericalError, match="not positive definite"):
        logdet2_hpd(np.diag([1.0, -1.0]))


def hpd_stack(rng, count=4, n=5):
    X = rng.standard_normal((count, 2 * n, n)) + 1j * rng.standard_normal((count, 2 * n, n))
    return np.eye(n) + adjoint(X) @ X


class TestLogdetLayout:
    def test_reads_only_the_lower_triangle_and_the_real_diagonal(self, rng):
        A = hpd_stack(rng)
        garbage = 1e3 * (rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape))
        dirty = A + np.triu(garbage, k=1) + 1j * np.eye(A.shape[-1]) * garbage.real
        assert np.array_equal(logdet2_hpd(dirty), logdet2_hpd(A))

    def test_swapped_axis_stack_equals_each_matrix_alone(self, rng):
        A = hpd_stack(rng)
        view = np.ascontiguousarray(A.swapaxes(0, 1)).swapaxes(0, 1)   # same values, not contiguous
        assert np.array_equal(logdet2_hpd(view), [logdet2_hpd(a) for a in A])


class TestGram:
    def test_unit_weights_equal_zero_noise(self, rng):
        X = random_channels(6, 3, 4, rng)
        assert np.array_equal(gram(X, 7.0), gram(X, 7.0, np.zeros(X.shape[:-1])))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_per_receiver_sum(self, rng, weighted):
        X = random_channels(6, 3, 4, rng)
        phi = rng.uniform(0.0, 5.0, X.shape[:-1])
        phi[1, 2] = np.inf    # a dropped row weighs exactly 0
        weights = 1.0 / (phi + 1.0) if weighted else np.ones(X.shape[:-1])
        direct = np.eye(6, dtype=complex) + 7.0 * sum(
            Xl.conj().T @ np.diag(w) @ Xl for Xl, w in zip(X, weights))
        B = gram(X, 7.0, phi if weighted else None)
        assert np.max(np.abs(B - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rho_broadcasts_beyond_the_leading_axes(self, rng, weighted):
        # X (1, L, n, K) against rho (3, 1): a (3, 1, K, K) result, each row its own rho
        X = random_channels(6, 3, 4, rng)[None]
        phi = rng.uniform(0.0, 5.0, X.shape[:-1]) if weighted else None
        rho = np.array([[2.0], [7.0], [40.0]])
        B = gram(X, rho, phi)
        assert B.shape == (3, 1, 6, 6)
        for i, r in enumerate(rho[:, 0]):
            assert np.array_equal(B[i], gram(X, r, phi))

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("K,L,rows", [(6, 3, 4), (64, 8, 32)])
    def test_stack_equals_each_element_alone(self, rng, weighted, K, L, rows):
        # X (T, L, n, K) against phi (R, T, L, n), a rate axis X lacks: each Gram of the
        # stack is exactly the Gram of its trial's matrices alone; the larger stack holds
        # more than 2^15 elements, so its unweighted Gram runs one trial at a time
        X = np.stack([random_channels(K, L, rows, rng) for _ in range(3)])
        phi = rng.uniform(0.0, 5.0, (2,) + X.shape[:-1]) if weighted else None
        B = gram(X, 7.0, phi)
        assert B.shape == ((2, 3) if weighted else (3,)) + (K, K)
        for idx in np.ndindex(B.shape[:-2]):
            alone = gram(X[idx[-1]], 7.0, None if phi is None else phi[idx])
            assert np.array_equal(B[idx], alone)
