import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cransim.dimred import (full_joint_mi, mfgs_select, rank1_update, signal_space_basis,
                            truncate_selection)
from cransim.harness import trial_stream
from cransim.linalg import adjoint, gram
from cransim.scenario import SystemConfig, generate_realization
from cransim.validation import (greedy_reference, joint_mi, mi_reference, orthonormalize,
                                random_channels, stage_gain_diagnostics)


class TestJointMi:
    def test_scalar_reduction(self, rng):
        h = (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
        q = h / np.linalg.norm(h)
        rho = 7.0
        mi = joint_mi([q], [h], rho)
        assert mi == pytest.approx(np.log2(1 + rho * np.linalg.norm(h) ** 2), rel=1e-12)

    @pytest.mark.parametrize("K,L,M", [(4, 2, 3), (3, 2, 5), (6, 3, 6)])
    def test_lossless_dimension_recovers_full_mi(self, rng, K, L, M):
        H = random_channels(K, L, M, rng)
        Q = signal_space_basis(H)
        assert joint_mi(Q, H, 12.0) == pytest.approx(full_joint_mi(H, 12.0), abs=1e-8)

    def test_invariant_under_invertible_mixing(self, rng):
        H = random_channels(5, 2, 4, rng)
        for _ in range(5):
            F = [Hl[:, :3] @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                 for Hl in H]
            Q = [orthonormalize(Fl) for Fl in F]
            assert joint_mi(F, H, 9.0) == pytest.approx(joint_mi(Q, H, 9.0), abs=1e-8)

    def test_matches_slogdet_reference(self, rng):
        H = random_channels(4, 3, 4, rng)
        Q = [orthonormalize(Hl[:, :2]) for Hl in H]
        assert joint_mi(Q, H, 15.0) == pytest.approx(mi_reference(Q, H, 15.0), abs=1e-9)

    def test_dependent_filter_columns_are_rejected(self, rng):
        H = random_channels(4, 1, 4, rng)
        f = H[0][:, :1]
        F = np.hstack([f, 2.0 * f])      # second column adds nothing
        assert joint_mi([F], H, 5.0) == pytest.approx(joint_mi([f], H, 5.0), abs=1e-10)


class TestOrthonormalize:
    def test_drops_dependent_and_zero_columns(self, rng):
        a = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        F = np.hstack([a, np.zeros((4, 1)), -3.0 * a])
        Q = orthonormalize(F)
        assert Q.shape == (4, 1)
        assert np.allclose(Q.conj().T @ Q, np.eye(1), atol=1e-12)

    def test_orthonormal_output(self, rng):
        F = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        Q = orthonormalize(F)
        assert np.max(np.abs(Q.conj().T @ Q - np.eye(4))) < 1e-12


class TestRank1Update:
    def test_two_by_two_hand_case(self):
        # A = I, H = [[1,0],[1,1]], q = e1, rho = 2: Sherman-Morrison gives diag(1/3, 1)
        H = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)
        q = np.array([1.0, 0.0], dtype=complex)
        A1 = rank1_update(np.eye(2, dtype=complex), H, q, rho=2.0)
        assert np.allclose(A1, np.diag([1.0 / 3.0, 1.0]), atol=1e-14)

    def test_orthogonal_filter_is_null_update(self):
        H = np.array([[1.0], [0.0]], dtype=complex)    # column space = e1
        q = np.array([0.0, 1.0], dtype=complex)        # H'q = 0
        A = np.array([[0.7 + 0j]])
        assert np.array_equal(rank1_update(A, H, q, rho=3.0), A)

    def test_updates_in_place(self, rng):
        H = random_channels(4, 2, 3, rng)
        A = np.stack([np.eye(4, dtype=complex)] * 2)
        q = H[:, :, 0] / np.linalg.norm(H[:, :, 0], axis=-1, keepdims=True)
        expected = [rank1_update(np.eye(4, dtype=complex), H[b], q[b], 5.0) for b in range(2)]
        assert rank1_update(A, H, q, np.array([5.0, 5.0])) is A
        assert np.allclose(A, expected, rtol=0, atol=1e-14)
        assert not np.allclose(A[0], np.eye(4))
        before = A.copy()       # a skipped receiver's q = 0 leaves A as it is
        rank1_update(A, H, np.zeros_like(q), 5.0)
        assert np.array_equal(A, before)

    def test_accumulated_updates_match_direct_inverse(self, rng):
        K, L, M, N, rho = 8, 4, 8, 4, 10 ** 1.5
        H = random_channels(K, L, M, rng)
        sel = mfgs_select(H, rho, N)
        B = np.eye(K, dtype=complex)
        for Ql, Hl in zip(sel.Q, H):
            T = Ql.conj().T @ Hl
            B += rho * (T.conj().T @ T)
        direct = np.linalg.inv(B)
        rel = np.linalg.norm(sel.A_final - direct) / np.linalg.norm(direct)
        assert rel < 1e-8

    def test_final_inverse_at_the_largest_stage_size(self):
        # 128 unhermitized in-place updates, then one hermitize: exactly Hermitian
        cfg = SystemConfig(K=64, L=32, M=16, N=4, rng_seed=3)
        H, rho = generate_realization(cfg, trial_stream(3, 0)).H, 10 ** 1.5
        sel = mfgs_select(H, rho, cfg.N)
        assert np.array_equal(sel.A_final, sel.A_final.conj().T)
        direct = np.linalg.inv(gram(adjoint(sel.Q) @ H, rho))
        assert np.linalg.norm(sel.A_final - direct) < 1e-10 * np.linalg.norm(direct)


class TestGreedySelection:
    def test_forced_selection_tiny_case(self, rng):
        H = random_channels(2, 1, 2, rng)
        sel = mfgs_select(H, 5.0, 2)
        assert sorted(sel.S[0]) == [0, 1]
        assert sel.mi == pytest.approx(full_joint_mi(H, 5.0), abs=1e-8)

    @pytest.mark.parametrize("K,L,M,N,seed", [
        (3, 2, 2, 1, 0), (4, 2, 3, 2, 1), (5, 3, 3, 2, 2), (6, 2, 4, 3, 3),
    ])
    def test_matches_scratch_reference(self, K, L, M, N, seed):
        rng = np.random.default_rng(seed)
        H = random_channels(K, L, M, rng)
        sel = mfgs_select(H, 12.0, N)
        assert sel.S == greedy_reference(H, 12.0, N)

    @staticmethod
    def _two_by_two_trials():
        """20 trials of (K,L,M) = (2,2,2); at rho = 1e16 trial 6's greedy MI rounds to NaN."""
        cfg = SystemConfig(K=2, L=2, M=2, N=2, rng_seed=0)
        return np.stack([generate_realization(cfg, trial_stream(0, t, 0)).H for t in range(20)])

    @pytest.mark.parametrize("rho", [1e16, np.where(np.arange(20) == 6, 1e13, 10.0), 0.0])
    def test_rho_outside_the_accepted_range_is_rejected(self, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1e12\]"):
            mfgs_select(self._two_by_two_trials(), rho, 2)

    def test_rho_at_the_limit_gives_a_finite_trajectory(self):
        sel = mfgs_select(self._two_by_two_trials(), 1e12, 2)
        assert np.all(np.isfinite(sel.mi_trajectory))

    def test_trajectory_and_basis_invariants(self, rng):
        K, L, M, N, rho = 8, 4, 8, 4, 10 ** 1.5
        H = random_channels(K, L, M, rng)
        sel = mfgs_select(H, rho, N)
        traj = sel.mi_trajectory
        assert traj.shape == (N * L,)
        assert np.all(np.diff(traj) > 0)
        assert traj[-1] <= full_joint_mi(H, rho) + 1e-9
        for l, Ql in enumerate(sel.Q):
            assert np.max(np.abs(Ql.conj().T @ Ql - np.eye(N))) < 1e-10
            assert len(set(sel.S[l])) == N
            # span(Q) covers the selected channel columns
            for k in sel.S[l]:
                h = H[l][:, k]
                resid = h - Ql @ (Ql.conj().T @ h)
                assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(h)

    def test_trajectory_matches_recomputed_mi(self, rng):
        # the incrementally recorded MI equals a from-scratch evaluation per prefix
        K, L, M, N, rho = 6, 3, 5, 3, 20.0
        H = random_channels(K, L, M, rng)
        sel = mfgs_select(H, rho, N)
        for n in range(1, N + 1):
            prefix = [Ql[:, :n] for Ql in sel.Q]
            assert sel.mi_trajectory[n * L - 1] == pytest.approx(
                mi_reference(prefix, H, rho), abs=1e-8)

    def test_prefix_property(self, rng):
        K, L, M, rho = 7, 3, 6, 25.0
        H = random_channels(K, L, M, rng)
        big = mfgs_select(H, rho, 5)
        small = mfgs_select(H, rho, 2)
        assert [s[:2] for s in big.S] == small.S
        for Qb, Qs in zip(big.Q, small.Q):
            assert np.allclose(Qb[:, :2], Qs, atol=1e-12)

    def test_truncation_equals_shorter_run(self, rng):
        K, L, M, rho = 6, 2, 5, 18.0
        H = random_channels(K, L, M, rng)
        big = mfgs_select(H, rho, 4)
        cut = truncate_selection(big, H, rho, 2)
        small = mfgs_select(H, rho, 2)
        assert cut.S == small.S
        assert np.allclose(cut.mi_trajectory, small.mi_trajectory, atol=1e-10)
        assert np.allclose(cut.A_final, small.A_final, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31 - 1))
    def test_selection_invariant_under_channel_and_snr_rescaling(self, c, seed):
        # (c H, rho / c^2) leaves every joint MI unchanged and scales every
        # candidate's ratio score by the same c^2, so the picks and the MI
        # trajectory cannot change
        rng = np.random.default_rng(seed)
        H = random_channels(6, 3, 4, rng)
        base = mfgs_select(H, 12.0, 3)
        scaled = mfgs_select(c * H, 12.0 / c ** 2, 3)
        assert scaled.S == base.S
        assert np.allclose(scaled.mi_trajectory, base.mi_trajectory, rtol=1e-9, atol=0)

    def test_duplicate_columns_tie_break_and_exclusion(self, rng):
        # users 0 and 2 share the same (strongest) channel: index 0 wins the tie
        # and the duplicate is never picked afterwards
        h_dup = np.array([3.0 + 0j, 2.0 + 1.0j])
        h_other = np.array([0.5 + 0j, -0.3 + 0.2j])
        H = [np.column_stack([h_dup, h_other, h_dup])]
        sel = mfgs_select(H, 5.0, 2)
        assert sel.S[0][0] == 0
        assert 2 not in sel.S[0]
        assert sel.S[0] == [0, 1]

    def test_rank_deficient_receiver_is_skipped_with_warning(self, caplog):
        # rank-1 channel matrix: the second round has no independent candidate
        col = np.array([1.0 + 0.5j, -2.0 + 0j])
        H = [np.column_stack([col, 2.0 * col])]
        with caplog.at_level(logging.WARNING, logger="cransim.dimred"):
            sel = mfgs_select(H, 4.0, 2)
        assert len(sel.S[0]) == 1
        assert sel.mi_trajectory.shape == (2,)
        assert sel.mi_trajectory[0] == pytest.approx(sel.mi_trajectory[1])
        assert any("no independent candidates" in r.message for r in caplog.records)

    def test_batch_elements_equal_their_own_runs(self, rng, caplog):
        # a batch of 4 at different SNRs; receiver 1 of element 2 has a rank-1
        # channel (skipped in rounds 1 and 2) and receiver 0 of element 1 a
        # rank-2 channel (skipped in round 2)
        K, L, M, N = 5, 3, 4, 3
        H = np.stack([random_channels(K, L, M, rng) for _ in range(4)])
        H[2, 1] = np.outer(H[2, 1, :, 0], rng.standard_normal(K))
        H[1, 0] = H[1, 0, :, :2] @ rng.standard_normal((2, K))
        rho = np.array([2.0, 15.0, 60.0, 300.0])
        with caplog.at_level(logging.WARNING, logger="cransim.dimred"):
            batched = mfgs_select(H, rho, N)
        skips = [r.getMessage() for r in caplog.records if "no independent" in r.message]
        assert sorted(skips) == sorted([
            "receiver 0 has no independent candidates in round 2 of batch element (1,); "
            "skipped",
            "receiver 1 has no independent candidates in round 1 of batch element (2,); "
            "skipped",
            "receiver 1 has no independent candidates in round 2 of batch element (2,); "
            "skipped"])

        assert batched.Q.shape == (4, L, M, N) and batched.mi_trajectory.shape == (4, N * L)
        for b in range(4):
            single = mfgs_select(H[b], rho[b], N)
            assert batched.S[b] == single.S == greedy_reference(H[b], rho[b], N)
            assert np.allclose(batched.Q[b], single.Q, rtol=0, atol=1e-12)
            assert np.allclose(batched.mi_trajectory[b], single.mi_trajectory,
                               rtol=1e-12, atol=0)
            assert np.allclose(batched.A_final[b], single.A_final, rtol=0, atol=1e-12)
        assert [len(s) for s in batched.S[2]] == [N, 1, N]
        assert [len(s) for s in batched.S[1]] == [2, N, N]
        zero = np.zeros((4, L, N), dtype=bool)      # the skipped (element, receiver, round)s
        zero[1, 0, 2] = zero[2, 1, 1:] = True
        assert np.array_equal(np.linalg.norm(batched.Q, axis=-2) == 0, zero)

    def test_scalar_channels_broadcast_against_an_snr_array(self, rng):
        H = random_channels(6, 2, 4, rng)
        rho = np.array([[1.0, 10.0], [100.0, 1000.0]])
        batched = mfgs_select(H, rho, 2)
        assert batched.mi_trajectory.shape == (2, 2, 4)
        for idx in np.ndindex(rho.shape):
            single = mfgs_select(H, rho[idx], 2)
            assert batched.S[idx[0]][idx[1]] == single.S
            assert np.allclose(batched.mi_trajectory[idx], single.mi_trajectory,
                               rtol=1e-12, atol=0)

    def test_invalid_n_raises(self, rng):
        H = random_channels(3, 1, 2, rng)
        with pytest.raises(ValueError):
            mfgs_select(H, 5.0, 3)


class TestStageGainDiagnostics:
    def _state_with_spectrum(self, upsilon, rho, rng):
        K = len(upsilon)
        Z = rng.standard_normal((K, K)) + 1j * rng.standard_normal((K, K))
        U, _ = np.linalg.qr(Z)
        T = U @ np.diag(upsilon) @ U.conj().T
        A = U @ np.diag(1.0 / (1.0 + rho * np.asarray(upsilon))) @ U.conj().T
        return U, T, A

    def test_gain_identity_on_random_states(self, rng):
        rho = 12.0
        for _ in range(20):
            ups = np.sort(rng.uniform(0.0, 8.0, size=4))[::-1]
            U, T, A = self._state_with_spectrum(ups, rho, rng)
            H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q /= np.linalg.norm(q)
            diag, gain = stage_gain_diagnostics(A, H, q, rho)   # self-checks internally
            assert gain >= 0
            assert np.all(np.diff(diag.upsilon) <= 1e-9)
            assert np.sum(np.abs(diag.U.conj().T @ diag.c) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("target", ["smallest", "largest"])
    def test_aligned_candidate_shifts_target_eigenvalue(self, rng, target):
        # candidate parallel to eigenvector u: that eigenvalue moves up by exactly gamma
        rho = 6.0
        ups = np.array([5.0, 2.0, 0.4])
        U, T, A = self._state_with_spectrum(ups, rho, rng)
        gamma = 1.1
        idx = 2 if target == "smallest" else 0
        H = np.sqrt(gamma) * np.eye(3, dtype=complex)   # M = K = 3, c = q
        q = U[:, idx]
        diag, gain = stage_gain_diagnostics(A, H, q, rho)
        T_new = T + gamma * np.outer(q, q.conj())
        new_ups = np.sort(np.linalg.eigvalsh(T_new))[::-1]
        expected = ups.copy()
        expected[idx] += gamma
        assert np.allclose(new_ups, np.sort(expected)[::-1], atol=1e-8)
        # gain from first principles: only the aligned eigenvalue moves
        assert gain == pytest.approx(
            np.log2((1 + rho * (ups[idx] + gamma)) / (1 + rho * ups[idx])), abs=1e-8)

    def test_any_update_never_decreases_eigenvalues(self, rng):
        rho = 10.0
        H = random_channels(5, 2, 4, rng)
        sel = mfgs_select(H, rho, 3)
        # replay the accumulation and compare spectra before/after each step
        K = 5
        T = np.zeros((K, K), dtype=complex)
        for n in range(3):
            for l in range(2):
                q = sel.Q[l][:, n]
                u = H[l].conj().T @ q
                T_new = T + np.outer(u, u.conj())
                before = np.sort(np.linalg.eigvalsh(0.5 * (T + T.conj().T)))
                after = np.sort(np.linalg.eigvalsh(0.5 * (T_new + T_new.conj().T)))
                assert np.all(after >= before - 1e-10)
                T = T_new

    def test_degenerate_candidate_flagged(self):
        H = np.array([[1.0], [0.0]], dtype=complex)
        q = np.array([0.0, 1.0], dtype=complex)    # H'q = 0
        diag, gain = stage_gain_diagnostics(np.eye(1, dtype=complex), H, q, 2.0)
        assert gain == 0.0
        assert diag.c is None
        assert diag.gamma <= 1e-12
