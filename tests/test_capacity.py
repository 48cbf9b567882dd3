import hashlib

import numpy as np
import pytest

from sbfmc import capacity, sampling
from sbfmc.capacity import CovarianceMatrix, rho_values, solve_mc_covariances
from sbfmc.sampling import ChannelSet, SeededStream

from helpers import sample_channel_set, solve_mc_covariance

# objective of the frozen (N=4, M=8) instance below, from a one-off
# interior-point solve (CVXOPT), kept as the cross-solver reference
GOLDEN_STREAM = SeededStream(20250811, 0)
GOLDEN_OBJECTIVE = 0.9461726005089293


def gains(ch, w):
    hw = ch.channels.conj() @ w
    return np.einsum("ij,ij->i", hw, ch.channels).real


class TestCovarianceMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            CovarianceMatrix(np.eye(3))  # trace 3
        with pytest.raises(ValueError):
            CovarianceMatrix(np.diag([1.5, -0.5]).astype(complex))
        w = np.eye(2, dtype=complex) / 2
        w[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CovarianceMatrix(w)


class TestRhoValues:
    def test_identity_covariance(self):
        ch = sample_channel_set(4, 6, SeededStream(4, 0))
        rho, rho_min = rho_values(CovarianceMatrix(np.eye(4, dtype=complex) / 4), ch)
        expected = np.linalg.norm(ch.channels, axis=1) ** 2 / 4
        assert np.allclose(rho, expected, atol=1e-12)
        assert rho_min == rho.min()

    def test_rank_one(self):
        ch = sample_channel_set(3, 4, SeededStream(4, 1))
        w = np.zeros((3, 3), dtype=complex)
        w[0, 0] = 1.0
        rho, _ = rho_values(CovarianceMatrix(w), ch)
        assert np.allclose(rho, np.abs(ch.channels[:, 0]) ** 2, atol=1e-12)

    def test_nonnegative(self):
        rng = SeededStream(4, 2).generator()
        b = sampling.randn_complex(rng, 4, 2)
        w = b @ b.conj().T
        w /= np.trace(w).real
        ch = sample_channel_set(4, 20, SeededStream(4, 3))
        rho, _ = rho_values(CovarianceMatrix(w), ch)
        assert np.all(rho >= 0)

    def test_dimension_mismatch(self):
        ch = sample_channel_set(4, 2, SeededStream(4, 4))
        with pytest.raises(ValueError):
            rho_values(CovarianceMatrix(np.eye(3, dtype=complex) / 3), ch)


class TestSolver:
    def test_single_user_matched_beamforming(self):
        ch = sample_channel_set(4, 1, SeededStream(5, 0))
        sol = solve_mc_covariance(ch)
        h = ch.channels[0]
        assert abs(sol.objective - np.linalg.norm(h) ** 2) <= 1e-10
        expected = np.outer(h, h.conj()) / np.linalg.norm(h) ** 2
        assert np.linalg.norm(sol.covariance.entries - expected) <= 1e-8

    def test_two_orthogonal_users(self):
        h = np.zeros((2, 4), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        sol = solve_mc_covariance(ChannelSet(h), tol=1e-8)
        assert abs(sol.objective - 0.5) <= 1e-6
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        assert np.linalg.norm(sol.covariance.entries - expected) <= 1e-3

    def test_golden_instance(self):
        ch = sample_channel_set(4, 8, GOLDEN_STREAM)
        sol = solve_mc_covariance(ch, tol=1e-6)
        assert sol.converged
        assert abs(sol.objective - GOLDEN_OBJECTIVE) <= 1e-5

    def test_certificate_is_valid_bound(self):
        for j in range(3):
            ch = sample_channel_set(4, 8, SeededStream(5, 10 + j))
            sol = solve_mc_covariance(ch)
            assert sol.objective <= sol.upper_bound + 1e-12
            assert sol.gap <= 1e-6

    def test_feasibility_of_output(self):
        ch = sample_channel_set(4, 10, SeededStream(5, 20))
        sol = solve_mc_covariance(ch)
        w = sol.covariance.entries
        assert np.linalg.norm(w - w.conj().T) <= 1e-12
        assert np.linalg.eigvalsh(w)[0] >= -1e-10
        assert abs(np.trace(w).real - 1.0) <= 1e-10
        assert abs(gains(ch, w).min() - sol.objective) <= 1e-9

    def test_max_iter_caps_newton_steps(self):
        # a capped solve is reported as uncertified, never as a silent ok
        ch = sample_channel_set(4, 16, SeededStream(5, 30))
        sol = solve_mc_covariance(ch, tol=1e-6, max_iter=2)
        assert not sol.converged
        assert sol.iterations == 2
        CovarianceMatrix(sol.covariance.entries)  # passes validation
        assert sol.gap == sol.upper_bound - sol.objective
        assert sol.gap > 1e-6


def rates_sweep_draw(m, j, seed=20240801, n=4):
    """Channel set of realization j of the M-user population, drawn as the
    `rates` command draws it."""
    rng = SeededStream(seed, 0).substream(m * 1_000_000 + j)
    return ChannelSet(sampling.randn_complex(rng, m, n))


class TestRankFinish:
    """Interior iterates are positive definite; the solver must return the
    rank of W*, not the iterate's near-zero eigenvalues."""

    def test_three_orthogonal_users(self):
        # optimum 1/3 on span(e1, e2, e3); the fourth direction is null
        h = np.eye(4, dtype=complex)[:3]
        sol = solve_mc_covariance(ChannelSet(h))
        assert sol.converged
        assert abs(sol.objective - 1.0 / 3.0) <= 1e-6
        assert sampling.psd_sqrt(sol.covariance.entries)[1] == 3
        lam = np.linalg.eigvalsh(sol.covariance.entries)
        assert lam[0] <= 1e-12 * lam[-1]

    def test_two_users_rank_one(self):
        # with M = 2 the max-min covariance has rank 1
        for j in range(20):
            ch = sample_channel_set(4, 2, SeededStream(7, j))
            sol = solve_mc_covariance(ch)
            assert sol.converged
            assert sampling.psd_sqrt(sol.covariance.entries)[1] == 1, j

    def test_rates_sweep_m32_draws_certified(self):
        for j in range(14):
            sol = solve_mc_covariance(rates_sweep_draw(32, j))
            assert sol.converged, j
            assert sol.gap <= 1e-6

    def test_degenerate_draw_certified(self):
        # here one eigen-direction has both lambda(W) and v^H Z v small at
        # gap tol/10, so the solver must follow the path further to finish
        sol = solve_mc_covariance(rates_sweep_draw(24, 81))
        assert sol.converged
        assert sol.gap <= 1e-6


def assert_same_solution(got, ref):
    assert got.covariance.entries.tobytes() == ref.covariance.entries.tobytes()
    assert (got.objective, got.upper_bound, got.gap, got.iterations, got.converged) == (
        ref.objective, ref.upper_bound, ref.gap, ref.iterations, ref.converged)


# SHA-256 over every field of the solutions of rates_sweep_draw(16, 0..5)
# and rates_sweep_draw(32, 0..3), solved as two batches, by max_iter
CAPPED_DIGESTS = {
    1: "0a0768bf39f4cad29c3b9ec6bb5230014bc53388ad18294073ac9ee042832dba",
    2: "8788347f5785602437083e2a4d860395c4b58c8981bb1830d5d36494b305423c",
    3: "6b8e1cdbee6150675a0e00b0ca4632d559b0c1e45af4cec9e4ab18818bc5979a",
    5: "86cf5fed8a1368359a7d0817b785b1ca4ffa46bea301631477e9ad90d778cc3a",
    8: "05b1f0c271177448069fe30ddfb0bb00e672cb257ac2015dee95c0f2e39b196e",
}


class TestBatchedSolve:
    """A batch steps its members on one path; each member must end exactly
    as its own one-member solve does, whenever the others stop."""

    def check_batch(self, channel_sets, **kw):
        sols = solve_mc_covariances(channel_sets, **kw)
        assert len(sols) == len(channel_sets)
        for ch, sol in zip(channel_sets, sols):
            assert_same_solution(sol, solve_mc_covariance(ch, **kw))
        return sols

    @pytest.mark.parametrize("m", [2, 8, 16, 32])
    def test_rates_sweep_population(self, m):
        sols = self.check_batch([rates_sweep_draw(m, j) for j in range(14)])
        assert all(sol.converged for sol in sols)
        # members take different step counts, so some leave the batch early
        assert len({sol.iterations for sol in sols}) > 1

    def test_degenerate_draw_in_batch(self):
        sols = self.check_batch([rates_sweep_draw(24, j) for j in range(78, 85)])
        assert sols[3].converged  # rates_sweep_draw(24, 81)

    def test_max_iter_caps_every_member(self):
        sols = self.check_batch([rates_sweep_draw(16, j) for j in range(6)], max_iter=2)
        assert [sol.iterations for sol in sols] == [2] * 6
        assert not any(sol.converged for sol in sols)

    def test_single_user_batch(self):
        sols = self.check_batch([rates_sweep_draw(1, j) for j in range(4)])
        assert [sol.iterations for sol in sols] == [0] * 4

    @pytest.mark.parametrize("m", [8, 32])
    def test_scaled_members_do_not_disturb_the_others(self, m):
        # draws scaled by 2^10 break down numerically after long paths (the
        # absolute solver_tol does not scale with them); each breakdown, and
        # each member finishing, must leave every other member untouched
        base = [rates_sweep_draw(m, j) for j in range(4)]
        scaled = [ChannelSet(ch.channels * 2.0**10) for ch in base]
        sols = self.check_batch([c for pair in zip(base, scaled) for c in pair])
        assert all(sol.converged for sol in sols[::2])
        assert not all(sol.converged for sol in sols[1::2])

    @pytest.mark.parametrize("max_iter", sorted(CAPPED_DIGESTS))
    def test_capped_batches_pinned(self, max_iter):
        # members that end without a certificate, which no CLI digest covers
        sols = (solve_mc_covariances([rates_sweep_draw(16, j) for j in range(6)], max_iter=max_iter)
                + solve_mc_covariances([rates_sweep_draw(32, j) for j in range(4)],
                                       max_iter=max_iter))
        assert not any(sol.converged for sol in sols)
        digest = hashlib.sha256()
        for sol in sols:
            digest.update(sol.covariance.entries.tobytes())
            digest.update(repr((sol.objective, sol.upper_bound, sol.gap, sol.iterations,
                                sol.converged)).encode())
        assert digest.hexdigest() == CAPPED_DIGESTS[max_iter]

    def test_shapes_must_agree(self):
        with pytest.raises(ValueError):
            solve_mc_covariances([rates_sweep_draw(8, 0), rates_sweep_draw(16, 0)])


def test_objective_concave_along_segments():
    # min_i h_i^H W h_i is concave: midpoint value >= chord midpoint
    rng = SeededStream(6, 0).generator()
    ch = sample_channel_set(4, 10, SeededStream(6, 1))
    for _ in range(20):
        a = sampling.randn_complex(rng, 4, 4)
        b = sampling.randn_complex(rng, 4, 4)
        w1 = a @ a.conj().T / np.trace(a @ a.conj().T).real
        w2 = b @ b.conj().T / np.trace(b @ b.conj().T).real
        f1 = gains(ch, w1).min()
        f2 = gains(ch, w2).min()
        fm = gains(ch, 0.5 * (w1 + w2)).min()
        assert fm >= 0.5 * (f1 + f2) - 1e-12
