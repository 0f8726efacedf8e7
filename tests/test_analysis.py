import math

import numpy as np
import pytest

from admira.analysis import (
    check_isometry_inequalities,
    iteration_bound,
    nuclear_norm,
    profile,
    snr_meas,
    snr_recon,
    unrecoverable_energy,
)
from admira.linalg import FactoredMatrix, full_svd
from admira.operators import GaussianOperator, SamplingOperator


class TestUnrecoverableEnergy:
    def test_exact_rank_gives_zero(self):
        rng = np.random.default_rng(0)
        X0 = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 7))
        budget = unrecoverable_energy(X0, 3)
        assert budget.epsilon == 0.0
        assert budget.frob_tail == 0.0 and budget.nuc_tail == 0.0

    def test_zero_iff_rank_within_budget(self):
        rng = np.random.default_rng(1)
        X0 = rng.standard_normal((8, 4)) @ rng.standard_normal((4, 7))
        assert unrecoverable_energy(X0, 4).epsilon == 0.0
        assert unrecoverable_energy(X0, 3).epsilon > 0.0

    def test_hand_computed_diagonal_case(self):
        # diag(3,2,1), r=2, noise 0.5: tail sigma is (1,), so
        # epsilon = 1 + 1/sqrt(2) + 0.5
        budget = unrecoverable_energy(np.diag([3.0, 2.0, 1.0]), 2, 0.5)
        assert budget.frob_tail == pytest.approx(1.0, rel=1e-12)
        assert budget.nuc_tail == pytest.approx(1.0, rel=1e-12)
        assert budget.epsilon == pytest.approx(1.0 + 1.0 / math.sqrt(2.0) + 0.5,
                                               rel=1e-12)
        assert budget.epsilon == pytest.approx(2.2071067811865475, rel=1e-12)

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(2)
        X0 = rng.standard_normal((6, 6))
        for c in (0.5, 2.0, 10.0):
            a = unrecoverable_energy(X0, 2, 0.3)
            b = unrecoverable_energy(c * X0, 2, c * 0.3)
            assert b.epsilon == pytest.approx(c * a.epsilon, rel=1e-12)

    def test_invariant_epsilon_decomposition(self):
        rng = np.random.default_rng(3)
        X0 = rng.standard_normal((9, 5))
        budget = unrecoverable_energy(X0, 2, 0.7)
        assert budget.epsilon == pytest.approx(
            budget.frob_tail + budget.nuc_tail / math.sqrt(2) + budget.noise)


class TestProfile:
    def test_equal_singular_values_single_band(self):
        prof = profile(np.eye(5))
        assert prof.t == 1
        assert prof.bands == {2: 5}  # each normalized sigma^2 is 1/5

    def test_rank_one_band_zero(self):
        prof = profile(np.outer([1.0, 2.0], [3.0, 1.0]))
        assert prof.t == 1 and prof.bands == {0: 1}

    def test_hand_case_two_bands(self):
        # sigma = (1, 1/4): normalized squares 16/17 and 1/17 land in
        # bands 0 and 4
        prof = profile(np.diag([1.0, 0.25]))
        assert prof.bands == {0: 1, 4: 1}
        assert prof.t == 2

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            profile(np.zeros((3, 3)))

    def test_counts_sum_to_rank_and_t_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            X = rng.standard_normal((7, 6))
            prof = profile(X)
            assert sum(prof.bands.values()) == prof.rank
            assert prof.t <= prof.rank

    def test_invariance_under_scaling_and_rotation(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 5))
        base = profile(X)
        Q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        W = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        for Y in (3.7 * X, Q @ X, X @ W, 0.2 * (Q @ X @ W)):
            other = profile(Y)
            assert other.bands == base.bands

    def test_accepts_factored_input(self):
        F = full_svd(np.diag([2.0, 2.0, 2.0]))
        assert profile(F).t == 1


class TestIterationBound:
    def test_hand_values(self):
        assert iteration_bound(2, 2) == pytest.approx(
            2.0 * math.log(5.3, 4.0 / 3.0) + 6.0, rel=1e-12)
        assert iteration_bound(2, 2) == pytest.approx(17.5941, abs=1e-3)
        assert iteration_bound(1, 1) == pytest.approx(11.7970, abs=1e-3)

    def test_full_profile_below_linear_cap(self):
        for r in range(1, 101):
            assert iteration_bound(r, r) <= 6.0 * (r + 1)

    def test_maximized_at_t_equal_r(self):
        for r in range(1, 51):
            peak = iteration_bound(r, r)
            for t in range(1, r + 1):
                assert iteration_bound(r, t) <= peak + 1e-12

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            iteration_bound(2, 0)
        with pytest.raises(ValueError):
            iteration_bound(2, 3)


class TestSnr:
    def test_exact_recovery_capped(self):
        X0 = np.diag([1.0, 2.0])
        assert snr_recon(X0, X0) == 300.0

    def test_zero_estimate_gives_zero_db(self):
        X0 = np.diag([1.0, 2.0])
        assert snr_recon(X0, np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_log_identity_at_ten_percent_error(self):
        rng = np.random.default_rng(6)
        X0 = rng.standard_normal((5, 5))
        E = rng.standard_normal((5, 5))
        E *= 0.1 * np.linalg.norm(X0) / np.linalg.norm(E)
        assert snr_recon(X0, X0 - E) == pytest.approx(20.0, rel=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        X0 = rng.standard_normal((4, 4))
        Xh = rng.standard_normal((4, 4))
        assert snr_recon(3.0 * X0, 3.0 * Xh) == pytest.approx(
            snr_recon(X0, Xh), rel=1e-12)

    @pytest.mark.parametrize("shape", [(1, 5), (4, 1), (5, 4)])
    def test_mismatched_shapes_rejected(self, shape):
        # (1, 5) and (4, 1) would broadcast against the 4x5 truth
        with pytest.raises(ValueError, match="differ"):
            snr_recon(np.ones((4, 5)), 0.9 * np.ones(shape))
        with pytest.raises(ValueError, match="differ"):
            snr_recon(np.ones((4, 5)), FactoredMatrix.zero(*shape))

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            snr_recon(np.zeros((2, 2)), np.eye(2))

    def test_snr_meas(self):
        b = np.array([3.0, 4.0])
        assert snr_meas(b, np.array([0.5, 0.0])) == pytest.approx(20.0, rel=1e-12)
        assert snr_meas(b, np.zeros(2)) == 300.0
        with pytest.raises(ValueError):
            snr_meas(np.zeros(2), b)

    def test_accepts_factored_estimate(self):
        X0 = np.diag([3.0, 2.0])
        assert snr_recon(X0, full_svd(X0)) == 300.0


class TestNuclearNorm:
    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(6.0)

    def test_rank_one(self):
        u = np.ones(4) / 2.0
        v = np.ones(9) / 3.0
        assert nuclear_norm(5.0 * np.outer(u, v)) == pytest.approx(5.0)

    def test_eigendecomposition_oracle(self):
        # trace of sqrt(X^T X) via an eigendecomposition, independently
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = rng.standard_normal((6, 5))
            w = np.linalg.eigvalsh(X.T @ X)
            oracle = np.sum(np.sqrt(np.clip(w, 0.0, None)))
            assert nuclear_norm(X) == pytest.approx(oracle, abs=1e-9)


class TestIsometryChecks:
    def test_identity_operator_projection_contraction(self):
        # with the vectorization map, delta is 0 and the projection bound
        # reduces to ||P_Psi M||_F <= ||M||_F, with equality when the
        # back-projected matrix already lies in the span
        op = SamplingOperator.identity(6, 6)
        records = check_isometry_inequalities(op, 2, trials=40, seed=0,
                                                 delta_trials=40)
        assert all(rec["consistent"] for rec in records)
        proj = [rec for rec in records if rec["check"] == "projection_bound"]
        assert proj and all(rec["lhs"] <= rec["rhs"] * (1 + 1e-12) for rec in proj)

    def test_identity_equality_when_in_span(self):
        op = SamplingOperator.identity(5, 4)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(5)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        b = op.apply(np.outer(u, v))  # measurement of a matrix in span({u v^T})
        back = op.adjoint(b)
        coord = u @ (back @ v)
        assert abs(coord) == pytest.approx(np.linalg.norm(b), rel=1e-12)

    def test_energy_bound_tail_vanishes_at_low_rank(self):
        # for X of rank <= r the mixed-norm bound dominates the plain
        # isometry upper bound, so consistency is immediate
        op = GaussianOperator(8, 8, 400, seed=1)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        lhs = np.linalg.norm(op.apply(X))
        rhs_plain = math.sqrt(1.5) * np.linalg.norm(X)
        rhs_mixed = math.sqrt(1.5) * (np.linalg.norm(X) + nuclear_norm(X) / math.sqrt(2))
        assert rhs_mixed >= rhs_plain
        assert lhs <= rhs_mixed

    def test_monte_carlo_consistency_run(self):
        # 200 trials on a comfortable Gaussian operator: no inconsistent
        # flags expected
        op = GaussianOperator(10, 10, 500, seed=2)
        records = check_isometry_inequalities(op, 2, trials=200, seed=3,
                                                 delta_trials=100)
        assert sum(not rec["consistent"] for rec in records) == 0
        assert any(rec["check"] == "delta_nondecreasing_in_r" for rec in records)
