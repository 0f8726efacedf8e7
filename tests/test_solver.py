import dataclasses

import numpy as np
import pytest

from admira.linalg import (AtomSet, FactoredMatrix, LanczosConvergenceError, best_rank_r,
                           full_svd)
from admira.baseline import svt_solve
from admira.operators import GaussianOperator, SamplingOperator
from admira.solver import (
    SolverConfig,
    admira_solve,
    least_squares_on_span,
    rank_search,
)

from oracles import normal_equations_lsq


def gaussian_instance(rng_seed, m=12, n=10, r=2, oversample=6.0, noise=0.0):
    dr = r * (m + n - r)
    p = int(oversample * dr)
    op = GaussianOperator(m, n, p, seed=rng_seed)
    rng = np.random.default_rng(rng_seed + 1000)
    X0 = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    b = op.apply(X0)
    if noise:
        nu = rng.standard_normal(p)
        nu *= noise * np.linalg.norm(b) / np.linalg.norm(nu)
        b = b + nu
    return op, b, X0


def random_atoms(rng, m, n, k):
    U = rng.standard_normal((m, k))
    V = rng.standard_normal((n, k))
    return AtomSet(U / np.linalg.norm(U, axis=0), V / np.linalg.norm(V, axis=0))


class TestLeastSquares:
    def test_exact_atoms_reconstruct(self):
        # consistent system over the true atom span: zero residual
        rng = np.random.default_rng(0)
        op = SamplingOperator.random(10, 9, 60, seed=1)
        F = full_svd(rng.standard_normal((10, 3)) @ rng.standard_normal((3, 9)))
        atoms = AtomSet(F.left[:, :3], F.right[:, :3])
        X0 = F.densify()
        b = op.apply(X0)
        fit = least_squares_on_span(op, b, atoms)
        assert np.linalg.norm(b - op.apply(fit)) <= 1e-10 * np.linalg.norm(b)

    def test_empty_atom_set_gives_zero(self):
        op = SamplingOperator.identity(4, 4)
        fit = least_squares_on_span(op, np.ones(16), AtomSet.empty(4, 4))
        assert fit.k == 0

    def test_duplicate_atom_same_fit(self):
        rng = np.random.default_rng(2)
        op = GaussianOperator(8, 7, 50, seed=3)
        atoms = random_atoms(rng, 8, 7, 3)
        dup = atoms.merge(AtomSet(atoms.left[:, :1], atoms.right[:, :1]))
        b = rng.standard_normal(50)
        for method in ("qr", "cg"):
            fit_a = op.apply(least_squares_on_span(op, b, atoms, method=method))
            fit_b = op.apply(least_squares_on_span(op, b, dup, method=method))
            np.testing.assert_allclose(fit_a, fit_b, atol=1e-8)

    def test_methods_agree_with_normal_equations_oracle(self):
        # random 20x15 problem, 6 atoms, p=200: all methods match the
        # explicitly solved normal equations on the fitted measurements
        rng = np.random.default_rng(4)
        for trial in range(5):
            op = GaussianOperator(20, 15, 200, seed=trial)
            atoms = random_atoms(rng, 20, 15, 6)
            b = rng.standard_normal(200)
            C = np.column_stack([op.apply_rank_one(atoms.left[:, k], atoms.right[:, k])
                                 for k in range(6)])
            oracle_fit = C @ normal_equations_lsq(C, b)
            fits = {}
            for method in ("qr", "cg"):
                fit = least_squares_on_span(op, b, atoms, method=method)
                fits[method] = op.apply(fit)
                np.testing.assert_allclose(fits[method], oracle_fit, atol=1e-8)
            for a in fits.values():
                for c in fits.values():
                    np.testing.assert_allclose(a, c, atol=1e-8)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(5)
        op = SamplingOperator.random(12, 12, 100, seed=6)
        atoms = random_atoms(rng, 12, 12, 5)
        b = rng.standard_normal(100)
        fit = least_squares_on_span(op, b, atoms)
        res = b - op.apply(fit)
        for k in range(5):
            col = op.apply_rank_one(atoms.left[:, k], atoms.right[:, k])
            assert abs(col @ res) <= 1e-9 * np.linalg.norm(b) * np.linalg.norm(col)


class TestAdmiraSolve:
    def test_zero_measurements(self):
        op = SamplingOperator.identity(5, 5)
        report = admira_solve(op, np.zeros(25), SolverConfig(rank=2))
        assert report.iterations == 0
        assert report.stop_reason == "tol"
        assert report.solution.k == 0

    @pytest.mark.parametrize("r", [1, 2, 4, 6])
    def test_identity_operator_one_iteration_exactness(self, r):
        # with A the vectorization map the first iterate already equals
        # the best rank-r truncation of the data matrix
        rng = np.random.default_rng(10 + r)
        M = rng.standard_normal((9, 6))
        op = SamplingOperator.identity(9, 6)
        report = admira_solve(op, op.apply(M), SolverConfig(rank=r, max_iter=1))
        oracle = best_rank_r(full_svd(M), r)
        assert np.linalg.norm(report.solution.densify() - oracle.densify()) \
            <= 1e-8 * np.linalg.norm(M)

    def test_gaussian_noiseless_recovery(self):
        op, b, X0 = gaussian_instance(0)
        before = X0.copy()
        report = admira_solve(op, b, SolverConfig(rank=2), ground_truth=X0)
        assert report.stop_reason == "tol"
        err = np.linalg.norm(report.solution.densify() - X0)
        assert err <= 1e-3 * np.linalg.norm(X0)
        assert report.solution.k <= 2
        # a tol stop ends at the best iterate; the error trace subtracts
        # into the densified iterate, never into the caller's X0, and sums
        # the squares in numpy's pairwise order
        D = X0 - report.solution.densify()
        assert report.error_trace[-1] == np.sqrt(np.sum(D * D))
        np.testing.assert_array_equal(X0, before)

    def test_solution_rank_bounded(self):
        for seed in range(5):
            op, b, X0 = gaussian_instance(seed, r=3, noise=0.05)
            report = admira_solve(op, b, SolverConfig(rank=3))
            assert report.solution.k <= 3

    def test_returned_residual_is_trace_minimum(self):
        for seed in range(6):
            op, b, X0 = gaussian_instance(seed, r=2, noise=0.1)
            report = admira_solve(op, b, SolverConfig(rank=2))
            assert report.iterations == report.residual_trace.size
            assert report.solution_residual == pytest.approx(
                report.residual_trace.min(), rel=1e-12)
            got = np.linalg.norm(b - op.apply(report.solution)) / np.linalg.norm(b)
            assert got == pytest.approx(report.solution_residual, rel=1e-12)

    def test_traces_align_and_stop_reasons(self):
        op, b, X0 = gaussian_instance(3, noise=0.1)
        report = admira_solve(op, b, SolverConfig(rank=2), ground_truth=X0)
        assert report.error_trace is not None
        assert report.error_trace.size == report.residual_trace.size
        assert report.stop_reason in ("tol", "monotone_break", "max_iter")

    def test_max_iter_stop(self):
        op, b, _ = gaussian_instance(4, noise=0.1)
        report = admira_solve(op, b, SolverConfig(rank=2, max_iter=2, stall_tol=0.0))
        assert report.iterations <= 2

    def test_deterministic(self):
        op, b, _ = gaussian_instance(6)
        r1 = admira_solve(op, b, SolverConfig(rank=2, seed=7))
        r2 = admira_solve(op, b, SolverConfig(rank=2, seed=7))
        np.testing.assert_array_equal(r1.residual_trace, r2.residual_trace)
        np.testing.assert_array_equal(r1.solution.sigmas, r2.solution.sigmas)

    @pytest.mark.parametrize("ground_truth", [np.ones(5), np.ones((5, 4)), np.ones((1, 5)),
                                              np.full((4, 5), np.nan)])
    def test_rejects_mismatched_ground_truth(self, ground_truth):
        # a broadcastable shape would give an error trace of the wrong matrix
        op = GaussianOperator(4, 5, 30, seed=1)
        b = op.apply(np.ones((4, 5)))
        with pytest.raises(ValueError, match="ground truth"):
            admira_solve(op, b, SolverConfig(rank=1), ground_truth=ground_truth)
        with pytest.raises(ValueError, match="ground truth"):
            svt_solve(SamplingOperator.identity(4, 5), np.ones(20), ground_truth=ground_truth)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(rank=0)

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_rejects_max_iter_below_one(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(rank=1, max_iter=max_iter)


class TestInnerSolverFailures:
    """A stalled truncated SVD ends the solve at the best iterate, with
    the failure named in the stop reason."""

    def first_iterate(self, op, b):
        return admira_solve(op, b, SolverConfig(rank=2, max_iter=1))

    def test_svd_stall_keeps_first_iterate(self, monkeypatch):
        import admira.solver as solver_mod

        seeds = []

        def stalls_on_second_iteration(M, k, mode="auto", seed=0, floor=0.0):
            seeds.append(seed)
            if len(set(seeds)) == 2:
                raise LanczosConvergenceError(0, k, 3)
            return truncated_svd(M, k, mode=mode, seed=seed, floor=floor)

        op, b, _ = gaussian_instance(0)
        first = self.first_iterate(op, b)
        truncated_svd = solver_mod.truncated_svd
        monkeypatch.setattr(solver_mod, "truncated_svd", stalls_on_second_iteration)
        report = admira_solve(op, b, SolverConfig(rank=2))
        assert report.stop_reason == "svd_stall"
        assert report.iterations == 1
        assert report.solution_residual == report.residual_trace[0] < 1.0
        np.testing.assert_array_equal(report.solution.densify(), first.solution.densify())


class TestRankSearch:
    def test_tries_ranks_in_order(self, monkeypatch):
        import admira.solver as solver_mod

        op, b, _ = gaussian_instance(23, m=14, n=12, r=3, oversample=5.0)
        tried = []

        def recording_solve(op, b, config, ground_truth=None):
            tried.append(config.rank)
            return admira_solve(op, b, config, ground_truth)

        monkeypatch.setattr(solver_mod, "admira_solve", recording_solve)
        result = rank_search(op, b, r_max=5, eta=1e-4)
        assert result.feasible and result.rank == 3
        assert tried == [1, 2, 3]

    def test_finds_true_rank_incremental(self):
        op, b, X0 = gaussian_instance(20, m=14, n=12, r=3, oversample=5.0)
        result = rank_search(op, b, r_max=5, eta=1e-4)
        assert result.feasible and result.rank == 3
        # lower ranks genuinely fail the residual bound
        for r in (1, 2):
            rep = admira_solve(op, b, SolverConfig(rank=r))
            assert rep.solution_residual > 1e-4

    def test_eta_one_accepts_rank_one(self):
        op, b, _ = gaussian_instance(21, r=2)
        result = rank_search(op, b, r_max=4, eta=1.0)
        assert result.feasible and result.rank == 1

    def test_infeasible_reports_best_attempt(self):
        op, b, _ = gaussian_instance(22, r=3, noise=0.2)
        result = rank_search(op, b, r_max=2, eta=1e-9)
        assert not result.feasible
        assert result.rank == 2
        assert result.report.solution_residual > 1e-9
