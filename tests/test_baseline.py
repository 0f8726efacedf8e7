import numpy as np
import pytest

from admira import linalg
from admira.analysis import snr_recon
from admira.baseline import SvtConfig, default_config, soft_threshold_factored, svt_solve
from admira.bench import ProblemSpec, generate_problem
from admira.linalg import LanczosConvergenceError, full_svd
from admira.operators import GaussianOperator, SamplingOperator
from admira.solver import SolverConfig, admira_solve


class TestConfig:
    def test_defaults_scale_with_problem(self):
        cfg = default_config(100, 100, 2000)
        assert cfg.tau == pytest.approx(5.0 * 100.0)
        assert cfg.step == pytest.approx(1.2 * 10000 / 2000)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SvtConfig(tau=0.0, step=1.0)
        with pytest.raises(ValueError):
            SvtConfig(tau=1.0, step=-1.0)

    def test_rejects_max_iter_below_one(self):
        for max_iter in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                SvtConfig(tau=1.0, step=1.0, max_iter=max_iter)
        assert SvtConfig(tau=1.0, step=1.0, max_iter=1).max_iter == 1


class TestSoftThreshold:
    def test_exact_shrinkage(self):
        # retained values equal original minus tau; nothing at or below
        # tau survives
        rng = np.random.default_rng(0)
        M = rng.standard_normal((12, 10))
        F = full_svd(M)
        tau = float(np.median(F.sigmas))
        out = soft_threshold_factored(F, tau)
        kept = F.sigmas[F.sigmas > tau]
        np.testing.assert_allclose(out.sigmas, kept - tau, rtol=1e-15)
        assert np.all(out.sigmas > 0)
        assert np.all(np.diff(out.sigmas) <= 0)

    def test_threshold_above_spectrum_empties(self):
        F = full_svd(np.diag([3.0, 2.0]))
        assert soft_threshold_factored(F, 10.0).k == 0


class TestSvtSolve:
    def test_rejects_non_sampling_operator(self):
        op = GaussianOperator(5, 5, 20, seed=0)
        with pytest.raises(TypeError):
            svt_solve(op, np.zeros(20))

    def test_zero_measurements(self):
        op = SamplingOperator.random(6, 6, 12, seed=0)
        report = svt_solve(op, np.zeros(12))
        assert report.iterations == 0
        assert report.stop_reason == "tol"
        assert report.solution.k == 0

    def test_completes_well_sampled_instance(self):
        spec = ProblemSpec(60, 60, 2, "sampling", 2400, None, seed=4)
        op, b, X0, _ = generate_problem(spec)
        report = svt_solve(op, b)
        assert report.stop_reason == "tol"
        assert snr_recon(X0, report.solution) >= 70.0

    def test_head_to_head_admira_uses_fewer_iterations(self):
        # n=100, r=2, p = 20 * degrees of freedom: both succeed, the
        # greedy solver in fewer iterations
        dr = 2 * (100 + 100 - 2)
        spec = ProblemSpec(100, 100, 2, "sampling", 20 * dr, None, seed=7)
        op, b, X0, _ = generate_problem(spec)
        svt_report = svt_solve(op, b)
        admira_report = admira_solve(op, b, SolverConfig(rank=2))
        assert snr_recon(X0, svt_report.solution) >= 70.0
        assert snr_recon(X0, admira_report.solution) >= 70.0
        assert admira_report.iterations < svt_report.iterations

    def test_divergence_returns_best_iterate(self):
        spec = ProblemSpec(30, 30, 2, "sampling", 450, None, seed=1)
        op, b, X0, _ = generate_problem(spec)
        crazy = SvtConfig(tau=1.0, step=5e3)
        report = svt_solve(op, b, crazy)
        assert report.stop_reason == "divergence"
        assert report.iterations >= 1
        assert report.solution_residual == report.residual_trace.min()

    def test_iterate_spectra_nonincreasing(self):
        # every intermediate iterate is a valid factored matrix with
        # sorted spectrum; checked through the error-trace path
        spec = ProblemSpec(40, 40, 2, "sampling", 1000, None, seed=2)
        op, b, X0, _ = generate_problem(spec)
        report = svt_solve(op, b, ground_truth=X0)
        assert np.all(np.diff(report.solution.sigmas) <= 0)
        assert report.error_trace is not None
        assert report.error_trace.size == report.iterations

    def test_residual_eventually_decreasing(self):
        # with the default stable step the residual trace trends down on
        # a recoverable instance
        spec = ProblemSpec(50, 50, 2, "sampling", 1500, None, seed=3)
        op, b, X0, _ = generate_problem(spec)
        report = svt_solve(op, b)
        trace = report.residual_trace
        tail = trace[len(trace) // 2:]
        assert tail[-1] <= tail[0]
        assert report.solution_residual == pytest.approx(trace.min(), rel=1e-12)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_gram_path_matches_the_old_route(self, monkeypatch, seed):
        # SVT's 100x100 SVDs solve the Gram matrix; with that path off they
        # take Lanczos or LAPACK's SVD by k, and the solve is the same to 1e-8
        spec = ProblemSpec(100, 100, 2, "sampling", 5000, None, seed=seed)
        op, b, X0, _ = generate_problem(spec)
        gram = svt_solve(op, b)
        monkeypatch.setattr(linalg, "GRAM_MAX_DIM", 0)
        old = svt_solve(op, b)
        assert (gram.iterations, gram.stop_reason) == (old.iterations, old.stop_reason)
        assert old.stop_reason == "tol"
        X, Y = gram.solution.densify(), old.solution.densify()
        assert np.linalg.norm(X - Y) <= 1e-8 * np.linalg.norm(Y)

    @pytest.mark.parametrize("n, p, route", [(100, 5000, "_gram_svd"),
                                             (300, 27000, "_lanczos_svd")])
    def test_one_svd_per_iteration(self, monkeypatch, n, p, route):
        # truncated_svd returns every triplet above tau itself, so no
        # iteration repeats its SVD, whichever route the size takes
        import admira.baseline as baseline_mod

        calls = {"truncated_svd": [], route: []}

        def spy(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                calls[name].append((args, result))
                return result
            monkeypatch.setattr(module, name, call)

        spy(baseline_mod, "truncated_svd")
        spy(linalg, route)
        spec = ProblemSpec(n, n, 2, "sampling", p, None, seed=2)
        op, b, X0, _ = generate_problem(spec)
        report = svt_solve(op, b)
        assert report.stop_reason == "tol"
        assert len(calls["truncated_svd"]) == len(calls[route]) == report.iterations
        # some call returned more triplets than the k it started from
        assert any(F.k > args[1] for args, F in calls["truncated_svd"])

    @pytest.mark.parametrize("stall_at", [2, 3])
    def test_svd_stall_keeps_best_iterate(self, monkeypatch, stall_at):
        # SVT's first iterate is zero (the dual starts at zero); a stall
        # at iteration k returns what a solve capped at k - 1 returns
        import admira.baseline as baseline_mod

        truncated_svd = baseline_mod.truncated_svd
        seeds = []

        def stalls(M, k, mode="auto", seed=0, floor=0.0):
            seeds.append(seed)
            if len(set(seeds)) == stall_at:
                raise LanczosConvergenceError(0, k, 3)
            return truncated_svd(M, k, mode=mode, seed=seed, floor=floor)

        spec = ProblemSpec(40, 40, 2, "sampling", 1000, None, seed=2)
        op, b, X0, _ = generate_problem(spec)
        capped = svt_solve(op, b, default_config(40, 40, 1000, max_iter=stall_at - 1))
        monkeypatch.setattr(baseline_mod, "truncated_svd", stalls)
        report = svt_solve(op, b)
        assert report.stop_reason == "svd_stall"
        assert report.iterations == stall_at - 1
        np.testing.assert_array_equal(report.residual_trace, capped.residual_trace)
        assert report.solution_residual == capped.solution_residual
        np.testing.assert_array_equal(report.solution.densify(), capped.solution.densify())
