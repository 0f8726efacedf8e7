import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from admira.analysis import snr_meas
from admira import bench
from admira.bench import (
    TRIAL_CSV_HEADER,
    ProblemSpec,
    degrees_of_freedom,
    generate_problem,
    run_phase,
    run_table1,
    run_table2,
    run_trial,
    solve_once,
    table1_measurement_count,
)
from admira import baseline, fileio
from admira.baseline import SvtConfig
from admira.linalg import FactoredMatrix, full_svd
from admira.operators import GaussianOperator, SamplingOperator
from admira.solver import SolverConfig


class TestProblemSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(4, 4, 5, "sampling", 10)
        with pytest.raises(ValueError):
            ProblemSpec(4, 4, 2, "sampling", 17)  # p > m*n
        with pytest.raises(ValueError):
            ProblemSpec(4, 4, 2, "fourier", 10)

    def test_hash_stable_and_sensitive(self):
        a = ProblemSpec(10, 10, 2, "sampling", 50, None, seed=1)
        b = ProblemSpec(10, 10, 2, "sampling", 50, None, seed=1)
        c = ProblemSpec(10, 10, 2, "sampling", 50, None, seed=2)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()

    def test_table1_budget_matches_published_formula(self):
        # n=500, r=2: p/d_r rounds to 47
        p = table1_measurement_count(500, 2)
        assert round(p / degrees_of_freedom(500, 500, 2)) == 47


class TestGenerateProblem:
    def test_ground_truth_rank(self):
        spec = ProblemSpec(30, 25, 2, "sampling", 300, None, seed=0)
        _, _, X0, _ = generate_problem(spec)
        s = full_svd(X0).sigmas
        assert s[2] <= 1e-10 * s[0]

    def test_noise_snr_exact(self):
        spec = ProblemSpec(20, 20, 2, "gaussian", 300, 20.0, seed=1)
        op, b, X0, nu = generate_problem(spec)
        b_clean = b - nu
        assert abs(snr_meas(b_clean, nu) - 20.0) <= 1e-9

    def test_noiseless_has_zero_noise(self):
        spec = ProblemSpec(20, 20, 2, "gaussian", 300, None, seed=1)
        op, b, X0, nu = generate_problem(spec)
        assert np.all(nu == 0.0)
        np.testing.assert_array_equal(b, op.apply(X0))

    def test_same_seed_bit_identical(self):
        spec = ProblemSpec(15, 18, 2, "sampling", 100, 25.0, seed=9)
        _, b1, X1, nu1 = generate_problem(spec)
        _, b2, X2, nu2 = generate_problem(spec)
        np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(X1, X2)
        np.testing.assert_array_equal(nu1, nu2)

    def test_noisy_b_does_not_depend_on_blas_threads(self):
        # p = 50,000: OpenBLAS's dot product, behind np.linalg.norm, sums a
        # vector this long in an order that depends on the thread count;
        # at 1 and 2 threads it moved the noise scale of seeds 1 and 2
        code = ("import hashlib\n"
                "from admira.analysis import snr_meas\n"
                "from admira.bench import ProblemSpec, generate_problem\n"
                "for seed in range(4):\n"
                "    spec = ProblemSpec(250, 250, 2, 'sampling', 50000, 20.0, seed)\n"
                "    _, b, _, nu = generate_problem(spec)\n"
                "    print(hashlib.sha256(b.tobytes()).hexdigest(), repr(snr_meas(b, nu)))\n")
        outputs = []
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
            outputs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                          capture_output=True, text=True, timeout=300).stdout)
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    def test_operator_kinds(self):
        g = generate_problem(ProblemSpec(8, 8, 1, "gaussian", 60, None, 0))[0]
        s = generate_problem(ProblemSpec(8, 8, 1, "sampling", 60, None, 0))[0]
        assert isinstance(g, GaussianOperator)
        assert isinstance(s, SamplingOperator)


class TestRunTrial:
    def test_svt_rejects_noisy_spec(self):
        spec = ProblemSpec(10, 10, 1, "sampling", 60, 20.0, seed=0)
        with pytest.raises(ValueError):
            run_trial(spec, algo="svt")

    def test_unknown_algo(self):
        spec = ProblemSpec(10, 10, 1, "sampling", 60, None, seed=0)
        with pytest.raises(ValueError):
            run_trial(spec, algo="amp")

    def test_record_fields(self):
        spec = ProblemSpec(20, 20, 1, "sampling", 200, None, seed=0)
        record, report = run_trial(spec, trial_index=3)
        assert record.spec_hash == spec.hash()
        assert record.trial == 3
        assert record.iterations == report.iterations
        assert record.stop_reason in ("tol", "monotone_break", "max_iter")


class TestSweeps:
    def test_table1_tiny(self, tmp_path):
        out = tmp_path / "t1.csv"
        header, rows = run_table1([24], trials=2, out_csv=str(out), seed=0)
        assert header[0] == "n" and "spec_hash" in header
        assert len(rows) == 1 and rows[0][0] == 24
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "n"
        assert len(lines) == 2

    def test_table2_tiny(self, tmp_path):
        out = tmp_path / "t2.csv"
        header, rows = run_table2(r_list=[1], density_list=[0.5], n=20,
                                  trials=2, out_csv=str(out), seed=0)
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert row["r"] == 1 and row["trials"] == 2
        assert "admira_snr_db" in header and "svt_iters" in header

    def test_phase_counts_within_range(self, tmp_path):
        header, rows = run_phase([150, 300], [1], n=20, trials=3, seed=0,
                                 out_csv=str(tmp_path / "ph.csv"))
        for row in rows:
            cell = dict(zip(header, row))
            assert 0 <= cell["admira_successes"] <= 3
            assert 0 <= cell["svt_successes"] <= 3

    def test_phase_success_counts_roughly_monotone_in_p(self):
        # more measurements should not lose more than the randomness
        # slack of 2 successes
        header, rows = run_phase([250, 500, 900], [1], n=40, trials=4, seed=2)
        counts = [dict(zip(header, row))["admira_successes"] for row in rows]
        for lo, hi in zip(counts, counts[1:]):
            assert hi >= lo - 2

    def test_csv_append_safe(self, tmp_path):
        out = tmp_path / "t1.csv"
        run_table1([20], trials=1, out_csv=str(out), seed=0)
        run_table1([20], trials=1, out_csv=str(out), seed=1)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # one header, two data rows
        assert lines[0].startswith("n,")

    def test_worker_count_does_not_change_results(self, tmp_path):
        h1, rows1 = run_table1([20], trials=3, seed=0, workers=1)
        h2, rows2 = run_table1([20], trials=3, seed=0, workers=2)
        assert rows1 == rows2

    def test_determinism_across_runs(self):
        _, a = run_phase([200], [1], n=20, trials=2, seed=5)
        _, b = run_phase([200], [1], n=20, trials=2, seed=5)
        assert a == b


class TestSweepRowsPinned:
    """Exact rows and CSV bytes of three tiny sweeps at seed 0; any change
    to trial seeding, job order, per-cell averaging or CSV formatting
    shows here."""

    @staticmethod
    def sweep_twice(tmp_path, sweep, *args, **kwargs):
        """Rows of ``sweep``, and the bytes of a CSV it appended to twice."""
        out = tmp_path / "sweep.csv"
        _, rows = sweep(*args, out_csv=str(out), **kwargs)
        assert sweep(*args, out_csv=str(out), **kwargs)[1] == rows
        return rows, out.read_bytes()

    def test_table1(self, tmp_path):
        rows, csv = self.sweep_twice(tmp_path, run_table1, [24], trials=2, seed=0)
        assert rows == [[24, 1.0, 6.26, 300.0, 1.0, 28.62, 2.0, 2, "a4b6e740e514"]]
        assert csv == (b"n,p_over_n2,p_over_dr,snr_noiseless_db,iters_noiseless,"
                       b"snr_noisy_db,iters_noisy,trials,spec_hash\n"
                       + b"24,1.0,6.26,300.0,1.0,28.62,2.0,2,a4b6e740e514\n" * 2)

    def test_table2(self, tmp_path):
        rows, csv = self.sweep_twice(tmp_path, run_table2, r_list=[1], density_list=[0.5],
                                     n=20, trials=2, seed=0)
        assert rows == [[1, 0.5, 5.13, 74.78, 73.94, 55.0, 183.5, 2, "c475277a3ab6"]]
        assert csv == (b"r,p_over_n2,p_over_dr,admira_snr_db,svt_snr_db,admira_iters,"
                       b"svt_iters,trials,spec_hash\n"
                       + b"1,0.5,5.13,74.78,73.94,55.0,183.5,2,c475277a3ab6\n" * 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_phase(self, tmp_path, workers):
        # both algorithms' trials of both cells share one pool
        rows, csv = self.sweep_twice(tmp_path, run_phase, [150, 300], [1], n=20, trials=3,
                                     seed=0, workers=workers)
        assert rows == [[150, 1, 0.375, 3.85, 0, 0, 3, "56b7e46c2f92"],
                        [300, 1, 0.75, 7.69, 3, 2, 3, "29cc7315435c"]]
        assert csv == (b"p,r,p_over_n2,p_over_dr,admira_successes,svt_successes,"
                       b"trials,spec_hash\n"
                       + (b"150,1,0.375,3.85,0,0,3,56b7e46c2f92\n"
                          b"300,1,0.75,7.69,3,2,3,29cc7315435c\n") * 2)


class TestSweepRobustness:
    def test_svt_divergence_is_a_row(self, monkeypatch):
        # an oversized dual step makes SVT diverge; the trial records it
        monkeypatch.setattr(baseline, "default_config",
                            lambda m, n, p: SvtConfig(tau=1.0, step=5e3))
        record, report = run_trial(ProblemSpec(30, 30, 2, "sampling", 450, None, seed=1),
                                   "svt")
        assert record.stop_reason == report.stop_reason == "divergence"
        assert record.iterations == report.iterations >= 1

    @pytest.mark.parametrize("workers, trials, expected", [(64, 1, 2), (2, 3, 2)])
    def test_pool_capped_at_job_count(self, monkeypatch, workers, trials, expected):
        # one pool per sweep, never larger than its trial count, of spawned
        # processes that pin BLAS; the fake executor runs jobs in this process
        pools = []

        class FakeExecutor:
            def __init__(self, max_workers, mp_context, initializer):
                assert mp_context.get_start_method() == "spawn"
                assert initializer is bench._one_blas_thread
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(bench, "ProcessPoolExecutor", FakeExecutor)
        _, rows = run_table1([20], trials=trials, seed=0, workers=workers)
        _, serial = run_table1([20], trials=trials, seed=0, workers=1)
        assert pools == [expected]
        assert rows == serial

    def test_pool_initializer_pins_both_openblas_builds(self):
        # in a fresh process started at two BLAS threads, so that this one
        # keeps its own setting
        code = ("import ctypes, glob, json, os, numpy, scipy\n"
                "from admira import bench\n"
                "libs = []\n"
                "for package, getter in ((numpy, 'scipy_openblas_get_num_threads64_'),\n"
                "                        (scipy, 'scipy_openblas_get_num_threads')):\n"
                "    site = os.path.dirname(os.path.dirname(package.__file__))\n"
                "    for path in glob.glob(os.path.join(site, package.__name__ + '.libs',\n"
                "                                       'libscipy_openblas*')):\n"
                "        libs.append(getattr(ctypes.CDLL(path), getter))\n"
                "before = [get() for get in libs]\n"
                "bench._one_blas_thread()\n"
                "print(json.dumps([before, [get() for get in libs]]))\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        before, after = json.loads(out)
        if not before or max(before) < 2:
            pytest.skip("no bundled OpenBLAS here, or it runs one thread on one core")
        assert before == [2] * len(before) and after == [1] * len(after)

    def test_csv_refuses_other_header(self, tmp_path):
        out = tmp_path / "mixed.csv"
        run_table1([20], trials=1, out_csv=str(out), seed=0)
        before = out.read_bytes()
        with pytest.raises(ValueError, match="header") as exc_info:
            run_phase([200], [1], n=20, trials=1, out_csv=str(out), seed=0)
        assert "n,p_over_n2" in str(exc_info.value)
        assert "p,r,p_over_n2" in str(exc_info.value)
        assert out.read_bytes() == before

    def test_header_checked_before_any_trial(self, tmp_path, monkeypatch):
        out = tmp_path / "table1.csv"
        run_table1([20], trials=1, out_csv=str(out), seed=0)
        before = out.read_bytes()

        def no_trials(job):
            raise AssertionError("a trial ran before the header check")

        monkeypatch.setattr(bench, "_trial_record", no_trials)
        with pytest.raises(ValueError, match="header"):
            run_phase([200], [1], n=20, trials=1, out_csv=str(out), seed=0)
        assert out.read_bytes() == before

    def test_trials_below_one_rejected_before_csv(self, tmp_path):
        out = tmp_path / "phase.csv"
        with pytest.raises(ValueError, match="trials"):
            run_phase([200], [1], n=20, trials=0, out_csv=str(out), seed=0)
        assert not out.exists()

    def test_failed_sweep_leaves_new_csv_absent(self, tmp_path, monkeypatch):
        # the header check before the trials must not create the file
        out = tmp_path / "table1.csv"

        def failing(job):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(bench, "_trial_record", failing)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_table1([20], trials=1, out_csv=str(out), seed=0)
        assert not out.exists()

    def test_trial_csv_header(self):
        assert TRIAL_CSV_HEADER == ["spec_hash", "trial", "algo", "snr_recon_db",
                                    "iterations", "stop_reason", "wall_time"]


class TestSolveOnce:
    def test_writes_files_and_record(self, tmp_path):
        spec = ProblemSpec(20, 20, 1, "sampling", 200, None, seed=0)
        op, b, X0, _ = generate_problem(spec)
        out = tmp_path / "run"
        record = solve_once(op, b, "admira", str(out), X0=X0,
                            solver_config=SolverConfig(rank=1), spec_hash=spec.hash())
        assert (out / "solution.txt").exists()
        assert (out / "report.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] in ("tol", "monotone_break", "max_iter")
        assert report["error_trace"] is not None
        assert len(report["residual_trace"]) == record.iterations
        sol = fileio.read_factored_matrix(out / "solution.txt")
        assert sol.shape == (20, 20)
        csv_lines = (out / "trials.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 2

    def test_rerun_bit_identical_solution(self, tmp_path):
        spec = ProblemSpec(20, 20, 1, "sampling", 200, None, seed=3)
        op, b, X0, _ = generate_problem(spec)
        solve_once(op, b, "admira", str(tmp_path / "a"), X0=X0,
                   solver_config=SolverConfig(rank=1))
        solve_once(op, b, "admira", str(tmp_path / "b"), X0=X0,
                   solver_config=SolverConfig(rank=1))
        text_a = (tmp_path / "a" / "solution.txt").read_text()
        text_b = (tmp_path / "b" / "solution.txt").read_text()
        assert text_a == text_b

    def test_svt_path(self, tmp_path):
        spec = ProblemSpec(24, 24, 1, "sampling", 280, None, seed=1)
        op, b, X0, _ = generate_problem(spec)
        record = solve_once(op, b, "svt", str(tmp_path / "svt"), X0=X0)
        assert record.algo == "svt"
        assert record.iterations >= 1


class TestFileFormats:
    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((7, 5))
        path = tmp_path / "x.txt"
        fileio.write_dense_matrix(path, X)
        first = path.read_text().splitlines()[0]
        assert first == "7 5"
        np.testing.assert_array_equal(fileio.read_dense_matrix(path), X)

    def test_factored_round_trip_preserves_orthonormal_detection(self, tmp_path):
        rng = np.random.default_rng(1)
        F = full_svd(rng.standard_normal((6, 4)))
        path = tmp_path / "f.txt"
        fileio.write_factored_matrix(path, F)
        G = fileio.read_factored_matrix(path)
        assert G.orthonormal
        np.testing.assert_array_equal(G.sigmas, F.sigmas)
        np.testing.assert_array_equal(G.left, F.left)
        u = np.ones((4, 2)) / 2.0  # unit columns but parallel
        fileio.write_factored_matrix(path, FactoredMatrix((4, 4), [1.0, 0.5], u, u))
        assert not fileio.read_factored_matrix(path).orthonormal

    def test_sampling_operator_round_trip_one_indexed(self, tmp_path):
        op = SamplingOperator(4, 6, [0, 3], [5, 2])
        path = tmp_path / "op.txt"
        fileio.write_operator(path, op)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "4 6 2"
        assert lines[1] == "1 6"  # 1-indexed on disk
        back = fileio.read_operator(path)
        np.testing.assert_array_equal(back.rows, op.rows)
        np.testing.assert_array_equal(back.cols, op.cols)

    def test_gaussian_operator_regenerated_from_seed(self, tmp_path):
        op = GaussianOperator(5, 4, 30, seed=17)
        path = tmp_path / "gop.txt"
        fileio.write_operator(path, op)
        assert path.read_text().strip() == "5 4 30 17"
        back = fileio.read_operator(path)
        np.testing.assert_array_equal(back.frames, op.frames)

    def test_vector_round_trip(self, tmp_path):
        y = np.array([1.5, -2.25, 3e-17])
        path = tmp_path / "v.txt"
        fileio.write_vector(path, y)
        np.testing.assert_array_equal(fileio.read_vector(path), y)

    def test_corrupt_matrix_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n3.0 nan\n")
        with pytest.raises(ValueError):
            fileio.read_dense_matrix(path)
