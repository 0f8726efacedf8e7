import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import types

import numpy as np
import pytest

from admira.cli import build_parser, main
from admira import bench, fileio, operators

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(args)


class TestGenSolve:
    def test_gen_writes_problem_files(self, tmp_path):
        out = tmp_path / "prob"
        rc = run_cli(["gen", "--m", "20", "--n", "16", "--rank", "2",
                      "--operator", "sampling", "--density", "0.6",
                      "--seed", "4", "--out", str(out)])
        assert rc == 0
        for name in ("operator.txt", "b.txt", "x0.txt", "nu.txt", "problem.json"):
            assert (out / name).exists()
        meta = json.loads((out / "problem.json").read_text())
        assert meta["p"] == int(round(0.6 * 20 * 16))
        op = fileio.read_operator(out / "operator.txt")
        assert op.p == meta["p"]

    def test_gen_requires_measurement_count(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["gen", "--m", "8", "--n", "8", "--out", str(tmp_path / "x")])

    def test_solve_from_problem_dir(self, tmp_path):
        prob = tmp_path / "prob"
        run_cli(["gen", "--m", "20", "--n", "20", "--rank", "1",
                 "--operator", "sampling", "--density", "0.7",
                 "--seed", "1", "--out", str(prob)])
        sol = tmp_path / "sol"
        rc = run_cli(["solve", "--problem-dir", str(prob), "--algo", "admira",
                      "--out", str(sol)])
        assert rc == 0
        report = json.loads((sol / "report.json").read_text())
        assert report["snr_recon_db"] is not None
        assert (sol / "solution.txt").exists()

    def test_solve_inline_spec_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 3, "residual_tol": 1e-3}))
        sol = tmp_path / "sol"
        rc = run_cli(["solve", "--m", "16", "--n", "16", "--rank", "1",
                      "--operator", "gaussian", "--p", "200", "--seed", "2",
                      "--config", str(cfg), "--out", str(sol)])
        assert rc == 0
        report = json.loads((sol / "report.json").read_text())
        assert report["iterations"] <= 3

    def test_solve_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 50}))
        sol = tmp_path / "sol"
        run_cli(["solve", "--m", "16", "--n", "16", "--rank", "1",
                 "--operator", "gaussian", "--p", "60", "--seed", "2",
                 "--config", str(cfg), "--max-iter", "2",
                 "--stall-tol", "0", "--residual-tol", "1e-12",
                 "--out", str(sol)])
        report = json.loads((sol / "report.json").read_text())
        assert report["iterations"] <= 2

    def test_svt_reads_config_file_and_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iter": 50, "tau": 1e9}))
        sol = tmp_path / "sol"
        rc = run_cli(["solve", "--m", "16", "--n", "16", "--rank", "1",
                      "--operator", "sampling", "--p", "200", "--seed", "2",
                      "--algo", "svt", "--config", str(cfg), "--max-iter", "3",
                      "--out", str(sol)])
        assert rc == 0
        report = json.loads((sol / "report.json").read_text())
        # the flag caps the iterations; the file's huge tau keeps every
        # iterate at zero, so the relative residual stays 1
        assert report["iterations"] == 3
        assert report["residual_trace"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("algo", ["admira", "svt"])
    def test_ground_truth_of_wrong_size_exits_one(self, tmp_path, capsys, algo):
        prob = tmp_path / "prob"
        run_cli(["gen", "--m", "12", "--n", "10", "--rank", "1",
                 "--operator", "sampling", "--density", "0.8",
                 "--seed", "1", "--out", str(prob)])
        fileio.write_dense_matrix(prob / "x0.txt", np.ones((1, 10)))
        rc = run_cli(["solve", "--problem-dir", str(prob), "--algo", algo,
                      "--out", str(tmp_path / "sol")])
        assert rc == 1
        assert "ground truth" in capsys.readouterr().err

    def test_svt_rejects_noisy_problem(self, tmp_path):
        prob = tmp_path / "prob"
        run_cli(["gen", "--m", "16", "--n", "16", "--rank", "1",
                 "--operator", "sampling", "--density", "0.8",
                 "--snr-meas-db", "20", "--seed", "1", "--out", str(prob)])
        with pytest.raises(SystemExit):
            run_cli(["solve", "--problem-dir", str(prob), "--algo", "svt",
                     "--out", str(tmp_path / "sol")])

    def test_richardson_is_not_an_ls_method(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["solve", "--ls-method", "richardson", "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 2

    def test_max_iter_below_one_exits_one(self, tmp_path, capsys):
        rc = run_cli(["solve", "--m", "10", "--n", "10", "--rank", "1",
                      "--density", "0.5", "--max-iter", "0",
                      "--out", str(tmp_path / "sol")])
        assert rc == 1
        assert "max_iter" in capsys.readouterr().err

    def test_config_file_least_squares_keys_are_ignored(self, tmp_path):
        # keys of options that no longer exist are ignored like any
        # unknown key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ls_method": "cg", "ls_tol": 1e-3,
                                   "ls_max_iter": 1, "max_iter": 3}))
        sol = tmp_path / "sol"
        rc = run_cli(["solve", "--m", "16", "--n", "16", "--rank", "1",
                      "--operator", "sampling", "--p", "200", "--seed", "2",
                      "--config", str(cfg), "--out", str(sol)])
        assert rc == 0
        report = json.loads((sol / "report.json").read_text())
        assert 1 <= report["iterations"] <= 3

    def test_unknown_algo_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["solve", "--algo", "omp", "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 2


class TestSweepCommands:
    def test_table1(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        rc = run_cli(["table1", "--n-list", "20", "--trials", "1",
                      "--seed", "0", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("n,")
        # stdout and a new CSV carry the same lines
        assert printed == out.read_text()

    def test_phase_exit_zero_with_failed_cells(self, tmp_path):
        # p below the information limit: all trials fail, command still 0
        out = tmp_path / "ph.csv"
        rc = run_cli(["phase", "--n", "20", "--p-grid", "30", "--r-grid", "1",
                      "--trials", "2", "--seed", "0", "--out", str(out)])
        assert rc == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[4] == "0"  # admira successes

    def test_table2(self, capsys):
        rc = run_cli(["table2", "--n", "20", "--r-list", "1",
                      "--density-list", "0.6", "--trials", "1", "--seed", "0"])
        assert rc == 0
        assert "admira_snr_db" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["table1", "table2", "phase"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, command, value, capsys):
        # --trials is held to the same floor as --workers
        extra = ["--p-grid", "200", "--r-grid", "1"] if command == "phase" else []
        for flag in ("--workers", "--trials"):
            with pytest.raises(SystemExit) as exc_info:
                run_cli([command, flag, value, *extra])
            assert exc_info.value.code == 2
            assert flag in capsys.readouterr().err

    def test_sweep_defaults(self):
        parse = build_parser().parse_args
        t1, t2 = parse(["table1"]), parse(["table2"])
        ph = parse(["phase", "--p-grid", "200", "--r-grid", "1"])
        assert (t1.trials, t2.trials, ph.trials) == (20, 20, 10)
        assert (t2.n, ph.n) == (1000, 100)
        assert t1.n_list == [500]
        assert t2.r_list == [2, 5, 10]
        assert t2.density_list == [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
        for args in (t1, t2, ph):
            assert (args.seed, args.workers, args.out_csv) == (0, 1, None)

    def test_csv_with_other_header_exits_one(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        assert run_cli(["table1", "--n-list", "20", "--trials", "1",
                        "--seed", "0", "--out", str(out)]) == 0
        before = out.read_text()
        rc = run_cli(["phase", "--n", "20", "--p-grid", "200", "--r-grid", "1",
                      "--trials", "1", "--seed", "0", "--out", str(out)])
        assert rc == 1
        assert "header" in capsys.readouterr().err
        assert out.read_text() == before

    def test_ripcheck_json(self, tmp_path):
        out = tmp_path / "rip.json"
        rc = run_cli(["ripcheck", "--operator", "gaussian", "--m", "6",
                      "--n", "6", "--p", "150", "--r-max", "2",
                      "--trials", "30", "--check-trials", "5",
                      "--seed", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        deltas = [d["delta_lower"] for d in payload["delta_lower_bounds"]]
        assert len(deltas) == 2 and deltas[0] <= deltas[1]
        assert payload["inconsistent_checks"] == 0

    def test_ripcheck_runs_the_monte_carlo_chain_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        nested = operators._nested_deviations

        def counting(*args):
            calls.append(args[1:])
            return nested(*args)

        monkeypatch.setattr(operators, "_nested_deviations", counting)
        out = tmp_path / "rip.json"
        rc = run_cli(["ripcheck", "--operator", "sampling", "--m", "6", "--n", "5",
                      "--p", "20", "--r-max", "3", "--trials", "25",
                      "--check-trials", "4", "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert calls == [(3, 25, 2)]
        payload = json.loads(out.read_text())
        op = operators.SamplingOperator.random(6, 5, 20, seed=2)
        expected = operators.estimate_delta_profile(op, 3, 25, seed=2)
        assert payload["delta_lower_bounds"] == [
            {"r": e.r, "delta_lower": e.delta_lower, "trials": 25} for e in expected]
        assert capsys.readouterr().err.splitlines() == [
            f"r={e.r}: delta_lower={e.delta_lower:.4f}" for e in expected]

    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli([])
        assert exc_info.value.code == 2


class TestBlasThreads:
    def test_report_does_not_depend_on_blas_threads(self, tmp_path):
        # p = 50,000: OpenBLAS's dot product, behind np.linalg.norm, sums a
        # vector this long in an order that depends on the thread count
        def cli(threads, *args):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       PYTHONPATH=str(README.parent / "src"))
            subprocess.run([sys.executable, "-m", "admira.cli", *args], env=env,
                           check=True, capture_output=True, timeout=300)

        prob = str(tmp_path / "prob")
        cli(1, "gen", "--m", "250", "--n", "250", "--rank", "2", "--operator",
            "sampling", "--density", "0.8", "--seed", "3", "--out", prob)
        assert fileio.read_operator(os.path.join(prob, "operator.txt")).p == 50000
        for algo in ("admira", "svt"):
            reports = []
            for threads in (1, 2):
                out = tmp_path / f"{algo}-{threads}"
                cli(threads, "solve", "--problem-dir", prob, "--algo", algo,
                    "--out", str(out))
                reports.append(json.loads((out / "report.json").read_text()))
                del reports[-1]["wall_time"]
            assert reports[0] == reports[1]
            assert reports[0]["stop_reason"] == "tol"


class TestSolveSeed:
    """``solve`` takes its seed from --seed, else the config file, else 0."""

    def solve_with(self, monkeypatch, tmp_path, file_cfg, extra):
        seen = {}

        def fake_solve_once(op, b, algo, out_dir, **kwargs):
            seen.update(kwargs)
            return types.SimpleNamespace(snr_recon_db=0.0, iterations=0,
                                         stop_reason="tol")

        monkeypatch.setattr(bench, "solve_once", fake_solve_once)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        assert run_cli(["solve", "--m", "10", "--n", "10", "--rank", "1",
                        "--density", "0.5", "--config", str(cfg),
                        "--out", str(tmp_path / "sol"), *extra]) == 0
        return seen

    def test_config_file_seed_is_used(self, monkeypatch, tmp_path):
        seen = self.solve_with(monkeypatch, tmp_path, {"seed": 5}, [])
        assert seen["solver_config"].seed == 5
        # the inline instance is still generated at seed 0
        assert seen["spec_hash"] == bench.ProblemSpec(10, 10, 1, "sampling", 50,
                                                      None, seed=0).hash()

    def test_seed_flag_wins_over_config_file(self, monkeypatch, tmp_path):
        seen = self.solve_with(monkeypatch, tmp_path, {"seed": 5}, ["--seed", "3"])
        assert seen["solver_config"].seed == 3

    def test_gen_without_seed_keeps_spec_hash(self, tmp_path):
        out = tmp_path / "prob"
        assert run_cli(["gen", "--m", "20", "--n", "16", "--rank", "2",
                        "--operator", "sampling", "--density", "0.6",
                        "--out", str(out)]) == 0
        assert (out / "problem.json").read_text() == (
            '{\n  "m": 20,\n  "n": 16,\n  "rank": 2,\n  "operator": "sampling",\n'
            '  "p": 192,\n  "snr_meas_db": null,\n  "seed": 0,\n'
            '  "spec_hash": "41ae0c773a58"\n}')


class TestReadmeFlags:
    """Every flag the README shows is one the CLI accepts, so removed
    flags cannot linger in the docs."""

    def split_readme(self):
        text = README.read_text()
        blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
        prose = re.sub(r"```.*?```", "", text, flags=re.S)
        return blocks, prose

    def test_shell_examples_parse(self):
        blocks, _ = self.split_readme()
        commands = [shlex.split(line, comments=True)
                    for block in blocks
                    for line in block.replace("\\\n", " ").splitlines()]
        commands = [cmd[1:] for cmd in commands if cmd[:1] == ["admira"]]
        assert len(commands) >= 6
        for argv in commands:
            build_parser().parse_args(argv)

    def test_flags_in_prose_exist(self):
        _, prose = self.split_readme()
        flags = {flag for span in re.findall(r"`([^`]*)`", prose)
                 for flag in re.findall(r"--[a-z][a-z-]*", span)}
        subcommands = next(action for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction)).choices
        accepted = {option for sub in subcommands.values()
                    for option in sub._option_string_actions}
        assert flags and flags <= accepted, sorted(flags - accepted)

