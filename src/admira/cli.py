"""Command-line experiment harness.

Subcommands: ``gen`` (write a random problem instance to files),
``solve`` (run one solve from files or an inline spec), ``table1`` /
``table2`` / ``phase`` (the benchmark sweeps, CSV output), and
``ripcheck`` (isometry-constant estimates plus inequality consistency
checks, JSON output).  Sweeps exit 0 even when cells fail to recover;
harness errors exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import analysis, bench, fileio
from .baseline import default_config
from .operators import GaussianOperator, SamplingOperator
from .solver import SolverConfig


def _spec_from_args(args):
    p = args.p
    if p is None and args.density is not None:
        p = int(round(args.density * args.m * args.n))
    if p is None:
        raise SystemExit("error: provide --p or --density")
    seed = 0 if args.seed is None else args.seed
    return bench.ProblemSpec(args.m, args.n, args.rank, args.operator, p,
                             args.snr_meas_db, seed)


def _add_spec_flags(sub, rank_default=2):
    sub.add_argument("--m", type=int, default=100)
    sub.add_argument("--n", type=int, default=100)
    sub.add_argument("--rank", type=int, default=rank_default,
                     help="rank of the generated ground truth")
    sub.add_argument("--operator", choices=["gaussian", "sampling"],
                     default="sampling")
    sub.add_argument("--p", type=int, default=None,
                     help="number of measurements")
    sub.add_argument("--density", type=float, default=None,
                     help="measurement count as a fraction of m*n")
    sub.add_argument("--snr-meas-db", type=float, default=None,
                     help="measurement SNR in dB (omit for noiseless)")
    sub.add_argument("--seed", type=int, default=0)


def _load_json_config(path):
    with open(path) as fh:
        return json.load(fh)


_SOLVER_FIELDS = ("residual_tol", "max_iter", "seed", "stall_tol")
_SVT_FIELDS = ("tau", "step", "residual_tol", "max_iter")


def _config_fields(args, file_cfg, names):
    """The named config fields from the flags and the config file; a flag
    given on the command line wins."""
    fields = {name: file_cfg[name] for name in names if name in file_cfg}
    fields.update((name, getattr(args, name)) for name in names
                  if getattr(args, name, None) is not None)
    return fields


def cmd_gen(args):
    spec = _spec_from_args(args)
    op, b, X0, nu = bench.generate_problem(spec)
    os.makedirs(args.out, exist_ok=True)
    fileio.write_operator(os.path.join(args.out, "operator.txt"), op)
    fileio.write_vector(os.path.join(args.out, "b.txt"), b)
    fileio.write_dense_matrix(os.path.join(args.out, "x0.txt"), X0)
    fileio.write_vector(os.path.join(args.out, "nu.txt"), nu)
    meta = {**dataclasses.asdict(spec), "spec_hash": spec.hash()}
    with open(os.path.join(args.out, "problem.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
    print(f"wrote problem {spec.hash()} to {args.out}")
    return 0


def cmd_solve(args):
    file_cfg = _load_json_config(args.config) if args.config else {}
    snr_db = args.snr_meas_db
    if args.problem_dir:
        op = fileio.read_operator(os.path.join(args.problem_dir, "operator.txt"))
        b = fileio.read_vector(os.path.join(args.problem_dir, "b.txt"))
        x0_path = os.path.join(args.problem_dir, "x0.txt")
        X0 = fileio.read_dense_matrix(x0_path) if os.path.exists(x0_path) else None
        meta_path = os.path.join(args.problem_dir, "problem.json")
        spec_hash = ""
        rank = args.rank
        if os.path.exists(meta_path):
            meta = _load_json_config(meta_path)
            spec_hash = meta.get("spec_hash", "")
            rank = rank if rank is not None else meta.get("rank")
            snr_db = meta.get("snr_meas_db")
    else:
        if args.rank is None:
            args.rank = 2
        spec = _spec_from_args(args)
        op, b, X0, _ = bench.generate_problem(spec)
        spec_hash, rank = spec.hash(), spec.rank
    if rank is None:
        raise SystemExit("error: --rank is required when the problem has no metadata")
    if args.algo == "svt" and snr_db is not None:
        raise SystemExit("error: svt supports noiseless measurements only")

    solver_cfg = SolverConfig(rank=rank, **_config_fields(args, file_cfg, _SOLVER_FIELDS))
    svt_cfg = (default_config(op.m, op.n, op.p, **_config_fields(args, file_cfg, _SVT_FIELDS))
               if args.algo == "svt" else None)
    record = bench.solve_once(op, b, args.algo, args.out, X0=X0,
                              solver_config=solver_cfg, svt_config=svt_cfg,
                              spec_hash=spec_hash)
    print(f"{args.algo}: snr={record.snr_recon_db} dB, "
          f"iterations={record.iterations}, stop={record.stop_reason}")
    return 0


def cmd_sweep(args):
    """Run the subcommand's sweep with its flags as keyword arguments and
    print the header and rows as CSV."""
    kwargs = {name: value for name, value in vars(args).items()
              if name not in ("command", "func", "sweep")}
    header, rows = args.sweep(**kwargs)
    for row in [header, *rows]:
        print(bench.csv_line(row))
    return 0


def cmd_ripcheck(args):
    if args.operator == "gaussian":
        op = GaussianOperator(args.m, args.n, args.p, seed=args.seed)
    else:
        op = SamplingOperator.random(args.m, args.n, args.p, seed=args.seed)
    checks = analysis.check_isometry_inequalities(
        op, args.r_max, trials=args.check_trials, seed=args.seed,
        delta_trials=args.trials)
    deltas = checks[-1]["deltas"]
    inconsistent = sum(1 for c in checks if not c.get("consistent", True))
    payload = {
        "operator": args.operator,
        "m": args.m, "n": args.n, "p": args.p, "seed": args.seed,
        "delta_lower_bounds": [
            {"r": r, "delta_lower": d, "trials": args.trials}
            for r, d in enumerate(deltas, 1)
        ],
        "checks": checks,
        "inconsistent_checks": inconsistent,
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r, d in enumerate(deltas, 1):
        print(f"r={r}: delta_lower={d:.4f}", file=sys.stderr)
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def _add_sweep(sub, name, sweep, trials, help):
    """A sweep subcommand with the flags all sweeps share; each flag's
    destination is the name of the ``sweep`` parameter it sets."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--trials", type=_positive_int, default=trials)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=_positive_int, default=1)
    sp.add_argument("--out", dest="out_csv", metavar="OUT", default=None,
                    help="CSV path (appends)")
    sp.set_defaults(func=cmd_sweep, sweep=sweep)
    return sp


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admira",
        description="Low-rank recovery experiments: problem generation, "
                    "single solves, benchmark tables, phase grids, and "
                    "isometry checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem instance to files")
    _add_spec_flags(g)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one instance")
    s.add_argument("--problem-dir", default=None,
                   help="directory produced by gen (otherwise use spec flags)")
    _add_spec_flags(s)
    # None lets a seed in --config apply; an inline spec still uses 0.
    s.set_defaults(rank=None, seed=None)
    s.add_argument("--algo", choices=["admira", "svt"], default="admira")
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--config", default=None, help="JSON file with config fields")
    s.add_argument("--residual-tol", type=float, default=None)
    s.add_argument("--max-iter", type=int, default=None)
    s.add_argument("--stall-tol", type=float, default=None)
    s.add_argument("--tau", type=float, default=None, help="svt threshold")
    s.add_argument("--step", type=float, default=None, help="svt step size")
    s.set_defaults(func=cmd_solve)

    t1 = _add_sweep(sub, "table1", bench.run_table1, 20,
                    help="completion sweep over matrix sizes")
    t1.add_argument("--n-list", type=_int_list, default=[500],
                    help="comma-separated sizes, e.g. 500,1000")

    t2 = _add_sweep(sub, "table2", bench.run_table2, 20,
                    help="head-to-head sweep vs the svt baseline")
    t2.add_argument("--n", type=int, default=1000)
    t2.add_argument("--r-list", type=_int_list, default=[2, 5, 10])
    t2.add_argument("--density-list", type=_float_list,
                    default=[0.05, 0.10, 0.15, 0.20, 0.25, 0.30])

    ph = _add_sweep(sub, "phase", bench.run_phase, 10,
                    help="success-count grid over (p, r)")
    ph.add_argument("--n", type=int, default=100)
    ph.add_argument("--p-grid", type=_int_list, required=True)
    ph.add_argument("--r-grid", type=_int_list, required=True)

    rc = sub.add_parser("ripcheck", help="isometry estimates and inequality checks")
    rc.add_argument("--operator", choices=["gaussian", "sampling"],
                    default="gaussian")
    rc.add_argument("--m", type=int, default=10)
    rc.add_argument("--n", type=int, default=10)
    rc.add_argument("--p", type=int, required=True)
    rc.add_argument("--r-max", type=int, default=3)
    rc.add_argument("--trials", type=int, default=200,
                    help="Monte Carlo trials per delta estimate")
    rc.add_argument("--check-trials", type=int, default=50,
                    help="trials per inequality check")
    rc.add_argument("--seed", type=int, default=0)
    rc.add_argument("--out", default=None, help="JSON path")
    rc.set_defaults(func=cmd_ripcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
