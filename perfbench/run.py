"""Benchmark of the admira package: generation, solve and file I/O.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  A single workload prints each metric by name with
its unit, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``all`` runs
every workload untraced and then traced, each in a fresh process one
after another, prints both tables and the tracing overhead, and writes
``perfbench/out/all-seed<N>.json``.  See README.md for the workloads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# The one place the workloads, metrics and run length are declared.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Workloads that run the ``admira`` command line as a user's shell does,
# with the BLAS thread count the shell gives.  The others drive the library
# from this process, which pins BLAS to one thread before numpy loads, as a
# program sharing a few cores with other tenants should: with OpenBLAS's
# default of one thread per core, a slow spell on one core stalls every
# BLAS call, and the Gaussian solves swung twofold between runs.
CLI_WORKLOADS = ("cli-files",)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed every instance seed is derived from")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 records spans and reports per-layer metrics")
    return parser.parse_args(argv)


def metric_units():
    """``(end_to_end, per_layer)`` as lists of ``(name, unit)``."""
    return tuple([(m["name"], m["unit"]) for m in SPEC[key]]
                 for key in ("end_to_end", "per_layer"))


def result_path(workload, seed, trace):
    return HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"


def print_metrics(title, metrics, units):
    print(title)
    for name, unit in units:
        print(f"  {name:36s} {metrics[name]!r:>24} {unit}")


def run_one(args):
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = result_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    for error in result["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"environment: {json.dumps(result['environment'])}")
    units = metric_units()[args.trace]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    print_metrics(f"{args.workload} (seed {args.seed}, {result['rounds']} rounds, "
                  f"{'traced' if args.trace else 'untraced'})", values, units)
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


def run_all(args):
    """Each workload untraced, then traced, each in a fresh process."""
    end_to_end, per_layer = metric_units()
    summary, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        entry = summary[workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"error: {workload} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            detail = json.loads(result_path(workload, args.seed, trace).read_text())
            entry["traced" if trace else "untraced"] = detail
        untraced, traced = entry["untraced"], entry["traced"]
        overhead = traced["end_to_end"]["solve_s"] - untraced["end_to_end"]["solve_s"]
        entry["tracing_overhead_solve_s"] = overhead
        print_metrics(f"{workload}: end to end (attempted {untraced['attempted']}, "
                      f"failed {untraced['failed']})", untraced["end_to_end"],
                      end_to_end)
        print_metrics(f"{workload}: per layer (traced run)", traced["per_layer"],
                      per_layer)
        print(f"  tracing overhead on solve_s: {overhead:+.4f} s "
              f"({overhead / untraced['end_to_end']['solve_s']:+.1%})")
    out = HERE / "out" / f"all-seed{args.seed}.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {f"{w}.{name}": {"value": summary[w]["untraced"]["end_to_end"][name],
                                    "unit": unit}
                    for w in WORKLOADS for name, unit in end_to_end},
    }))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "admira" / "__init__.py").is_file():
        print(f"error: no admira package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload not in (*CLI_WORKLOADS, "all"):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import admira

    if not Path(admira.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported admira from {admira.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
