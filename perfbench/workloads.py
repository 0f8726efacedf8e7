"""The benchmark's workloads: fixed instance sets, one round of each, and
the timed loop of rounds.

A round generates and solves every instance of its workload once.  A run
repeats whole rounds until ``--seconds`` would be exceeded (at least
``MIN_ROUNDS``).  A time metric sums the round's timings, each taken as
its median over rounds.  Every instance seed comes from the run's
``--seed`` through the derivation the package's sweeps use, so a seed
names the same instances here and in ``run_table1`` / ``run_table2``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import admira

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150
IMPORT_SAMPLES = 3
# Both solvers stop at this relative residual by default.
RESIDUAL_TOL = 1e-4
# report.json rounds the SNR to 4 decimals.
REPORT_SNR_TOL_DB = 1e-3


def trial_seed(seed, *key):
    """Per-instance seed from the run seed and the cell coordinates, as
    ``admira.bench`` derives it for its sweeps."""
    payload = json.dumps([seed, *[str(k) for k in key]])
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:6], "big")


def table1_budget(n, r):
    """The completion table's sample count, 10 ceil(n^1.2 r log10 n)."""
    return 10 * math.ceil(n**1.2 * r * math.log10(n))


@dataclass(frozen=True)
class Instance:
    """One problem instance and the algorithms that solve it."""

    name: str
    m: int
    n: int
    rank: int
    operator: str
    p: int
    snr_meas_db: float | None
    seed: int
    algos: tuple

    def spec(self):
        return admira.ProblemSpec(self.m, self.n, self.rank, self.operator,
                                  self.p, self.snr_meas_db, self.seed)


def instances(workload, seed):
    """The fixed instance set of one round."""
    if workload == "completion":
        n, r = 500, 2
        p = table1_budget(n, r)
        # About one noiseless instance in twelve takes twice the usual 7-8
        # iterations; eight noiseless solves per round keep one such
        # instance from setting a run's total.  The 20 dB instances stop
        # after 4-6 iterations on every seed, so two cover that path.
        # SVT, the slower solve, takes three.
        return ([Instance(f"n500-noiseless-{t}", n, n, r, "sampling", p, None,
                          trial_seed(seed, n, "noiseless", t),
                          ("admira", "svt") if t < 3 else ("admira",))
                 for t in range(8)]
                + [Instance(f"n500-20dB-{t}", n, n, r, "sampling", p, 20.0,
                            trial_seed(seed, n, "noisy", t), ("admira",))
                   for t in range(2)])
    if workload == "cli-files":
        # One instance per round is all a run can hold at n=1000, so its
        # iteration count must not depend on the seed.  At density 0.20,
        # 5 of 30 seeds took 16-42 ADMiRA iterations instead of 8-10; at
        # 0.30, 30 of 30 took 6-8.
        n, r, density = 1000, 2, 0.30
        return [Instance("n1000-0", n, n, r, "sampling", round(density * n * n),
                         None, trial_seed(seed, n, r, density, 0), ("admira", "svt"))]
    if workload == "gaussian":
        # 30x30 at 8 d_r measurements, as the acceptance gate's Gaussian
        # criterion.  Its 6.7 MB of frames stay near the core; the 60x60
        # cell's 58 MB stream from memory on every call, and its solve time
        # swung 1.5-2.9 s between rounds of one run.  SVT takes entry
        # sampling only, so its part is a 100x100 completion at half
        # density: small enough for the dense SVD path, and it converged
        # on 100 of 100 seeds tried.  Its iteration count ranges over a
        # fourth between instances and sets its time, so six per round
        # average that out.
        p30 = 8 * 2 * (30 + 30 - 2)
        return ([Instance(f"gauss30-{t}", 30, 30, 2, "gaussian", p30, None,
                          trial_seed(seed, 30, 2, p30, t), ("admira",))
                 for t in range(12)]
                + [Instance(f"sampled100-{t}", 100, 100, 2, "sampling", 5000, None,
                            trial_seed(seed, 100, 2, 5000, t), ("svt",))
                   for t in range(6)])
    raise ValueError(f"unknown workload: {workload!r}")


@dataclass
class Round:
    """One round's timings, outcomes and failures.  ``times`` maps
    ``"setup/<instance>"``, ``"admira/<instance>"`` and ``"svt/<instance>"``
    to wall seconds."""

    times: dict = field(default_factory=dict)
    admira_iterations: int = 0
    svt_iterations: int = 0
    snrs: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    bytes: dict = field(default_factory=lambda: {"read": 0, "written": 0})

    def fail(self, what, count=1):
        self.failed += count
        self.errors.append(f"{what}: {traceback.format_exc(limit=3).strip()}")

    def solved(self, name, algo, seconds, iterations, snr, stop_reason):
        key = f"{algo}/{name}"
        self.times[key] = seconds
        self.outcomes[key] = [iterations, stop_reason]
        if algo == "admira":
            self.admira_iterations += iterations
            self.snrs.append(snr)
        else:
            self.svt_iterations += iterations


# --- library workloads ---

def warm_up():
    """Run every library path once on tiny instances, so lazy imports,
    BLAS thread start-up and first-call costs fall before timing."""
    for spec in (admira.ProblemSpec(40, 40, 2, "sampling", 800, None, 1),
                 admira.ProblemSpec(12, 12, 1, "gaussian", 100, None, 1)):
        op, b, X0, _ = admira.generate_problem(spec)
        report = admira.admira_solve(op, b, admira.SolverConfig(rank=spec.rank))
        admira.snr_recon(X0, report.solution)
        if spec.operator == "sampling":
            admira.svt_solve(op, b)


def library_round(insts, tracer):
    rec = Round()
    for inst in insts:
        rec.attempted += len(inst.algos)
        noisy = inst.snr_meas_db is not None
        try:
            start = time.perf_counter()
            op, b, X0, nu = admira.generate_problem(inst.spec())
            rec.times[f"setup/{inst.name}"] = time.perf_counter() - start
            kind, data = checks.operator_data(op)
            checks.check_measurements(kind, data, (inst.m, inst.n), inst.p, b, X0,
                                      nu, inst.snr_meas_db)
        except Exception:
            rec.fail(f"{inst.name} generation", len(inst.algos))
            continue
        for algo in inst.algos:
            try:
                start = time.perf_counter()
                if algo == "admira":
                    report = admira.admira_solve(op, b, admira.SolverConfig(rank=inst.rank))
                else:
                    report = admira.svt_solve(op, b)
                seconds = time.perf_counter() - start
                program_snr = admira.snr_recon(X0, report.solution)
                F = report.solution
                snr, residual = checks.check_solution(
                    kind, data, b, X0, F.sigmas, F.left, F.right,
                    inst.rank if algo == "admira" else None, noisy, RESIDUAL_TOL)
                checks.require(abs(snr - program_snr) <= checks.SNR_AGREE_DB,
                               f"snr_recon {program_snr!r} dB, recomputed {snr!r} dB")
                checks.require(abs(residual - report.solution_residual)
                               <= 1e-9 + 1e-6 * residual,
                               f"reported residual {report.solution_residual!r}, "
                               f"recomputed {residual!r}")
            except Exception:
                rec.fail(f"{inst.name} {algo}")
                continue
            rec.solved(inst.name, algo, seconds, report.iterations,
                       snr, report.stop_reason)
    rec.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        rec.spans, rec.bytes = tracer.take()
    return rec


def import_seconds():
    """Wall time of ``import admira`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import admira; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


# --- cli-files ---

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(args, log, spans_file=None):
    """Run one ``admira`` CLI command in its own process.  Returns its wall
    time and peak resident memory in MB; raises if it exits nonzero."""
    if spans_file is None:
        cmd = [sys.executable, "-m", "admira.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_file), *args]
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"admira {args[0]} exited {proc.returncode}: "
                           f"{Path(log).read_text()[-2000:]}")
    return seconds, usage.ru_maxrss / 1024


def cli_round(insts, tracer):
    """``admira gen``, then ``admira solve`` with each algorithm, each in
    its own process, on files in a scratch directory of the checkout."""
    traced = tracer is not None
    rec = Round()
    for inst in insts:
        work = OUT / "work" / inst.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        problem = work / "problem"
        rec.attempted += len(inst.algos)
        density = inst.p / (inst.m * inst.n)
        try:
            seconds, rss = run_cli(
                ["gen", "--m", str(inst.m), "--n", str(inst.n), "--rank", str(inst.rank),
                 "--operator", "sampling", "--density", f"{density:g}",
                 "--seed", str(inst.seed), "--out", str(problem)],
                work / "gen.log", work / "gen.spans.json" if traced else None)
            rec.times[f"setup/{inst.name}"] = seconds
            rec.peak_rss_mb = max(rec.peak_rss_mb, rss)
            shape, data = checks.parse_sampling_operator(problem / "operator.txt")
            checks.require(shape == (inst.m, inst.n), f"operator shape {shape}")
            X0 = checks.parse_dense_matrix(problem / "x0.txt")
            b = checks.parse_vector(problem / "b.txt")
            nu = checks.parse_vector(problem / "nu.txt")
            checks.check_measurements("sampling", data, shape, inst.p, b, X0, nu, None)
        except Exception:
            rec.fail(f"{inst.name} gen", len(inst.algos))
            continue
        for algo in inst.algos:
            out = work / algo
            try:
                seconds, rss = run_cli(
                    ["solve", "--problem-dir", str(problem), "--algo", algo,
                     "--out", str(out)],
                    work / f"{algo}.log", work / f"{algo}.spans.json" if traced else None)
                rec.peak_rss_mb = max(rec.peak_rss_mb, rss)
                report = json.loads((out / "report.json").read_text())
                fshape, sigmas, left, right = checks.parse_factored_matrix(out / "solution.txt")
                checks.require(fshape == shape, f"solution shape {fshape}")
                snr, _ = checks.check_solution(
                    "sampling", data, b, X0, sigmas, left, right,
                    inst.rank if algo == "admira" else None, False, RESIDUAL_TOL)
                checks.require(abs(snr - report["snr_recon_db"]) <= REPORT_SNR_TOL_DB,
                               f"report.json SNR {report['snr_recon_db']} dB, "
                               f"recomputed {snr!r} dB")
            except Exception:
                rec.fail(f"{inst.name} {algo}")
                continue
            rec.solved(inst.name, algo, seconds, report["iterations"],
                       snr, report["stop_reason"])
        if traced:
            for part in ("gen", *inst.algos):
                path = work / f"{part}.spans.json"
                if path.exists():
                    child = json.loads(path.read_text())
                    offset = len(rec.spans)
                    rec.spans += [[name, start, end, parent + offset if parent >= 0 else -1]
                                  for name, start, end, parent in child["spans"]]
                    for key in rec.bytes:
                        rec.bytes[key] += child["bytes"][key]
    return rec


# --- the timed run ---

def environment():
    """Cores, BLAS libraries with the thread count each has in effect,
    and the interpreter and library versions."""
    import numpy
    import scipy

    blas = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                blas[os.path.basename(path)] = getter()
                break
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def median(values):
    """Median over rounds; a count stays a count."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def total_of_medians(rounds, prefix):
    """Sum over the timings named ``prefix*`` of each one's median over
    rounds, so a slow spell in one round moves only the timings it hit."""
    keys = sorted({k for r in rounds for k in r.times if k.startswith(prefix)})
    return sum(statistics.median([r.times[k] for r in rounds if k in r.times])
               for k in keys)


def run(workload, seed, seconds, trace):
    """One benchmark run.  Returns a dict with the result line's fields
    and the details written next to it."""
    insts = instances(workload, seed)
    if workload == "cli-files":
        # Compiles the package's bytecode so the first round does not pay it.
        subprocess.run([sys.executable, "-m", "admira.cli", "--help"], cwd=ROOT,
                       env=child_env(), capture_output=True, check=True,
                       timeout=CHILD_TIMEOUT_S)
        do_round = cli_round
    else:
        warm_up()
        do_round = library_round
    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)

    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(do_round(insts, tracer))
        last = time.perf_counter() - round_start
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + last > seconds:
            break

    first = rounds[0]
    deterministic = all(r.outcomes == first.outcomes for r in rounds)
    end_to_end = {
        "setup_s": total_of_medians(rounds, "setup/"),
        "solve_s": total_of_medians(rounds, "admira/"),
        "svt_solve_s": total_of_medians(rounds, "svt/"),
        "admira_iterations": first.admira_iterations,
        "svt_iterations": first.svt_iterations,
        "recon_snr_db": statistics.fmean(first.snrs) if first.snrs else 0.0,
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
    }
    layers = None
    if trace:
        import_s = statistics.median(import_seconds() for _ in range(IMPORT_SAMPLES))
        per_round = [spans.layer_metrics(r.spans, r.bytes, r.svt_iterations, import_s)
                     for r in rounds]
        layers = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": deterministic,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "end_to_end": end_to_end,
        "per_layer": layers,
        "instances": [vars(i) | {"algos": list(i.algos)} for i in insts],
        "outcomes": first.outcomes,
        "errors": [e for r in rounds for e in r.errors],
        "per_round": [r.times | {"peak_rss_mb": r.peak_rss_mb} for r in rounds],
        "environment": environment(),
    }
