"""Experiment harness: seeded problem generation, single solves, and the
table/phase-transition sweeps, all file-based and deterministic.

Ground-truth matrices are products of i.i.d. Gaussian factors, so their
rank equals the requested target.  Noise, when asked for, is scaled so
the measurement SNR is hit exactly.  Every sweep writes append-safe CSV
with a header and a spec-hash column; per-trial seeds are derived from
(seed, trial), so results do not depend on worker count.
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from . import fileio
from .analysis import snr_recon
from .baseline import svt_solve
from .linalg import _norm
from .operators import GaussianOperator, SamplingOperator, _rng
from .solver import SolverConfig, admira_solve


@dataclasses.dataclass(frozen=True)
class ProblemSpec:
    """A random recovery instance: dimensions, true rank, operator kind
    ("gaussian" or "sampling"), measurement count, optional measurement
    SNR in dB (None means noiseless), and the seed that pins it all down."""

    m: int
    n: int
    rank: int
    operator: str
    p: int
    snr_meas_db: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.operator not in ("gaussian", "sampling"):
            raise ValueError(f"unknown operator kind: {self.operator!r}")
        if self.rank < 1 or self.rank > min(self.m, self.n):
            raise ValueError("rank must be in [1, min(m, n)]")
        if self.operator == "sampling" and self.p > self.m * self.n:
            raise ValueError("cannot sample more entries than the matrix has")
        if self.p < 1:
            raise ValueError("p must be positive")

    def hash(self):
        """Short stable digest of the spec for CSV provenance columns."""
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclasses.dataclass(frozen=True)
class TrialRecord:
    """One CSV row of a sweep: which spec, which trial, how it went."""

    spec_hash: str
    trial: int
    algo: str
    snr_recon_db: float
    iterations: int
    stop_reason: str
    wall_time: float


def degrees_of_freedom(m, n, r):
    """Parameter count of a real rank-r m-by-n matrix: r (m + n - r)."""
    return r * (m + n - r)


def table1_measurement_count(n, r):
    """Sample budget 10 ceil(n^1.2 r log10 n) used for the completion table."""
    return 10 * math.ceil(n**1.2 * r * math.log10(n))


def generate_problem(spec):
    """Instantiate a :class:`ProblemSpec`.

    Returns ``(op, b, X0, nu)``.  The ground truth is ``Y_L @ Y_R.T``
    with i.i.d. standard normal factors of width ``spec.rank``; noise is
    a Gaussian direction rescaled so the measurement SNR matches
    ``spec.snr_meas_db`` exactly.  Bit-identical across calls with the
    same spec.
    """
    if spec.operator == "gaussian":
        op = GaussianOperator(spec.m, spec.n, spec.p, seed=spec.seed)
    else:
        op = SamplingOperator.random(spec.m, spec.n, spec.p, seed=spec.seed)
    rng = _rng(spec.seed, 1)
    YL = rng.standard_normal((spec.m, spec.rank))
    YR = rng.standard_normal((spec.n, spec.rank))
    X0 = YL @ YR.T
    b_clean = op.apply(X0)
    if spec.snr_meas_db is None:
        return op, b_clean, X0, np.zeros(spec.p)
    direction = _rng(spec.seed, 2).standard_normal(spec.p)
    direction /= _norm(direction)
    nu = direction * (_norm(b_clean) * 10.0 ** (-spec.snr_meas_db / 20.0))
    return op, b_clean + nu, X0, nu


def _solve(op, b, algo, solver_config, svt_config=None, ground_truth=None):
    """Run one solve and time it.  Returns ``(report, wall)``."""
    start = time.perf_counter()
    if algo == "admira":
        report = admira_solve(op, b, solver_config, ground_truth=ground_truth)
    elif algo == "svt":
        report = svt_solve(op, b, svt_config, ground_truth=ground_truth)
    else:
        raise ValueError(f"unknown algorithm: {algo!r}")
    return report, time.perf_counter() - start


def _record(spec_hash, trial_index, algo, X0, report, wall):
    snr = round(snr_recon(X0, report.solution), 4) if X0 is not None else float("nan")
    return TrialRecord(spec_hash, trial_index, algo, snr, report.iterations,
                       report.stop_reason, round(wall, 4))


def run_trial(spec, algo="admira", solver_config=None, trial_index=0):
    """Generate the instance, solve it, and score it.  SVT runs with the
    operator's :func:`~admira.baseline.default_config`.

    Returns ``(record, report)``.  A solve that fails (SVT divergence, a
    stalled SVD or least-squares solve) is a record with that stop
    reason rather than an exception, so sweeps keep going.
    """
    op, b, X0, _nu = generate_problem(spec)
    if algo == "svt" and spec.snr_meas_db is not None:
        raise ValueError("svt supports noiseless measurements only")
    report, wall = _solve(op, b, algo,
                          solver_config or SolverConfig(rank=spec.rank, seed=spec.seed))
    return _record(spec.hash(), trial_index, algo, X0, report, wall), report


def _trial_record(job):
    return run_trial(*job)[0]


def _one_blas_thread():
    """Pool initializer: one thread in each OpenBLAS bundled with numpy
    and scipy, so the workers, not BLAS threads, share the cores.  Does
    nothing where a library or its setter is absent."""
    for package in (np, scipy):
        site = os.path.dirname(os.path.dirname(package.__file__))
        for path in glob.glob(os.path.join(site, f"{package.__name__}.libs",
                                           "libscipy_openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_set_num_threads64_",
                           "scipy_openblas_set_num_threads"):
                if hasattr(lib, symbol):
                    setter = getattr(lib, symbol)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)


def _run_cells(cells, workers):
    """Run the trials of all cells ``(specs, algo, solver_config)``
    through one pool of at most one process per trial, and return the
    records cell by cell.  The pool's processes are spawned, not forked
    from a process whose BLAS already runs threads, and each runs BLAS
    on one thread."""
    jobs = [(spec, algo, solver_config, t)
            for specs, algo, solver_config in cells
            for t, spec in enumerate(specs)]
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_one_blas_thread) as pool:
            records = list(pool.map(_trial_record, jobs))
    else:
        records = [_trial_record(job) for job in jobs]
    it = iter(records)
    return [[next(it) for _ in specs] for specs, *_ in cells]


def _mean(records, field):
    return round(np.mean([getattr(x, field) for x in records]), 2)


def csv_line(values):
    """One CSV line, without its newline, of ``values`` as ``str`` gives them."""
    return ",".join(str(v) for v in values)


def _append_csv(path, header, rows=None):
    """Append ``rows``, writing ``header`` first when the file is new or
    empty.  A file that starts with another header raises ``ValueError``
    untouched.  Without ``rows`` the header is only checked and no file
    is made, so a sweep can fail before running its trials."""
    if rows is None and not os.path.exists(path):
        return
    line = csv_line(header)
    with open(path, "r" if rows is None else "a+") as fh:
        fh.seek(0)
        existing = fh.readline().rstrip("\n")
        if existing and existing != line:
            raise ValueError(f"{path} has header {existing!r}; "
                             f"refusing to append rows under {line!r}")
        if rows is not None:
            if not existing:
                fh.write(line + "\n")
            fh.writelines(csv_line(row) + "\n" for row in rows)


def _sweep(header, pairs, row, trials, out_csv, workers):
    """The steps every sweep shares.  Check the header of ``out_csv``,
    run both cells of every ``(key, cell, cell)`` pair in one pool,
    reduce each pair to ``row(key, records, records)`` and append the
    rows.  Returns ``(header, rows)``."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if out_csv:
        _append_csv(out_csv, header)
    recs = _run_cells([cell for _, *cells in pairs for cell in cells], workers)
    rows = [row(key, a, b) for (key, *_), a, b in zip(pairs, recs[::2], recs[1::2])]
    if out_csv:
        _append_csv(out_csv, header, rows)
    return header, rows


def run_table1(n_list, trials=20, out_csv=None, seed=0, workers=1):
    """Completion of square rank-2 random matrices at the n^1.2-law
    sample budget, noiseless and at 20 dB measurement SNR.

    One CSV row per n: sampling density, oversampling factor over the
    degrees of freedom, and mean reconstruction SNR / iteration count
    for both noise settings.
    """
    header = ["n", "p_over_n2", "p_over_dr", "snr_noiseless_db",
              "iters_noiseless", "snr_noisy_db", "iters_noisy",
              "trials", "spec_hash"]
    rank = 2
    # the published budget exceeds n^2 below n ~ 100; cap at full
    # observation so small smoke runs remain valid sampling problems
    grid = [(n, min(table1_measurement_count(n, rank), n * n)) for n in n_list]

    def cell(n, p, label, noise):
        return ([ProblemSpec(n, n, rank, "sampling", p, noise,
                             seed=_trial_seed(seed, n, label, t))
                 for t in range(trials)], "admira", None)

    pairs = [((n, p), cell(n, p, "noiseless", None), cell(n, p, "noisy", 20.0))
             for n, p in grid]

    def row(key, quiet, noisy):
        n, p = key
        return [n, round(p / n**2, 4), round(p / degrees_of_freedom(n, n, rank), 2),
                _mean(quiet, "snr_recon_db"), _mean(quiet, "iterations"),
                _mean(noisy, "snr_recon_db"), _mean(noisy, "iterations"), trials,
                ProblemSpec(n, n, rank, "sampling", p, None, seed=seed).hash()]
    return _sweep(header, pairs, row, trials, out_csv, workers)


def run_table2(r_list=(2, 5, 10), density_list=(0.05, 0.10, 0.15, 0.20, 0.25, 0.30),
               n=1000, trials=20, out_csv=None, seed=0, workers=1):
    """Head-to-head completion comparison on noiseless instances: one CSV
    row per (rank, sampling density) with mean SNR and iterations for
    both algorithms on the same instances.  Failures (including SVT
    divergence) are recorded, not raised."""
    header = ["r", "p_over_n2", "p_over_dr", "admira_snr_db", "svt_snr_db",
              "admira_iters", "svt_iters", "trials", "spec_hash"]
    pairs = []
    for r in r_list:
        admira_cfg = SolverConfig(rank=r)
        for density in density_list:
            specs = [ProblemSpec(n, n, r, "sampling", int(round(density * n * n)), None,
                                 seed=_trial_seed(seed, n, r, density, t))
                     for t in range(trials)]
            pairs.append((specs, (specs, "admira", admira_cfg), (specs, "svt", None)))

    def row(specs, a, s):
        r, p = specs[0].rank, specs[0].p
        return [r, round(p / n**2, 4), round(p / degrees_of_freedom(n, n, r), 2),
                _mean(a, "snr_recon_db"), _mean(s, "snr_recon_db"),
                _mean(a, "iterations"), _mean(s, "iterations"), trials, specs[0].hash()]
    return _sweep(header, pairs, row, trials, out_csv, workers)


SUCCESS_SNR_DB = 70.0


def run_phase(p_grid, r_grid, n=100, trials=10, out_csv=None, seed=0,
              workers=1):
    """Phase-transition grid: for each (p, r) cell, how many of the
    trials each algorithm completes to at least 70 dB."""
    header = ["p", "r", "p_over_n2", "p_over_dr", "admira_successes",
              "svt_successes", "trials", "spec_hash"]
    grid = [(p, r, [ProblemSpec(n, n, r, "sampling", int(p), None,
                                seed=_trial_seed(seed, n, r, p, t))
                    for t in range(trials)])
            for r in r_grid for p in p_grid]
    pairs = [((p, r, specs), (specs, "admira", None), (specs, "svt", None))
             for p, r, specs in grid]

    def row(key, a, s):
        p, r, specs = key
        return [int(p), r, round(p / n**2, 4), round(p / degrees_of_freedom(n, n, r), 2),
                sum(x.snr_recon_db >= SUCCESS_SNR_DB for x in a),
                sum(x.snr_recon_db >= SUCCESS_SNR_DB for x in s),
                trials, specs[0].hash()]
    return _sweep(header, pairs, row, trials, out_csv, workers)


def _trial_seed(seed, *key):
    """Stable per-trial seed from the base seed and the cell coordinates."""
    payload = json.dumps([seed, *[str(k) for k in key]])
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:6], "big")


TRIAL_CSV_HEADER = [f.name for f in dataclasses.fields(TrialRecord)]


def solve_once(op, b, algo, out_dir, X0=None, solver_config=None,
               svt_config=None, spec_hash=""):
    """Solve one instance and persist the outcome.

    Writes ``solution.txt`` (factored matrix), ``report.json`` (stop
    reason plus the residual trace, and the error trace and SNR when a
    ground truth is given), and appends one row to ``trials.csv``.
    Returns the :class:`TrialRecord`.
    """
    os.makedirs(out_dir, exist_ok=True)
    report, wall = _solve(op, b, algo, solver_config or SolverConfig(rank=1),
                          svt_config, ground_truth=X0)
    record = _record(spec_hash, 0, algo, X0, report, wall)
    fileio.write_factored_matrix(os.path.join(out_dir, "solution.txt"),
                                 report.solution)
    payload = {
        "algo": algo,
        "spec_hash": spec_hash,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "solution_residual": report.solution_residual,
        "residual_trace": report.residual_trace.tolist(),
        "error_trace": (report.error_trace.tolist()
                        if report.error_trace is not None else None),
        "snr_recon_db": None if X0 is None else record.snr_recon_db,
        "wall_time": record.wall_time,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    _append_csv(os.path.join(out_dir, "trials.csv"), TRIAL_CSV_HEADER,
                [dataclasses.astuple(record)])
    return record
