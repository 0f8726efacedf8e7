"""Acceptance gate: each test pins one published-level criterion at its
stated tolerance and prints a PASS line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the
heavier completion benchmarks dominate the runtime (a few minutes).
"""

import math
import os
import time

import numpy as np
import pytest

from admira.analysis import (
    iteration_bound,
    profile,
    snr_meas,
    snr_recon,
    unrecoverable_energy,
)
from admira.bench import (
    ProblemSpec,
    degrees_of_freedom,
    generate_problem,
    run_phase,
    run_table1,
    run_table2,
    run_trial,
    table1_measurement_count,
)
from admira.linalg import AtomSet, FactoredMatrix, best_rank_r, full_svd, svd_of_factored, truncated_svd
from admira.operators import (
    GaussianOperator,
    SamplingOperator,
    estimate_delta_profile,
)
from admira.solver import SolverConfig, admira_solve, least_squares_on_span

from oracles import normal_equations_lsq

WORKERS = min(2, os.cpu_count() or 1)


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS - {detail}")


def test_criterion_1_completion_table_n500():
    # 20 trials at n=500, r=2, p = 10 ceil(n^1.2 r log10 n), noiseless and
    # at 20 dB measurement SNR
    start = time.perf_counter()
    header, rows = run_table1([500], trials=20, seed=0, workers=WORKERS)
    row = dict(zip(header, rows[0]))
    elapsed = time.perf_counter() - start
    assert row["snr_noiseless_db"] >= 70.0
    assert row["iters_noiseless"] <= 15.0
    assert 29.0 <= row["snr_noisy_db"] <= 39.0
    assert row["iters_noisy"] <= 8.0
    report("1 (completion table, n=500)",
           f"noiseless {row['snr_noiseless_db']:.1f} dB in "
           f"{row['iters_noiseless']:.1f} iters; 20 dB noise "
           f"{row['snr_noisy_db']:.1f} dB in {row['iters_noisy']:.1f} iters; "
           f"{elapsed:.0f}s")


def test_criterion_2_head_to_head_n1000():
    start = time.perf_counter()
    header, rows = run_table2(r_list=[2], density_list=[0.20], n=1000,
                              trials=3, seed=0, workers=WORKERS)
    cell = dict(zip(header, rows[0]))
    assert cell["admira_snr_db"] >= 70.0
    assert cell["admira_iters"] <= 20.0
    assert cell["svt_snr_db"] >= 70.0
    assert 27.0 <= cell["svt_iters"] <= 110.0

    # designed failure: r=10 at 5% sampling stays under 20 dB
    fail_snrs = []
    for t in range(3):
        spec = ProblemSpec(1000, 1000, 10, "sampling", 50000, None,
                           seed=1000 + t)
        record, _ = run_trial(spec, algo="admira", trial_index=t)
        fail_snrs.append(record.snr_recon_db)
    elapsed = time.perf_counter() - start
    assert np.mean(fail_snrs) <= 20.0
    report("2 (head-to-head, n=1000)",
           f"r=2 d=0.20: greedy {cell['admira_snr_db']:.1f} dB/"
           f"{cell['admira_iters']:.1f} iters vs svt {cell['svt_snr_db']:.1f} dB/"
           f"{cell['svt_iters']:.1f} iters; r=10 d=0.05 fails at "
           f"{np.mean(fail_snrs):.1f} dB; {elapsed:.0f}s")


def test_criterion_3_phase_transition_points():
    start = time.perf_counter()
    dr = degrees_of_freedom(100, 100, 2)
    header, rows = run_phase([20 * dr, dr - 96], [2], n=100, trials=10,
                             seed=0, workers=WORKERS)
    cells = {row[0]: dict(zip(header, row)) for row in rows}
    rich = cells[20 * dr]
    poor = cells[dr - 96]
    elapsed = time.perf_counter() - start
    assert rich["admira_successes"] == 10
    assert poor["admira_successes"] == 0
    report("3 (phase-transition points, n=100)",
           f"p/d_r=20: {rich['admira_successes']}/10 successes; "
           f"p<d_r: {poor['admira_successes']}/10; {elapsed:.0f}s")


def test_criterion_4_gaussian_recovery_and_contraction():
    m = n = 30
    r = 2
    p = 8 * degrees_of_freedom(m, n, r)
    successes = 0
    medians = []
    for seed in range(20):
        spec = ProblemSpec(m, n, r, "gaussian", p, None, seed=seed)
        op, b, X0, _ = generate_problem(spec)
        rep = admira_solve(op, b, SolverConfig(rank=r), ground_truth=X0)
        if snr_recon(X0, rep.solution) >= 70.0:
            successes += 1
            et = rep.error_trace
            assert np.all(et[1:] <= et[:-1] * (1.0 + 1e-10)), \
                "error trace not monotone nonincreasing"
            if et.size > 1:
                medians.append(float(np.median(et[1:] / et[:-1])))
    assert successes >= 18
    assert max(medians) <= 0.8
    report("4 (gaussian-operator recovery, 30x30)",
           f"{successes}/20 at >=70 dB; max median per-step error ratio "
           f"{max(medians):.3f} <= 0.8")


def test_criterion_5_oracle_equivalences():
    rng = np.random.default_rng(2024)

    # truncated (lanczos) vs full SVD, 100 instances at 1e-8
    for i in range(100):
        mm, nn = int(rng.integers(12, 36)), int(rng.integers(10, 30))
        M = rng.standard_normal((mm, nn))
        k = int(rng.integers(1, 7))
        lo = truncated_svd(M, k, mode="lanczos", seed=i)
        hi = full_svd(M)
        assert np.max(np.abs(lo.sigmas - hi.sigmas[:k])) <= 1e-8 * hi.sigmas[0]

    # factored-form SVD vs densify + full SVD, 100 instances at 1e-10
    for i in range(100):
        mm, nn, k = 14, 11, int(rng.integers(1, 6))
        U = rng.standard_normal((mm, k))
        V = rng.standard_normal((nn, k))
        U /= np.linalg.norm(U, axis=0)
        V /= np.linalg.norm(V, axis=0)
        s = np.sort(rng.uniform(0.2, 3.0, k))[::-1]
        F = FactoredMatrix((mm, nn), s, U, V)
        dense = F.densify()
        got = svd_of_factored(F)
        ref = full_svd(dense)
        scale = np.linalg.norm(dense)
        assert np.linalg.norm(got.densify() - dense) <= 1e-10 * scale
        assert np.max(np.abs(got.sigmas - ref.sigmas[: got.k])) <= 1e-10 * scale

    # identity-operator one-iteration exactness vs SVD truncation, 100x
    for i in range(100):
        mm, nn = int(rng.integers(6, 13)), int(rng.integers(5, 12))
        M = rng.standard_normal((mm, nn))
        r = int(rng.integers(1, min(mm, nn) + 1))
        op = SamplingOperator.identity(mm, nn)
        rep = admira_solve(op, op.apply(M), SolverConfig(rank=r, max_iter=1))
        oracle = best_rank_r(full_svd(M), r)
        assert np.linalg.norm(rep.solution.densify() - oracle.densify()) \
            <= 1e-8 * np.linalg.norm(M)

    # least-squares methods and the normal-equations oracle agree
    # pairwise on fitted measurements, 100x
    for i in range(100):
        op = GaussianOperator(12, 10, 150, seed=i)
        K = int(rng.integers(1, 7))
        U = rng.standard_normal((12, K))
        V = rng.standard_normal((10, K))
        atoms = AtomSet(U / np.linalg.norm(U, axis=0),
                        V / np.linalg.norm(V, axis=0))
        b = rng.standard_normal(150)
        C = np.column_stack([op.apply_rank_one(atoms.left[:, k], atoms.right[:, k])
                             for k in range(K)])
        fits = [op.apply(least_squares_on_span(op, b, atoms, method=meth))
                for meth in ("qr", "cg")] + [C @ normal_equations_lsq(C, b)]
        for a in fits:
            for c in fits:
                assert np.max(np.abs(a - c)) <= 1e-8 * np.linalg.norm(b)

    # adjoint identity at 1e-10 relative, 100 instances per operator kind
    for i in range(50):
        for op in (GaussianOperator(9, 8, 40, seed=i),
                   SamplingOperator.random(9, 8, 40, seed=i)):
            X = rng.standard_normal((9, 8))
            y = rng.standard_normal(40)
            lhs = op.apply(X) @ y
            back = op.adjoint(y)
            back = back.toarray() if hasattr(back, "toarray") else back
            rhs = float(np.sum(X * back))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    report("5 (oracle equivalences)",
           "truncated-vs-full svd, factored svd, identity one-iteration, "
           "least-squares triple agreement, adjoint identity: all within "
           "stated tolerances over 100+ seeded instances each")


def test_criterion_6_analysis_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # epsilon == 0 exactly when the rank fits the budget
    X0 = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 7))
    assert unrecoverable_energy(X0, 3).epsilon == 0.0
    assert unrecoverable_energy(X0, 2).epsilon > 0.0

    # hand-derived budget for diag(3, 2, 1)
    budget = unrecoverable_energy(np.diag([3.0, 2.0, 1.0]), 2, 0.5)
    assert budget.epsilon == pytest.approx(1.0 + 1.0 / math.sqrt(2.0) + 0.5,
                                           rel=1e-12)

    # band-profile hand cases
    assert profile(np.outer([1.0, 1.0], [1.0, -1.0])).t == 1
    assert profile(np.diag([1.0, 0.25])).bands == {0: 1, 4: 1}

    # iteration bound below the linear cap across the grid
    for r in range(1, 101):
        assert iteration_bound(r, r) <= 6.0 * (r + 1)

    # SNR log identities
    X = rng.standard_normal((5, 5))
    E = rng.standard_normal((5, 5))
    E *= 0.1 * np.linalg.norm(X) / np.linalg.norm(E)
    assert snr_recon(X, X - E) == pytest.approx(20.0, rel=1e-12)
    assert snr_recon(X, X) == 300.0
    assert snr_meas(np.array([3.0, 4.0]), np.array([0.5, 0.0])) == \
        pytest.approx(20.0, rel=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("6 (analysis suite)", f"all hand cases exact; {elapsed*1e3:.0f} ms")


def test_criterion_7_isometry_certification_surrogate():
    # Certifying the isometry assumption behind the convergence
    # guarantees is computationally out of reach, so their literal
    # constants are not asserted; the testable surrogate is that nested
    # Monte Carlo estimates are lower bounds, nondecreasing in rank,
    # and zero for an exact isometry.
    op = GaussianOperator(10, 10, 400, seed=0)
    chain = estimate_delta_profile(op, 4, trials=100, seed=1)
    deltas = [e.delta_lower for e in chain]
    assert all(a <= b + 1e-15 for a, b in zip(deltas, deltas[1:]))
    assert all(0.0 <= d < 1.0 for d in deltas)

    ident = SamplingOperator.identity(6, 6)
    exact = estimate_delta_profile(ident, 3, trials=30, seed=2)
    assert all(e.delta_lower <= 1e-12 for e in exact)
    report("7 (certification surrogate)",
           f"nested lower bounds nondecreasing: {[round(d, 3) for d in deltas]}; "
           "exact isometry estimates at zero; guarantee-level constants "
           "documented as not certifiable")
