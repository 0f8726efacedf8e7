"""The iteration driver ADMiRA and SVT share: report invariants on small
random instances, for every way a solve can stop."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from admira.baseline import default_config, svt_solve
from admira.bench import ProblemSpec, generate_problem
from admira.solver import SolverConfig, admira_solve

ADMIRA_STOPS = ("tol", "monotone_break", "max_iter", "svd_stall")
SVT_STOPS = ("tol", "divergence", "max_iter", "svd_stall")


def assert_report_invariants(report, op, b, stops):
    assert report.stop_reason in stops
    assert report.iterations == len(report.residual_trace) == len(report.error_trace)
    if report.iterations:
        assert report.solution_residual == report.residual_trace.min()
    else:
        assert report.solution_residual == 1.0 and report.solution.k == 0
    got = np.linalg.norm(b - op.apply(report.solution)) / np.linalg.norm(b)
    assert got == pytest.approx(report.solution_residual, rel=1e-12)


instance = dict(seed=st.integers(0, 2**31 - 1), m=st.integers(6, 16),
                n=st.integers(6, 16), rank=st.integers(1, 3),
                density=st.sampled_from([0.3, 0.6, 0.9]),
                max_iter=st.sampled_from([1, 3, 200]))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**instance, gaussian=st.booleans(), snr_meas_db=st.sampled_from([None, 20.0]),
       stall_tol=st.sampled_from([0.0, 1e-3]))
def test_admira_report_invariants(seed, m, n, rank, density, max_iter, gaussian,
                                  snr_meas_db, stall_tol):
    p = int(density * m * n) * (3 if gaussian else 1)
    spec = ProblemSpec(m, n, rank, "gaussian" if gaussian else "sampling", p,
                       snr_meas_db, seed)
    op, b, X0, _ = generate_problem(spec)
    config = SolverConfig(rank=rank, max_iter=max_iter, stall_tol=stall_tol)
    report = admira_solve(op, b, config, ground_truth=X0)
    assert_report_invariants(report, op, b, ADMIRA_STOPS)
    assert report.solution.k <= rank


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**instance, step_scale=st.sampled_from([1.0, 1e3]))
def test_svt_report_invariants(seed, m, n, rank, density, max_iter, step_scale):
    # a thousandfold step makes most solves diverge
    p = int(density * m * n)
    op, b, X0, _ = generate_problem(ProblemSpec(m, n, rank, "sampling", p, None, seed))
    base = default_config(m, n, p)
    config = default_config(m, n, p, max_iter=max_iter, step=base.step * step_scale)
    report = svt_solve(op, b, config, ground_truth=X0)
    assert_report_invariants(report, op, b, SVT_STOPS)
