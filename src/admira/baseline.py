"""Singular value thresholding baseline for noiseless matrix completion.

Proximal iteration on a dual variable supported on the sampled entries:
each step soft-thresholds the singular values of the running dual matrix
and pushes the measurement residual back.  Only the affine (noiseless)
entry-sampling setting is supported; the solve never materializes a
dense iterate when the problem is large.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SVD_MODES, FactoredMatrix, LanczosConvergenceError, truncated_svd
from .operators import SamplingOperator
from .solver import SolverReport, _ground_truth_error


class SvtDivergenceError(RuntimeError):
    """Residual blew up past the divergence guard.

    Carries the partial :class:`~admira.solver.SolverReport` (best
    iterate so far) in ``report`` so sweeps can log the failure.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"svt diverged after {report.iterations} iterations "
            f"(relative residual {report.solution_residual:.3g})"
        )


@dataclass(frozen=True)
class SvtConfig:
    """Threshold ``tau``, dual step size, stopping tolerance and cap.

    Defaults follow common practice for entry sampling: tau scales with
    the matrix size, the step with the inverse sampling density.  Use
    :func:`default_config` to fill them in from problem dimensions.
    """

    tau: float
    step: float
    residual_tol: float = 1e-4
    max_iter: int = 500
    svd_mode: str = "auto"

    def __post_init__(self):
        if self.tau <= 0 or self.step <= 0:
            raise ValueError("tau and step must be positive")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.svd_mode not in SVD_MODES:
            raise ValueError(f"unknown svd_mode: {self.svd_mode!r}")


def default_config(m, n, p, **overrides):
    """tau = 5 sqrt(m n), step = 1.2 m n / p."""
    cfg = dict(tau=5.0 * np.sqrt(m * n), step=1.2 * (m * n) / p)
    cfg.update(overrides)
    return SvtConfig(**cfg)


def soft_threshold_factored(F, tau):
    """Keep the triplets with singular value above ``tau`` and shrink
    each retained value by exactly ``tau``."""
    keep = F.sigmas > tau
    return FactoredMatrix(F.shape, F.sigmas[keep] - tau,
                          F.left[:, keep], F.right[:, keep],
                          orthonormal=F.orthonormal)


def _leading_above(Y, tau, hint, mode, seed):
    # All singular triplets of Y above tau: grow the truncation until the
    # smallest computed value dips under the threshold or rank runs out.
    minmn = min(Y.shape)
    k = min(max(hint, 1), minmn)
    while True:
        F = truncated_svd(Y, k, mode=mode, seed=seed)
        if F.k < k or F.sigmas[-1] <= tau or k == minmn:
            return F
        k = min(k + 5, minmn)


def svt_solve(op, b, config=None, ground_truth=None):
    """Complete a matrix from sampled entries by singular value
    thresholding.

    Parameters
    ----------
    op : SamplingOperator
        Only entry sampling is supported; other operators are rejected.
    b : sampled entries (noiseless).
    config : SvtConfig, optional
        Defaults to :func:`default_config` for the operator dimensions.
    ground_truth : optional dense matrix; enables the error trace.

    A stalled truncated SVD ends the solve with ``stop_reason="svd_stall"``
    and the best iterate so far.

    Raises
    ------
    SvtDivergenceError
        If the relative residual exceeds 1000x its initial value.
    """
    if not isinstance(op, SamplingOperator):
        raise TypeError("svt_solve supports entry-sampling operators only")
    if config is None:
        config = default_config(op.m, op.n, op.p)
    b = op._check_vec(b)
    m, n = op.shape
    track = ground_truth is not None
    if track:
        ground_truth = np.asarray(ground_truth, dtype=np.float64)

    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return SolverReport(FactoredMatrix.zero(m, n), 0, np.zeros(0),
                            np.zeros(0) if track else None, "tol", 0.0)

    y_dual = np.zeros(op.p)
    X = FactoredMatrix.zero(m, n)
    rank_hint = 1
    residual_trace, error_trace = [], []
    best = (1.0, X, 0)
    stop_reason = "max_iter"
    solution_residual = 1.0

    for it in range(1, config.max_iter + 1):
        Y = op.adjoint(y_dual)
        try:
            F = _leading_above(Y, config.tau, rank_hint, config.svd_mode,
                               seed=it)
        except LanczosConvergenceError:
            stop_reason = "svd_stall"
            break
        X = soft_threshold_factored(F, config.tau)
        rank_hint = X.k + 1
        rvec = b - op.apply(X)
        res = float(np.linalg.norm(rvec) / b_norm)
        residual_trace.append(res)
        if track:
            error_trace.append(_ground_truth_error(ground_truth, X))
        if res < best[0]:
            best = (res, X, it)
        if res < config.residual_tol:
            stop_reason = "tol"
            solution_residual = res
            break
        if res > 1e3:
            report = SolverReport(best[1], it, np.asarray(residual_trace),
                                  np.asarray(error_trace) if track else None,
                                  "divergence", best[0])
            raise SvtDivergenceError(report)
        y_dual = y_dual + config.step * rvec
        solution_residual = res

    if stop_reason != "tol":
        solution_residual, X, _ = best
    return SolverReport(X, len(residual_trace), np.asarray(residual_trace),
                        np.asarray(error_trace) if track else None,
                        stop_reason, solution_residual)
