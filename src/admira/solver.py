"""Greedy rank-constrained recovery from linear measurements.

One iteration: back-project the residual, take the leading 2r singular
directions of that proxy, merge them with the current r directions, fit
coefficients by least squares on the merged span (a direct solve of the
Gram matrix, summed over row blocks), and keep the best rank-r part of
the fit.

This module also holds the iteration driver that ADMiRA and the SVT
baseline share.  Each algorithm is a generator of iterates; the driver
measures each iterate's residual, keeps the traces and the best iterate
(the one with the smallest residual, ties going to the later one), and
stops on the relative residual tolerance ("tol"), on the algorithm's own
rule ("monotone_break" for ADMiRA, "divergence" for SVT), at the
iteration cap ("max_iter"), or when the truncated SVD fails to
converge ("svd_stall").  No stop raises: the report always carries the
best iterate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg

from . import operators
from .linalg import (AtomSet, FactoredMatrix, LanczosConvergenceError, _norm, best_rank_r,
                     check_dense, svd_of_factored, truncated_svd)

# Columns whose pivot in R falls below this fraction of the largest
# column norm get zero weight.  R comes from the Gram matrix, whose
# rounding floor sits near sqrt(K * eps) ~ 4e-8 relative, so a finer
# threshold (a Householder QR of the columns resolves 1e-10) cannot be
# told apart from noise; 1e-7 still drops exactly duplicated atoms.
LS_DROP_TOL = 1e-7


class LeastSquaresError(RuntimeError):
    """The reference CG least-squares solve failed to reach its tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Options for :func:`admira_solve`.

    ``rank`` is the target rank of the recovered matrix and ``max_iter``
    (at least 1) caps the iterations.  Each iteration's least-squares
    fit is the blocked Gram solve of :func:`least_squares_on_span`; it has
    no options.

    The monotone decrease of the relative residual counts as broken when
    an iteration improves it by less than ``stall_tol`` relative (noisy
    data makes the residual creep along its floor indefinitely; set
    ``stall_tol=0`` to break only on strict increase).
    """

    rank: int
    residual_tol: float = 1e-4
    max_iter: int = 500
    seed: int = 0
    stall_tol: float = 1e-3

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.stall_tol < 0:
            raise ValueError("stall_tol must be nonnegative")


@dataclass
class SolverReport:
    """Outcome of a solve: the factored solution, per-iteration traces of
    the relative residual (and of the error against ground truth when one
    was supplied), and why iteration stopped."""

    solution: FactoredMatrix
    iterations: int
    residual_trace: np.ndarray
    error_trace: np.ndarray | None
    # "tol" | "max_iter" | the algorithm's own rule: "monotone_break"
    # (ADMiRA) or "divergence" (SVT) | "svd_stall" (a Lanczos SVD did
    # not converge)
    stop_reason: str
    solution_residual: float


def _derived_seed(seed, salt):
    return int(np.random.SeedSequence((seed, salt)).generate_state(1)[0])


def _run_iterations(op, b, iterates, max_iter, residual_tol, stop_rule,
                    ground_truth=None):
    """The one iteration loop.  ``iterates(b)`` is a generator that
    yields an iterate and is sent back its residual vector ``b - A X``;
    ``stop_rule(residual_trace)`` returns a stop reason or None.  The
    best iterate starts as the zero matrix at relative residual 1."""
    b = op._check_vec(b)
    track = ground_truth is not None
    if track:
        ground_truth = check_dense(ground_truth, "ground truth")
        if ground_truth.shape != op.shape:
            raise ValueError(f"ground truth has shape {ground_truth.shape}, "
                             f"the operator {op.shape}")
    best = FactoredMatrix.zero(*op.shape)

    b_norm = _norm(b)
    if b_norm == 0.0:
        return SolverReport(best, 0, np.zeros(0), np.zeros(0) if track else None,
                            "tol", 0.0)

    steps = iterates(b)
    rvec = None
    best_residual = 1.0
    residual_trace, error_trace = [], []
    for _ in range(max_iter):
        # A truncated SVD that fails ends the solve at the best iterate.
        try:
            X = steps.send(rvec)
        except LanczosConvergenceError:
            stop_reason = "svd_stall"
            break
        rvec = b - op.apply(X)
        res = _norm(rvec) / b_norm
        residual_trace.append(res)
        if track:
            D = X.densify()
            error_trace.append(_norm(np.subtract(ground_truth, D, out=D), out=D))
        if res <= best_residual:
            best, best_residual = X, res
        stop_reason = "tol" if res < residual_tol else stop_rule(residual_trace)
        if stop_reason:
            break
    else:
        stop_reason = "max_iter"

    return SolverReport(best, len(residual_trace), np.asarray(residual_trace),
                        np.asarray(error_trace) if track else None,
                        stop_reason, best_residual)


def admira_solve(op, b, config, ground_truth=None):
    """Recover a rank-``config.rank`` matrix from measurements ``b``.

    Stops at ``config.residual_tol``, when the monotone decrease of the
    residual breaks (see :class:`SolverConfig`), at the iteration cap or
    on a stalled truncated SVD; the report holds the best iterate.

    Parameters
    ----------
    op : MeasurementOperator
    b : array of length op.p
    config : SolverConfig
    ground_truth : optional dense matrix; enables the error trace.

    Returns
    -------
    SolverReport
    """
    def monotone_break(trace):
        # Strict increase, or no material improvement on the previous
        # iterate (the zero matrix, at residual 1, before the first).
        previous = trace[-2] if len(trace) > 1 else 1.0
        return "monotone_break" if trace[-1] > previous * (1.0 - config.stall_tol) else None

    return _run_iterations(op, b, lambda b: _admira_iterates(op, b, config),
                           config.max_iter, config.residual_tol, monotone_break,
                           ground_truth)


def _admira_iterates(op, b, config):
    r = config.rank
    atoms_hat = AtomSet.empty(*op.shape)
    rvec = b
    for it in itertools.count(1):
        proxy = op.adjoint(rvec)
        selected = truncated_svd(proxy, 2 * r, seed=_derived_seed(config.seed, it))
        merged = selected.atoms().merge(atoms_hat)
        fit = least_squares_on_span(op, b, merged)
        candidate = best_rank_r(svd_of_factored(fit), r)
        rvec = yield candidate
        atoms_hat = candidate.atoms()


def least_squares_on_span(op, b, atoms, method="qr"):
    """Minimize ``||b - A X||`` over matrices spanned by the given atoms.

    Returns the fitted combination as a (generally non-orthonormal)
    :class:`FactoredMatrix`; negative coefficients are folded into the
    left factors.  The fit takes pivoted QR's R from the Gram matrix of
    the measured atoms (a pivoted Cholesky factorization) and refines it
    by one step on its residual.  The Gram matrix and both right-hand
    sides are summed over blocks of ``operators.BLOCK_ROWS`` measurements,
    so the p-by-K column matrix is never formed.  Columns whose pivot in
    R falls below ``LS_DROP_TOL`` relative get zero weight, so the fitted
    measurements are unaffected by duplicated atoms.

    ``method="cg"`` is a reference for tests only: CG on the normal
    equations of the explicit column matrix, which converges to the
    minimum-norm coefficients or raises :class:`LeastSquaresError`.
    """
    b = op._check_vec(b)
    m, n = op.shape
    K = atoms.size
    if K == 0:
        return FactoredMatrix.zero(m, n)

    if method == "qr":
        alpha = _solve_qr(partial(op.atom_columns, atoms.left, atoms.right), b, K)
    elif method == "cg":
        alpha = _solve_cgls(op.atom_columns(atoms.left, atoms.right), b)
    else:
        raise ValueError(f"unknown least-squares method: {method!r}")

    signs = np.where(alpha < 0, -1.0, 1.0)
    order = np.argsort(-np.abs(alpha), kind="stable")
    return FactoredMatrix((m, n), np.abs(alpha)[order],
                          (atoms.left * signs)[:, order], atoms.right[:, order])


def _solve_qr(columns, b, K):
    # The R factor and pivot order of C's pivoted QR, computed as the
    # pivoted Cholesky factor of the K-by-K Gram matrix (equal in exact
    # arithmetic); Q is never formed.  Pivoting stops at the first
    # diagonal of R below the drop threshold, and the columns not kept
    # get zero weight.  One step of refinement on the residual recovers
    # QR-level accuracy (Bjorck's corrected seminormal equations).
    # ``columns(rows, out)`` returns the block C[rows] of the p-by-K
    # column matrix, filling ``out`` where it can.
    p = b.size
    blocks = [slice(start, min(start + operators.BLOCK_ROWS, p))
              for start in range(0, p, operators.BLOCK_ROWS)]
    buffer = np.empty((min(operators.BLOCK_ROWS, p), K))
    G = np.zeros((K, K))
    Ctb = np.zeros(K)
    for rows in blocks:
        C = columns(rows, buffer[:rows.stop - rows.start])
        G += C.T @ C
        Ctb += C.T @ b[rows]
    alpha = np.zeros(K)
    scale = float(np.max(np.diag(G)))
    if scale == 0.0:
        return alpha
    tol = max(LS_DROP_TOL**2, K * np.finfo(np.float64).eps) * scale
    R, piv, rank, _ = scipy.linalg.lapack.dpstrf(G, tol=tol)
    kept = piv[:rank] - 1
    factor = (R[:rank, :rank], False)
    alpha[kept] = scipy.linalg.cho_solve(factor, Ctb[kept], check_finite=False)
    Ctr = np.zeros(K)
    for rows in reversed(blocks):
        if rows is not blocks[-1]:  # the last block is still in the buffer
            C = columns(rows, buffer[:rows.stop - rows.start])
        residual = C @ alpha
        np.subtract(b[rows], residual, out=residual)
        Ctr += C.T @ residual
    alpha[kept] += scipy.linalg.cho_solve(factor, Ctr[kept], check_finite=False)
    return alpha


def _solve_cgls(C, b):
    # CG on the normal equations; starting from zero keeps the iterates
    # in the row space, hence minimum-norm at convergence.  Stops on
    # LSQR's tests (Paige & Saunders 1982): ||r|| <= tol ||b||, or the
    # backward error ||C^T r|| <= tol ||C|| ||r||, which unlike a target
    # relative to ||C^T b|| stays above the rounding floor of C^T r.
    K = C.shape[1]
    max_iter = max(200, 10 * K)
    tol = 1e-12
    C_norm, b_norm = np.linalg.norm(C), np.linalg.norm(b)
    x = np.zeros(K)
    r = b.copy()
    s = C.T @ r
    p = s.copy()
    gamma = float(s @ s)
    for _ in range(max_iter):
        q = C @ p
        qq = float(q @ q)
        if qq == 0.0:
            return x
        step = gamma / qq
        x += step * p
        r -= step * q
        s = C.T @ r
        gamma_new = float(s @ s)
        r_norm = np.linalg.norm(r)
        if r_norm <= tol * b_norm or np.sqrt(gamma_new) <= tol * C_norm * r_norm:
            return x
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    raise LeastSquaresError(f"cg did not converge in {max_iter} iterations")


@dataclass(frozen=True)
class RankSearchResult:
    """Outcome of a search over target ranks.  When no rank within the
    budget meets the residual bound, ``feasible`` is False and ``report``
    holds the run at the largest rank tried."""

    feasible: bool
    rank: int
    report: SolverReport


def rank_search(op, b, r_max, eta):
    """Smallest target rank whose solve meets ``||b - A X|| <= eta ||b||``,
    trying ranks 1, 2, ..., ``r_max`` in order."""
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    for r in range(1, r_max + 1):
        report = admira_solve(op, b, SolverConfig(rank=r))
        if report.solution_residual <= eta:
            return RankSearchResult(True, r, report)
    return RankSearchResult(False, r_max, report)
