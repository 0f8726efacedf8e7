"""Correctness checks computed apart from the admira package.

Every check recomputes its quantity with numpy from the raw arrays (the
ground truth, the operator's index pairs or frames, the solution's
factors) or from the documented text formats, never through the
package's own routines, and raises :class:`CheckFailed` on a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

NOISELESS_MIN_DB = 70.0
NOISY_GATE_DB = (29.0, 39.0)  # the acceptance gate's window at 20 dB
ORTHO_TOL = 1e-8
SNR_AGREE_DB = 1e-6


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def forward(op_kind, op_data, X):
    """Measurements of the dense matrix ``X``: entries at ``(rows, cols)``
    for sampling, ``frames @ vec(X)`` for the Gaussian ensemble."""
    if op_kind == "sampling":
        rows, cols = op_data
        return X[rows, cols]
    return np.einsum("pk,k->p", op_data, X.reshape(-1))


def operator_data(op):
    """The raw arrays that define the operator, with its kind."""
    if hasattr(op, "frames"):
        return "gaussian", np.asarray(op.frames)
    return "sampling", (np.asarray(op.rows), np.asarray(op.cols))


def check_measurements(kind, data, shape, p, b, X0, nu, snr_meas_db):
    """``b`` is the operator applied to ``X0``, plus noise at the stated SNR."""
    m, n = shape
    require(b.shape == (p,), f"b has shape {b.shape}, expected ({p},)")
    if kind == "sampling":
        rows, cols = data
        require(rows.min() >= 0 and rows.max() < m and cols.min() >= 0
                and cols.max() < n, "sample index out of range")
        require(np.unique(rows * n + cols).size == p, "sample indices repeat")
    clean = forward(kind, data, X0)
    if snr_meas_db is None:
        require(not np.any(nu), "noiseless instance carries noise")
        if kind == "sampling":
            require(np.array_equal(b, clean), "b differs from X0 at the sampled entries")
            return
        err = np.linalg.norm(b - clean) / np.linalg.norm(clean)
        require(err <= 1e-12, f"b differs from frames @ vec(X0) by {err:.3g} relative")
        return
    err = np.linalg.norm(b - nu - clean) / np.linalg.norm(clean)
    require(err <= 1e-12, f"b - nu differs from A(X0) by {err:.3g} relative")
    got = 20.0 * math.log10(np.linalg.norm(clean) / np.linalg.norm(nu))
    require(abs(got - snr_meas_db) <= 1e-9,
            f"measurement SNR {got:.12g} dB, expected {snr_meas_db} dB")


def dense(sigmas, left, right):
    return (np.asarray(left) * np.asarray(sigmas)) @ np.asarray(right).T


def snr_db(X0, Xhat):
    """``20 log10(||X0|| / ||X0 - Xhat||)`` from the dense difference."""
    return 20.0 * math.log10(np.linalg.norm(X0) / np.linalg.norm(X0 - Xhat))


def check_solution(kind, data, b, X0, sigmas, left, right, rank, noisy,
                   residual_tol):
    """Rank (unless ``rank`` is None), orthonormal factors, relative
    residual and reconstruction SNR of a solution given by its factors.
    Returns ``(snr_db, residual)``."""
    sigmas, left, right = (np.asarray(a, dtype=np.float64) for a in (sigmas, left, right))
    k = sigmas.size
    require(rank is None or k <= rank, f"solution has {k} terms, rank target {rank}")
    require(np.all(sigmas >= 0) and np.all(np.diff(sigmas) <= 0),
            "singular values are not nonnegative and sorted")
    for name, B in (("left", left), ("right", right)):
        dev = np.max(np.abs(B.T @ B - np.eye(k))) if k else 0.0
        require(dev <= ORTHO_TOL, f"{name} factor columns not orthonormal ({dev:.3g})")
    Xhat = dense(sigmas, left, right)
    residual = float(np.linalg.norm(b - forward(kind, data, Xhat)) / np.linalg.norm(b))
    if not noisy:
        require(residual < residual_tol,
                f"relative residual {residual:.3g} not below {residual_tol:g}")
    snr = snr_db(X0, Xhat)
    if noisy:
        lo, hi = NOISY_GATE_DB
        require(lo <= snr <= hi, f"SNR {snr:.2f} dB outside [{lo}, {hi}] dB")
    else:
        require(snr >= NOISELESS_MIN_DB, f"SNR {snr:.2f} dB below {NOISELESS_MIN_DB} dB")
    return snr, residual


# --- the documented plain-text formats, parsed without the package ---

def parse_dense_matrix(path):
    """``m n`` header, then m rows of n decimals."""
    with open(path) as fh:
        tokens = fh.read().split()
    m, n = int(tokens[0]), int(tokens[1])
    X = np.array(tokens[2:], dtype=np.float64)
    require(X.size == m * n, f"{path}: {X.size} values for a {m}x{n} matrix")
    return X.reshape(m, n)


def parse_factored_matrix(path):
    """``m n k`` header, then k blocks of sigma, left vector, right vector."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    m, n, k = (int(tok) for tok in lines[0].split())
    require(len(lines) == 1 + 3 * k, f"{path}: {len(lines)} lines for k={k}")
    sigmas = np.array([float(lines[1 + 3 * j]) for j in range(k)])
    left = np.array([lines[2 + 3 * j].split() for j in range(k)], dtype=np.float64)
    right = np.array([lines[3 + 3 * j].split() for j in range(k)], dtype=np.float64)
    left, right = left.reshape(k, m).T, right.reshape(k, n).T
    return (m, n), sigmas, left, right


def parse_sampling_operator(path):
    """``m n p`` header, then p lines of 1-based ``i j``."""
    with open(path) as fh:
        tokens = fh.read().split()
    head = [int(tok) for tok in tokens[:3]]
    pairs = np.array(tokens[3:], dtype=np.int64).reshape(-1, 2)
    require(pairs.shape[0] == head[2], f"{path}: {pairs.shape[0]} pairs, header says {head[2]}")
    return (head[0], head[1]), (pairs[:, 0] - 1, pairs[:, 1] - 1)


def parse_vector(path):
    with open(path) as fh:
        return np.array(fh.read().split(), dtype=np.float64)
