"""Plain-text file formats for matrices, factored matrices, operators,
and measurement vectors.

Dense matrix: first line ``m n``, then m lines of n space-separated
decimals.  Factored matrix: first line ``m n k``, then k blocks of three
lines (sigma, the length-m left vector, the length-n right vector).
Sampling operator: line ``m n p`` followed by p lines ``i j`` with
1-based indices.  Gaussian operator: a single line ``m n p seed`` (the
frames are regenerated from the seed).  Vector: one decimal per line.
"""

from __future__ import annotations

import os

import numpy as np

from .linalg import ORTHO_TOL, FactoredMatrix, check_dense
from .operators import BLOCK_ROWS, GaussianOperator, SamplingOperator


def _write_lines(fh, rows, fmt="%.17g"):
    """Write each row of the 2-D ``rows`` as a line of space-separated
    ``fmt`` numbers, formatting about ``BLOCK_ROWS`` numbers per ``%``."""
    line = " ".join([fmt] * rows.shape[1]) + "\n"
    step = max(1, BLOCK_ROWS // max(1, rows.shape[1]))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _read_rows(fh, path, shape, dtype=np.float64):
    """The rest of ``fh`` as an array of ``shape``.  An empty one is not
    left to loadtxt, which warns on no data and gives shape (0, 1)."""
    X = np.loadtxt(fh, dtype=dtype, ndmin=2) if 0 not in shape else np.zeros(shape, dtype)
    if X.shape != shape or (0 in shape and fh.read().strip()):
        raise ValueError(f"{path}: expected {shape[0]}x{shape[1]} entries")
    return X


def write_dense_matrix(path, X):
    X = check_dense(X)
    m, n = X.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        _write_lines(fh, X)


def read_dense_matrix(path):
    with open(path) as fh:
        m, n = (int(tok) for tok in fh.readline().split())
        return check_dense(_read_rows(fh, path, (m, n)), name=str(path))


def write_factored_matrix(path, F):
    m, n = F.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n} {F.k}\n")
        for j in range(F.k):
            for values in (F.sigmas[j:j + 1], F.left[:, j], F.right[:, j]):
                _write_lines(fh, values[None, :])


def read_factored_matrix(path):
    with open(path) as fh:
        m, n, k = (int(tok) for tok in fh.readline().split())
        sigmas = np.zeros(k)
        left = np.zeros((m, k))
        right = np.zeros((n, k))
        for j in range(k):
            sigmas[j] = float(fh.readline())
            left[:, j] = np.array(fh.readline().split(), dtype=np.float64)
            right[:, j] = np.array(fh.readline().split(), dtype=np.float64)
    orthonormal = True
    if k:
        for B in (left, right):
            G = B.T @ B
            if np.max(np.abs(G - np.eye(k))) > ORTHO_TOL:
                orthonormal = False
                break
    return FactoredMatrix((m, n), sigmas, left, right, orthonormal=orthonormal)


def write_operator(path, op):
    with open(path, "w") as fh:
        if isinstance(op, SamplingOperator):
            fh.write(f"{op.m} {op.n} {op.p}\n")
            _write_lines(fh, np.column_stack((op.rows + 1, op.cols + 1)), "%d")
        elif isinstance(op, GaussianOperator):
            fh.write(f"{op.m} {op.n} {op.p} {op.seed}\n")
        else:
            raise TypeError(f"cannot serialize operator of type {type(op).__name__}")


def read_operator(path):
    with open(path) as fh:
        head = fh.readline().split()
        if len(head) == 4:
            m, n, p, seed = (int(tok) for tok in head)
            return GaussianOperator(m, n, p, seed=seed)
        if len(head) == 3:
            m, n, p = (int(tok) for tok in head)
            pairs = _read_rows(fh, path, (p, 2), dtype=np.int64)
            return SamplingOperator(m, n, pairs[:, 0] - 1, pairs[:, 1] - 1)
    raise ValueError(f"{path}: unrecognized operator header")


def write_vector(path, y):
    y = check_dense(np.ravel(y)[:, None], name="vector")
    with open(path, "w") as fh:
        _write_lines(fh, y)


def read_vector(path):
    # loadtxt warns on an empty file, which is how an empty vector is written
    y = np.loadtxt(path, dtype=np.float64, ndmin=1) if os.path.getsize(path) else np.zeros(0)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"{path}: vector contains NaN or Inf")
    return y
