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

import functools
import os
import warnings

import numpy as np

from .linalg import FactoredMatrix, check_dense
from .operators import BLOCK_ROWS, GaussianOperator, SamplingOperator


def _write_lines(fh, rows, fmt="%.17g"):
    """Write each row of the 2-D ``rows`` as a line of space-separated
    ``fmt`` numbers, formatting about ``BLOCK_ROWS`` numbers per ``%``."""
    line = " ".join([fmt] * rows.shape[1]) + "\n"
    step = max(1, BLOCK_ROWS // max(1, rows.shape[1]))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def _names_path(read):
    """Prefix the path to every ``ValueError`` the reader raises."""
    @functools.wraps(read)
    def reader(path):
        try:
            return read(path)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    return reader


def _loadtxt(source, dtype, ndmin):
    """``np.loadtxt`` without its warning on no data: a caller that
    expected data reports that by its shape check, naming the path."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(source, dtype=dtype, ndmin=ndmin)


def _read_rows(fh, shape, dtype=np.float64):
    """The rest of ``fh`` as an array of ``shape``.  An empty one is not
    left to loadtxt, which gives shape (0, 1)."""
    X = _loadtxt(fh, dtype, 2) if 0 not in shape else np.zeros(shape, dtype)
    if X.shape != shape or (0 in shape and fh.read().strip()):
        raise ValueError(f"expected {shape[0]}x{shape[1]} entries")
    return X


def write_dense_matrix(path, X):
    X = check_dense(X)
    m, n = X.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        _write_lines(fh, X)


@_names_path
def read_dense_matrix(path):
    with open(path) as fh:
        m, n = (int(tok) for tok in fh.readline().split())
        return check_dense(_read_rows(fh, (m, n)))


def write_factored_matrix(path, F):
    m, n = F.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n} {F.k}\n")
        for j in range(F.k):
            for values in (F.sigmas[j:j + 1], F.left[:, j], F.right[:, j]):
                _write_lines(fh, values[None, :])


@_names_path
def read_factored_matrix(path):
    with open(path) as fh:
        m, n, k = (int(tok) for tok in fh.readline().split())
        bad = ValueError(f"expected {k} blocks of 1, {m} and {n} entries")
        if min(m, n, k) < 0:
            raise bad
        if 2 * k * (1 + m + n) > os.path.getsize(path):  # 2+ bytes per entry
            raise ValueError(f"header declares {k * (1 + m + n)} entries, more than "
                             f"the file's {os.path.getsize(path)} bytes can hold")
        sigmas, left, right = np.zeros(k), np.zeros((m, k)), np.zeros((n, k))
        for j in range(k):
            sigma, u, v = (np.array(fh.readline().split(), dtype=np.float64) for _ in range(3))
            if (sigma.size, u.size, v.size) != (1, m, n):
                raise bad
            sigmas[j], left[:, j], right[:, j] = sigma[0], u, v
        if fh.read().strip():
            raise bad
    return FactoredMatrix((m, n), sigmas, left, right)


def write_operator(path, op):
    with open(path, "w") as fh:
        if isinstance(op, SamplingOperator):
            fh.write(f"{op.m} {op.n} {op.p}\n")
            _write_lines(fh, np.column_stack((op.rows + 1, op.cols + 1)), "%d")
        elif isinstance(op, GaussianOperator):
            fh.write(f"{op.m} {op.n} {op.p} {op.seed}\n")
        else:
            raise TypeError(f"cannot serialize operator of type {type(op).__name__}")


@_names_path
def read_operator(path):
    with open(path) as fh:
        head = [int(tok) for tok in fh.readline().split()]
        if len(head) == 4:
            return GaussianOperator(*head[:3], seed=head[3])
        if len(head) == 3:
            m, n, p = head
            pairs = _read_rows(fh, (p, 2), dtype=np.int64)
            return SamplingOperator(m, n, pairs[:, 0] - 1, pairs[:, 1] - 1)
    raise ValueError("unrecognized operator header")


def write_vector(path, y):
    y = check_dense(np.ravel(y)[:, None], name="vector")
    with open(path, "w") as fh:
        _write_lines(fh, y)


@_names_path
def read_vector(path):
    y = _loadtxt(path, np.float64, 1)
    if not np.all(np.isfinite(y)):
        raise ValueError("vector contains NaN or Inf")
    return y
