"""Linear measurement operators mapping m-by-n matrices to R^p.

Two concrete families: a dense Gaussian ensemble (one random frame per
measurement, inner-product measurements) and an entry-sampling operator
(matrix completion).  Both expose the forward map, its adjoint, and a
cheap path for factored low-rank inputs, plus Monte Carlo estimation of
rank-restricted isometry constants.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import FactoredMatrix, _reorthogonalize, check_dense


# Gaussian operators whose frames would take more memory than this are
# refused before anything is allocated.
GAUSSIAN_FRAME_LIMIT_BYTES = 2**31
# So are sampling operators whose CSR row pointer would; the column count
# allocates nothing, but m * n must fit the int64 flat entry index.
ROW_POINTER_LIMIT_BYTES = 2**31
# Rows of atom measurements gathered per block by the least-squares fit
# and by entry sampling's apply_combination: cache-sized, never p-by-K.
BLOCK_ROWS = 8192


def _rng(*key):
    """Deterministic 64-bit PRNG (PCG64) keyed by a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


class MeasurementOperator(abc.ABC):
    """Linear map A from m-by-n matrices to measurement vectors in R^p."""

    m: int
    n: int
    p: int

    @property
    def shape(self):
        return (self.m, self.n)

    def apply(self, X):
        """Forward map of a dense array or a factored matrix.  Factored
        inputs go through :meth:`apply_combination`: entry sampling never
        forms the m-by-n matrix, and the Gaussian map forms it as one m*n
        vector, which is smaller than its p*m*n frames."""
        factored = isinstance(X, FactoredMatrix)
        if not factored:
            X = check_dense(X)
        if X.shape != self.shape:
            raise ValueError("operator/matrix shape mismatch")
        if factored:
            return self.apply_combination(X.left, X.right, X.sigmas)
        return self._apply_explicit(X)

    def apply_rank_one(self, u, v):
        """Measurements of the rank-one matrix ``u v^T``."""
        return self.apply_combination(np.asarray(u)[:, None],
                                      np.asarray(v)[:, None], np.ones(1))

    @abc.abstractmethod
    def apply_combination(self, left, right, coeffs):
        """Measurements of ``sum_k coeffs[k] * left[:,k] right[:,k]^T``.

        Coefficients may be negative; no ordering is assumed.
        """

    @abc.abstractmethod
    def atom_columns(self, left, right, rows=slice(None), out=None):
        """Measurements of every atom ``left[:,k] right[:,k]^T`` at once,
        as the columns of a p-by-K array; with a slice ``rows``, only
        those measurements.  ``out``, if given, is filled and returned."""

    @abc.abstractmethod
    def _apply_explicit(self, X):
        """Forward map on a checked dense matrix of the operator's shape."""

    @abc.abstractmethod
    def adjoint(self, y):
        """Back-projection A* y as an explicit m-by-n matrix.

        Returns a scipy sparse matrix when the operator is sparse and a
        dense ndarray otherwise; both support matrix-vector products and
        densification, so the result can feed the truncated SVD directly.
        """

    def _check_vec(self, y):
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != self.p:
            raise ValueError(f"expected length-{self.p} vector, got {y.size}")
        if not np.all(np.isfinite(y)):
            raise ValueError("measurement vector contains NaN or Inf")
        return y


class GaussianOperator(MeasurementOperator):
    """Dense random ensemble: measurement k is the inner product with an
    i.i.d. N(0, 1/p) frame, so ``E ||A X||^2 = ||X||_F^2``.

    Frames are regenerated from ``(m, n, p, seed)``, which is also the
    serialized form.
    """

    def __init__(self, m, n, p, seed=0):
        if min(m, n, p) < 1:
            raise ValueError("dimensions must be positive")
        self.m, self.n, self.p = int(m), int(n), int(p)
        self.seed = int(seed)
        nbytes = 8 * self.p * self.m * self.n
        if nbytes > GAUSSIAN_FRAME_LIMIT_BYTES:
            raise ValueError(
                f"Gaussian frames for {self.m}x{self.n} at p={self.p} need "
                f"{nbytes} bytes, above the {GAUSSIAN_FRAME_LIMIT_BYTES}-byte limit")
        frames = _rng(self.seed).standard_normal((self.p, self.m * self.n))
        frames /= np.sqrt(self.p)
        frames.flags.writeable = False
        self.frames = frames

    def _apply_explicit(self, X):
        return self.frames @ X.ravel()

    def apply_combination(self, left, right, coeffs):
        # One pass over the frames: the m*n vector of the combination is
        # always smaller than the p*m*n frames it is contracted with.
        return self.frames @ ((left * coeffs) @ right.T).ravel()

    def atom_columns(self, left, right, rows=slice(None), out=None):
        atoms = left[:, None, :] * right[None, :, :]
        return np.matmul(self.frames[rows], atoms.reshape(self.m * self.n, left.shape[1]),
                         out=out)

    def adjoint(self, y):
        y = self._check_vec(y)
        return (self.frames.T @ y).reshape(self.m, self.n)


def sample_indices_without_replacement(total, count, seed):
    """``count`` distinct integers from ``range(total)`` by a seeded
    partial Fisher-Yates shuffle over a virtual range (no length-``total``
    array is materialized).

    Step ``i`` swaps position ``i`` with a uniform position ``j_i`` in
    ``[i, total)``.  All targets are drawn in one call, which gives the
    same stream as drawing them one step at a time.  Step ``i`` outputs
    what the last earlier step ``k`` with target ``j_i`` moved there, or
    ``j_i``; step ``k`` moved what position ``k`` held just before step
    ``k``.  One sort of the steps by ``(target, step)`` gives both kinds
    of predecessor, so no step is replayed one at a time, and the rest is
    linear.  A step never targets a position below its own index, so
    position ``t < count`` was last moved to by the last step ``l != t``
    of target group ``t``, and held what ``l`` held; pointer jumping over
    those chained positions alone finds what each one held.
    """
    if not 0 <= count <= total:
        raise ValueError("need 0 <= count <= total")
    if total * count >= 2**63:
        raise ValueError(f"cannot sample {count} of {total}: total*count overflows int64")
    targets = _rng(seed).integers(np.arange(count), total)
    keys = targets * count + np.arange(count)
    keys.sort()
    target, step = np.divmod(keys, count)  # in (target, step) order
    # a step on its own position moves nothing
    moved = (target < count) & (step != target)
    into, source = target[moved], step[moved]
    last = np.diff(into, append=-1) != 0
    chained, source = into[last], source[last]
    held = np.arange(count)
    held[chained] = source
    while not np.array_equal(up := held[source], source):
        held[chained] = source = up
    repeat = np.flatnonzero(target[1:] == target[:-1]) + 1
    targets[step[repeat]] = held[step[repeat - 1]]  # the rest output j_i
    return targets


class SamplingOperator(MeasurementOperator):
    """Entry sampling: measurement k reads the matrix entry at
    ``(rows[k], cols[k])``.  Index pairs are distinct.

    The row-major order of the samples is computed once, at
    construction, by one sort of the packed keys ``entry * p + sample``
    (an argsort of the entries when ``m * n * p`` reaches 2**63); it
    serves the distinctness check and gives the adjoint its CSR layout,
    so :meth:`adjoint` only permutes its input.  The forward map of a
    dense matrix is one gather at the flat entry indices.
    """

    def __init__(self, m, n, rows, cols):
        self.m, self.n = int(m), int(n)
        if min(self.m, self.n) < 0:
            raise ValueError(f"matrix sizes must be nonnegative, got {self.m}x{self.n}")
        nbytes = 8 * (self.m + 1)
        if nbytes > ROW_POINTER_LIMIT_BYTES:
            raise ValueError(
                f"the row pointer for {self.m} rows needs {nbytes} bytes, "
                f"above the {ROW_POINTER_LIMIT_BYTES}-byte limit")
        if self.m * self.n >= 2**63:
            raise ValueError(f"a {self.m}x{self.n} matrix has 2**63 or more entries, "
                             "beyond the int64 flat index")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if rows.size != cols.size:
            raise ValueError("rows and cols must have equal length")
        if rows.size > self.m * self.n:
            raise ValueError("more samples than matrix entries")
        if rows.size and (rows.min() < 0 or rows.max() >= self.m
                          or cols.min() < 0 or cols.max() >= self.n):
            raise ValueError("sample index out of range")
        self.p = p = rows.size
        flat = rows * self.n + cols
        if self.m * self.n * p < 2**63:
            # the packed keys are distinct, so their order is argsort's
            flat *= p
            flat += np.arange(p)
            flat.sort()
            flat, order = np.divmod(flat, p)
        else:
            # keys are distinct (or refused below): any sort gives the same order
            order = np.argsort(flat)
            flat = flat[order]
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("sample indices must be distinct")
        # CSR arrays in the index dtype scipy itself would choose
        index_dtype = (np.int32 if max(self.m, self.n, self.p) <= np.iinfo(np.int32).max
                       else np.int64)
        indptr = np.zeros(self.m + 1, dtype=index_dtype)
        np.cumsum(np.bincount(rows, minlength=self.m), out=indptr[1:])
        indices = cols[order].astype(index_dtype)
        for a in (rows, cols, order, indices, indptr):
            a.flags.writeable = False
        self.rows, self.cols = rows, cols
        self._order, self._indices, self._indptr = order, indices, indptr

    @classmethod
    def random(cls, m, n, p, seed=0):
        """Uniform sampling of ``p`` distinct entries."""
        flat = sample_indices_without_replacement(m * n, p, seed)
        return cls(m, n, *np.divmod(flat, n))

    @classmethod
    def identity(cls, m, n):
        """All entries in row-major order: the vectorization map, an
        exact isometry with ``A* A = id``."""
        flat = np.arange(m * n, dtype=np.int64)
        return cls(m, n, flat // n, flat % n)

    def _apply_explicit(self, X):
        # one flat gather; take reads X in row-major order whatever its layout
        return X.take(self.rows * self.n + self.cols)

    def apply_combination(self, left, right, coeffs):
        # Adding the columns in order to zero is several times faster
        # than sum(axis=1) along the short axis, and gives the same bits
        # below 8 terms, where numpy's sum also adds in order from zero.
        # Each entry's sum is the same whatever the block size.
        scaled = left * coeffs
        out = np.zeros(self.p)
        buffer = np.empty((min(BLOCK_ROWS, self.p), left.shape[1]))
        for start in range(0, self.p, BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, self.p))
            columns = self.atom_columns(scaled, right, rows, buffer[:rows.stop - start])
            block = out[rows]
            for k in range(columns.shape[1]):
                block += columns[:, k]
        return out

    def atom_columns(self, left, right, rows=slice(None), out=None):
        if left.shape[0] != self.m or right.shape[0] != self.n:
            raise ValueError("operator/matrix shape mismatch")
        # np.take gathers rows several times faster than fancy indexing;
        # "clip" skips the temporary that mode="raise" copies into ``out``
        # (the indices were checked at construction, so nothing clips).
        columns = np.take(left, self.rows[rows], axis=0, out=out, mode="clip")
        columns *= np.take(right, self.cols[rows], axis=0)
        return columns

    def adjoint(self, y):
        y = self._check_vec(y)
        S = sp.csr_matrix((y[self._order], self._indices, self._indptr),
                          shape=self.shape)
        S.has_canonical_format = True
        return S


@dataclass(frozen=True)
class RipEstimate:
    """Monte Carlo lower bound on the rank-``r`` restricted isometry
    constant.  Sampling cannot certify the supremum, so ``delta_lower``
    underestimates the true constant."""

    r: int
    delta_lower: float
    trials: int
    seed: int


def _next_orthonormal(rng, basis):
    # Draw a random direction and orthogonalize it against the rows of
    # `basis`; the draw order is rank-by-rank, so chains with different
    # maximum ranks share their leading samples.
    w = _reorthogonalize(rng.standard_normal(basis.shape[1]), basis)
    return w / np.linalg.norm(w)


def _nested_deviations(op, r_max, trials, seed):
    """For each trial, |‖A X_s‖² − 1| for a nested chain of unit-norm
    rank-s samples, s = 1..r_max.  Returns a (trials, r_max) array."""
    dev = np.zeros((trials, r_max))
    for t in range(trials):
        rng = _rng(seed, t)
        Qu = np.zeros((r_max, op.m))
        Qv = np.zeros((r_max, op.n))
        c = np.zeros(r_max)
        meas = np.zeros(op.p)
        for s in range(r_max):
            Qu[s] = _next_orthonormal(rng, Qu[:s])
            Qv[s] = _next_orthonormal(rng, Qv[:s])
            c[s] = rng.standard_normal()
            meas += c[s] * op.apply_rank_one(Qu[s], Qv[s])
            nrm = np.linalg.norm(c[: s + 1])
            dev[t, s] = abs(np.sum((meas / nrm) ** 2) - 1.0)
    return dev


def estimate_delta_profile(op, r_max, trials, seed=0):
    """Monte Carlo lower bounds on the restricted isometry constant for
    every rank 1..r_max.

    Each trial draws a nested chain of random unit-Frobenius samples of
    ranks 1..r_max (rank s extends rank s-1 by one orthogonal triplet),
    and the rank-r bound is the largest deviation |‖A X‖² − 1| seen at
    any rank up to r, so the bounds are nondecreasing in r.
    """
    if r_max < 1 or trials < 1:
        raise ValueError("need r_max >= 1 and trials >= 1")
    dev = _nested_deviations(op, r_max, trials, seed)
    running = np.maximum.accumulate(dev.max(axis=0))
    return [RipEstimate(r + 1, float(running[r]), trials, seed)
            for r in range(r_max)]
