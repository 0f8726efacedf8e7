"""Dense and factored-form linear algebra: full/truncated SVD, rank truncation.

Low-rank iterates are kept as lists of weighted rank-one terms
(sigma, u, v) instead of dense matrices.  The routines here convert
between the two representations, compute leading singular triplets of
large sparse or dense matrices by Golub-Kahan-Lanczos
bidiagonalization (until they converge or fall below a caller's floor),
and re-orthonormalize factored matrices without forming the dense product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# Singular values below RANK_TOL * sigma_1 count as numerically zero.
RANK_TOL = 1e-12
UNIT_TOL = 1e-10
ORTHO_TOL = 1e-8
# Truncated SVDs with min(m, n) above this, or above LANCZOS_BLOCK_RATIO
# times _lanczos_block(k), take Lanczos; below, LAPACK's full SVD is faster.
DENSE_FALLBACK_DIM = 400
LANCZOS_BLOCK_RATIO = 6
# Floored truncated SVDs with min(m, n) up to this try _gram_svd first.
GRAM_MAX_DIM = 128
GRAM_MAX_RATIO = 1e3
# Relative residual at which a Lanczos Ritz triplet counts as converged.
LANCZOS_TOL = 1e-10
SVD_MODES = ("auto", "dense", "lanczos")


class LanczosConvergenceError(RuntimeError):
    """Raised when the iterative SVD stalls before reaching the tolerance.

    Attributes
    ----------
    converged : int
        Number of triplets that converged or settled below the floor.
    requested : int
        Number of triplets that were asked for.
    steps : int
        Lanczos steps taken, i.e. the Krylov dimension reached.
    """

    def __init__(self, converged, requested, steps):
        self.converged = converged
        self.requested = requested
        self.steps = steps
        super().__init__(
            f"iterative SVD: {converged}/{requested} triplets converged "
            f"in a Krylov space of dimension {steps}"
        )


def check_dense(X, name="matrix"):
    """Validate and return a 2-D float64 array with finite entries."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return X


def _norm(v, out=None):
    # The 2-norm by numpy's pairwise sum, whose bits, unlike np.linalg.norm's
    # BLAS dot, do not depend on the thread count.  ``out=v`` squares in place.
    return float(np.sqrt(np.sum(np.multiply(v, v, out=out))))


def _check_unit_columns(*factors):
    """Raise ``ValueError`` unless every factor is finite with unit-norm columns."""
    for B in factors:
        if B.size and not np.all(np.isfinite(B)):
            raise ValueError("factors contain NaN or Inf")
        if B.shape[1] and np.max(np.abs(np.linalg.norm(B, axis=0) - 1.0)) > UNIT_TOL:
            raise ValueError("factor columns must have unit norm")


def is_orthonormal(B):
    """Whether the columns of ``B`` are orthonormal to within ``ORTHO_TOL``."""
    return bool(np.max(np.abs(B.T @ B - np.eye(B.shape[1])), initial=0.0) <= ORTHO_TOL)


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FactoredMatrix:
    """A sum of weighted rank-one terms ``sum_k sigmas[k] * left[:,k] right[:,k]^T``.

    ``left`` is m-by-k and ``right`` is n-by-k with unit-norm columns;
    ``sigmas`` is nonnegative and sorted nonincreasing.  ``orthonormal``
    says whether the columns of ``left`` (and of ``right``) are mutually
    orthogonal to within ``ORTHO_TOL``, i.e. the triplets are singular
    triplets; it is worked out from the factors on first use.
    """

    shape: tuple[int, int]
    sigmas: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        m, n = self.shape
        sig = np.atleast_1d(np.asarray(self.sigmas, dtype=np.float64))
        L = np.asarray(self.left, dtype=np.float64)
        R = np.asarray(self.right, dtype=np.float64)
        if not np.all(np.isfinite(sig)) or np.any(sig < 0):
            raise ValueError("sigmas must be finite and nonnegative")
        if np.any(sig[:-1] < sig[1:]):
            raise ValueError("sigmas must be sorted nonincreasing")
        if L.shape != (m, sig.size) or R.shape != (n, sig.size):
            raise ValueError("factor shape mismatch")
        _check_unit_columns(L, R)
        object.__setattr__(self, "sigmas", _readonly(sig))
        object.__setattr__(self, "left", _readonly(L))
        object.__setattr__(self, "right", _readonly(R))

    @classmethod
    def zero(cls, m, n):
        """The zero matrix: an empty list of rank-one terms."""
        return cls((m, n), np.zeros(0), np.zeros((m, 0)), np.zeros((n, 0)))

    @cached_property
    def orthonormal(self):
        """Whether both factors have orthonormal columns (``is_orthonormal``)."""
        return is_orthonormal(self.left) and is_orthonormal(self.right)

    @property
    def k(self):
        """Number of stored rank-one terms."""
        return self.sigmas.size

    def densify(self):
        """Materialize the dense m-by-n array."""
        m, n = self.shape
        if self.k == 0:
            return np.zeros((m, n))
        return (self.left * self.sigmas) @ self.right.T

    def atoms(self):
        """The rank-one directions as an :class:`AtomSet` (weights dropped)."""
        return AtomSet(self.left, self.right)


@dataclass(frozen=True)
class AtomSet:
    """An ordered set of unit-norm rank-one directions ``left[:,k] right[:,k]^T``."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.left, dtype=np.float64)
        R = np.asarray(self.right, dtype=np.float64)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[1]:
            raise ValueError("atom factors must be 2-D with matching counts")
        _check_unit_columns(L, R)
        object.__setattr__(self, "left", _readonly(L))
        object.__setattr__(self, "right", _readonly(R))

    @classmethod
    def empty(cls, m, n):
        return cls(np.zeros((m, 0)), np.zeros((n, 0)))

    @property
    def size(self):
        return self.left.shape[1]

    def merge(self, other):
        """Concatenate two atom sets (duplicates are kept)."""
        return AtomSet(np.hstack([self.left, other.left]),
                       np.hstack([self.right, other.right]))


def _svd_result(shape, s, U, V, r):
    # The one exit of every SVD routine: keep the r leading triplets, flip
    # each pair in place so that the largest-magnitude entry of its left
    # vector is positive, and refuse factors that are not orthonormal.
    U, V = U[:, :r], V[:, :r]
    for j in range(r):
        if U[np.argmax(np.abs(U[:, j])), j] < 0:
            U[:, j], V[:, j] = -U[:, j], -V[:, j]
    F = FactoredMatrix(shape, s[:r], U, V)
    if not F.orthonormal:
        raise ValueError("factors are not orthonormal")
    return F


def _dense_svd(M, leading):
    # LAPACK's thin SVD of a dense matrix, cut to its ``leading(s)``
    # leading triplets before the sign fix and the checks.
    M = check_dense(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return _svd_result(M.shape, s, U, Vt.T, leading(s))


def full_svd(M):
    """Full singular value decomposition of a dense matrix.

    Returns an orthonormal :class:`FactoredMatrix` with min(m, n)
    triplets (zero singular values included), sigmas nonincreasing.
    """
    return _dense_svd(M, len)


def _numerical_rank(s):
    # The count of sorted singular values above RANK_TOL * s[0].
    return int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0


def truncated_svd(M, k, mode="auto", seed=0, floor=0.0):
    """Leading singular triplets of ``M``: the ``k`` leading ones, or with
    ``floor > 0`` every one above ``floor``.

    Parameters
    ----------
    M : ndarray or scipy sparse matrix
    k : int
        At least 1.  Without a floor, the number of triplets requested
        (fewer if the numerical rank is lower); with ``floor > 0``, only
        the number the search starts from.
    mode : {"auto", "dense", "lanczos"}
        "auto" takes the min-side Gram matrix's eigenpairs above
        ``floor**2`` if ``floor > 0``, min(m, n) <= ``GRAM_MAX_DIM`` and
        sigma_1 <= ``GRAM_MAX_RATIO * floor``, else the dense path or
        Lanczos by the rule at ``DENSE_FALLBACK_DIM``.  Lanczos converges
        each Ritz triplet to a relative residual of ``LANCZOS_TOL``, on the
        check schedule ``_lanczos_svd`` states.  The explicit modes force
        one of the last two.  The dense path takes LAPACK's full SVD but
        sign-fixes and validates only its triplets.
    seed : int
        Seed for the Lanczos start vector (results are deterministic).
    floor : float
        If positive, every triplet above ``floor`` is returned and no other.
        Lanczos stops refining a triplet once its Ritz value plus ten times
        its residual bound is at or below ``floor``.  That margin bounds
        the distance to the nearest singular value, not to a larger one the
        Krylov space has not yet resolved: when two singular values
        straddle the floor within a relative gap of about 2e-4, Lanczos
        can return the lower one's Ritz value as settled and miss the upper
        one (3 of 1,000 seeded cases of such a pair over a bulk).  The Gram
        and dense routes are exact.

    Raises
    ------
    LanczosConvergenceError
        If the iterative path exhausts its step budget; the exception
        carries the number of triplets that settled and the steps taken.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    shape = M.shape
    if mode not in SVD_MODES:
        raise ValueError(f"unknown svd mode: {mode!r}")
    if mode == "auto" and floor > 0 and min(shape) <= GRAM_MAX_DIM:
        F = _gram_svd(check_dense(M.toarray() if sp.issparse(M) else M), floor)
        if F is not None:
            return F
    if mode == "auto":
        dense_up_to = min(DENSE_FALLBACK_DIM, LANCZOS_BLOCK_RATIO * _lanczos_block(k))
        mode = "lanczos" if min(shape) > dense_up_to else "dense"

    def leading(s):
        # the k leading values or every one above the floor, up to the rank
        return min(int(np.count_nonzero(s > floor)) if floor > 0 else k, _numerical_rank(s))

    if mode == "dense":
        return _dense_svd(M.toarray() if sp.issparse(M) else M, leading)

    matvec, rmatvec = M.__matmul__, M.T.__matmul__
    m, n = shape
    if m < n:
        # Orient the recurrence so the right-vector side is the short
        # one: exhausting it then genuinely determines the matrix.
        s, V, U = _lanczos_svd(rmatvec, matvec, (n, m), min(k, m), floor, seed)
    else:
        s, U, V = _lanczos_svd(matvec, rmatvec, shape, min(k, n), floor, seed)
    return _svd_result(shape, s, U, V, leading(s))


def _gram_svd(M, floor):
    # Every triplet above floor from the eigenpairs (lam, z) above floor**2 of
    # G = T^T T, T = M or M^T with the short side last: sigma = sqrt(lam) and
    # the other side T z normalized.  Eigenpair residuals c eps sigma_1**2 put
    # its inner products z_i^T G z_j / (sigma_i sigma_j) at delta_ij + O(eps
    # (sigma_1 / floor)**2): at most eps 1e6 ~ 2.2e-10 < ORTHO_TOL when sigma_1
    # <= GRAM_MAX_RATIO floor = 1e3 floor, else None is returned.
    T = M if M.shape[0] >= M.shape[1] else M.T
    lam, Z = scipy.linalg.eigh(T.T @ T, subset_by_value=(floor**2, np.inf),
                               driver="evr", check_finite=False)
    if lam.size and lam[-1] > (GRAM_MAX_RATIO * floor)**2:
        return None
    s = np.sqrt(lam[::-1])
    q = int(np.count_nonzero(s > floor))
    Z = Z[:, ::-1][:, :q]
    W = T @ Z
    W /= np.linalg.norm(W, axis=0)
    return _svd_result(M.shape, s, *((W, Z) if T is M else (Z, W)), q)


def _reorthogonalize(w, basis):
    # Classical Gram-Schmidt against the rows of ``basis``.  A second pass
    # runs only if the first cut ||w|| below 1/sqrt(2) of what it was
    # (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976): only then can
    # rounding have left w measurably out of the orthogonal complement.
    before = w @ w
    w -= basis.T @ (basis @ w)
    if 2 * (w @ w) < before:
        w -= basis.T @ (basis @ w)
    return w


def _grown(basis, rows):
    # ``basis`` copied into an array of ``rows`` rows; the new rows are unset.
    out = np.empty((rows, basis.shape[1]))
    out[:basis.shape[0]] = basis
    return out


def _lanczos_block(k):
    # An unfloored Lanczos call's steps before its first Ritz check; the
    # routing rule and the step budget scale with it.
    return max(2 * k + 10, 16)


def _lanczos_svd(matvec, rmatvec, shape, k, floor, seed):
    """Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization.

    ``matvec`` and ``rmatvec`` multiply by the matrix and its transpose.
    Checks the Ritz residuals (trailing-beta bound) and stops once each
    of the ``k`` leading triplets has a residual within ``LANCZOS_TOL`` of
    the top Ritz value, or a Ritz value plus ten residuals at most
    ``floor``; while the k-th is above a positive ``floor``, k grows by
    five and the recurrence goes on.  The first check comes after k + 2
    steps with ``floor > 0`` (a floor can settle a Ritz value early) and
    after the block (``_lanczos_block``) without; from a check at step j
    the next comes max(1, j // 8) steps later, so the checks' O(j^3) core
    SVDs stay a fixed share of the steps' cost.  The budget is block *
    (10k + 1) steps, capped at min(m, n).  Once the Krylov space is
    complete (an exact breakdown, i.e. a zero recurrence norm, or min(m, n)
    steps), every Ritz triplet is exact and all are returned.

    The Lanczos vectors are stored one per row, in arrays sized for the
    first check and doubled when a later one needs more, so a call writes
    only the memory of the steps it takes.  Each new vector is
    orthogonalized by one classical Gram-Schmidt pass, and by a second
    only when the DGKS test asks for it (``_reorthogonalize``).
    """
    m, n = shape
    minmn = min(m, n)
    rng = np.random.default_rng(seed)
    budget = min(minmn, _lanczos_block(k) * (10 * k + 1))
    target = min(budget, k + 2 if floor > 0 else _lanczos_block(k))
    U = np.empty((target, m))
    V = np.empty((target, n))
    alphas, betas = [], []  # betas[j] couples v_{j+1} to u_j

    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    j = 0
    exhausted, extra = False, 0
    amax = 0.0  # running max of alphas[:j + 1]

    while True:
        if target > U.shape[0]:
            rows = min(minmn, max(2 * U.shape[0], target))
            U, V = _grown(U, rows), _grown(V, rows)
        while j < target and not exhausted:
            V[j] = v
            w = matvec(v)
            if j > 0:
                w -= betas[j - 1] * U[j - 1]
            w = _reorthogonalize(w, U[:j])
            alpha = np.sqrt(w @ w)
            alphas.append(alpha)
            amax = max(amax, alpha)
            if alpha <= max(m, n) * 1e-15 * (amax + 1e-300):
                exhausted, extra = True, 1
                break
            np.divide(w, alpha, out=U[j])
            w = rmatvec(U[j]) - alpha * v
            w = _reorthogonalize(w, V[:j + 1])
            beta = np.sqrt(w @ w)
            betas.append(beta)
            j += 1
            if beta <= max(m, n) * 1e-15 * amax:
                exhausted = True
                break
            v = w / beta

        # Ritz triplets of the upper bidiagonal core B = U_j^T A V_cols:
        # A V_j = U_j B holds exactly, A^T U_j = V_j B^T + beta_j v_{j+1} e_j^T.
        # A zero alpha makes span(V_{j+1}) invariant, so B keeps v_j's column.
        cols = j + extra
        B = np.zeros((j, cols))
        np.fill_diagonal(B, alphas[:j])
        np.fill_diagonal(B[:, 1:], betas[:cols - 1])
        P, s, Qt = np.linalg.svd(B)
        if exhausted or j == minmn:
            # The Krylov space is complete and every Ritz triplet exact; more
            # than k of them may lie above the floor, so all are returned.
            return s, U[:j].T @ P, V[:cols].T @ Qt[:j].T
        # || A^T x_i - s_i y_i || = beta_j * |P[j-1, i]|
        resid = betas[j - 1] * np.abs(P[j - 1, :k])
        scale = s[0] if s[0] > 0 else 1.0
        # Triplets at numerical-zero level need no further accuracy.  One
        # settles under the floor with a tenfold residual margin: a Ritz
        # value atop a dense cluster can mask a larger value not yet found.
        settled = int(np.sum((resid <= LANCZOS_TOL * scale)
                             | (s[:k] + 10 * resid <= floor)
                             | (s[:k] <= RANK_TOL * scale)))
        if settled == k:
            if not 0 < floor < s[k - 1]:
                return s[:k], U[:j].T @ P[:, :k], V[:cols].T @ Qt[:k].T
            # All k settled above the floor, so more may lie above it:
            # extend the same recurrence to five more triplets.
            k = min(k + 5, minmn)
            budget = min(minmn, _lanczos_block(k) * (10 * k + 1))
        elif j == budget:
            raise LanczosConvergenceError(settled, k, j)
        target = min(budget, j + max(1, j // 8))


def svd_of_factored(X):
    """Re-orthonormalize a factored matrix into its SVD.

    QR-factorizes both factors, takes the SVD of the small k-by-k core,
    and recombines, at cost O((m + n + k) k^2).  The dense product is
    never formed.  Numerically zero singular values are dropped, so the
    zero matrix comes back with no triplets.
    """
    Qu, Ru = np.linalg.qr(X.left)
    Qv, Rv = np.linalg.qr(X.right)
    core = (Ru * X.sigmas) @ Rv.T
    W, s, Zt = np.linalg.svd(core, full_matrices=False)
    r = _numerical_rank(s)
    return _svd_result(X.shape, s, Qu @ W[:, :r], Qv @ Zt.T.copy()[:, :r], r)


def best_rank_r(X, r):
    """Best rank-``r`` approximation of a factored matrix.

    Keeps the ``r`` leading singular triplets (orthonormalizing first if
    needed).  ``r = 0`` gives the zero matrix; ``r`` beyond the stored
    rank returns the input unchanged.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not X.orthonormal:
        X = svd_of_factored(X)
    if r >= X.k:
        return X
    return FactoredMatrix(X.shape, X.sigmas[:r], X.left[:, :r], X.right[:, :r])
