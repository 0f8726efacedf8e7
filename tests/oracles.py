"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written from first principles, without
calling into the package under test: a one-sided Jacobi SVD,
normal-equations and Householder-QR least-squares solvers, an
alternating power-method search for the extreme rank-one measurement
gains, a step-by-step partial Fisher-Yates shuffle, and writers of the
plain-text file formats that format one value per ``%`` call.
"""

import numpy as np
import scipy.linalg


def jacobi_svd(A, tol=1e-14, max_sweeps=60):
    """One-sided Jacobi SVD: returns (U, s, V) with A = U diag(s) V^T.

    Rotates column pairs of a working copy until all pairs are
    orthogonal, accumulating the rotations in V.  Singular values come
    out as column norms, sorted nonincreasing.
    """
    A = np.array(A, dtype=np.float64)
    m, n = A.shape
    if m < n:
        U, s, V = jacobi_svd(A.T, tol=tol, max_sweeps=max_sweeps)
        return V, s, U
    G = A.copy()
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for q in range(1, n):
            for p_ in range(q):
                app = G[:, p_] @ G[:, p_]
                aqq = G[:, q] @ G[:, q]
                apq = G[:, p_] @ G[:, q]
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                off = max(off, abs(apq))
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s_ = c * t
                Gp = G[:, p_].copy()
                G[:, p_] = c * Gp - s_ * G[:, q]
                G[:, q] = s_ * Gp + c * G[:, q]
                Vp = V[:, p_].copy()
                V[:, p_] = c * Vp - s_ * V[:, q]
                V[:, q] = s_ * Vp + c * V[:, q]
        if off == 0.0:
            break
    s = np.linalg.norm(G, axis=0)
    order = np.argsort(-s)
    s = s[order]
    G = G[:, order]
    V = V[:, order]
    U = np.zeros((m, n))
    for j in range(n):
        if s[j] > 0:
            U[:, j] = G[:, j] / s[j]
    return U, s, V


def normal_equations_lsq(C, b):
    """Minimum-norm least squares through the pseudo-inverse of C^T C."""
    G = C.T @ C
    return np.linalg.pinv(G, rcond=1e-12) @ (C.T @ b)


def pivoted_qr_lsq(C, b, drop_tol=1e-10):
    """Least squares by a rank-revealing Householder QR with an explicit
    Q: columns whose pivot falls below ``drop_tol`` times the largest
    column norm get zero weight."""
    Q, R, piv = scipy.linalg.qr(C, mode="economic", pivoting=True)
    col_scale = np.max(np.linalg.norm(C, axis=0)) if C.size else 0.0
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > drop_tol * col_scale)) if col_scale > 0 else 0
    alpha = np.zeros(C.shape[1])
    if rank:
        z = scipy.linalg.solve_triangular(R[:rank, :rank], (Q.T @ b)[:rank])
        alpha[piv[:rank]] = z
    return alpha


def rank_one_gain_extremes(apply_rank_one, m, n, restarts=50, iters=200, seed=0):
    """Extremes of ||A(u v^T)||^2 over unit u, v by alternating power
    iterations with random restarts.

    For fixed v the gain is the quadratic form u^T H(v) u with
    H(v) = C(v)^T C(v), C(v)[k, :] the measurement gradients, so each
    half-step is an eigenvector problem solved exactly at these sizes.
    """
    rng = np.random.default_rng(seed)

    def gain_matrix_left(v):
        # H(v)[i, j] = sum_k A(e_i v^T)_k A(e_j v^T)_k
        C = np.column_stack([apply_rank_one(e, v) for e in np.eye(m)])
        return C.T @ C

    def gain_matrix_right(u):
        C = np.column_stack([apply_rank_one(u, e) for e in np.eye(n)])
        return C.T @ C

    best_max, best_min = -np.inf, np.inf
    for _ in range(restarts):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for mode in ("max", "min"):
            vv = v.copy()
            val = None
            for _ in range(iters):
                Hl = gain_matrix_left(vv)
                w, Q = np.linalg.eigh(Hl)
                u = Q[:, -1] if mode == "max" else Q[:, 0]
                Hr = gain_matrix_right(u)
                w, Q = np.linalg.eigh(Hr)
                vv = Q[:, -1] if mode == "max" else Q[:, 0]
                new_val = w[-1] if mode == "max" else w[0]
                if val is not None and abs(new_val - val) <= 1e-13 * max(1.0, abs(val)):
                    val = new_val
                    break
                val = new_val
            if mode == "max":
                best_max = max(best_max, val)
            else:
                best_min = min(best_min, val)
    return best_max, best_min


def fisher_yates_indices(total, count, seed):
    """``count`` distinct integers from ``range(total)``: a partial
    Fisher-Yates shuffle over a virtual range, one PCG64 draw per step
    from the generator keyed by ``(seed,)``, swaps kept in a dict."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    swapped = {}
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        j = int(rng.integers(i, total))
        out[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    return out


def write_dense_matrix_per_value(path, X):
    """The dense-matrix file format, one ``%`` call per value."""
    m, n = X.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n}\n")
        for row in X:
            fh.write(" ".join("%.17g" % v for v in row) + "\n")


def write_factored_matrix_per_value(path, F):
    """The factored-matrix file format, one ``%`` call per value."""
    m, n = F.shape
    with open(path, "w") as fh:
        fh.write(f"{m} {n} {F.k}\n")
        for j in range(F.k):
            fh.write("%.17g" % F.sigmas[j] + "\n")
            fh.write(" ".join("%.17g" % v for v in F.left[:, j]) + "\n")
            fh.write(" ".join("%.17g" % v for v in F.right[:, j]) + "\n")


def write_sampling_operator_per_pair(path, op):
    """The sampling-operator file format, one line per index pair."""
    with open(path, "w") as fh:
        fh.write(f"{op.m} {op.n} {op.p}\n")
        for i, j in zip(op.rows, op.cols):
            fh.write(f"{i + 1} {j + 1}\n")


def write_vector_per_value(path, y):
    """The vector file format, one ``%`` call per value."""
    with open(path, "w") as fh:
        for v in np.asarray(y, dtype=np.float64).ravel():
            fh.write("%.17g" % v + "\n")
