"""The "qr" least-squares fit (pivoted QR's R from the Gram matrix, one
refinement step) against a Householder-QR oracle, its drop rule on
dependent atoms, its sums over row blocks, and agreement of all methods
on random spans."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import admira.solver as solver_mod
from admira import operators
from admira.bench import ProblemSpec, generate_problem
from admira.linalg import AtomSet
from admira.operators import GaussianOperator, SamplingOperator
from admira.solver import SolverConfig, _solve_qr, admira_solve, least_squares_on_span

from oracles import normal_equations_lsq, pivoted_qr_lsq


def unit_atoms(rng, m, n, k):
    U = rng.standard_normal((m, k))
    V = rng.standard_normal((n, k))
    return AtomSet(U / np.linalg.norm(U, axis=0), V / np.linalg.norm(V, axis=0))


def assert_fits_agree(C, b, alpha, expected):
    assert np.linalg.norm(C @ alpha - C @ expected) <= 1e-10 * np.linalg.norm(b)


def solve_plain(C, b):
    """The fit on an explicit column matrix, handed over by row blocks
    (one block, unless the block size is patched smaller)."""
    return _solve_qr(lambda rows, out: C[rows], b, C.shape[1])


class TestAgainstHouseholderOracle:
    def test_admira_column_matrices(self, monkeypatch):
        # every column matrix one completion solve fits, including the
        # nearly dependent merged spans of its last iterations
        op, b, _, _ = generate_problem(ProblemSpec(120, 120, 2, "sampling", 5000, None,
                                                   seed=3))
        spans = []

        def recording(op_, b_, atoms, **kwargs):
            spans.append(atoms)
            return least_squares_on_span(op_, b_, atoms, **kwargs)

        monkeypatch.setattr(solver_mod, "least_squares_on_span", recording)
        report = admira_solve(op, b, SolverConfig(rank=2))
        assert report.stop_reason == "tol" and len(spans) == report.iterations
        for atoms in spans:
            C = op.atom_columns(atoms.left, atoms.right)
            assert_fits_agree(C, b, solve_plain(C, b), pivoted_qr_lsq(C, b))

    @pytest.mark.parametrize("p, K", [(500, 1), (500, 6), (2000, 12), (40, 30)])
    def test_random_gaussian_columns(self, p, K):
        rng = np.random.default_rng(p + K)
        for _ in range(5):
            C = rng.standard_normal((p, K)) * rng.uniform(0.1, 10.0, K)
            b = rng.standard_normal(p)
            assert_fits_agree(C, b, solve_plain(C, b), pivoted_qr_lsq(C, b))

    @pytest.mark.parametrize("cond", [1e2, 1e4, 1e5])
    def test_ill_conditioned_columns(self, cond):
        # the Gram matrix squares the condition number; without the
        # refinement step the fit at cond 1e5 is off by ~1e-8 ||b||
        rng = np.random.default_rng(7)
        U, _ = np.linalg.qr(rng.standard_normal((400, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        C = U @ np.diag(np.logspace(0, -np.log10(cond), 6)) @ V.T
        b = rng.standard_normal(400)
        assert_fits_agree(C, b, solve_plain(C, b), pivoted_qr_lsq(C, b))


class TestEdgeCases:
    def test_single_column(self):
        rng = np.random.default_rng(1)
        c, b = rng.standard_normal(300), rng.standard_normal(300)
        alpha = solve_plain(c[:, None], b)
        assert alpha[0] == pytest.approx((c @ b) / (c @ c), rel=1e-14)

    def test_unsampled_atoms_give_zero(self):
        # every sample lies in rows 0..4; atoms living on rows 5..9
        # measure as zero columns and get zero weight
        rows, cols = np.divmod(np.arange(50), 10)
        op = SamplingOperator(10, 10, rows, cols)
        left = np.zeros((10, 3))
        left[5:] = np.random.default_rng(2).standard_normal((5, 3))
        atoms = AtomSet(left / np.linalg.norm(left, axis=0), np.ones((10, 3)) / np.sqrt(10))
        fit = least_squares_on_span(op, np.ones(50), atoms, method="qr")
        assert np.all(fit.sigmas == 0.0)
        assert np.all(solve_plain(np.zeros((50, 3)), np.ones(50)) == 0.0)

    @pytest.mark.parametrize("perturbation", [0.0, 1e-13])
    def test_repeated_atom_gets_zero_weight(self, perturbation):
        rng = np.random.default_rng(3)
        op = SamplingOperator.random(30, 25, 400, seed=4)
        atoms = unit_atoms(rng, 30, 25, 4)
        u = atoms.left[:, 2] + perturbation * rng.standard_normal(30)
        twin = AtomSet((u / np.linalg.norm(u))[:, None], atoms.right[:, 2:3])
        dup = atoms.merge(twin)
        b = rng.standard_normal(400)
        C = op.atom_columns(atoms.left, atoms.right)
        C_dup = op.atom_columns(dup.left, dup.right)
        alpha = solve_plain(C_dup, b)
        assert_fits_agree(C_dup, b, alpha, np.append(solve_plain(C, b), 0.0))
        assert np.count_nonzero(alpha[[2, 4]]) == 1
        assert np.count_nonzero(alpha) == 4

    def test_rank_deficient_span(self):
        # u1 v^T, u2 v^T and (u1 + u2) v^T measure to dependent columns
        rng = np.random.default_rng(5)
        op = GaussianOperator(9, 8, 120, seed=6)
        u1, u2, v = rng.standard_normal(9), rng.standard_normal(9), rng.standard_normal(8)
        w = rng.standard_normal((9, 2))
        left = np.column_stack([u1, u2, u1 + u2, w])
        right = np.column_stack([v, v, v, rng.standard_normal((8, 2))])
        C = op.atom_columns(left, right)
        b = rng.standard_normal(120)
        alpha = solve_plain(C, b)
        assert np.count_nonzero(alpha) == 4
        assert_fits_agree(C, b, alpha, normal_equations_lsq(C, b))
        assert_fits_agree(C, b, alpha, pivoted_qr_lsq(C, b))


class TestRowBlocks:
    """The Gram matrix and both right-hand sides summed over blocks of 7
    rows, the last one partial."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(operators, "BLOCK_ROWS", 7)

    @pytest.mark.parametrize("op", [SamplingOperator.random(20, 15, 200, seed=9),
                                    GaussianOperator(8, 7, 200, seed=9)],
                             ids=["sampling", "gaussian"])
    def test_fit_spans_blocks(self, op):
        rng = np.random.default_rng(8)
        atoms = unit_atoms(rng, *op.shape, 5)
        b = rng.standard_normal(200)
        filled = []

        def columns(rows, out):
            filled.append(rows)
            return op.atom_columns(atoms.left, atoms.right, rows, out)

        C = op.atom_columns(atoms.left, atoms.right)
        alpha = _solve_qr(columns, b, 5)
        assert_fits_agree(C, b, alpha, pivoted_qr_lsq(C, b))
        # 28 full blocks and one of 4 rows; the second pass reuses the last
        assert filled[:29] == [slice(s, min(s + 7, 200)) for s in range(0, 200, 7)]
        assert len(filled) == 29 + 28
        fit = op.apply(least_squares_on_span(op, b, atoms))
        np.testing.assert_allclose(fit, C @ pivoted_qr_lsq(C, b),
                                   atol=1e-10 * np.linalg.norm(b))

    @pytest.mark.parametrize("cond", [1.0, 1e5])
    def test_plain_columns_against_oracle(self, cond):
        rng = np.random.default_rng(11)
        U, _ = np.linalg.qr(rng.standard_normal((250, 6)))
        V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        C = U @ np.diag(np.logspace(0, -np.log10(cond), 6)) @ V.T
        b = rng.standard_normal(250)
        assert_fits_agree(C, b, solve_plain(C, b), pivoted_qr_lsq(C, b))

    def test_completion_solve_unchanged(self, monkeypatch):
        op, b, X0, _ = generate_problem(ProblemSpec(60, 60, 2, "sampling", 1500, None,
                                                    seed=12))
        blocked = admira_solve(op, b, SolverConfig(rank=2), ground_truth=X0)
        monkeypatch.setattr(operators, "BLOCK_ROWS", 8192)
        whole = admira_solve(op, b, SolverConfig(rank=2), ground_truth=X0)
        assert (blocked.iterations, blocked.stop_reason) == (whole.iterations,
                                                             whole.stop_reason)
        np.testing.assert_allclose(blocked.residual_trace, whole.residual_trace,
                                   rtol=0, atol=1e-8)


def test_no_column_matrix_is_allocated():
    # p = 10^6 measurements of 6 atoms: the column matrix alone would
    # take 48 MB
    flat = np.arange(0, 2 * 10**6, 2)
    op = SamplingOperator(2000, 1000, flat // 1000, flat % 1000)
    rng = np.random.default_rng(13)
    atoms = unit_atoms(rng, 2000, 1000, 6)
    b = rng.standard_normal(op.p)
    tracemalloc.start()
    try:
        least_squares_on_span(op, b, atoms)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 12), n=st.integers(4, 12),
       K=st.integers(1, 8), sampling=st.booleans())
# b nearly orthogonal to the one column: ||C^T b|| = 2.6e-6, so a CG target
# of 1e-12 ||C^T b|| lay below the rounding floor of C^T r
@example(seed=297, m=4, n=4, K=1, sampling=True)
def test_methods_agree_on_well_conditioned_spans(seed, m, n, K, sampling):
    rng = np.random.default_rng(seed)
    p = 6 * m * n // 10 if sampling else 3 * m * n
    op = (SamplingOperator.random(m, n, p, seed=seed) if sampling
          else GaussianOperator(m, n, p, seed=seed))
    atoms = unit_atoms(rng, m, n, K)
    C = op.atom_columns(atoms.left, atoms.right)
    singular = np.linalg.svd(C, compute_uv=False)
    assume(singular[-1] > 1e-3 * singular[0])
    b = rng.standard_normal(p)
    expected = C @ normal_equations_lsq(C, b)
    for method in ("qr", "cg"):
        fit = op.apply(least_squares_on_span(op, b, atoms, method=method))
        np.testing.assert_allclose(fit, expected, atol=1e-8 * np.linalg.norm(b))
