import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from admira import operators
from admira.linalg import FactoredMatrix
from admira.operators import (
    GAUSSIAN_FRAME_LIMIT_BYTES,
    GaussianOperator,
    SamplingOperator,
    estimate_delta_profile,
    sample_indices_without_replacement,
)

from oracles import fisher_yates_indices, rank_one_gain_extremes


def make_operator(kind, m, n, p, seed):
    if kind == "gaussian":
        return GaussianOperator(m, n, p, seed=seed)
    return SamplingOperator.random(m, n, p, seed=seed)


def unit_columns(rng, d, k):
    B = rng.standard_normal((d, k))
    return B / np.linalg.norm(B, axis=0)


def random_low_rank(rng, m, n, k):
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    s = np.sort(rng.uniform(0.5, 2.0, k))[::-1]
    return FactoredMatrix((m, n), s, U, V)


def drawn_operator(kind, m, n, fraction, seed):
    """An operator with about ``fraction`` of m*n measurements; a fraction
    of 1 gives p = m*n, which for entry sampling is the identity."""
    p = max(1, round(fraction * m * n))
    if kind == "sampling" and p == m * n:
        return SamplingOperator.identity(m, n)
    return make_operator(kind, m, n, p, seed)


operator_cases = given(m=st.integers(1, 10), n=st.integers(1, 10),
                       fraction=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))


def orientation_examples(test):
    # m < n, m > n and p = m*n, pinned
    for m, n, fraction in ((3, 8, 0.5), (8, 3, 0.5), (4, 6, 1.0)):
        test = example(m=m, n=n, fraction=fraction, seed=7)(test)
    return test


@pytest.fixture(params=["gaussian", "sampling"])
def operator(request):
    if request.param == "gaussian":
        return GaussianOperator(9, 7, 40, seed=5)
    return SamplingOperator.random(9, 7, 40, seed=5)


class TestApply:
    def test_sampling_identity_entries(self):
        op = SamplingOperator(2, 2, [0, 1], [0, 1])
        np.testing.assert_array_equal(op.apply(np.eye(2)), [1.0, 1.0])

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_sampling_gather_is_bitwise_fancy_indexing(self, layout):
        op = SamplingOperator.random(9, 7, 40, seed=5)
        X = np.random.default_rng(1).standard_normal((18, 21))
        X = {"C": X[:9, :7].copy(), "F": np.asfortranarray(X[:9, :7]),
             "sliced": X[::2, 1::3]}[layout]
        assert op.apply(X).tobytes() == X[op.rows, op.cols].tobytes()

    def test_zero_maps_to_zero(self, operator):
        np.testing.assert_array_equal(operator.apply(np.zeros((9, 7))),
                                      np.zeros(40))
        assert np.all(operator.apply(FactoredMatrix.zero(9, 7)) == 0.0)

    @pytest.mark.parametrize("kind", ["gaussian", "sampling"])
    @settings(max_examples=60, deadline=None)
    @orientation_examples
    @operator_cases
    def test_factored_matches_densified(self, kind, m, n, fraction, seed):
        op = drawn_operator(kind, m, n, fraction, seed)
        rng = np.random.default_rng(seed)
        F = random_low_rank(rng, m, n, int(rng.integers(0, min(m, n, 4) + 1)))
        dense_out = op.apply(F.densify())
        np.testing.assert_allclose(op.apply(F), dense_out, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(dense_out).max()))

    @pytest.mark.parametrize("kind", ["gaussian", "sampling"])
    @pytest.mark.parametrize("m, n", [(5, 8), (8, 5)])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_factored_with_signed_terms_matches_dense(self, kind, m, n, k):
        # non-orthonormal factors with some terms negated, as the
        # least-squares fit returns them, and the empty combination
        op = make_operator(kind, m, n, 30, seed=11)
        rng = np.random.default_rng(m * 10 + k)
        signs = np.where(rng.random(k) < 0.5, -1.0, 1.0)
        sigmas = np.sort(rng.uniform(0.1, 3.0, k))[::-1]
        left, right = unit_columns(rng, m, k), unit_columns(rng, n, k)
        F = FactoredMatrix((m, n), sigmas, left * signs, right)
        dense = F.densify()
        scale = max(1.0, np.abs(dense).max())
        np.testing.assert_allclose(op.apply(F), op.apply(dense), rtol=0,
                                   atol=1e-12 * scale)
        # the same terms as negative coefficients
        np.testing.assert_allclose(
            op.apply_combination(left, right, sigmas * signs),
            op.apply(dense), rtol=0, atol=1e-12 * scale)

    def test_linear(self, operator):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((2, 9, 7))
        np.testing.assert_allclose(operator.apply(2.0 * X - 3.0 * Y),
                                   2.0 * operator.apply(X) - 3.0 * operator.apply(Y),
                                   rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self, operator):
        with pytest.raises(ValueError):
            operator.apply(np.zeros((3, 3)))


class TestAtomColumns:
    @pytest.mark.parametrize("kind", ["gaussian", "sampling"])
    @pytest.mark.parametrize("m, n", [(5, 8), (8, 5)])
    def test_columns_are_rank_one_measurements(self, kind, m, n):
        op = make_operator(kind, m, n, 35, seed=3)
        rng = np.random.default_rng(m)
        left, right = rng.standard_normal((m, 6)), rng.standard_normal((n, 6))
        C = op.atom_columns(left, right)
        assert C.shape == (35, 6)
        for k in range(6):
            col = op.apply_rank_one(left[:, k], right[:, k])
            if kind == "sampling":
                np.testing.assert_array_equal(C[:, k], col)
            else:
                np.testing.assert_allclose(C[:, k], col, rtol=1e-12,
                                           atol=1e-12 * np.abs(col).max())

    @pytest.mark.parametrize("kind", ["gaussian", "sampling"])
    def test_row_block_fills_buffer(self, kind):
        op = make_operator(kind, 6, 7, 40, seed=4)
        rng = np.random.default_rng(5)
        left, right = rng.standard_normal((6, 3)), rng.standard_normal((7, 3))
        out = np.empty((13, 3))
        block = op.atom_columns(left, right, slice(27, 40), out)
        assert block is out
        np.testing.assert_allclose(block, op.atom_columns(left, right)[27:],
                                   rtol=1e-14, atol=0)

    def test_no_atoms(self, operator):
        C = operator.atom_columns(np.zeros((9, 0)), np.zeros((7, 0)))
        assert C.shape == (40, 0)

    def test_shape_mismatch_rejected(self, operator):
        with pytest.raises(ValueError):
            operator.atom_columns(np.ones((3, 2)), np.ones((7, 2)))


class TestSamplingCombination:
    """Adding the terms in order against numpy's row sum of the columns."""

    def setup_method(self):
        self.op = SamplingOperator.random(40, 30, 700, seed=8)
        self.rng = np.random.default_rng(9)

    def terms(self, K):
        return (self.rng.standard_normal((40, K)), self.rng.standard_normal((30, K)),
                self.rng.standard_normal(K))

    @pytest.mark.parametrize("K", range(8))
    def test_bitwise_equal_below_eight_terms(self, K):
        left, right, coeffs = self.terms(K)
        expected = self.op.atom_columns(left * coeffs, right).sum(axis=1)
        got = self.op.apply_combination(left, right, coeffs)
        assert got.shape == (700,)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K", range(8))
    def test_blocks_bitwise_equal_to_in_order_sum(self, monkeypatch, K):
        # 700 rows in blocks of 64: ten full blocks and a partial one
        monkeypatch.setattr(operators, "BLOCK_ROWS", 64)
        left, right, coeffs = self.terms(K)
        columns = self.op.atom_columns(left * coeffs, right)
        expected = np.zeros(700)
        for k in range(K):
            expected += columns[:, k]
        got = self.op.apply_combination(left, right, coeffs)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("K", [8, 12])
    def test_rounding_level_from_eight_terms(self, K):
        # numpy's sum switches to pairwise summation here
        left, right, coeffs = self.terms(K)
        expected = self.op.atom_columns(left * coeffs, right).sum(axis=1)
        np.testing.assert_allclose(self.op.apply_combination(left, right, coeffs),
                                   expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())


class TestAdjoint:
    def test_sampling_unit_vector(self):
        op = SamplingOperator(3, 4, [1, 2], [3, 0])
        back = op.adjoint(np.array([1.0, 0.0]))
        dense = back.toarray()
        expected = np.zeros((3, 4))
        expected[1, 3] = 1.0
        np.testing.assert_array_equal(dense, expected)

    def test_zero_vector(self, operator):
        back = operator.adjoint(np.zeros(40))
        dense = back.toarray() if sp.issparse(back) else back
        np.testing.assert_array_equal(dense, np.zeros((9, 7)))

    def test_wrong_length_rejected(self, operator):
        with pytest.raises(ValueError):
            operator.adjoint(np.zeros(13))

    @pytest.mark.parametrize("kind", ["gaussian", "sampling"])
    @settings(max_examples=100, deadline=None)
    @orientation_examples
    @operator_cases
    def test_inner_product_identity(self, kind, m, n, fraction, seed):
        # <A X, y> == <X, A* y>
        op = drawn_operator(kind, m, n, fraction, seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((m, n))
        y = rng.standard_normal(op.p)
        back = op.adjoint(y)
        dense = back.toarray() if sp.issparse(back) else back
        assert dense.shape == (m, n)
        assert op.apply(X) @ y == pytest.approx(np.sum(X * dense), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("op", [
        SamplingOperator.random(9, 7, 40, seed=5),
        SamplingOperator.random(4, 11, 30, seed=6),
        SamplingOperator(5, 3, [4, 0, 2, 0, 4], [0, 2, 1, 0, 2]),
        SamplingOperator.identity(4, 6),
        SamplingOperator(3, 4, [], []),
    ], ids=["random-tall", "random-wide", "unsorted", "identity", "empty"])
    def test_sampling_adjoint_matches_coo_to_csr(self, op):
        # the prebuilt CSR layout reproduces scipy's own conversion
        # array for array
        y = np.random.default_rng(op.p).standard_normal(op.p)
        got = op.adjoint(y)
        want = sp.coo_matrix((y, (op.rows, op.cols)), shape=op.shape).tocsr()
        assert isinstance(got, sp.csr_matrix) and got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert got.has_sorted_indices

    def test_sampling_adjoint_results_are_independent(self):
        op = SamplingOperator.random(6, 5, 12, seed=2)
        first = op.adjoint(np.ones(12))
        second = op.adjoint(2.0 * np.ones(12))
        np.testing.assert_array_equal(first.toarray() * 2.0, second.toarray())

    def test_sampling_apply_adjoint_is_identity(self):
        op = SamplingOperator.random(6, 8, 20, seed=9)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(20)
        np.testing.assert_allclose(op.apply(op.adjoint(y).toarray()), y, rtol=1e-15)


class TestGaussianScaling:
    def test_unit_gain_in_expectation(self):
        # with N(0, 1/p) frames, E ||A X||^2 = 1 for unit-norm X
        op = GaussianOperator(8, 8, 600, seed=3)
        rng = np.random.default_rng(4)
        gains = []
        for _ in range(200):
            F = random_low_rank(rng, 8, 8, 2)
            X = F.densify()
            X /= np.linalg.norm(X)
            gains.append(np.sum(op.apply(X) ** 2))
        gains = np.asarray(gains)
        stderr = gains.std(ddof=1) / np.sqrt(gains.size)
        assert abs(gains.mean() - 1.0) <= 3.0 * stderr


class TestSamplingConstruction:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            SamplingOperator(3, 3, [0, 0], [1, 1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SamplingOperator(3, 3, [0, 3], [0, 0])
        # a negative size is refused by name, before m * n is used
        for m, n in ((-1, 5), (3, -2), (-2, -3)):
            with pytest.raises(ValueError) as err:
                SamplingOperator(m, n, [], [])
            assert str(err.value) == f"matrix sizes must be nonnegative, got {m}x{n}"

    def test_flat_index_overflow_refused(self):
        # 2**20 x 2**50 has 2**70 entries: rows * n + cols would wrap in
        # int64 and put (2**20 - 1, 0) at (0, 0)
        with pytest.raises(ValueError, match=f"{2**20}x{2**50} matrix"):
            SamplingOperator(2**20, 2**50, [2**20 - 1, 0], [0, 1])
        with pytest.raises(ValueError, match="2\\*\\*63"):
            SamplingOperator(2, 2**62, [0], [0])
        # m * n = 2**63 - 1 still fits
        S = SamplingOperator(1, 2**63 - 1, [0], [2**63 - 2]).adjoint([7.0])
        assert S.shape == (1, 2**63 - 1)
        assert (S.indices.tolist(), S.data.tolist()) == ([2**63 - 2], [7.0])

    def test_virtual_fisher_yates_distinct_and_seeded(self):
        idx = sample_indices_without_replacement(10**9, 500, seed=7)
        assert np.unique(idx).size == 500
        np.testing.assert_array_equal(
            idx, sample_indices_without_replacement(10**9, 500, seed=7))

    @pytest.mark.parametrize("total, count, seed", [
        (1, 0, 0), (1, 1, 0), (10, 0, 3), (10, 10, 3), (10, 4, 5),
        (2500, 937, 1), (2500, 2500, 2), (10**9, 300, 7), (250000, 9354, 11),
        (250000, 93540, 13), (5000, 5000, 17),
    ])
    def test_matches_step_by_step_shuffle(self, total, count, seed):
        got = sample_indices_without_replacement(total, count, seed)
        assert got.dtype == np.int64 and got.shape == (count,)
        np.testing.assert_array_equal(got, fisher_yates_indices(total, count, seed))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.one_of(st.integers(1, 12), st.integers(1, 3000)),
           st.integers(0, 2**32 - 1))
    def test_matches_step_by_step_shuffle_property(self, data, total, seed):
        # small totals and counts near total make every target collide
        count = data.draw(st.one_of(st.sampled_from([0, 1, total]),
                                    st.integers(max(0, total - 3), total),
                                    st.integers(0, total)))
        np.testing.assert_array_equal(sample_indices_without_replacement(total, count, seed),
                                      fisher_yates_indices(total, count, seed))

    def test_key_overflow_refused_before_drawing(self, monkeypatch):
        def no_draw(*key):
            raise AssertionError("targets were about to be drawn")

        monkeypatch.setattr(operators, "_rng", no_draw)
        with pytest.raises(ValueError, match=f"2 of {2**62}"):
            sample_indices_without_replacement(2**62, 2, 0)

    def test_largest_key_below_overflow(self):
        total = 2**62 - 1  # total * count = 2**63 - 2
        np.testing.assert_array_equal(sample_indices_without_replacement(total, 2, 5),
                                      fisher_yates_indices(total, 2, 5))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.floats(0, 1), st.integers(0, 2**32 - 1))
    def test_layout_equals_stable_sort(self, m, n, fraction, seed):
        op = SamplingOperator.random(m, n, int(fraction * m * n), seed=seed)
        flat = op.rows * n + op.cols
        order = np.argsort(flat, kind="stable")
        np.testing.assert_array_equal(op._order, order)
        np.testing.assert_array_equal(op._indices, op.cols[order])
        np.testing.assert_array_equal(op._indptr,
                                      np.searchsorted(flat[order], np.arange(m + 1) * n))

    @pytest.mark.parametrize("n", [2**60 - 1, 2**60, 2**61])
    def test_layout_at_the_packed_key_bound(self, n):
        # m * n * p = 2**63 - 8, 2**63 and 2**64: the first sorts packed
        # keys up to m * n * p - 1 (the last sample holds the last entry),
        # the others argsort the entries
        op = SamplingOperator(2, n, [1, 0, 0, 1], [5, n - 1, 7, n - 1])
        order = np.argsort(op.rows * n + op.cols, kind="stable")
        np.testing.assert_array_equal(op._order, order)
        np.testing.assert_array_equal(op._indices, op.cols[order])
        np.testing.assert_array_equal(op._indptr, [0, 2, 4])

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 30), st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_duplicate_pair_refused_anywhere(self, data, m, n, seed):
        op = SamplingOperator.random(m, n, data.draw(st.integers(1, m * n - 1)), seed=seed)
        twin = data.draw(st.integers(0, op.p - 1))
        at = data.draw(st.integers(0, op.p))
        with pytest.raises(ValueError, match="distinct"):
            SamplingOperator(m, n, np.insert(op.rows, at, op.rows[twin]),
                             np.insert(op.cols, at, op.cols[twin]))

    def test_sample_count_out_of_range_rejected(self):
        for total, count in ((5, 6), (5, -1)):
            with pytest.raises(ValueError):
                sample_indices_without_replacement(total, count, 0)

    def test_random_covers_range(self):
        op = SamplingOperator.random(5, 4, 20, seed=1)  # all entries
        flat = np.sort(op.rows * 4 + op.cols)
        np.testing.assert_array_equal(flat, np.arange(20))


class TestGaussianMemoryGuard:
    def test_limit_is_checked_before_allocation(self, monkeypatch):
        # 200x200 at p=20000 needs 6.4 GB of frames; the generator that
        # would fill them must never be reached
        def no_draw(*key):
            raise AssertionError("frames were about to be allocated")

        monkeypatch.setattr(operators, "_rng", no_draw)
        assert 8 * 200 * 200 * 20000 > GAUSSIAN_FRAME_LIMIT_BYTES
        with pytest.raises(ValueError, match="6400000000 bytes"):
            GaussianOperator(200, 200, 20000)

    def test_limit_is_inclusive(self, monkeypatch):
        # 3x4 at p=5 needs exactly 480 bytes
        monkeypatch.setattr(operators, "GAUSSIAN_FRAME_LIMIT_BYTES", 480)
        assert GaussianOperator(3, 4, 5).frames.nbytes == 480
        with pytest.raises(ValueError, match="576 bytes"):
            GaussianOperator(3, 4, 6)


class TestRowPointerGuard:
    def test_limit_is_inclusive(self, monkeypatch):
        # 3 rows need a 4-entry row pointer, 32 bytes
        monkeypatch.setattr(operators, "ROW_POINTER_LIMIT_BYTES", 32)
        assert SamplingOperator(3, 4, [2], [3]).p == 1
        with pytest.raises(ValueError, match="40 bytes"):
            SamplingOperator(4, 4, [2], [3])


class TestDeltaEstimate:
    def test_identity_vectorization_is_exact_isometry(self):
        op = SamplingOperator.identity(6, 5)
        for r in (1, 2, 3):
            est = estimate_delta_profile(op, r, trials=30, seed=0)[-1]
            assert est.delta_lower <= 1e-12

    def test_nested_estimates_nondecreasing(self):
        op = GaussianOperator(8, 8, 300, seed=0)
        chain = estimate_delta_profile(op, 4, trials=50, seed=1)
        deltas = [e.delta_lower for e in chain]
        assert all(a <= b + 1e-15 for a, b in zip(deltas, deltas[1:]))
        # a shorter profile agrees with this one's prefix
        for e in chain:
            single = estimate_delta_profile(op, e.r, trials=50, seed=1)[-1]
            assert single.delta_lower == pytest.approx(e.delta_lower, rel=1e-12)

    def test_gaussian_rank_one_against_power_iteration_oracle(self):
        op = GaussianOperator(10, 10, 2000, seed=2)
        est = estimate_delta_profile(op, 1, trials=500, seed=3)[-1]
        assert est.delta_lower < 0.5
        gmax, gmin = rank_one_gain_extremes(op.apply_rank_one, 10, 10,
                                            restarts=50, seed=4)
        oracle = max(gmax - 1.0, 1.0 - gmin)
        # the sampled bound cannot beat an optimized search
        assert est.delta_lower <= oracle * (1.0 + 1e-9)
        # and the optimized search itself stays in the plausible range
        assert 0.0 < oracle < 0.5

    def test_invalid_args(self):
        op = SamplingOperator.identity(3, 3)
        with pytest.raises(ValueError):
            estimate_delta_profile(op, 0, trials=5)
        with pytest.raises(ValueError):
            estimate_delta_profile(op, 1, trials=0)
