import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, example, given, settings, strategies as st

from admira import linalg
from admira.linalg import (
    AtomSet,
    FactoredMatrix,
    LanczosConvergenceError,
    best_rank_r,
    full_svd,
    is_orthonormal,
    svd_of_factored,
    truncated_svd,
)

from oracles import jacobi_svd


def random_factored(rng, m, n, k, orthonormal=False, sigmas=None):
    # orthonormal=False draws unit columns that are almost surely not
    if orthonormal:
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    else:
        U = rng.standard_normal((m, k))
        V = rng.standard_normal((n, k))
        U /= np.linalg.norm(U, axis=0)
        V /= np.linalg.norm(V, axis=0)
    if sigmas is None:
        sigmas = np.sort(rng.uniform(0.5, 3.0, size=k))[::-1]
    return FactoredMatrix((m, n), sigmas, U, V)


class TestFactoredMatrix:
    def test_constructor_rejects_nonunit_columns(self):
        with pytest.raises(ValueError):
            FactoredMatrix((3, 3), [1.0], 2.0 * np.ones((3, 1)) / np.sqrt(3),
                           np.ones((3, 1)) / np.sqrt(3))

    def test_constructor_rejects_unsorted_sigmas(self):
        u = np.eye(3)[:, :2]
        with pytest.raises(ValueError):
            FactoredMatrix((3, 3), [1.0, 2.0], u, u)

    def test_constructor_rejects_nan(self):
        u = np.eye(3)[:, :1]
        with pytest.raises(ValueError):
            FactoredMatrix((3, 3), [np.nan], u, u)

    def test_parallel_unit_columns_are_not_orthonormal(self):
        u = np.ones((4, 2)) / 2.0  # unit columns but parallel
        assert not FactoredMatrix((4, 4), [1.0, 0.5], u, u).orthonormal
        # one orthonormal factor is not enough
        assert not FactoredMatrix((4, 4), [1.0, 0.5], np.eye(4)[:, :2], u).orthonormal

    def test_orthonormal_is_worked_out_from_the_factors(self):
        rng = np.random.default_rng(1)
        assert random_factored(rng, 9, 7, 4, orthonormal=True).orthonormal
        assert not random_factored(rng, 9, 7, 4).orthonormal
        with pytest.raises(TypeError):
            FactoredMatrix((3, 3), [1.0], np.eye(3)[:, :1], np.eye(3)[:, :1],
                           orthonormal=True)

    def test_every_svd_output_is_orthonormal(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((40, 30))
        outputs = [full_svd(M), svd_of_factored(random_factored(rng, 9, 7, 4)),
                   truncated_svd(M, 3, mode="dense"), truncated_svd(M, 3, mode="lanczos"),
                   truncated_svd(M, 3, floor=0.5 * full_svd(M).sigmas[2]),
                   truncated_svd(M, 3, mode="lanczos", floor=1.0)]
        for F in outputs:
            assert F.k and F.orthonormal

    def test_svd_routines_refuse_factors_that_are_not_orthonormal(self, monkeypatch):
        # the one exit of the SVD routines checks what the constructor no
        # longer does
        monkeypatch.setattr(linalg, "ORTHO_TOL", -1.0)
        for svd in (full_svd, lambda M: truncated_svd(M, 2, mode="lanczos")):
            with pytest.raises(ValueError, match="not orthonormal"):
                svd(np.diag([3.0, 2.0, 1.0]))

    def test_pythagoras_for_orthonormal(self):
        # ||densify(F)||_F^2 == sum sigma^2 for orthonormal atom sets
        rng = np.random.default_rng(0)
        for _ in range(20):
            F = random_factored(rng, 9, 7, 4, orthonormal=True)
            dense_sq = np.linalg.norm(F.densify()) ** 2
            assert abs(dense_sq - np.sum(F.sigmas**2)) <= 1e-10 * dense_sq

    def test_zero(self):
        # no columns: the factor checks pass, and an empty set is orthonormal
        Z = FactoredMatrix.zero(4, 5)
        assert Z.k == 0 and Z.orthonormal
        assert is_orthonormal(Z.left) and is_orthonormal(Z.right)
        assert np.all(Z.densify() == 0.0)
        assert AtomSet.empty(4, 5).size == 0

    def test_one_dimensional_factors_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FactoredMatrix((3, 3), [1.0], np.eye(3)[:, 0], np.eye(3)[:, 0])


class TestAtomSet:
    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            AtomSet(2.0 * np.eye(3)[:, :1], np.eye(3)[:, :1])

    def test_merge_concatenates_keeping_duplicates(self):
        a = AtomSet(np.eye(4)[:, :2], np.eye(5)[:, :2])
        merged = a.merge(a)
        assert merged.size == 4
        np.testing.assert_array_equal(merged.left[:, :2], merged.left[:, 2:])


class TestFullSvd:
    def test_diagonal(self):
        F = full_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(F.sigmas, [3.0, 2.0, 1.0])
        # columns of U and V match the identity up to sign
        np.testing.assert_allclose(np.abs(F.left), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.abs(F.right), np.eye(3), atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        F = full_svd(5.0 * np.outer(u, v))
        assert F.sigmas[0] == pytest.approx(5.0)
        assert np.all(F.sigmas[1:] <= 1e-12 * 5.0)

    def test_reconstruction_and_jacobi_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.standard_normal((8, 6))
            F = full_svd(M)
            scale = np.linalg.norm(M)
            assert np.linalg.norm(F.densify() - M) <= 1e-10 * scale
            _, s_oracle, _ = jacobi_svd(M)
            np.testing.assert_allclose(F.sigmas, s_oracle, atol=1e-10 * scale)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            full_svd(np.array([[1.0, np.inf], [0.0, 1.0]]))


def low_rank_case(m, n, rank, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    return M, M


def csr_case(m, n, density, seed):
    M = sp.random(m, n, density=density, format="csr", random_state=seed)
    return M, M.toarray()


@st.composite
def svd_inputs(draw):
    """A dense matrix of drawn rank (zero included) or a sparse CSR one,
    either orientation, with its dense form."""
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return csr_case(m, n, draw(st.floats(0.0, 0.5)), seed)
    return low_rank_case(m, n, draw(st.integers(0, min(m, n))), seed)


class TestTruncatedSvd:
    @settings(max_examples=80, deadline=None)
    @given(svd_inputs(), st.integers(1, 12))
    @example(low_rank_case(12, 9, 0, 0), 2)
    @example(low_rank_case(12, 20, 3, 1), 7)
    @example(low_rank_case(25, 6, 2, 2), 5)
    @example(csr_case(7, 15, 0.2, 3), 4)
    @example(csr_case(15, 7, 0.0, 4), 1)
    def test_dense_path_is_leading_part_of_full_svd(self, case, k):
        M, dense = case
        F = truncated_svd(M, k, mode="dense")
        ref = full_svd(dense)
        q = min(k, int(np.sum(ref.sigmas > linalg.RANK_TOL * ref.sigmas[0])))
        assert F.shape == dense.shape and F.k == q
        for got, want in ((F.sigmas, ref.sigmas), (F.left, ref.left), (F.right, ref.right)):
            assert np.array_equal(got, want[..., :q])

    def test_dense_path_builds_only_what_it_returns(self, monkeypatch):
        built = []
        check = FactoredMatrix.__post_init__

        def counting_check(self):
            built.append(np.size(self.sigmas))
            check(self)

        monkeypatch.setattr(FactoredMatrix, "__post_init__", counting_check)
        M = np.random.default_rng(1).standard_normal((60, 50))
        assert truncated_svd(M, 3, mode="dense").k == 3
        assert built == [3]

    def test_diagonal_truncation(self):
        F = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(F.sigmas, [3.0, 2.0])

    def test_zero_matrix_gives_empty(self):
        for mode in ("dense", "lanczos"):
            F = truncated_svd(np.zeros((5, 4)), 2, mode=mode)
            assert F.k == 0

    def test_lanczos_matches_full_svd_on_low_rank(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((50, 5)) @ rng.standard_normal((5, 40))
        lo = truncated_svd(M, 5, mode="lanczos")
        hi = full_svd(M)
        np.testing.assert_allclose(lo.sigmas, hi.sigmas[:5], rtol=1e-8)
        assert np.linalg.norm(lo.densify() - M) <= 1e-8 * np.linalg.norm(M)

    def test_lanczos_matches_full_svd_top_k(self):
        # full-spectrum matrices, top-k agreement at 1e-8 relative
        rng = np.random.default_rng(5)
        for trial in range(10):
            M = rng.standard_normal((30, 22))
            k = int(rng.integers(1, 8))
            lo = truncated_svd(M, k, mode="lanczos", seed=trial)
            hi = full_svd(M)
            np.testing.assert_allclose(lo.sigmas, hi.sigmas[:k],
                                       rtol=1e-8 * hi.sigmas[0])

    def test_more_than_rank_returns_fewer(self):
        # Lanczos breaks down on a zero alpha here; the last right vector
        # still lies in the invariant subspace, so the values need its column
        rng = np.random.default_rng(6)
        M = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
        for mode in ("dense", "lanczos"):
            F = truncated_svd(M, 7, mode=mode)
            assert F.k == 3
            np.testing.assert_allclose(F.sigmas, full_svd(M).sigmas[:3], rtol=1e-12)
            assert np.linalg.norm(F.densify() - M) <= 1e-12 * np.linalg.norm(M)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), 0)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("k, limit", [(3, 96), (10, 180), (40, 400)])
    @pytest.mark.parametrize("extra, path", [(0, "_dense_svd"), (1, "_lanczos_svd")])
    def test_auto_routing_at_the_dense_limit(self, monkeypatch, sparse, k, limit,
                                             extra, path):
        # min(m, n) up to six times the first Lanczos block of max(2k + 10, 16)
        # steps, and at most DENSE_FALLBACK_DIM = 400, stays dense; one more
        # goes to Lanczos
        d = limit + extra
        rng = np.random.default_rng(d)
        dense = rng.standard_normal((d, d + 7))
        ref = full_svd(dense).sigmas[:k]
        calls = []

        def spy(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for name in ("_dense_svd", "_lanczos_svd"):
            monkeypatch.setattr(linalg, name, spy(name, getattr(linalg, name)))
        for M in (dense, dense.T):
            F = truncated_svd(sp.csr_matrix(M) if sparse else M, k)
            np.testing.assert_allclose(F.sigmas, ref, rtol=1e-10)
        assert calls == [path, path]

    def test_sparse_input_auto(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(8)
        S = sp.random(60, 50, density=0.1, random_state=1, format="csr")
        lo = truncated_svd(S, 4)
        hi = full_svd(S.toarray())
        np.testing.assert_allclose(lo.sigmas, hi.sigmas[:4], rtol=1e-8)


@st.composite
def straddled_matrices(draw, min_dim, max_dim):
    """A dense or CSR matrix, either orientation, with a threshold tau
    that falls inside a gap of its spectrum."""
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        M = sp.random(m, n, density=draw(st.floats(0.05, 0.3)), format="csr",
                      random_state=rng)
        dense = M.toarray()
    else:
        # Up to eight separated leading values over a clustered bulk, the
        # shape of SVT's dual spectrum.
        lead = 10.0 * np.cumprod(rng.uniform(0.6, 0.95, size=draw(st.integers(0, 8))))
        top = draw(st.floats(0.9, 0.999)) * lead[-1] if lead.size else 10.0
        bulk = rng.uniform(0.0, top, size=min(m, n) - lead.size)
        s = np.concatenate([lead, np.sort(bulk)[::-1]])
        U = np.linalg.qr(rng.standard_normal((m, s.size)))[0]
        V = np.linalg.qr(rng.standard_normal((n, s.size)))[0]
        M = dense = (U * s) @ V.T
    s = full_svd(dense).sigmas
    gap = draw(st.integers(0, 7))
    above = s[gap - 1] if gap else 2.0 * s[0]
    tau = s[gap] + draw(st.floats(0.2, 0.8)) * (above - s[gap])
    return M, dense, tau


def assert_matches_above(F, dense, tau):
    """``F`` holds every triplet above ``tau`` and no other, equal to the
    dense SVD's in value and, up to the Wedin gap factor, subspace."""
    ref = full_svd(dense)
    s1 = ref.sigmas[0]
    q = int(np.sum(ref.sigmas > tau))
    assert F.k == q and np.all(F.sigmas > tau)
    np.testing.assert_allclose(F.sigmas[:q], ref.sigmas[:q], rtol=0, atol=1e-10 * s1)
    if q:
        gap = ref.sigmas[q - 1] - (ref.sigmas[q] if q < ref.k else 0.0)
        bound = 2e-10 * np.sqrt(q) * s1 / gap + 1e-12
        for X, Y in ((F.left, ref.left), (F.right, ref.right)):
            diff = X[:, :q] @ X[:, :q].T - Y[:, :q] @ Y[:, :q].T
            assert np.linalg.norm(diff, 2) <= bound


class TestLanczosFloor:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(straddled_matrices(20, 90), st.integers(1, 6), st.integers(0, 99))
    def test_floor_keeps_every_triplet_above(self, case, k, seed):
        # k is only where the search starts: up to eight values lie above tau
        M, dense, tau = case
        F = truncated_svd(M, k, mode="lanczos", seed=seed, floor=tau)
        assert_matches_above(F, dense, tau)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.one_of(straddled_matrices(80, 200), straddled_matrices(401, 430)),
           st.integers(0, 12), st.integers(0, 99))
    def test_auto_floor_from_any_hint_finds_all_above_tau(self, case, hint, seed):
        # The auto mode SVT uses: up to GRAM_MAX_DIM = 128 it solves the
        # Gram matrix, from 129 to 200 it takes the dense path or Lanczos
        # depending on min(m, n) and k; above 176 and above 400, a small
        # k's Lanczos step budget stays below min(m, n)
        M, dense, tau = case
        F = truncated_svd(M, max(hint, 1), seed=seed, floor=tau)
        assert_matches_above(F, dense, tau)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(straddled_matrices(100, 160), st.integers(1, 10))
    def test_auto_floor_keeps_every_triplet_above(self, case, k):
        # min(m, n) straddles GRAM_MAX_DIM: the Gram path below it, Lanczos
        # or the dense path above it, all return the triplets above tau
        M, dense, tau = case
        F = truncated_svd(M, k, floor=tau)
        assert_matches_above(F, dense, tau)
        s, U, V = F.sigmas, F.left, F.right
        scale = linalg.LANCZOS_TOL * full_svd(dense).sigmas[0]
        assert np.max(np.linalg.norm(dense @ V - U * s, axis=0), initial=0) <= scale
        assert np.max(np.linalg.norm(dense.T @ U - V * s, axis=0), initial=0) <= scale
        assert is_orthonormal(F.left) and is_orthonormal(F.right)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("d, floor, taken", [(40, 0.0, False),
                                                 (linalg.GRAM_MAX_DIM, 1.0, True),
                                                 (linalg.GRAM_MAX_DIM + 1, 1.0, False)])
    def test_gram_routing(self, monkeypatch, sparse, d, floor, taken):
        # only floored calls with min(m, n) <= GRAM_MAX_DIM solve the Gram
        # matrix; the rest keep the dense or Lanczos path
        rng = np.random.default_rng(d)
        s = np.concatenate([[10.0, 5.0, 2.0], rng.uniform(0.0, 0.5, size=d - 3)])
        U = np.linalg.qr(rng.standard_normal((d + 9, d)))[0]
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        dense = (U * s) @ V.T
        calls = []
        gram_svd = linalg._gram_svd

        def spy(*args):
            calls.append(args[0].shape)
            return gram_svd(*args)

        monkeypatch.setattr(linalg, "_gram_svd", spy)
        for M in (dense, dense.T):
            F = truncated_svd(sp.csr_matrix(M) if sparse else M, 3, floor=floor)
            np.testing.assert_allclose(F.sigmas, s[:3], rtol=1e-12)
        assert calls == ([dense.shape, dense.T.shape] if taken else [])

    def test_gram_path_falls_back_above_the_ratio(self, monkeypatch):
        # sigma_1 above GRAM_MAX_RATIO times the floor would cost more
        # orthogonality than ORTHO_TOL allows, so the call takes the old path
        rng = np.random.default_rng(3)
        d = 60
        s = np.concatenate([[2e3, 1.5], rng.uniform(0.0, 0.5, size=d - 2)])
        U = np.linalg.qr(rng.standard_normal((d, d)))[0]
        V = np.linalg.qr(rng.standard_normal((d, d)))[0]
        M = (U * s) @ V.T
        gram, dense = [], []
        for name, calls in (("_gram_svd", gram), ("_dense_svd", dense)):
            def spy(*args, real=getattr(linalg, name), calls=calls):
                calls.append(real(*args))
                return calls[-1]
            monkeypatch.setattr(linalg, name, spy)
        F = truncated_svd(M, 2, floor=1.0)
        assert gram == [None] and len(dense) == 1
        np.testing.assert_allclose(F.sigmas, s[:2], rtol=1e-12)
        assert truncated_svd(M, 2, floor=2.1).k == 1 and gram[1] is not None

    @pytest.mark.parametrize("seed", [21, 59, 223])
    def test_value_just_above_a_dense_bulk(self, seed):
        # sigma_2 sits up to 1% above a bulk of 198 values in [0, 1], with tau
        # in between.  At the first check a Ritz value for the bulk's top
        # has its Ritz value plus residual below tau while sigma_2 is not
        # yet in the Krylov space; a margin of one residual missed it on
        # these seeds.
        rng = np.random.default_rng(seed)
        m, n = 220, 200
        s = np.concatenate([[10.0, 1.0 + 0.01 * rng.uniform()],
                            np.sort(rng.uniform(0.0, 1.0, n - 2))[::-1]])
        U = np.linalg.qr(rng.standard_normal((m, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        tau = 1.0 + 0.5 * (s[1] - 1.0)
        F = truncated_svd((U * s) @ V.T, 3, mode="lanczos", seed=seed, floor=tau)
        np.testing.assert_allclose(F.sigmas[F.sigmas > tau], s[:2], rtol=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "known miss: the floor rule settles sigma_2's Ritz value under the floor "
        "while sigma_1, 2e-4 above it, is not yet resolved"))
    def test_near_degenerate_pair_straddling_the_floor(self):
        # sigma_1 = 9.89937 and sigma_2 = 9.89738 straddle tau = 9.89822 over
        # a bulk below 9.7; 3 of 1,000 seeded cases of this family miss
        # sigma_1, at one BLAS thread and more
        rng = np.random.default_rng(1002)
        s = np.concatenate([[9.89937, 9.89738], np.sort(rng.uniform(0, 9.7, 129))[::-1]])
        U = np.linalg.qr(rng.standard_normal((182, 131)))[0]
        V = np.linalg.qr(rng.standard_normal((131, 131)))[0]
        F = truncated_svd((U * s) @ V.T, 1, seed=18, floor=9.89822)
        np.testing.assert_allclose(F.sigmas, s[:1], rtol=1e-12)

    def test_unreachable_tol_stops_at_step_budget(self, monkeypatch):
        # k = 2: a block of max(2k + 10, 16) = 16 steps sets the budget,
        # 16 (10k + 1) = 336 < min(m, n).  The second value settles under
        # the floor; no residual meets a negative tol (a converged one can
        # be exactly 0).
        rng = np.random.default_rng(11)
        m, n = 400, 380
        s = np.concatenate([[10.0, 1.0], rng.uniform(0.0, 0.5, size=n - 2)])
        U = np.linalg.qr(rng.standard_normal((m, n)))[0]
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        M = (U * s) @ V.T
        # each step orthogonalizes one new left vector against the U basis,
        # whose rows are the left vectors taken so far
        steps = []
        reorthogonalize = linalg._reorthogonalize

        def counting(w, basis):
            if basis.shape[1] == m:
                steps.append(basis.shape[0])
            return reorthogonalize(w, basis)

        monkeypatch.setattr(linalg, "_reorthogonalize", counting)
        monkeypatch.setattr(linalg, "LANCZOS_TOL", -1.0)
        with pytest.raises(LanczosConvergenceError) as err:
            truncated_svd(M, 2, mode="lanczos", floor=5.0)
        assert err.value.steps == len(steps) == 336
        assert (err.value.converged, err.value.requested) == (1, 2)
        assert "336" in str(err.value)


class TestSvdOfFactored:
    def test_fixed_point_on_orthonormal_input(self):
        rng = np.random.default_rng(9)
        F = random_factored(rng, 10, 8, 3, orthonormal=True)
        G = svd_of_factored(F)
        np.testing.assert_allclose(G.sigmas, F.sigmas, rtol=1e-12)
        # same subspaces: projector difference is tiny
        PU_F = F.left @ F.left.T
        PU_G = G.left @ G.left.T
        assert np.max(np.abs(PU_F - PU_G)) <= 1e-10

    def test_zero_sigmas_give_zero_matrix(self):
        F = FactoredMatrix((6, 5), np.zeros(2), np.eye(6)[:, :2], np.eye(5)[:, :2])
        assert svd_of_factored(F).k == 0

    def test_matches_densify_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            F = random_factored(rng, 10, 8, 3)
            dense = F.densify()
            G = svd_of_factored(F)
            ref = full_svd(dense)
            scale = np.linalg.norm(dense)
            assert np.linalg.norm(G.densify() - dense) <= 1e-10 * scale
            np.testing.assert_allclose(G.sigmas, ref.sigmas[: G.k],
                                       atol=1e-10 * scale)
            assert G.orthonormal

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        F = random_factored(rng, 9, 9, 4)
        once = svd_of_factored(F)
        twice = svd_of_factored(once)
        np.testing.assert_allclose(once.sigmas, twice.sigmas, rtol=1e-12)
        P1 = once.left @ once.left.T
        P2 = twice.left @ twice.left.T
        assert np.max(np.abs(P1 - P2)) <= 1e-8


class TestBestRankR:
    def test_truncation(self):
        F = full_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(best_rank_r(F, 2).sigmas, [3.0, 2.0])

    def test_r_zero_gives_zero(self):
        F = full_svd(np.diag([3.0, 2.0, 1.0]))
        assert best_rank_r(F, 0).k == 0

    def test_r_beyond_rank_returns_unchanged(self):
        F = full_svd(np.diag([3.0, 2.0, 1.0]))
        G = best_rank_r(F, 10)
        np.testing.assert_allclose(G.sigmas, F.sigmas)

    def test_error_formula(self):
        # ||X - best_rank_r(X)||_F == sqrt(sum of trailing sigma^2)
        rng = np.random.default_rng(12)
        F = random_factored(rng, 12, 9, 6, orthonormal=True)
        dense = F.densify()
        for r in (1, 2, 4):
            err = np.linalg.norm(dense - best_rank_r(F, r).densify())
            expect = np.sqrt(np.sum(F.sigmas[r:] ** 2))
            assert err == pytest.approx(expect, rel=1e-10)

    def test_beats_random_competitors(self):
        # Eckart-Young by sampling: no random rank-3 matrix comes closer
        rng = np.random.default_rng(13)
        F = random_factored(rng, 10, 8, 6, orthonormal=True)
        dense = F.densify()
        best = best_rank_r(F, 3)
        best_err = np.linalg.norm(dense - best.densify())
        for _ in range(100):
            Y = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 8))
            Y *= np.linalg.norm(dense) / np.linalg.norm(Y)
            assert best_err <= np.linalg.norm(dense - Y) + 1e-12

    def test_slice_is_orthonormal(self):
        rng = np.random.default_rng(15)
        for F in (random_factored(rng, 8, 7, 4), random_factored(rng, 8, 7, 4, True)):
            G = best_rank_r(F, 2)
            assert G.k == 2 and G.orthonormal

    def test_normalizes_non_orthonormal_input(self):
        rng = np.random.default_rng(14)
        F = random_factored(rng, 8, 7, 4)
        ref = full_svd(F.densify())
        got = best_rank_r(F, 2)
        np.testing.assert_allclose(got.sigmas, ref.sigmas[:2], rtol=1e-10)
