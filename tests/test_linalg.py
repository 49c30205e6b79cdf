import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from trilevel.adjoint import AdjointConfig
from trilevel.driver import Decaying, IterationBudget, run_tsg
from trilevel.linalg import (
    ConstantMatrix,
    NonFiniteError,
    RankOneUpdate,
    SingularMatrixError,
    cg_solve,
    lu_factor,
    lu_factor_cached,
    lu_solve,
    solve_dense,
    tensor_contract_vec,
)
from trilevel.synthetic import default_init_point, default_quadratic, make_oracle


def random_spd(rng, d):
    A = rng.standard_normal((d, d))
    return A @ A.T + d * np.eye(d)


class TestCgSolve:
    def test_scaled_identity(self):
        report = cg_solve(lambda v: 2.0 * v, np.array([2.0, 4.0]))
        np.testing.assert_allclose(report.solution, [1.0, 2.0], atol=1e-12)
        assert not report.terminated_on_curvature

    def test_two_by_two_against_cramer(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        # Cramer: det = 11, x = (3*1 - 1*2)/11, y = (4*2 - 1*1)/11
        expected = np.array([1.0 / 11.0, 7.0 / 11.0])
        report = cg_solve(lambda v: A @ v, b, tol=1e-12)
        np.testing.assert_allclose(report.solution, expected, rtol=1e-10)

    def test_negative_definite_curvature(self):
        report = cg_solve(lambda v: -v, np.array([1.0, 0.0]))
        assert report.terminated_on_curvature
        assert report.iterations == 0
        np.testing.assert_allclose(report.solution, [0.0, 0.0])

    def test_spd_converges_within_dim_plus_two(self):
        rng = np.random.default_rng(1)
        for d in (2, 5, 11, 20):
            A = random_spd(rng, d)
            b = rng.standard_normal(d)
            report = cg_solve(lambda v: A @ v, b, tol=1e-8)
            assert report.iterations <= d + 2
            assert report.residual_norm <= 1e-8 * max(1.0, np.linalg.norm(b))

    def test_agrees_with_direct_solve(self):
        rng = np.random.default_rng(2)
        for d in (3, 8, 20):
            A = random_spd(rng, d)
            b = rng.standard_normal(d)
            x_cg = cg_solve(lambda v: A @ v, b, tol=1e-12).solution
            x_lu = solve_dense(A, b)
            np.testing.assert_allclose(x_cg, x_lu, rtol=1e-6)

    def test_long_solve_residual_refresh(self):
        # ill-conditioned diagonal forces many iterations through the
        # 50-step residual recomputation
        d = 60
        diag = np.geomspace(1.0, 1e4, d)
        b = np.ones(d)
        report = cg_solve(lambda v: diag * v, b, tol=1e-10, max_iters=10 * d)
        np.testing.assert_allclose(diag * report.solution, b, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v[:1], np.array([1.0, 2.0]))

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            cg_solve(lambda v: v, np.array([1.0]), tol=0.0)

    def test_non_finite_rhs_or_product_is_a_breakdown(self):
        # NonFiniteError, not ValueError: the driver aborts the run on it
        assert not issubclass(NonFiniteError, ValueError)
        with pytest.raises(NonFiniteError, match="b contains non-finite"):
            cg_solve(lambda v: v, np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError, match="operator returned non-finite"):
            cg_solve(lambda v: np.full_like(v, np.inf), np.ones(2))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_product_entry_where_direction_is_zero(self, bad):
        # d'Ad is the check: 0 * Inf and 0 * NaN are NaN, so one bad entry
        # of Ad is caught even where the direction d (here b) is zero
        def apply(v):
            out = v.copy()
            out[1] = bad
            return out

        with pytest.raises(NonFiniteError, match="operator returned non-finite"):
            cg_solve(apply, np.array([1.0, 0.0, 2.0]))

    def test_zero_rhs(self):
        report = cg_solve(lambda v: v, np.zeros(3))
        assert report.iterations == 0
        np.testing.assert_allclose(report.solution, 0.0)

    def test_converged_flag(self):
        # converged means the solve met |r| <= tol * max(1, |b|): true for a
        # solved system and a zero rhs, false at the cap and on curvature
        d = 60
        diag = np.geomspace(1.0, 1e4, d)
        capped = cg_solve(lambda v: diag * v, np.ones(d), tol=1e-10, max_iters=5)
        assert capped.iterations == 5 and not capped.terminated_on_curvature
        assert not capped.converged and capped.residual_norm > 1e-10 * np.sqrt(d)
        solved = cg_solve(lambda v: diag * v, np.ones(d), tol=1e-10, max_iters=10 * d)
        assert solved.converged and solved.residual_norm <= 1e-10 * np.sqrt(d)
        curvature = cg_solve(lambda v: -v, np.array([1.0, 0.0]))
        assert curvature.terminated_on_curvature and not curvature.converged
        zero = cg_solve(lambda v: v, np.zeros(3))
        assert zero.iterations == 0 and zero.converged


class TestTensorContractions:
    def test_vec_zero_tensor(self):
        out = tensor_contract_vec(np.zeros((2, 2, 2)), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_vec_single_entry(self):
        T = np.zeros((2, 2, 2))
        T[0, 0, 0] = 1.0
        out = tensor_contract_vec(T, np.array([3.0, 0.0]))
        expected = np.zeros((2, 2))
        expected[0, 0] = 3.0
        np.testing.assert_array_equal(out, expected)

    def test_vec_basis_vector_selects_slice(self):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((2, 3, 2))
        e2 = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(tensor_contract_vec(T, e2), T[:, 1, :])

    def test_vec_brute_force(self):
        rng = np.random.default_rng(4)
        T = rng.standard_normal((3, 4, 2))
        v = rng.standard_normal(4)
        expected = np.zeros((3, 2))
        for a in range(3):
            for b in range(4):
                for c in range(2):
                    expected[a, c] += T[a, b, c] * v[b]
        np.testing.assert_allclose(tensor_contract_vec(T, v), expected, atol=1e-14)

    def test_linearity(self):
        rng = np.random.default_rng(8)
        T = rng.standard_normal((4, 4, 4))
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        a, b = 0.7, -1.3
        lhs = tensor_contract_vec(T, a * u + b * v)
        rhs = a * tensor_contract_vec(T, u) + b * tensor_contract_vec(T, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_contract_vec(np.zeros((2, 3, 2)), np.zeros(2))


class TestSolveDense:
    def test_identity(self):
        rng = np.random.default_rng(9)
        B = rng.standard_normal((4, 3))
        np.testing.assert_allclose(solve_dense(np.eye(4), B), B)

    def test_diagonal(self):
        A = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(solve_dense(A, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_cramer(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        x = solve_dense(A, np.array([1.0, 2.0]))
        np.testing.assert_allclose(x, [0.090909, 0.636364], atol=1e-6)

    def test_residual_bound(self):
        rng = np.random.default_rng(10)
        for d in (5, 50, 120):
            A = random_spd(rng, d)
            B = rng.standard_normal((d, 2))
            X = solve_dense(A, B)
            assert np.linalg.norm(A @ X - B) <= 1e-8 * np.linalg.norm(B)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_dense(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(SingularMatrixError, match="exactly zero pivot"):
            lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_overflowing_solution_is_singular(self):
        # a tiny but nonzero pivot passes LAPACK and overflows the solution
        A = np.diag([1e-300, 1.0])
        with pytest.raises(SingularMatrixError, match="not finite"):
            solve_dense(A, np.array([1e10, 1.0]))
        with pytest.raises(SingularMatrixError, match="not finite"):
            lu_factor(np.diag([1e-310, 1.0]))

    def test_non_square(self):
        with pytest.raises(ValueError):
            solve_dense(np.zeros((2, 3)), np.zeros(2))

    def test_non_finite_matrix_is_a_breakdown(self):
        with pytest.raises(NonFiniteError, match="A contains non-finite"):
            lu_factor(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_non_finite_rhs_is_a_breakdown(self):
        with pytest.raises(NonFiniteError, match="right-hand side"):
            solve_dense(np.eye(2), np.array([1.0, np.nan]))

    def test_pivoting_handles_zero_leading_entry(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(solve_dense(A, np.array([2.0, 3.0])), [3.0, 2.0])

    def test_cached_factorization_reused(self):
        # a ConstantMatrix is inverted on first use, and every later call
        # returns that same inverse
        A = random_spd(np.random.default_rng(11), 6)
        M = ConstantMatrix(A)
        f1 = lu_factor_cached(M)
        f2 = lu_factor_cached(M)
        assert f1 is not None and f2 is f1
        # a plain array carries no inverse
        assert lu_factor_cached(A) is None

    def test_factorization_is_the_inverse(self):
        rng = np.random.default_rng(12)
        for d in (1, 4, 30):
            A = rng.standard_normal((d, d))
            F = lu_factor(A)
            np.testing.assert_array_equal(F, np.linalg.solve(A, np.eye(d)))
            np.testing.assert_allclose(A @ F, np.eye(d), atol=1e-10)
            b = rng.standard_normal(d)
            np.testing.assert_allclose(lu_solve(F, b), np.linalg.solve(A, b), rtol=1e-8, atol=1e-10)

    def test_shared_factorization_across_threads(self):
        # solving never writes to the inverse, so threads may share it
        A = np.random.default_rng(13).standard_normal((10, 10))
        F = lu_factor(A)
        F_before = F.copy()
        rhs = [np.random.default_rng(s).standard_normal((10, 3)) for s in range(8)]
        serial = [lu_solve(F, B) for B in rhs]

        def work(_):
            return [lu_solve(F, B) for _ in range(50) for B in rhs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(work, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for res in results:
            for X, expected in zip(res, serial * 50):
                np.testing.assert_array_equal(X, expected)
        np.testing.assert_array_equal(F, F_before)

class TestRankOneUpdate:
    @staticmethod
    def make(t, c, coupled, seed=120):
        rng = np.random.default_rng(seed)
        A = random_spd(rng, t) / t if coupled else np.eye(t)
        u = rng.uniform(1.0, 2.0, t)
        return RankOneUpdate(c, ConstantMatrix(A), u), np.outer(u, u) + c * A, rng

    @pytest.mark.parametrize("t", [2, 5, 150])
    @pytest.mark.parametrize("c", [0.7, -0.3])
    @pytest.mark.parametrize("coupled", [False, True], ids=["identity", "coupled"])
    def test_solve_matches_dense_lapack(self, t, c, coupled):
        M, D, rng = self.make(t, c, coupled)
        assert M.c + M.u @ M.A.inverse @ M.u > 0.3  # Sherman-Morrison's denominator
        for B in (rng.standard_normal(t), rng.standard_normal((t, 3))):
            X, ref = M.solve(B), np.linalg.solve(D, B)
            assert X.shape == B.shape
            # either method's rounding leaves entries near 0 off by ~1e-15
            np.testing.assert_allclose(X, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_dense_matrix_and_product(self, t):
        M, D, rng = self.make(t, -0.4, True)
        assert M.shape == (t, t)
        assert np.array_equal(np.asarray(M), D) and np.asarray(M, float).dtype == float
        for V in (rng.standard_normal(t), rng.standard_normal((t, 4))):
            np.testing.assert_allclose(M @ V, D @ V, rtol=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1e-17, 0.0])
    def test_one_by_one_is_the_dense_solve(self, c):
        # the formula would cancel catastrophically near c = 0 at t = 1
        M, D, _ = self.make(1, c, True)
        for B in (np.array([0.3]), np.array([[0.3, -2.0]])):
            assert np.array_equal(M.solve(B), solve_dense(D, B))

    def test_breakdowns_raise(self):
        M, _, rng = self.make(4, 0.0, True)
        with pytest.raises(SingularMatrixError, match="rank one"):
            M.solve(rng.standard_normal(4))
        u = np.array([1.0, 0.0, 0.0])  # c + u' A^-1 u = -1 + 1
        with pytest.raises(SingularMatrixError, match="denominator"):
            RankOneUpdate(-1.0, ConstantMatrix(np.eye(3)), u).solve(np.ones(3))
        M, _, _ = self.make(4, 0.5, True)
        with pytest.raises(NonFiniteError):
            M.solve(np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(NonFiniteError):
            RankOneUpdate(np.inf, ConstantMatrix(np.eye(3)), np.ones(3)).solve(np.ones(3))


class TestConstantMatrix:
    def test_is_the_matrix(self):
        A = random_spd(np.random.default_rng(45), 5)
        M = ConstantMatrix(A)
        assert M.shape == (5, 5) and np.asarray(M) is A and np.asarray(M, float) is A
        assert np.array(M) is not A and np.array_equal(np.array(M), A)
        V = np.random.default_rng(46).standard_normal((5, 3))
        assert np.array_equal(M @ V, A @ V) and np.array_equal(M @ V[:, 0], A @ V[:, 0])
        with pytest.raises(NonFiniteError, match="A contains non-finite"):
            ConstantMatrix(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="square"):
            ConstantMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("d", [1, 6, 40])
    def test_inverse_matches_lapack(self, d):
        rng = np.random.default_rng(47 + d)
        A = random_spd(rng, d)
        F = lu_factor_cached(ConstantMatrix(A))
        for B in (rng.standard_normal(d), rng.standard_normal((d, 4))):
            np.testing.assert_allclose(lu_solve(F, B), np.linalg.solve(A, B), rtol=1e-12)


class TestEighCached:
    """:attr:`ConstantMatrix.eigh`: one decomposition per matrix object."""

    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(A):
            calls.append(A)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_decomposes_the_matrix(self):
        A = random_spd(np.random.default_rng(40), 6)
        lam, V = ConstantMatrix(A).eigh
        np.testing.assert_allclose((V * lam) @ V.T, A, rtol=0, atol=1e-12 * np.abs(A).max())
        np.testing.assert_allclose(V.T @ V, np.eye(6), rtol=0, atol=1e-14 * 6)

    def test_one_eigh_per_deterministic_run(self, eigh_calls):
        spec = default_quadratic(5, 5, 5, rng=41)
        trace = run_tsg(make_oracle(spec), default_init_point(spec, rng=42),
                        Decaying(0.3, 0.2, 0.1), IterationBudget(20, j0=2, k0=3),
                        AdjointConfig(engine="H"))
        assert trace.aborted is None and len(trace.records) == 20
        assert len(eigh_calls) == 1 and eigh_calls[0] is spec.Hzz
