from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from trilevel.adjoint import AdjointConfig, ml_adjoint_gradient, neumann_inverse_apply
from trilevel.advhpt import (
    AdvHptOracle,
    Splits,
    TabularDataset,
    build_oracle,
    build_problem,
    bundled_dataset_path,
    init_point,
    ll_convexity_margin,
    load_csv,
    noisy_test_mse,
    smoothed_l1,
    split_dataset,
    standardize_stats,
)
from trilevel.driver import Decaying, IterationBudget, MinibatchSamples, run_tsg
from trilevel.oracle import (
    DETERMINISTIC,
    MinibatchIndices,
    NoiseDraw,
    Point,
    wrap_gaussian_noise,
)


def write_csv(path, rows, header="a,b,target"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


def toy_dataset(n=12, d=3, seed=0) -> TabularDataset:
    gen = np.random.default_rng(seed)
    X = gen.normal(0, 2, (n, d))
    y = X @ np.arange(1.0, d + 1) + gen.normal(0, 0.1, n)
    return TabularDataset(X, y, [f"f{i}" for i in range(d)])


def toy_setup(n=12, d=3, seed=0):
    ds = toy_dataset(n, d, seed)
    n_train = int(0.7 * n)
    splits = Splits(
        train=np.arange(n_train),
        val=np.arange(n_train, n_train + (n - n_train) // 2),
        test=np.arange(n_train + (n - n_train) // 2, n),
    )
    problem = build_problem(ds, splits)
    return ds, splits, problem, build_oracle(problem, ds)


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        ds = load_csv(path)
        assert ds.n_rows == 3 and ds.n_features == 2
        assert ds.feature_names == ["a", "b"]
        np.testing.assert_array_equal(ds.targets, [3, 6, 9])

    def test_missing_cell_named(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [[1, 2, 3], [4, "", 6]])
        with pytest.raises(ValueError, match="row 3.*'b'"):
            load_csv(path)

    def test_unparseable_cell_named(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", [[1, 2, 3], [4, "oops", 6]])
        with pytest.raises(ValueError, match="oops"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(path)

    def test_bundled_dataset(self):
        ds = load_csv(bundled_dataset_path())
        assert ds.n_rows == 200 and ds.n_features == 5


class TestSplits:
    def test_fraction_sizes(self):
        ds = toy_dataset(n=100)
        s = split_dataset(ds, 1)
        assert (s.train.size, s.val.size, s.test.size) == (70, 15, 15)

    def test_large_dataset_floor_arithmetic(self):
        ds = TabularDataset(np.zeros((20640, 1)), np.zeros(20640), ["f"])
        s = split_dataset(ds, 2)
        assert (s.train.size, s.val.size, s.test.size) == (14448, 3096, 3096)

    def test_disjoint_cover(self):
        ds = toy_dataset(n=53)
        s = split_dataset(ds, 3)
        merged = np.concatenate([s.train, s.val, s.test])
        np.testing.assert_array_equal(np.sort(merged), np.arange(53))

    def test_seed_reproducibility(self):
        ds = toy_dataset(n=40)
        a = split_dataset(ds, 4)
        b = split_dataset(ds, 4)
        np.testing.assert_array_equal(a.train, b.train)
        c = split_dataset(ds, 5)
        assert not np.array_equal(a.train, c.train)

    def test_standardization_uses_train_only(self):
        ds = toy_dataset(n=30, seed=6)
        train_idx = np.arange(21)
        mean, std = standardize_stats(ds.features, train_idx)
        np.testing.assert_allclose(mean, ds.features[:21].mean(axis=0))
        np.testing.assert_allclose(std, ds.features[:21].std(axis=0))


class TestSmoothedL1:
    def test_value_at_origin(self):
        value, grad, _ = smoothed_l1(np.zeros(4), 0.25)
        assert value == pytest.approx(1.0)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_large_argument_error_bound(self):
        value, _, _ = smoothed_l1(np.array([10.0]), 0.25)
        assert abs(value - 10.0) <= 0.25**2 / (2 * 10.0)

    def test_gradient_and_hvp_match_fd(self):
        theta = np.array([0.3, -1.2, 0.0, 4.0])
        mu = 0.25
        _, grad, hvp = smoothed_l1(theta, mu)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            vp = smoothed_l1(theta + e, mu)[0]
            vm = smoothed_l1(theta - e, mu)[0]
            assert grad[i] == pytest.approx((vp - vm) / (2 * h), abs=1e-8)
        v = np.array([1.0, -1.0, 2.0, 0.5])
        gp = smoothed_l1(theta + h * v, mu)[1]
        gm = smoothed_l1(theta - h * v, mu)[1]
        np.testing.assert_allclose(hvp(v), (gp - gm) / (2 * h), atol=1e-7)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            smoothed_l1(np.ones(2), 0.0)


class TestOracleStructure:
    def test_single_sample_hand_calculus(self):
        # one sample u=1, v=0, theta_f=1, theta_0=0, delta=0:
        # f3 = -MSE = -1; d f3/d delta = -2 * theta * residual / N = -2.
        # Alternating +/-1 features make the train standardization exactly
        # the identity, so the raw value u=1 survives ingestion.
        X = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]])
        ds = TabularDataset(X, np.zeros(10), ["u"])
        splits = Splits(train=np.arange(10), val=np.arange(10), test=np.arange(0))
        oracle = build_oracle(build_problem(ds, splits), ds)
        theta = np.array([1.0, 0.0])
        p = Point(np.array([-30.0]), theta, np.zeros(10))  # exp(-30) kills the penalty
        batch = MinibatchIndices((0,))  # u = +1, v = 0 -> residual 1
        assert oracle.f3(p, batch) == pytest.approx(-1.0)
        g = oracle.grad_z_f3(p, batch)
        assert g[0] == pytest.approx(-2.0)
        np.testing.assert_allclose(g[1:], 0.0)

    def test_penalty_vanishes_for_very_negative_lam(self):
        ds, splits, problem, oracle = toy_setup()
        m = problem.n_features + 1
        theta = np.ones(m)
        p_off = Point(np.array([-20.0]), theta, np.zeros(problem.dims[2]))
        mse_only = oracle.f2(p_off, DETERMINISTIC)
        # recompute the bare training MSE
        feats = oracle.train_features
        r = feats @ theta[:-1] + theta[-1] - oracle.train_targets
        assert mse_only == pytest.approx(float(np.mean(r**2)), abs=1e-8)

    def test_penalty_monotone_in_lam(self):
        ds, splits, problem, oracle = toy_setup()
        theta = np.concatenate([np.ones(3), [0.5]])
        t = problem.dims[2]
        for lam in (-1.0, 0.0, 2.0):
            p = Point(np.array([lam]), theta, np.zeros(t))
            g = oracle.grad_x_f2(p, DETERMINISTIC)
            assert g[0] > 0.0

    def test_delta_gradient_relation(self):
        # grad_z f3 = -grad_z f2 + psi-term (shared loss structure)
        ds, splits, problem, oracle = toy_setup()
        gen = np.random.default_rng(1)
        t = problem.dims[2]
        p = Point(np.array([0.2]), gen.normal(0, 1, 4), gen.normal(0, 0.1, t))
        m = problem.n_features + 1
        psi_grad = 2 * problem.c / (m * problem.n_train) * p.z
        np.testing.assert_allclose(
            oracle.grad_z_f3(p, DETERMINISTIC),
            -oracle.grad_z_f2(p, DETERMINISTIC) + psi_grad,
            atol=1e-12,
        )

    def test_intercept_never_perturbed(self):
        # a model with zero feature weights is invariant to delta
        ds, splits, problem, oracle = toy_setup()
        t = problem.dims[2]
        theta = np.array([0.0, 0.0, 0.0, 1.5])
        gen = np.random.default_rng(2)
        p0 = Point(np.array([0.0]), theta, np.zeros(t))
        p1 = Point(np.array([0.0]), theta, gen.normal(0, 1, t))
        mse0 = oracle.f2(p0, DETERMINISTIC) - 0.0
        mse1 = oracle.f2(p1, DETERMINISTIC)
        assert mse0 == pytest.approx(mse1)

    def test_block_diag_hessian_structure(self):
        ds, splits, problem, oracle = toy_setup()
        gen = np.random.default_rng(3)
        d, n = problem.n_features, problem.n_train
        p = Point(np.array([0.1]), gen.normal(0, 1, d + 1), gen.normal(0, 0.1, n * d))
        Hf2 = oracle.hvp_zz_f2(p, DETERMINISTIC, np.eye(n * d))
        theta_f = p.y[:d]
        block = (2.0 / n) * np.outer(theta_f, theta_f)
        for i in range(n):
            np.testing.assert_allclose(Hf2[i * d:(i + 1) * d, i * d:(i + 1) * d], block)
        # off-diagonal blocks vanish
        Hoff = Hf2.copy()
        for i in range(n):
            Hoff[i * d:(i + 1) * d, i * d:(i + 1) * d] = 0.0
        assert np.abs(Hoff).max() == 0.0

    def test_hvps_match_dense(self):
        ds, splits, problem, oracle = toy_setup()
        gen = np.random.default_rng(4)
        t = problem.dims[2]
        p = Point(np.array([0.1]), gen.normal(0, 1, 4), gen.normal(0, 0.1, t))
        v = gen.normal(0, 1, t)
        np.testing.assert_allclose(
            oracle.hvp_zz_f3(p, DETERMINISTIC, v),
            oracle.hess_zz_f3(p, DETERMINISTIC) @ v,
            atol=1e-12,
        )

    def test_all_blocks_match_fd_on_toy(self):
        # 5-sample toy set: every analytic block against central FD of the
        # derivative one order lower
        ds = toy_dataset(n=10, d=2, seed=5)
        splits = Splits(train=np.arange(5), val=np.arange(5, 8), test=np.arange(8, 10))
        problem = build_problem(ds, splits)
        oracle = build_oracle(problem, ds)
        gen = np.random.default_rng(5)
        t = problem.dims[2]
        p = Point(np.array([0.3]), gen.normal(0, 0.5, 3), gen.normal(0, 0.2, t))
        h = 1e-6
        S = DETERMINISTIC

        def fd_jacobian(vec_fn, axis_get, axis_set, dim):
            base = vec_fn(p)
            J = np.zeros((base.size, dim))
            for c in range(dim):
                e = np.zeros(dim)
                e[c] = h
                J[:, c] = (vec_fn(axis_set(p, e)) - vec_fn(axis_set(p, -e))) / (2 * h)
            return J

        set_y = lambda q, e: q.replace(y=q.y + e)
        set_z = lambda q, e: q.replace(z=q.z + e)
        set_x = lambda q, e: q.replace(x=q.x + e)

        cases = [
            (oracle.hess_yy_f2, lambda q: oracle.grad_y_f2(q, S), set_y, 3),
            (oracle.hess_yz_f2, lambda q: oracle.grad_y_f2(q, S), set_z, t),
            (lambda q, s: oracle.hvp_zz_f2(q, s, np.eye(t)), lambda q: oracle.grad_z_f2(q, S), set_z, t),
            (lambda q, s: oracle.hess_yz_f2(q, s).T, lambda q: oracle.grad_z_f2(q, S), set_y, 3),
            (oracle.hess_zx_f2, lambda q: oracle.grad_z_f2(q, S), set_x, 1),
            (oracle.hess_yx_f2, lambda q: oracle.grad_y_f2(q, S), set_x, 1),
            (oracle.hess_zz_f3, lambda q: oracle.grad_z_f3(q, S), set_z, t),
            (oracle.hess_yz_f3, lambda q: oracle.grad_y_f3(q, S), set_z, t),
            (oracle.hess_xz_f3, lambda q: oracle.grad_x_f3(q, S), set_z, t),
        ]
        for hess_fn, grad_fn, setter, dim in cases:
            np.testing.assert_allclose(
                hess_fn(p, S), fd_jacobian(grad_fn, None, setter, dim), atol=1e-6
            )

    def test_minibatch_unbiasedness_by_enumeration(self):
        # averaging the batch gradient over all batches of a fixed size
        # recovers the full gradient exactly (MSE sums)
        ds = toy_dataset(n=10, d=2, seed=6)
        splits = Splits(train=np.arange(6), val=np.arange(6, 8), test=np.arange(8, 10))
        problem = build_problem(ds, splits)
        oracle = build_oracle(problem, ds)
        gen = np.random.default_rng(6)
        t = problem.dims[2]
        p = Point(np.array([0.0]), gen.normal(0, 1, 3), gen.normal(0, 0.1, t))
        full = oracle.grad_y_f2(p, DETERMINISTIC)
        batches = list(combinations(range(6), 2))
        avg = np.mean(
            [oracle.grad_y_f2(p, MinibatchIndices(b)) for b in batches], axis=0
        )
        np.testing.assert_allclose(avg, full, atol=1e-12)
        full_z = oracle.grad_z_f3(p, DETERMINISTIC)
        avg_z = np.mean(
            [oracle.grad_z_f3(p, MinibatchIndices(b)) for b in batches], axis=0
        )
        np.testing.assert_allclose(avg_z, full_z, atol=1e-12)

    def test_batch_out_of_range(self):
        ds, splits, problem, oracle = toy_setup()
        p = init_point(problem)
        with pytest.raises(IndexError):
            oracle.f2(p, MinibatchIndices((problem.n_train,)))

    def test_noise_draw_unsupported(self):
        ds, splits, problem, oracle = toy_setup()
        p = init_point(problem)
        with pytest.raises(ValueError):
            oracle.f2(p, NoiseDraw(1, 1))

    def test_convexity_margin(self):
        ds, splits, problem, oracle = toy_setup()
        m = problem.n_features + 1
        assert ll_convexity_margin(problem, np.zeros(m)) > 0
        big = np.concatenate([np.full(problem.n_features, 10.0), [0.0]])
        assert ll_convexity_margin(problem, big) < 0
        # the margin equals the smallest eigenvalue of the dense block
        theta = np.concatenate([np.full(problem.n_features, 0.05), [0.3]])
        t = problem.dims[2]
        p = Point(np.array([0.0]), theta, np.zeros(t))
        H = oracle.hess_zz_f3(p, DETERMINISTIC)
        eigmin = np.linalg.eigvalsh(H).min()
        assert ll_convexity_margin(problem, theta) == pytest.approx(eigmin, abs=1e-12)


def reference_hvp_zz_f3(oracle, p, sample, v):
    """The reference Hzz(f3) v formula that hvp_zz_f3 must reproduce bit for bit."""
    n, d = oracle.problem.n_train, oracle.problem.n_features
    theta_f = p.y[:d]
    batch = (np.asarray(sample.indices) if isinstance(sample, MinibatchIndices)
             else np.arange(n))
    V = np.asarray(v, dtype=float).reshape(n, d)
    out = (2.0 * oracle.problem.c / ((d + 1) * n)) * V.copy()
    out[batch] -= (2.0 / batch.size) * np.outer(V[batch] @ theta_f, theta_f)
    return out.ravel()


class TestStructuredBlocks:
    """The vectorized Hessian blocks against their per-row formulas, and the
    third-order contractions and Hzz(f2) products against central
    differences of the HVPs and gradients one order lower."""

    SAMPLES = [DETERMINISTIC, MinibatchIndices((5, 1, 3))]

    def instance(self, seed=9):
        ds, splits, problem, oracle = toy_setup(n=12, d=3, seed=seed)
        gen = np.random.default_rng(seed)
        t = problem.dims[2]
        p = Point(np.array([0.3]), gen.normal(0, 0.5, 4), gen.normal(0, 0.2, t))
        return problem, oracle, p, gen

    @staticmethod
    def per_row_hess_yz_f3(oracle, p, sample):
        _, theta_f, theta_0, delta = oracle._split(p)
        batch = oracle._batch(sample)
        n, d = oracle.problem.n_train, oracle.problem.n_features
        feats, r = oracle._residuals(theta_f, theta_0, delta, batch)
        H = np.zeros((d + 1, n * d))
        coef = 2.0 / batch.size
        for row, i in enumerate(batch):
            a = np.concatenate([feats[row], [1.0]])
            block = np.outer(a, theta_f)
            block[:d] += r[row] * np.eye(d)
            H[:, i * d : (i + 1) * d] = -coef * block
        return H

    @staticmethod
    def per_row_hess_zz_f3(oracle, p, sample):
        _, theta_f, _, _ = oracle._split(p)
        batch = oracle._batch(sample)
        n, d = oracle.problem.n_train, oracle.problem.n_features
        H2 = np.zeros((n * d, n * d))
        for i in batch:
            H2[i * d : (i + 1) * d, i * d : (i + 1) * d] = (2.0 / batch.size) * np.outer(theta_f, theta_f)
        return 2.0 * oracle.problem.c / ((d + 1) * n) * np.eye(n * d) - H2

    @pytest.mark.parametrize("sample", SAMPLES, ids=["deterministic", "minibatch"])
    def test_hessian_blocks_match_per_row_formula_bit_for_bit(self, sample):
        _, oracle, p, _ = self.instance()
        assert np.array_equal(oracle.hess_yz_f3(p, sample), self.per_row_hess_yz_f3(oracle, p, sample))
        assert np.array_equal(oracle.hess_zz_f3(p, sample), self.per_row_hess_zz_f3(oracle, p, sample))

    @pytest.mark.parametrize("sample", SAMPLES, ids=["deterministic", "minibatch"])
    def test_contractions_match_differenced_products(self, sample):
        problem, oracle, p, gen = self.instance()
        _, m, t = problem.dims
        w = gen.normal(0, 1, t)
        h = 1e-3  # every differenced map is affine in the moved block

        def jac(fn, block, dim):
            cols = []
            for e in np.eye(dim):
                hi = fn(p.replace(**{block: getattr(p, block) + h * e}))
                lo = fn(p.replace(**{block: getattr(p, block) - h * e}))
                cols.append((hi - lo) / (2 * h))
            return np.column_stack(cols)

        def close(got, expected, name):
            scale = max(1.0, float(np.abs(expected).max()))
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9 * scale, err_msg=name)

        hzz_w = lambda q: oracle.hvp_zz_f3(q, sample, w)
        hyz_w = lambda q: oracle.hess_yz_f3(q, sample) @ w
        # T_yzz[w] is the y-Jacobian of Hzz(f3) w, transposed; T_yzy[w] the
        # y-Jacobian of Hyz(f3) w
        close(oracle.t3_yzz_f3_contract(p, sample, w), jac(hzz_w, "y", m).T, "t3_yzz")
        close(oracle.t3_yzy_f3_contract(p, sample, w), jac(hyz_w, "y", m), "t3_yzy")
        close(oracle.t3_yzx_f3_contract(p, sample, w), jac(hyz_w, "x", 1), "t3_yzx")
        close(oracle.t3_zzx_f3_contract(p, sample, w), jac(hzz_w, "x", 1), "t3_zzx")
        Tzzz = jac(hzz_w, "z", t)
        J2 = jac(lambda q: oracle.grad_z_f2(q, sample), "z", t)
        for V in (gen.normal(0, 1, t), gen.normal(0, 1, (t, 3))):
            close(oracle.t3_zzz_f3_contract(p, sample, w, V), Tzzz @ V, f"t3_zzz {V.shape}")
            got = oracle.hvp_zz_f2(p, sample, V)
            assert got.shape == V.shape
            close(got, J2 @ V, f"hvp_zz_f2 {V.shape}")
        # the zero blocks are exact zeros of the contract's shapes
        assert oracle.t3_yzx_f3_contract(p, sample, w).shape == (m, 1)
        assert oracle.t3_zzx_f3_contract(p, sample, w).shape == (t, 1)
        assert not np.any(oracle.t3_zzz_f3_contract(p, sample, w, np.ones((t, 2))))


class _Forwarding:
    """Forwards every attribute read to the wrapped oracle, as a tracing
    proxy does, and counts method calls. Class-level hooks stay hidden."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


class _AcceptsNoiseDraws(AdvHptOracle):
    """Evaluates a NoiseDraw on the full training split, so that a noise
    wrapper around adv-hpt has a sample on which it adds noise."""

    def _batch(self, sample):
        return super()._batch(DETERMINISTIC if isinstance(sample, NoiseDraw) else sample)


class TestHvpZzOp:
    """The adv-hpt Hzz(f3) operator, v -> hvp_zz_f3(p, sample, v)."""

    def _point(self, problem, seed):
        gen = np.random.default_rng(seed)
        _, m, t = problem.dims
        return Point(np.array([0.2]), gen.normal(0, 1, m), gen.normal(0, 0.1, t))

    def test_operator_matches_per_call_formula_exactly(self):
        ds, splits, problem, oracle = toy_setup(n=40, d=3)
        p = self._point(problem, 8)
        gen = np.random.default_rng(9)
        unsorted = MinibatchIndices((17, 3, 25, 0, 9, 14, 1))
        for sample in (DETERMINISTIC, unsorted):
            for _ in range(5):
                v = gen.normal(0, 1, problem.dims[2])
                expected = reference_hvp_zz_f3(oracle, p, sample, v)
                assert np.array_equal(oracle.hvp_zz_f3(p, sample, v), expected)

    def test_out_of_range_batch_raises(self):
        ds, splits, problem, oracle = toy_setup()
        p = init_point(problem)
        v = np.zeros(problem.dims[2])
        for rows in ((0, problem.n_train), (-1, 0)):
            with pytest.raises(IndexError):
                oracle.hvp_zz_f3(p, MinibatchIndices(rows), v)

    def test_noise_wrapper_adds_noise_to_every_product(self):
        ds = toy_dataset(n=12, d=3, seed=0)
        splits = Splits(train=np.arange(8), val=np.arange(8, 10), test=np.arange(10, 12))
        problem = build_problem(ds, splits)
        inner = _AcceptsNoiseDraws(problem, ds)
        noisy = wrap_gaussian_noise(inner, 0.0, 0.5, seed=3)
        p = self._point(problem, 10)
        v = np.random.default_rng(11).normal(0, 1, problem.dims[2])
        draw = NoiseDraw(stream=1, counter=2)
        clean = inner.hvp_zz_f3(p, draw, v)
        noisy_hv = noisy.hvp_zz_f3(p, draw, v)
        assert not np.array_equal(noisy_hv, clean)
        # every product meets the one noise matrix the draw adds to Hzz(f3)
        E = np.asarray(noisy.hess_zz_f3(p, draw)) - np.asarray(inner.hess_zz_f3(p, draw))
        np.testing.assert_allclose(noisy_hv - clean, E @ v, rtol=1e-12)
        # the AD engine's Hzz series goes through the noisy per-call method:
        # its ML gradient on the draw is the one built from noisy products
        cfg = AdjointConfig(engine="AD", neumann_q=3, c0=1.0, c1=1.0)

        def ml_gradient(hvp):
            w = neumann_inverse_apply(hvp, np.asarray(noisy.grad_z_f2(p, draw), float), 3, 1.0)
            return np.asarray(noisy.grad_y_f2(p, draw), float) - noisy.hess_yz_f3(p, draw) @ w

        g = ml_adjoint_gradient(noisy, p, draw, cfg)
        assert np.array_equal(g, ml_gradient(lambda u: noisy.hvp_zz_f3(p, draw, u)))
        assert not np.array_equal(g, ml_gradient(lambda u: inner.hvp_zz_f3(p, draw, u)))

    def test_short_ad_run_identical_through_forwarding_wrapper(self):
        # tier-1 stand-in for the benchmark's traced-digest gate: a wrapper
        # that forwards every method call must give the same iterates bit
        # for bit
        ds = load_csv(bundled_dataset_path())
        problem = build_problem(ds, split_dataset(ds, 7))
        raw = build_oracle(problem, ds)
        wrapped = _Forwarding(raw)
        cfg = AdjointConfig(engine="AD", neumann_q=4, c0=1.0, c1=30.0)
        traces = [
            run_tsg(oracle, init_point(problem), Decaying(0.1, 0.01, 0.1),
                    IterationBudget(2, 2, 3), cfg, MinibatchSamples(problem.n_train, 64, 5))
            for oracle in (raw, wrapped)
        ]
        assert wrapped.calls["hvp_zz_f3"] > 0
        assert [r.flags for r in traces[0].records] == [r.flags for r in traces[1].records]
        assert len(traces[0].iterates) == 2 and traces[0].iterates[-1].x[0] != 0.0
        for a, b in zip(traces[0].iterates, traces[1].iterates):
            for block in ("x", "y", "z"):
                assert np.array_equal(getattr(a, block), getattr(b, block))


class TestNoisyTestMse:
    def test_zero_noise_identical(self):
        feats = np.random.default_rng(0).normal(0, 1, (8, 3))
        targets = np.zeros(8)
        theta = np.array([1.0, -1.0, 0.5, 0.2])
        mean, values = noisy_test_mse(theta, feats, targets, noise_std=0.0, realizations=5)
        assert np.allclose(values, values[0])
        clean = np.mean((feats @ theta[:3] + theta[3]) ** 2)
        assert mean == pytest.approx(clean)

    def test_realization_count_and_seeding(self):
        feats = np.random.default_rng(1).normal(0, 1, (6, 2))
        targets = np.ones(6)
        theta = np.array([0.5, 0.5, 0.0])
        m1, v1 = noisy_test_mse(theta, feats, targets, realizations=100, seed=9)
        m2, v2 = noisy_test_mse(theta, feats, targets, realizations=100, seed=9)
        assert len(v1) == 100
        assert m1 == m2
        np.testing.assert_array_equal(v1, v2)
        m3, _ = noisy_test_mse(theta, feats, targets, realizations=100, seed=10)
        assert m1 != m3

    def test_realizations_validation(self):
        with pytest.raises(ValueError):
            noisy_test_mse(np.zeros(3), np.zeros((4, 2)), np.zeros(4), realizations=0)
