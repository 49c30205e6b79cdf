import json
from dataclasses import replace

import numpy as np
import pytest

from trilevel.linalg import ConstantMatrix, RankOneUpdate, tensor_contract_vec
from trilevel.oracle import DETERMINISTIC, NoiseDraw, Point, fd_hvp, wrap_gaussian_noise
from trilevel.synthetic import (
    QuadraticOracle,
    QuadraticSpec,
    QuarticOracle,
    QuarticSpec,
    closed_form_point,
    closed_form_y,
    closed_form_z,
    default_init_point,
    default_quadratic,
    default_quartic,
    load_spec,
    lyapunov_diag,
    make_oracle,
    reduced_gradient,
    reduced_minimizer,
    reduced_objective,
    save_spec,
)


def random_quadratic(rng, n=4, m=3, t=5) -> QuadraticSpec:
    """Generic instance: random SPD diagonals, mild couplings (keeps the
    reduced middle-level Hessian positive definite)."""

    def spd(d):
        A = rng.standard_normal((d, d))
        return A @ A.T / d + 2.0 * np.eye(d)

    return QuadraticSpec(
        n=n, m=m, t=t,
        h_x=rng.uniform(-1, 1, n), h_y=rng.uniform(-1, 1, m), h_z=rng.uniform(-1, 1, t),
        Hxx=spd(n), Hyy=spd(m) + 2 * np.eye(m), Hzz=spd(t),
        Hxy=0.3 * rng.standard_normal((n, m)),
        Hxz=0.3 * rng.standard_normal((n, t)),
        Hyz=0.3 * rng.standard_normal((m, t)),
    )


class TestDefaultSpecs:
    def test_quadratic_parameters(self):
        spec = default_quadratic(50, 50, 50, rng=3)
        assert spec.Hyy[0, 0] == 4.0
        np.testing.assert_array_equal(spec.Hxx, np.eye(50))
        np.testing.assert_array_equal(spec.Hzz, np.eye(50))
        assert spec.h_x.min() >= 0.0 and spec.h_x.max() <= 10.0

    def test_quartic_parameters(self):
        spec = default_quartic(rng=3)
        assert (spec.n, spec.m, spec.t) == (5, 5, 1)
        assert spec.h_y.max() <= 0.1

    def test_seed_reproducibility(self):
        a = default_quadratic(6, 6, 6, rng=9)
        b = default_quadratic(6, 6, 6, rng=9)
        np.testing.assert_array_equal(a.h_x, b.h_x)

    def test_spd_validation(self):
        with pytest.raises(ValueError):
            QuadraticSpec(
                n=2, m=2, t=2,
                h_x=np.zeros(2), h_y=np.zeros(2), h_z=np.zeros(2),
                Hxx=-np.eye(2), Hyy=np.eye(2), Hzz=np.eye(2),
                Hxy=np.zeros((2, 2)), Hxz=np.zeros((2, 2)), Hyz=np.zeros((2, 2)),
            )

    def test_reduced_hessian_validation(self):
        # strong y-z coupling makes Hyy - 2 Hyz Hzz^{-1} Hzy indefinite
        with pytest.raises(ValueError):
            QuadraticSpec(
                n=2, m=2, t=2,
                h_x=np.zeros(2), h_y=np.zeros(2), h_z=np.zeros(2),
                Hxx=np.eye(2), Hyy=np.eye(2), Hzz=np.eye(2),
                Hxy=np.zeros((2, 2)), Hxz=np.zeros((2, 2)), Hyz=2.0 * np.eye(2),
            )


class TestClosedForms:
    def test_identity_instance(self):
        spec = default_quadratic(5, 5, 5, rng=1)
        x = np.arange(1.0, 6.0)
        y = np.arange(2.0, 7.0)
        np.testing.assert_allclose(closed_form_z(spec, x, y), x + y, atol=1e-12)
        np.testing.assert_allclose(closed_form_y(spec, x), x, atol=1e-12)
        np.testing.assert_allclose(closed_form_z(spec, np.zeros(5), np.zeros(5)), 0.0)

    def test_ll_optimality_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            spec = random_quadratic(rng)
            oracle = make_oracle(spec)
            x = rng.standard_normal(spec.n)
            y = rng.standard_normal(spec.m)
            z = closed_form_z(spec, x, y)
            res = oracle.grad_z_f3(Point(x, y, z), DETERMINISTIC)
            assert np.linalg.norm(res) <= 1e-10

    def test_ml_optimality_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = random_quadratic(rng)
            x = rng.standard_normal(spec.n)
            y = closed_form_y(spec, x)
            # adjoint gradient formula evaluated at the solved lower level
            z = closed_form_z(spec, x, y)
            gy = (
                spec.Hyy @ y - spec.Hyx @ x
                - spec.Hyz @ np.linalg.solve(spec.Hzz, spec.Hzx @ x + 2 * spec.Hzy @ y)
            )
            assert np.linalg.norm(gy) <= 1e-10

    def test_ml_gradient_formula_matches_fd_of_fbar(self):
        # the printed formula is only trusted after this check
        rng = np.random.default_rng(4)
        spec = random_quadratic(rng)
        oracle = make_oracle(spec)
        x = rng.standard_normal(spec.n)
        y = rng.standard_normal(spec.m)

        def fbar(yv):
            z = closed_form_z(spec, x, yv)
            return oracle.f2(Point(x, yv, z), DETERMINISTIC)

        h = 1e-6
        fd = np.array(
            [
                (fbar(y + h * e) - fbar(y - h * e)) / (2 * h)
                for e in np.eye(spec.m)
            ]
        )
        formula = (
            spec.Hyy @ y - spec.Hyx @ x
            - spec.Hyz @ np.linalg.solve(spec.Hzz, spec.Hzx @ x + 2 * spec.Hzy @ y)
        )
        np.testing.assert_allclose(fd, formula, atol=1e-6)

    def test_reduced_gradient_identity_formula(self):
        spec = default_quadratic(8, 8, 8, rng=5)
        x = np.linspace(-2, 3, 8)
        expected = spec.h_x + spec.h_y + 2 * spec.h_z + 7 * x
        np.testing.assert_allclose(reduced_gradient(spec, x), expected, atol=1e-10)

    def test_reduced_minimizer(self):
        rng = np.random.default_rng(6)
        spec = random_quadratic(rng)
        xstar = reduced_minimizer(spec)
        assert np.linalg.norm(reduced_gradient(spec, xstar)) <= 1e-8
        # minimizer: nearby points are no better
        for _ in range(3):
            delta = 1e-3 * rng.standard_normal(spec.n)
            assert reduced_objective(spec, xstar + delta) >= reduced_objective(spec, xstar) - 1e-12


class TestQuarticOracle:
    def test_scalar_example(self):
        # t=1, Hzz=1, Hzx=Hzy=(1,0,..): f3(z) = 0.5 (z^2 - z)^2 at x=e1, y=0
        spec = default_quartic(5, 5, 1, rng=0)
        oracle = make_oracle(spec)
        x = np.eye(5)[0]
        p = Point(x, np.zeros(5), np.array([1.0]))
        assert abs(oracle.grad_z_f3(p, DETERMINISTIC)[0]) <= 1e-14
        np.testing.assert_allclose(oracle.hess_zz_f3(p, DETERMINISTIC), [[1.0]])

    def test_zero_is_stationary(self):
        spec = default_quartic(rng=1)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(1)
        p = Point(rng.uniform(-0.4, 0, 5), rng.uniform(-0.2, 0, 5), np.zeros(1))
        np.testing.assert_allclose(oracle.grad_z_f3(p, DETERMINISTIC), 0.0, atol=1e-14)

    def test_two_stationary_points(self):
        spec = default_quartic(rng=2)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-0.4, 0, 5), rng.uniform(-0.2, 0, 5)
        z_star = closed_form_z(spec, x, y)
        p = Point(x, y, z_star)
        np.testing.assert_allclose(oracle.grad_z_f3(p, DETERMINISTIC), 0.0, atol=1e-12)

    def _random_point(self, spec, rng):
        return Point(
            rng.uniform(-0.4, 0, spec.n),
            rng.uniform(-0.2, 0, spec.m),
            rng.uniform(-0.6, 0, spec.t),
        )

    def test_cross_hessians_match_fd(self):
        spec = QuarticSpec(
            n=3, m=2, t=4,
            h_x=np.zeros(3), h_y=np.zeros(2), h_z=np.zeros(4),
            Hxx=np.eye(3), Hyy=4 * np.eye(2), Hzz=np.eye(4) + 0.1,
            Hxy=0.5 * np.ones((3, 2)), Hxz=np.eye(3, 4), Hyz=0.3 * np.ones((2, 4)),
        )
        oracle = make_oracle(spec)
        rng = np.random.default_rng(3)
        p = self._random_point(spec, rng)
        v = rng.standard_normal(spec.t)
        # perturb z in the gradients one level below each block
        for grad_name, hess_name in [
            ("grad_z_f3", "hess_zz_f3"),
            ("grad_x_f3", "hess_xz_f3"),
            ("grad_y_f3", "hess_yz_f3"),
        ]:
            got = fd_hvp(
                lambda z: getattr(oracle, grad_name)(p.replace(z=z), DETERMINISTIC),
                p.z, v, 1e-5,
            )
            expected = getattr(oracle, hess_name)(p, DETERMINISTIC) @ v
            np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_hess_zz_f3_is_the_dense_matrix_plus_noise(self):
        # the structured Hzz(f3), the quartic's and the quadratic's,
        # densifies to the dense formula's bytes, and a noise draw adds to
        # those bytes exactly as it added to the array
        class DenseQuartic(QuarticOracle):
            def hess_zz_f3(self, p, sample):
                g, u = self._parts(p)
                return np.outer(u, u) + 2.0 * g * self.spec.Hzz

        class DenseQuadratic(QuadraticOracle):
            def hess_zz_f3(self, p, sample):
                return self.spec.Hzz

        for family, Dense, structured in ((default_quartic, DenseQuartic, RankOneUpdate),
                                          (default_quadratic, DenseQuadratic, ConstantMatrix)):
            spec = replace(family(3, 2, 4, rng=6), Hzz=np.eye(4) + 0.2)
            p = self._random_point(spec, np.random.default_rng(6))
            M = make_oracle(spec).hess_zz_f3(p, DETERMINISTIC)
            assert isinstance(M, structured)
            assert np.array_equal(np.asarray(M), Dense(spec).hess_zz_f3(p, DETERMINISTIC))
            noisy, dense = (wrap_gaussian_noise(o, 0.1, 0.05, seed=7) for o in (make_oracle(spec), Dense(spec)))
            for sample in (NoiseDraw(0, 3), NoiseDraw(2, 9)):
                got = noisy.hess_zz_f3(p, sample)
                assert isinstance(got, np.ndarray)
                assert np.array_equal(got, dense.hess_zz_f3(p, sample))

    def test_hvps_match_dense_blocks(self):
        spec = default_quartic(4, 3, 2, rng=4)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(4)
        p = self._random_point(spec, rng)
        v = rng.standard_normal(2)
        np.testing.assert_allclose(
            oracle.hvp_zz_f3(p, DETERMINISTIC, v),
            oracle.hess_zz_f3(p, DETERMINISTIC) @ v,
            atol=1e-12,
        )

    def test_third_order_contractions_match_materialized_tensors(self):
        # assemble each tensor entrywise by differencing the Hessian blocks,
        # contract with tensor_contract_vec, compare with the callbacks
        spec = default_quartic(3, 2, 2, rng=5)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(5)
        p = self._random_point(spec, rng)
        v = rng.standard_normal(spec.t)
        h = 1e-5
        S = DETERMINISTIC

        def tensor_from(hess_name, axis, dim):
            """d(hess)/d(axis) as a (rows, cols, dim) array by central FD."""
            probe = getattr(oracle, hess_name)(p, S)
            T = np.zeros(probe.shape + (dim,))
            for c in range(dim):
                e = np.zeros(dim)
                e[c] = h
                if axis == "x":
                    hi = np.asarray(getattr(oracle, hess_name)(p.replace(x=p.x + e), S))
                    lo = np.asarray(getattr(oracle, hess_name)(p.replace(x=p.x - e), S))
                elif axis == "y":
                    hi = np.asarray(getattr(oracle, hess_name)(p.replace(y=p.y + e), S))
                    lo = np.asarray(getattr(oracle, hess_name)(p.replace(y=p.y - e), S))
                else:
                    hi = np.asarray(getattr(oracle, hess_name)(p.replace(z=p.z + e), S))
                    lo = np.asarray(getattr(oracle, hess_name)(p.replace(z=p.z - e), S))
                T[:, :, c] = (hi - lo) / (2 * h)
            return T

        # the (z, z, y) tensor is checked through its transpose, (y, z, z)
        cases = [
            ("t3_yzx_f3_contract", "hess_yz_f3", "x", spec.n, False),
            ("t3_yzy_f3_contract", "hess_yz_f3", "y", spec.m, False),
            ("t3_yzz_f3_contract", "hess_yz_f3", "z", spec.t, False),
            ("t3_zzx_f3_contract", "hess_zz_f3", "x", spec.n, False),
            ("t3_yzz_f3_contract", "hess_zz_f3", "y", spec.m, True),
            ("t3_zzz_f3_contract", "hess_zz_f3", "z", spec.t, False),
        ]
        for contract_name, hess_name, axis, dim, transpose in cases:
            # T has layout (first index, z, axis); the callbacks contract
            # the middle z index with v
            T = tensor_from(hess_name, axis, dim)
            expected = tensor_contract_vec(T, v)
            if contract_name == "t3_zzz_f3_contract":
                # returned applied to a vector or a t x 3 block
                for V in (rng.standard_normal(spec.t), rng.standard_normal((spec.t, 3))):
                    np.testing.assert_allclose(oracle.t3_zzz_f3_contract(p, S, v, V), expected @ V,
                                               atol=1e-7, err_msg=f"{contract_name} {V.shape}")
                continue
            got = getattr(oracle, contract_name)(p, S, v)
            if transpose:
                got, contract_name = got.T, contract_name + ".T"
            np.testing.assert_allclose(got, expected, atol=1e-7, err_msg=contract_name)

    @pytest.mark.parametrize("family", ["quadratic", "quartic"])
    def test_hvp_zz_f2_matches_differenced_gradient(self, family):
        # Hzz(f2) V against the z-Jacobian of grad_z f2, V a vector or a t x 3 block
        spec = default_quartic(3, 2, 4, rng=5) if family == "quartic" else default_quadratic(3, 2, 4, rng=5)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(8)
        p = self._random_point(spec, rng)
        J = np.column_stack([
            fd_hvp(lambda z: oracle.grad_z_f2(p.replace(z=z), DETERMINISTIC), p.z, e, 1e-5)
            for e in np.eye(spec.t)
        ])
        for V in (rng.standard_normal(spec.t), rng.standard_normal((spec.t, 3))):
            got = oracle.hvp_zz_f2(p, DETERMINISTIC, V)
            assert got.shape == V.shape
            np.testing.assert_allclose(got, J @ V, atol=1e-7)

    def test_quadratic_third_order_is_zero(self):
        oracle = make_oracle(default_quadratic(3, 3, 3, rng=6))
        p = Point(np.ones(3), np.ones(3), np.ones(3))
        v = np.ones(3)
        for name in ["t3_yzx", "t3_yzy", "t3_yzz", "t3_zzx"]:
            out = getattr(oracle, f"{name}_f3_contract")(p, DETERMINISTIC, v)
            np.testing.assert_array_equal(out, np.zeros_like(out))
        for V in (v, np.ones((3, 2))):
            np.testing.assert_array_equal(oracle.t3_zzz_f3_contract(p, DETERMINISTIC, v, V),
                                          np.zeros_like(V))


class TestInitPoints:
    def test_quadratic_ranges(self):
        spec = default_quadratic(10, 10, 10, rng=0)
        p = default_init_point(spec, rng=1)
        for block in (p.x, p.y, p.z):
            assert block.min() >= 0.0 and block.max() <= 20.0

    def test_quartic_ranges(self):
        spec = default_quartic(rng=0)
        p = default_init_point(spec, rng=1)
        assert p.x.min() >= -0.4 and p.x.max() <= 0.0
        assert p.y.min() >= -0.2 and p.y.max() <= 0.0
        assert p.z.min() >= -0.6 and p.z.max() <= 0.0

    def test_seed_reproducibility(self):
        spec = default_quartic(rng=0)
        a = default_init_point(spec, rng=2)
        b = default_init_point(spec, rng=2)
        np.testing.assert_array_equal(a.x, b.x)


class TestLyapunov:
    def test_zero_on_solution_path(self):
        spec = default_quadratic(4, 4, 4, rng=1)
        x = np.ones(4)
        diag = lyapunov_diag(spec, closed_form_point(spec, x))
        assert diag.y_err_sq == pytest.approx(0.0, abs=1e-18)
        assert diag.z_err_sq == pytest.approx(0.0, abs=1e-18)
        assert diag.z_xy_err_sq == pytest.approx(0.0, abs=1e-18)

    def test_identity_example(self):
        spec = default_quadratic(4, 4, 4, rng=1)
        e1 = np.eye(4)[0]
        diag = lyapunov_diag(spec, Point(np.zeros(4), e1, np.zeros(4)))
        assert diag.y_err_sq == pytest.approx(1.0, abs=1e-12)
        assert diag.z_xy_err_sq == pytest.approx(1.0, abs=1e-12)
        assert diag.z_err_sq == pytest.approx(0.0, abs=1e-12)

    def test_quartic_unsupported(self):
        spec = default_quartic(rng=0)
        with pytest.raises(TypeError):
            lyapunov_diag(spec, Point(np.zeros(5), np.zeros(5), np.zeros(1)))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        spec = random_quadratic(np.random.default_rng(7))
        path = tmp_path / "spec.json"
        save_spec(spec, path, seed=7)
        loaded = load_spec(path)
        assert isinstance(loaded, QuadraticSpec)
        np.testing.assert_array_equal(loaded.Hyz, spec.Hyz)
        np.testing.assert_array_equal(loaded.h_x, spec.h_x)

    def test_quartic_round_trip(self, tmp_path):
        spec = default_quartic(rng=8)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert isinstance(load_spec(path), QuarticSpec)

    @pytest.mark.parametrize("spec, seed", [
        (default_quadratic(1, 1, 1, rng=0), None),
        (random_quadratic(np.random.default_rng(3)), 11),
        (default_quartic(4, 3, 2, rng=5), 0),
    ], ids=["quadratic-n1-seed-none", "quadratic", "quartic"])
    def test_bytes_equal_json_dump_indent_1(self, tmp_path, spec, seed):
        path = tmp_path / "spec.json"
        save_spec(spec, path, seed=seed)
        payload = {"kind": "quartic" if isinstance(spec, QuarticSpec) else "quadratic",
                   "n": spec.n, "m": spec.m, "t": spec.t, "seed": seed}
        for nm in ("h_x", "h_y", "h_z", "Hxx", "Hyy", "Hzz", "Hxy", "Hxz", "Hyz"):
            payload[nm] = getattr(spec, nm).tolist()
        assert path.read_bytes() == json.dumps(payload, indent=1).encode()
        loaded = load_spec(path)
        assert type(loaded) is type(spec)
        assert (loaded.n, loaded.m, loaded.t) == (spec.n, spec.m, spec.t)
        for nm in ("h_x", "h_y", "h_z", "Hxx", "Hyy", "Hzz", "Hxy", "Hxz", "Hyz"):
            np.testing.assert_array_equal(getattr(loaded, nm), getattr(spec, nm))
