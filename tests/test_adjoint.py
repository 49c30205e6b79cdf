import math
from dataclasses import replace

import numpy as np
import pytest

from trilevel import adjoint
from trilevel import advhpt as ah
from trilevel import linalg
from trilevel.adjoint import (
    AdjointConfig,
    auto_scale_bilevel,
    auto_scales,
    bilevel_adjoint_gradient,
    grad_x_fbar,
    ml_adjoint_gradient,
    neumann_inverse_apply,
    neumann_krylov_apply,
    ul_adjoint_gradient,
)
from trilevel.driver import Decaying, IterationBudget, run_tsg
from trilevel.oracle import (
    DETERMINISTIC,
    Deterministic,
    MinibatchIndices,
    NoiseDraw,
    Point,
    ProblemOracle,
    wrap_gaussian_noise,
)
from trilevel.synthetic import (
    QuadraticSpec,
    QuarticSpec,
    closed_form_point,
    closed_form_z,
    default_init_point,
    default_quadratic,
    default_quartic,
    make_oracle,
    reduced_gradient,
)


def decoupled_spec(n=4, m=4, t=4):
    """All cross-couplings zero: the levels separate completely."""
    return QuadraticSpec(
        n=n, m=m, t=t,
        h_x=np.arange(1.0, n + 1), h_y=np.ones(m), h_z=np.ones(t),
        Hxx=np.eye(n), Hyy=2 * np.eye(m), Hzz=np.eye(t),
        Hxy=np.zeros((n, m)), Hxz=np.zeros((n, t)), Hyz=np.zeros((m, t)),
    )


def engines_for(oracle, point, q=40):
    c0, c1 = auto_scales(oracle, point, neumann_q=q)
    return [
        AdjointConfig(engine="H"),
        AdjointConfig(engine="NFD", fd_eps=0.1),
        AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=q, c0=c0, c1=c1),
    ]


class TestNeumannInverse:
    def test_scalar_truncation(self):
        # A = 1, scale = 0.5: result = 0.5 * sum 0.5^h = 1 - 0.5^{Q+1}
        out = neumann_inverse_apply(lambda v: v, np.array([1.0]), Q=3, scale=0.5)
        np.testing.assert_allclose(out, [0.9375])

    def test_q_zero(self):
        b = np.array([2.0, -1.0])
        np.testing.assert_allclose(neumann_inverse_apply(lambda v: v, b, 0, 0.25), 0.25 * b)

    def test_exact_when_scaled_to_identity(self):
        A = 4.0
        b = np.array([8.0])
        for q in (0, 1, 5):
            out = neumann_inverse_apply(lambda v: A * v, b, q, scale=1.0 / A)
            np.testing.assert_allclose(out, [2.0])

    def test_geometric_decay_on_diagonal(self):
        diag = np.array([1.0, 2.0, 4.0])
        scale = 1.0 / 8.0
        b = np.ones(3)
        exact = b / diag
        errors = []
        for q in range(1, 21):
            approx = neumann_inverse_apply(lambda v: diag * v, b, q, scale)
            errors.append(np.linalg.norm(approx - exact))
        rho = 1.0 - scale * diag.min()
        ratios = [errors[i + 1] / errors[i] for i in range(len(errors) - 1)]
        # asymptotically the error contracts by the slowest-mode factor
        assert abs(ratios[-1] - rho) < 0.01

    def test_error_bound_on_slow_mode(self):
        # with b on the slowest eigenvector, the bound scale*rho^{Q+1}/(1-rho)|b|
        # is tight within a factor 2
        diag = np.array([0.5, 1.5, 3.0])
        scale = 0.25
        rho = 1.0 - scale * diag.min()
        b = np.eye(3)[0]
        for q in range(1, 21):
            approx = neumann_inverse_apply(lambda v: diag * v, b, q, scale)
            err = np.linalg.norm(approx - b / diag)
            bound = scale * rho ** (q + 1) / (1 - rho) * np.linalg.norm(b)
            assert err <= bound * 1.0000001
            assert err >= bound / 2.0

    def test_divergence_guard_truncates_and_reports(self):
        # 1 - scale*A = -3: terms 1, -3, 9 stay within 10|b|, term 3 (-27) does not
        b = np.array([1.0])
        events = []
        out = neumann_inverse_apply(lambda v: 4.0 * v, b, 10, 1.0, events, "probe")
        np.testing.assert_array_equal(out, [7.0])
        assert events == ["neumann_truncated:probe@3"]

    def test_validation(self):
        with pytest.raises(ValueError):
            neumann_inverse_apply(lambda v: v, np.ones(2), -1, 0.5)
        with pytest.raises(ValueError):
            neumann_inverse_apply(lambda v: v, np.ones(2), 2, 0.0)


def _counted(op):
    calls = [0]

    def apply(v):
        calls[0] += 1
        return op(v)

    return apply, calls


def _advhpt_split7():
    ds = ah.load_csv(ah.bundled_dataset_path())
    problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
    gen = np.random.default_rng(7)
    _, m, t = problem.dims
    point = Point(np.array([0.2]), gen.normal(0, 0.3, m), gen.normal(0, 0.05, t))
    batch = MinibatchIndices(tuple(int(i) for i in gen.permutation(problem.n_train)[:20]))
    return ah.build_oracle(problem, ds), point, batch


class TestNeumannKrylov:
    # the Krylov evaluator computes the recurrence's polynomial in another
    # order: its sum agrees to rounding and its guard stops at the same term
    RTOL = 1e-12

    def run_both(self, op, b, Q, scale):
        """(sum, events, products) of the recurrence and the Krylov evaluator."""
        out = []
        for fn in (neumann_inverse_apply, neumann_krylov_apply):
            apply, calls = _counted(op)
            events = []
            out.append((fn(apply, b, Q, scale, events, "probe"), events, calls[0]))
        return out

    def assert_agree(self, op, b, Q, scale):
        (ref, ref_events, ref_calls), (got, events, calls) = self.run_both(op, b, Q, scale)
        assert np.linalg.norm(got - ref) <= self.RTOL * np.linalg.norm(ref)
        assert events == ref_events
        return events, calls

    @pytest.mark.parametrize("minibatch", [True, False])
    def test_matches_recurrence_on_advhpt(self, minibatch):
        oracle, point, batch = _advhpt_split7()
        sample = batch if minibatch else DETERMINISTIC
        op = lambda v: oracle.hvp_zz_f3(point, sample, v)
        gz2 = np.asarray(oracle.grad_z_f2(point, sample), float)
        rand = np.random.default_rng(3).normal(0, 1, gz2.size)
        truncated = 0
        for b in (gz2, rand):
            # at c0 = 1 no series truncates; at 0.06 and 0.01 some do
            for c0 in (1.0, 0.06, 0.01):
                events, calls = self.assert_agree(op, b, 30, 1.0 / c0)
                # Hzz has two eigenvalues: the Krylov space has dimension <= 2
                assert 1 <= calls <= 2
                truncated += bool(events)
        assert truncated >= 2

    def test_matches_recurrence_on_synthetic(self):
        gen = np.random.default_rng(8)
        M = gen.normal(0, 1, (6, 6))
        spec = replace(default_quadratic(4, 4, 6, rng=8), Hzz=M @ M.T / 6 + 0.5 * np.eye(6))
        quartic = default_quartic(3, 3, 4, rng=5)
        cases = [
            (make_oracle(spec), Point(gen.uniform(0, 9, 4), gen.uniform(0, 9, 4), gen.uniform(0, 9, 6))),
            (make_oracle(quartic), default_init_point(quartic, rng=6)),
        ]
        for oracle, point in cases:
            op = lambda v: oracle.hvp_zz_f3(point, DETERMINISTIC, v)
            b = gen.normal(0, 1, point.z.size)
            norm = np.linalg.norm(oracle.hess_zz_f3(point, DETERMINISTIC), 2)
            for Q in (1, 6, 30):
                events, calls = self.assert_agree(op, b, Q, 1.0 / (2.0 * norm))
                assert events == [] and calls <= min(Q, point.z.size)
            # a scale past 2/|Hzz| truncates at the same term
            events, _ = self.assert_agree(op, b, 30, 4.0 / norm)
            assert events and events[0].startswith("neumann_truncated:probe@")

    @pytest.mark.parametrize("Q", [1, 30, 100])
    def test_matches_recurrence_on_dense_spd(self, Q):
        gen = np.random.default_rng(150)
        M = gen.normal(0, 1, (150, 150))
        A = M @ M.T / 150 + 0.1 * np.eye(150)
        scale = 1.0 / np.linalg.eigvalsh(A)[-1]
        # the spectrum has 150 distinct eigenvalues: no breakdown before Q
        events, calls = self.assert_agree(lambda v: A @ v, gen.normal(0, 1, 150), Q, scale)
        assert events == [] and calls == Q

    def test_edge_cases_follow_the_recurrence(self):
        op = lambda v: np.array([1.0, 2.0, 3.0, 4.0]) * v
        b = np.array([1.0, -2.0, 0.5, 3.0])
        for case in [(b, 0), (np.zeros(4), 5)]:
            (ref, ref_events, _), (got, events, calls) = self.run_both(op, *case, 0.2)
            np.testing.assert_array_equal(got, ref)
            assert events == ref_events == [] and calls == 0
        for bad in (np.inf, np.nan):
            nonfinite = b.copy()
            nonfinite[2] = bad
            ref_events, events = [], []
            with np.errstate(invalid="ignore"):  # the recurrence's inf - inf
                ref = neumann_inverse_apply(op, nonfinite, 5, 0.2, ref_events, "probe")
            got = neumann_krylov_apply(op, nonfinite, 5, 0.2, events, "probe")
            np.testing.assert_array_equal(got, ref)
            assert events == ref_events == ["neumann_truncated:probe@1"]

    def test_non_finite_product_truncates_at_its_call(self):
        def breaks_on_third_call():
            calls = [0]

            def apply(v):
                calls[0] += 1
                return np.array([1.0, 2.0, 3.0, 4.0]) * v if calls[0] < 3 else np.full(4, np.inf)

            return apply

        # four distinct eigenvalues: Lanczos reaches its third product too
        b = np.array([1.0, -2.0, 0.5, 3.0])
        ref_events, events = [], []
        ref = neumann_inverse_apply(breaks_on_third_call(), b, 6, 0.2, ref_events, "probe")
        got = neumann_krylov_apply(breaks_on_third_call(), b, 6, 0.2, events, "probe")
        assert np.linalg.norm(got - ref) <= self.RTOL * np.linalg.norm(ref)
        assert events == ref_events == ["neumann_truncated:probe@3"]

    def test_validation(self):
        with pytest.raises(ValueError):
            neumann_krylov_apply(lambda v: v, np.ones(2), -1, 0.5)
        with pytest.raises(ValueError):
            neumann_krylov_apply(lambda v: v, np.ones(2), 2, 0.0)
        with pytest.raises(ValueError):
            neumann_krylov_apply(lambda v: v[:1], np.ones(2), 2, 0.5)

    def routes(self, monkeypatch, oracle, point, sample, cfg):
        """Labels of the series the UL gradient sends to each evaluator."""
        seen = {"krylov": [], "recurrence": []}
        for name, key in (("neumann_krylov_apply", "krylov"), ("neumann_inverse_apply", "recurrence")):
            def spy(hvp, b, Q, scale, events, label, _fn=getattr(adjoint, name), _key=key):
                seen[_key].append(label)
                return _fn(hvp, b, Q, scale, events, label)
            monkeypatch.setattr(adjoint, name, spy)
        ul_adjoint_gradient(oracle, point, sample, cfg)
        return {key: sorted(set(labels)) for key, labels in seen.items()}

    def test_ops_routes_only_exact_hzz_series_to_krylov(self, monkeypatch):
        spec = default_quadratic(3, 3, 3, rng=9)
        point = closed_form_point(spec, np.ones(3))
        cfg = AdjointConfig(engine="AD", neumann_q=6, c0=2.0, c1=3.0)
        hzz = ["gx_w", "lam_z", "ml_w", "track"]
        routes = self.routes(monkeypatch, make_oracle(spec), point, DETERMINISTIC, cfg)
        assert routes == {"krylov": hzz, "recurrence": ["lam_y"]}
        # a NoiseDraw sample keys fresh noise by each product's direction
        noisy = wrap_gaussian_noise(make_oracle(spec), 0.1, 0.1, seed=1)
        routes = self.routes(monkeypatch, noisy, point, NoiseDraw(stream=1, counter=2), cfg)
        assert routes == {"krylov": [], "recurrence": sorted(hzz + ["lam_y"])}


class TestMlAdjoint:
    def test_identity_example(self):
        spec = default_quadratic(6, 6, 6, rng=0)
        oracle = make_oracle(spec)
        e1 = np.eye(6)[0]
        point = Point(e1, np.zeros(6), closed_form_z(spec, e1, np.zeros(6)))
        for cfg in engines_for(oracle, point):
            g = ml_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
            np.testing.assert_allclose(g, -2.0 * e1, atol=1e-8)

    def test_vanishes_on_ml_solution(self):
        spec = default_quadratic(6, 6, 6, rng=0)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 20, 6)
        point = Point(x, x, closed_form_z(spec, x, x))
        g = ml_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        assert np.linalg.norm(g) <= 1e-10

    def test_decoupled_reduces_to_grad_y_f2(self):
        oracle = make_oracle(decoupled_spec())
        rng = np.random.default_rng(2)
        point = Point(rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4))
        expected = oracle.grad_y_f2(point, DETERMINISTIC)
        for cfg in engines_for(oracle, point):
            g = ml_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
            np.testing.assert_allclose(g, expected, atol=1e-9)


class TestGradXFbar:
    def test_matches_fd_of_fbar(self):
        spec = default_quadratic(5, 5, 5, rng=3)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 5, 5)
        y = rng.uniform(0, 5, 5)
        point = Point(x, y, closed_form_z(spec, x, y))

        def fbar(xv):
            z = closed_form_z(spec, xv, y)
            return oracle.f2(Point(xv, y, z), DETERMINISTIC)

        h = 1e-6
        fd = np.array([(fbar(x + h * e) - fbar(x - h * e)) / (2 * h) for e in np.eye(5)])
        for cfg in engines_for(oracle, point):
            g = grad_x_fbar(oracle, point, DETERMINISTIC, cfg)
            np.testing.assert_allclose(g, fd, atol=1e-5)

    def test_decoupled_reduces_to_grad_x_f2(self):
        oracle = make_oracle(decoupled_spec())
        point = Point(np.ones(4), np.ones(4), np.ones(4))
        expected = oracle.grad_x_f2(point, DETERMINISTIC)
        for cfg in engines_for(oracle, point):
            np.testing.assert_allclose(
                grad_x_fbar(oracle, point, DETERMINISTIC, cfg), expected, atol=1e-10
            )


class TestUlAdjoint:
    def test_identity_formula_on_solution_path(self):
        spec = default_quadratic(10, 10, 10, rng=4)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 20, 10)
        point = Point(x, x, 2 * x)
        expected = spec.h_x + spec.h_y + 2 * spec.h_z + 7 * x
        g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_decoupled_reduces_to_grad_x_f1(self):
        oracle = make_oracle(decoupled_spec())
        rng = np.random.default_rng(5)
        point = Point(rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4))
        expected = oracle.grad_x_f1(point, DETERMINISTIC)
        for cfg in engines_for(oracle, point):
            g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
            np.testing.assert_allclose(g, expected, atol=1e-8)

    def test_engines_agree_at_generic_point(self):
        spec = default_quadratic(10, 10, 10, rng=6)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(6)
        point = Point(rng.uniform(0, 20, 10), rng.uniform(0, 20, 10), rng.uniform(0, 20, 10))
        cfgs = engines_for(oracle, point)
        grads = [ul_adjoint_gradient(oracle, point, DETERMINISTIC, c) for c in cfgs]
        for i in range(len(grads)):
            for j in range(i + 1, len(grads)):
                rel = np.linalg.norm(grads[i] - grads[j]) / np.linalg.norm(grads[i])
                assert rel <= 1e-5

    def test_engines_match_analytic_reduced_gradient(self):
        spec = default_quadratic(10, 10, 10, rng=7)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 20, 10)
        point = closed_form_point(spec, x)
        expected = reduced_gradient(spec, x)
        for cfg in engines_for(oracle, point):
            g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
            assert np.linalg.norm(g - expected) / np.linalg.norm(expected) <= 1e-6

    def test_nfd_equals_h_for_any_eps_on_quadratic(self):
        # central differences are exact on affine maps, so the only gap is
        # the CG tolerance
        spec = default_quadratic(8, 8, 8, rng=8)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(8)
        point = Point(rng.uniform(0, 9, 8), rng.uniform(0, 9, 8), rng.uniform(0, 9, 8))
        gH = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        for eps in (1.0, 0.1, 1e-3):
            gN = ul_adjoint_gradient(
                oracle, point, DETERMINISTIC, AdjointConfig(engine="NFD", fd_eps=eps, cg_tol=1e-12)
            )
            np.testing.assert_allclose(gN, gH, rtol=1e-7)

    def test_quartic_h_matches_reduced_gradient(self):
        spec = default_quartic(rng=9)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.4, 0, 5)
        point = closed_form_point(spec, x)
        g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        expected = reduced_gradient(spec, x)
        assert np.linalg.norm(g - expected) / np.linalg.norm(expected) <= 1e-10

    def test_quartic_nfd_second_order_in_eps(self):
        spec = default_quartic(rng=10)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(10)
        # keep the first coordinate away from 0: the solution-path Hessian
        # scales with w^2 = (2 x_0)^2 and degenerates as x_0 -> 0
        point = closed_form_point(spec, rng.uniform(-0.4, -0.1, 5))
        gH = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        errs = []
        for eps in (0.1, 0.01):
            gN = ul_adjoint_gradient(
                oracle, point, DETERMINISTIC, AdjointConfig(engine="NFD", fd_eps=eps)
            )
            errs.append(np.linalg.norm(gN - gH) / np.linalg.norm(gH))
        assert errs[0] / errs[1] >= 50.0


def coupled_spec(cls, n=4, m=3, t=5, seed=0):
    """A spec whose blocks are all dense, so no solve is trivial."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((t, t))
    return cls(
        n=n, m=m, t=t,
        h_x=rng.uniform(0, 1, n), h_y=rng.uniform(0, 1, m), h_z=rng.uniform(0, 1, t),
        Hxx=np.eye(n), Hyy=4 * np.eye(m), Hzz=A @ A.T + t * np.eye(t),
        Hxy=0.3 * rng.standard_normal((n, m)), Hxz=0.3 * rng.standard_normal((n, t)),
        Hyz=0.3 * rng.standard_normal((m, t)),
    )


def ul_two_solve_reference(o, p, s=DETERMINISTIC):
    """The H engine's upper-level gradient as assembled before its stacked
    solve: every Hzz(f3) solve column by column by np.linalg.solve, and the
    correction term's derivatives through a second round of solves."""
    Hzz = np.asarray(o.hess_zz_f3(p, s), float)

    def inv(B):
        B = np.asarray(B, float)
        if B.ndim == 1:
            return np.linalg.solve(Hzz, B)
        return np.column_stack([np.linalg.solve(Hzz, col) for col in B.T])

    Hxz3, Hyz3 = np.asarray(o.hess_xz_f3(p, s)), np.asarray(o.hess_yz_f3(p, s))
    lam_z, w2 = inv(o.grad_z_f1(p, s)), inv(o.grad_z_f2(p, s))
    Jx, Jy = -inv(Hxz3.T), -inv(Hyz3.T)
    T_yzz = o.t3_yzz_f3_contract(p, s, w2)
    Bx = o.t3_zzx_f3_contract(p, s, w2) + o.t3_zzz_f3_contract(p, s, w2, Jx)
    Cx = o.hess_zx_f2(p, s) + o.hvp_zz_f2(p, s, Jx)
    dx = -(o.t3_yzx_f3_contract(p, s, w2) + T_yzz @ Jx) + Hyz3 @ inv(Bx - Cx)
    By = T_yzz.T + o.t3_zzz_f3_contract(p, s, w2, Jy)
    Cy = o.hess_yz_f2(p, s).T + o.hvp_zz_f2(p, s, Jy)
    dy = -(o.t3_yzy_f3_contract(p, s, w2) + T_yzz @ Jy) + Hyz3 @ inv(By - Cy)
    Hyx_bar = o.hess_yx_f2(p, s) + o.hess_yz_f2(p, s) @ Jx + dx
    Hyy_bar = o.hess_yy_f2(p, s) + o.hess_yz_f2(p, s) @ Jy + dy
    lam_y = np.linalg.solve(Hyy_bar, o.grad_y_f1(p, s) - Hyz3 @ lam_z)
    return o.grad_x_f1(p, s) - Hxz3 @ lam_z - Hyx_bar.T @ lam_y


class TestDenseSolves:
    @pytest.mark.parametrize("cls", [QuadraticSpec, QuarticSpec], ids=["quadratic", "quartic"])
    def test_stacked_solve_matches_two_solve_reference(self, cls):
        # one Hzz solve against stacked right-hand sides and the symmetry
        # identity Hyz3 Hzz^{-1} = -Jy^T give the old formula's gradient
        oracle = make_oracle(coupled_spec(cls))
        rng = np.random.default_rng(31)
        for _ in range(3):
            point = Point(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 5))
            for _ in range(2):  # a one-shot solve, then the memo's inverse
                g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
                np.testing.assert_allclose(g, ul_two_solve_reference(oracle, point), rtol=1e-10)

    @pytest.mark.parametrize("cls", [QuadraticSpec, QuarticSpec], ids=["quadratic", "quartic"])
    def test_wide_x_matches_two_solve_reference(self, cls):
        # n >> m: the x side is a vector-Jacobian product, never a t x n Jacobian
        n, m, t = 12, 2, 5
        oracle = make_oracle(coupled_spec(cls, n=n, m=m, t=t, seed=4))
        rng = np.random.default_rng(41)
        for _ in range(3):
            point = Point(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m), rng.uniform(-1, 1, t))
            g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
            np.testing.assert_allclose(g, ul_two_solve_reference(oracle, point), rtol=1e-10)

    def test_ul_gradient_solves_hzz_against_m_plus_2_columns_then_one(self, monkeypatch):
        # the quartic's Hzz(f3) is solved by Sherman-Morrison, against m+2
        # columns and then one; the only dense solve is Hbar_yy's, m x m
        n, m, t = 12, 3, 5
        cols, dense, lookups = [], [], []
        structured = linalg.RankOneUpdate.solve

        def record(self, B):
            cols.append(np.shape(B)[1] if np.ndim(B) == 2 else 1)
            return structured(self, B)

        def spy(solve):
            return lambda A, B: dense.append(np.shape(A)) or solve(A, B)

        monkeypatch.setattr(linalg.RankOneUpdate, "solve", record)
        monkeypatch.setattr(adjoint, "solve_dense", spy(adjoint.solve_dense))
        monkeypatch.setattr(linalg, "solve_dense", spy(linalg.solve_dense))
        monkeypatch.setattr(adjoint, "lu_factor_cached", lambda A: lookups.append(A))
        oracle = make_oracle(coupled_spec(QuarticSpec, n=n, m=m, t=t))
        point = Point(np.full(n, 0.1), np.full(m, -0.2), np.full(t, 0.3))
        ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        assert cols == [m + 2, 1]
        assert dense == [(m, m)] and lookups == []

    def test_reruns_on_one_oracle_are_bit_equal(self):
        # the constant Hzz carries its inverse, so a gradient does not depend
        # on what the process solved before it
        spec = coupled_spec(QuadraticSpec, seed=0)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, default_init_point(spec, rng=1).x)
        first, second = (ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
                         for _ in range(2))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("problem, inversions", [
        (default_quadratic, 1), (default_quartic, 1),
    ], ids=["quadratic", "quartic"])
    def test_run_inverts_a_constant_hzz_once(self, monkeypatch, problem, inversions):
        # the quadratic returns one ConstantMatrix, inverted on its first
        # solve; the quartic inverts its spec's Hzz on its first solve and
        # solves every later c Hzz + u u' by Sherman-Morrison against that inverse
        calls = []
        factor = linalg.lu_factor
        monkeypatch.setattr(linalg, "lu_factor", lambda A: calls.append(A) or factor(A))
        spec = problem(4, 4, 4, rng=3)
        trace = run_tsg(make_oracle(spec), default_init_point(spec, rng=4), Decaying(0.3, 0.2, 0.1),
                        IterationBudget(4, j0=2, k0=3), AdjointConfig(engine="H"))
        assert not trace.aborted and len(trace.records) == 4
        assert len(calls) == inversions
        if inversions:
            assert calls[0] is spec.Hzz


class CountingOracle:
    """Delegates to an inner oracle, recording every sample it sees.

    Deliberately not a ProblemOracle subclass: the base class defines all
    evaluation methods, which would shadow the delegating __getattr__.
    """

    def __init__(self, inner):
        self.inner = inner
        self.samples = []
        self.capabilities = inner.capabilities
        self.dims = inner.dims

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if not callable(target):
            return target

        def wrapper(point, sample, *rest):
            self.samples.append(sample)
            return target(point, sample, *rest)

        return wrapper


class TestContracts:
    def test_fixed_sample_within_one_call(self):
        spec = default_quadratic(5, 5, 5, rng=11)
        counting = CountingOracle(make_oracle(spec))
        rng = np.random.default_rng(11)
        point = Point(rng.uniform(0, 9, 5), rng.uniform(0, 9, 5), rng.uniform(0, 9, 5))
        marker = Deterministic()
        for cfg in engines_for(make_oracle(spec), point):
            counting.samples.clear()
            ul_adjoint_gradient(counting, point, marker, cfg)
            assert len(counting.samples) > 0
            assert all(s is marker for s in counting.samples)

    def test_curvature_event_flagged(self):
        class IndefiniteOracle(ProblemOracle):
            @property
            def dims(self):
                return 2, 2, 2

            def grad_z_f2(self, p, s):
                return np.ones(2)

            def grad_y_f2(self, p, s):
                return np.ones(2)

            def grad_y_f3(self, p, s):
                return np.zeros(2)

            def grad_z_f3(self, p, s):
                return -p.z  # concave lower level: FD HVP gives -I

        events = []
        g = ml_adjoint_gradient(
            IndefiniteOracle(),
            Point(np.zeros(2), np.zeros(2), np.zeros(2)),
            DETERMINISTIC,
            AdjointConfig(engine="NFD"),
            events=events,
        )
        assert any("cg_curvature" in e for e in events)
        assert np.all(np.isfinite(g))

    def test_capped_cg_flagged(self):
        # Hzz with four distinct eigenvalues: CG needs four iterations
        spec = replace(default_quadratic(4, 4, 4, rng=0), Hzz=np.diag([1.0, 2.0, 3.0, 4.0]))
        oracle = make_oracle(spec)
        rng = np.random.default_rng(5)
        point = Point(rng.uniform(0, 9, 4), rng.uniform(0, 9, 4), rng.uniform(0, 9, 4))
        capped, converged = [], []
        ml_adjoint_gradient(oracle, point, DETERMINISTIC,
                            AdjointConfig(engine="NFD", cg_max_iters=1), events=capped)
        ml_adjoint_gradient(oracle, point, DETERMINISTIC,
                            AdjointConfig(engine="NFD"), events=converged)
        assert capped == ["cg_capped:ml_w"]
        assert converged == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdjointConfig(engine="XX")
        with pytest.raises(ValueError):
            AdjointConfig(engine="AD", fd_eps=-1)
        cfg = AdjointConfig(engine="AD")  # q/c0/c1 checked at use
        oracle = make_oracle(default_quadratic(3, 3, 3, rng=0))
        p = Point(np.ones(3), np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="neumann_q"):
            ml_adjoint_gradient(oracle, p, DETERMINISTIC, cfg)
        with pytest.raises(ValueError, match="positive c0"):
            ml_adjoint_gradient(oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=5))
        with pytest.raises(ValueError, match="positive c1"):
            ul_adjoint_gradient(
                oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=5, c0=1.0)
            )
        with pytest.raises(ValueError, match="positive c1"):
            bilevel_adjoint_gradient(
                oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=5, c0=1.0, c1=-1.0)
            )

    @pytest.mark.parametrize("knob", ["fd_eps", "cg_tol", "c0", "c1", "scale", "krylov-scale", "tol"])
    def test_nan_knobs_are_rejected(self, knob):
        # NaN fails every comparison, so a `<= 0` check would let it through
        nan = float("nan")
        oracle = make_oracle(default_quadratic(3, 3, 3, rng=0))
        p = Point(np.ones(3), np.ones(3), np.ones(3))
        b = np.ones(3)
        calls = {
            "fd_eps": lambda: AdjointConfig(engine="NFD", fd_eps=nan),
            "cg_tol": lambda: AdjointConfig(engine="NFD", cg_tol=nan),
            "c0": lambda: ml_adjoint_gradient(
                oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=5, c0=nan, c1=1.0)),
            "c1": lambda: ul_adjoint_gradient(
                oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=5, c0=1.0, c1=nan)),
            "scale": lambda: neumann_inverse_apply(lambda v: v, b, 5, nan),
            "krylov-scale": lambda: neumann_krylov_apply(lambda v: v, b, 5, nan),
            "tol": lambda: linalg.cg_solve(lambda v: v, b, tol=nan),
        }
        with pytest.raises(ValueError, match=knob.split("-")[-1]):
            calls[knob]()

    @pytest.mark.parametrize("value", [float("nan"), 2.5], ids=["nan", "fraction"])
    @pytest.mark.parametrize("knob", ["cg_max_iters", "neumann_q", "at-use-neumann_q", "Q", "krylov-Q",
                                      "max_iters"])
    def test_counts_must_be_integers(self, knob, value):
        # a float count would otherwise die in range() with a TypeError that
        # names no knob; Python and numpy integers pass
        oracle = make_oracle(default_quadratic(3, 3, 3, rng=0))
        p = Point(np.ones(3), np.ones(3), np.ones(3))
        b = np.ones(3)

        def at_use(q):
            cfg = AdjointConfig(engine="AD", neumann_q=2, c0=1.0, c1=1.0)
            cfg.neumann_q = q
            return ml_adjoint_gradient(oracle, p, DETERMINISTIC, cfg)

        calls = {
            "cg_max_iters": lambda q: AdjointConfig(engine="NFD", cg_max_iters=q),
            "neumann_q": lambda q: AdjointConfig(engine="AD", neumann_q=q, c0=1.0, c1=1.0),
            "at-use-neumann_q": at_use,
            "Q": lambda q: neumann_inverse_apply(lambda v: v, b, q, 0.5),
            "krylov-Q": lambda q: neumann_krylov_apply(lambda v: v, b, q, 0.5),
            "max_iters": lambda q: linalg.cg_solve(lambda v: v, b, max_iters=q),
        }
        with pytest.raises(ValueError, match=knob.split("-")[-1]):
            calls[knob](value)
        calls[knob](np.int64(2))
        calls[knob](2)

    def test_ad_bilevel_needs_no_c0(self):
        # the bilevel gradient's only series inverts H_yy(f2) at 1/c1
        oracle = make_oracle(default_quadratic(3, 3, 3, rng=0))
        p = Point(np.ones(3), np.ones(3), np.ones(3))
        with_c0 = bilevel_adjoint_gradient(
            oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=20, c0=1.0, c1=8.0)
        )
        without_c0 = bilevel_adjoint_gradient(
            oracle, p, DETERMINISTIC, AdjointConfig(engine="AD", neumann_q=20, c1=8.0)
        )
        np.testing.assert_array_equal(without_c0, with_c0)


class TestNeumannGuard:
    def test_ad_engine_survives_stale_scale(self):
        # scale constant far below the Hessian norm: the raw series would
        # overflow; the engine truncates, flags the event, stays finite
        spec = default_quadratic(4, 4, 4, rng=30)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(30)
        point = Point(rng.uniform(0, 9, 4), rng.uniform(0, 9, 4), rng.uniform(0, 9, 4))
        events = []
        cfg = AdjointConfig(engine="AD", neumann_q=400, c0=1e-6, c1=1e-6)
        g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, cfg, events=events)
        assert np.all(np.isfinite(g))
        assert any(e.startswith("neumann_truncated") for e in events)

    def test_guard_inactive_on_contractive_series(self):
        spec = default_quadratic(4, 4, 4, rng=31)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(4))
        c0, c1 = auto_scales(oracle, point)
        events = []
        gA = ul_adjoint_gradient(
            oracle, point, DETERMINISTIC,
            AdjointConfig(engine="AD", neumann_q=60, c0=c0, c1=c1), events=events,
        )
        gH = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        assert not events
        np.testing.assert_allclose(gA, gH, rtol=1e-8)


class TestAutoScales:
    def test_identity_instance_values(self):
        spec = default_quadratic(6, 6, 6, rng=12)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(6))
        c0, c1 = auto_scales(oracle, point)
        assert c0 == pytest.approx(2.0)
        # reduced middle-level Hessian is 2I on this instance
        assert c1 == pytest.approx(4.0, rel=1e-3)

    def test_pinned_c0(self):
        spec = default_quadratic(4, 4, 4, rng=13)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(4))
        c0, _ = auto_scales(oracle, point, c0=3.5)
        assert c0 == 3.5

    @staticmethod
    def ad_hbar_yy(monkeypatch, oracle, point, q, c0):
        """The Hbar_yy that AD's UL gradient hands its solve_yy at point."""
        seen = []
        reduced = adjoint._ul_reduced

        def spy(o, p, s, solve_zz, solve_yy):
            return reduced(o, p, s, solve_zz, lambda A, b, label: seen.append(A) or solve_yy(A, b, label))

        monkeypatch.setattr(adjoint, "_ul_reduced", spy)
        ul_adjoint_gradient(oracle, point, DETERMINISTIC,
                            AdjointConfig(engine="AD", neumann_q=q, c0=c0, c1=1.0))
        monkeypatch.undo()
        return seen[0]

    @pytest.mark.parametrize("family", ["quadratic", "advhpt"])
    def test_c1_doubles_the_norm_of_ads_hbar_yy(self, monkeypatch, family):
        if family == "quadratic":
            spec = default_quadratic(5, 4, 3, rng=12)
            oracle = make_oracle(spec)
            point = closed_form_point(spec, np.ones(5))
            q, c0 = 20, None
        else:  # the CLI's probe: split 7's init_point, c0 pinned to 1, Q = 30
            ds = ah.load_csv(ah.bundled_dataset_path())
            problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
            oracle, point = ah.build_oracle(problem, ds), ah.init_point(problem)
            q, c0 = 30, 1.0
        c0, c1 = auto_scales(oracle, point, neumann_q=q, c0=c0)
        hbar = self.ad_hbar_yy(monkeypatch, oracle, point, q, c0)
        assert c1 == pytest.approx(2.0 * np.abs(np.linalg.eigvalsh(hbar)).max(), rel=1e-12)
        if family == "advhpt":
            # five FD power iterations read 87.72 here
            assert c1 == pytest.approx(87.39, rel=1e-3)

    def test_probe_stops_at_hbar_yy(self, monkeypatch):
        # c1 needs only Hbar_yy, so the probe runs none of the gradient's x
        # side, and its c1 is bit for bit that of the matrix AD inverts
        spec = coupled_spec(QuadraticSpec, seed=3)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(spec.n))
        x_side = ("grad_x_f1", "hess_yx_f2", "hess_zx_f2", "t3_yzx_f3_contract", "t3_zzx_f3_contract")
        called = []
        for name in x_side:
            method = getattr(oracle, name)
            setattr(oracle, name, lambda *a, _n=name, _m=method: called.append(_n) or _m(*a))
        c0, c1 = auto_scales(oracle, point, neumann_q=20)
        assert called == []
        hbar = self.ad_hbar_yy(monkeypatch, oracle, point, 20, c0)
        assert set(called) == set(x_side)
        assert c1 == 2.0 * float(np.linalg.norm(hbar, 2))

    def test_bilevel_c1_doubles_the_norm_of_hyy_f2(self):
        # a spread spectrum, on which five power iterations stop short
        M = np.random.default_rng(15).normal(0, 1, (5, 5))
        spec = replace(default_quadratic(4, 5, 3, rng=15), Hyy=M @ M.T / 5 + 4.0 * np.eye(5))
        oracle = make_oracle(spec)
        point = default_init_point(spec, rng=16)
        Hyy = oracle.hess_yy_f2(point, DETERMINISTIC)
        assert auto_scale_bilevel(oracle, point) == pytest.approx(
            2.0 * np.abs(np.linalg.eigvalsh(Hyy)).max(), rel=1e-12)


class TestBilevelGradient:
    def test_matches_fd_of_frozen_z_reduction(self):
        spec = default_quadratic(5, 5, 5, rng=14)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(14)
        x = rng.uniform(0, 5, 5)
        z_bar = rng.uniform(0, 5, 5)

        def y_of(xv):
            return np.linalg.solve(spec.Hyy, spec.Hyx @ xv + spec.Hyz @ z_bar)

        def f_red(xv):
            return oracle.f1(Point(xv, y_of(xv), z_bar), DETERMINISTIC)

        h = 1e-6
        fd = np.array([(f_red(x + h * e) - f_red(x - h * e)) / (2 * h) for e in np.eye(5)])
        point = Point(x, y_of(x), z_bar)
        c1 = auto_scale_bilevel(oracle, point)
        for cfg in [
            AdjointConfig(engine="H"),
            AdjointConfig(engine="NFD"),
            AdjointConfig(engine="AD", neumann_q=60, c0=1.0, c1=c1),
        ]:
            g = bilevel_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
            np.testing.assert_allclose(g, fd, atol=2e-5)

    def test_ad_matches_h_on_advhpt(self):
        # AD's products are the oracle's H_yy(f2) and H_yx(f2), so a long
        # series reaches H's gradient
        ds = ah.load_csv(ah.bundled_dataset_path())
        problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
        oracle = ah.build_oracle(problem, ds)
        _, m, t = problem.dims
        gen = np.random.default_rng(0)
        point = Point(0.5 * gen.standard_normal(1), 0.5 * gen.standard_normal(m), np.zeros(t))
        cfg = AdjointConfig(engine="AD", neumann_q=100, c1=auto_scale_bilevel(oracle, point))
        events = []
        g_ad = bilevel_adjoint_gradient(oracle, point, DETERMINISTIC, cfg, events)
        g_h = bilevel_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        assert events == []
        np.testing.assert_allclose(g_ad, g_h, rtol=1e-10)


class TestReducedPath:
    """AD's UL gradient runs the H engine's reduced-Hessian algebra with
    truncated Neumann solves on every sample; NFD keeps the FD reduced
    products."""

    @staticmethod
    def paths(monkeypatch):
        # "exact": the reduced-Hessian algebra; "fd" and "cg": NFD's central
        # differences and CG solves
        taken = []
        for name, tag in (("_ul_reduced", "exact"), ("_fd_dir", "fd"), ("_cg", "cg")):
            fn = getattr(adjoint, name)
            monkeypatch.setattr(adjoint, name,
                                lambda *a, _fn=fn, _tag=tag, **k: taken.append(_tag) or _fn(*a, **k))
        return taken

    @pytest.mark.parametrize("family", ["quadratic", "quartic"])
    def test_matches_h_with_q_sized_as_criterion_02(self, family):
        if family == "quadratic":
            spec = default_quadratic(10, 10, 10, rng=0)
            x = np.random.default_rng(1).uniform(0.0, 20.0, 10)
        else:  # t = 1
            spec = default_quartic(rng=0)
            x = np.random.default_rng(2).uniform(-0.4, -0.1, 5)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, x)
        c0, c1 = auto_scales(oracle, point)
        # Hbar_yy as the H engine assembles it, for the outer series' rate
        hbar = []
        solve_zz = adjoint._make_solve_zz(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"), None)
        adjoint._ul_reduced(oracle, point, DETERMINISTIC, solve_zz,
                            lambda H, b, label: hbar.append(H) or np.linalg.solve(H, b))
        rho = max(float(np.max(np.abs(1.0 - np.linalg.eigvalsh(A) / c)))
                  for A, c in ((oracle.hess_zz_f3(point, DETERMINISTIC), c0), (hbar[0], c1)))
        # Q from the geometric truncation bound rho^{Q+1}/(1-rho) <= 1e-8
        q = max(0, math.ceil(math.log(1e-8 * (1 - rho)) / math.log(rho)) - 1)
        events = []
        g_ad = ul_adjoint_gradient(oracle, point, DETERMINISTIC,
                                   AdjointConfig(engine="AD", neumann_q=q, c0=c0, c1=c1), events)
        g_h = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        assert events == []
        assert np.linalg.norm(g_ad - g_h) <= 1e-8 * np.linalg.norm(g_h)

    def test_only_nfd_takes_the_fd_path(self, monkeypatch):
        spec = default_quadratic(3, 3, 3, rng=9)
        point = closed_form_point(spec, np.ones(3))
        cfg = AdjointConfig(engine="AD", neumann_q=6, c0=2.0, c1=3.0)
        noisy = wrap_gaussian_noise(make_oracle(spec), 0.1, 0.1, seed=1)
        taken = self.paths(monkeypatch)
        for sample in (NoiseDraw(stream=1, counter=2), DETERMINISTIC):
            ul_adjoint_gradient(noisy, point, sample, cfg)
            assert taken == ["exact"]
            taken.clear()
            ul_adjoint_gradient(noisy, point, sample, AdjointConfig(engine="NFD"))
            assert set(taken) == {"fd", "cg"}
            taken.clear()

    def test_ad_reaches_no_finite_difference(self, monkeypatch):
        # AD's gradients and scales take oracle products only; NFD's FD
        # primitives (_fd_dir, _cg) are NFD's alone
        spec = default_quadratic(3, 3, 3, rng=9)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(3))
        calls = self.paths(monkeypatch)
        c0, c1 = auto_scales(oracle, point)
        c1_bilevel = auto_scale_bilevel(oracle, point)
        cfg = AdjointConfig(engine="AD", neumann_q=6, c0=c0, c1=c1)
        for fn in (ml_adjoint_gradient, grad_x_fbar, ul_adjoint_gradient):
            fn(oracle, point, DETERMINISTIC, cfg)
        bilevel_adjoint_gradient(oracle, point, DETERMINISTIC, replace(cfg, c1=c1_bilevel))
        assert set(calls) == {"exact"}
        calls.clear()
        ml_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="NFD"))
        assert set(calls) == {"fd", "cg"}

    def test_ad_on_a_zero_noise_draw_matches_deterministic(self):
        # a NoiseDraw keeps the Hzz series on the recurrence, which gives
        # the Krylov evaluation's sum up to rounding
        quartic = default_quartic(3, 3, 2, rng=5)
        oracle = make_oracle(quartic)
        point = default_init_point(quartic, rng=6)
        silent = wrap_gaussian_noise(oracle, 0.0, 0.0, seed=1)
        cfg = AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=6, c0=2.0, c1=3.0)
        g_draw = ul_adjoint_gradient(silent, point, NoiseDraw(stream=1, counter=2), cfg)
        g_det = ul_adjoint_gradient(oracle, point, DETERMINISTIC, cfg)
        np.testing.assert_allclose(g_draw, g_det, rtol=1e-12)

    def test_advhpt_forms_no_t_by_t_array(self, monkeypatch):
        ds = ah.load_csv(ah.bundled_dataset_path())
        problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
        inner = ah.build_oracle(problem, ds)
        gen = np.random.default_rng(3)
        _, m, t = problem.dims
        point = Point(np.array([0.1]), gen.normal(0, 0.3, m), gen.normal(0, 0.05, t))
        batch = MinibatchIndices(tuple(int(i) for i in gen.permutation(problem.n_train)[:16]))
        shapes = {}

        class ShapeSpy:
            capabilities = inner.capabilities

            def __getattr__(self, name):
                fn = getattr(inner, name)

                def call(*args):
                    out = fn(*args)
                    shapes.setdefault(name, set()).add(np.shape(out))
                    return out

                return call

        taken = self.paths(monkeypatch)
        cfg = AdjointConfig(engine="AD", neumann_q=30, c0=1.0, c1=3e5)
        g = ul_adjoint_gradient(ShapeSpy(), point, batch, cfg)
        assert taken == ["exact"] and np.all(np.isfinite(g))
        assert "t3_yzz_f3_contract" in shapes and "hess_zz_f3" not in shapes
        for name, seen in shapes.items():
            for shape in seen:
                assert sum(d == t for d in shape) < 2, (name, shape)


class TestPinned:
    # recorded gradients and events of the matrix-free engines: any
    # reordering of their float operations, or a renamed event, shows here.
    # The quartic point has nonzero third-order terms and FD error; on the
    # quadratic the AD engine takes the oracle's analytic HVPs. AD's UL
    # gradient runs the reduced-Hessian algebra, and its bilevel gradient
    # the oracle's H_yy(f2) and H_yx(f2)
    RECORDED = {
        ("quadratic", "ml", "NFD"): (
            ["-0x1.9a31e70314aa3p+1", "-0x1.8e429960bbec1p+2", "0x1.518ca981919bep+2"],
            [],
        ),
        ("quadratic", "ml", "AD"): (
            ["-0x1.979f6a7fb2fe7p+1", "-0x1.8e0478910a83bp+2", "0x1.53464d96e95bep+2"],
            [],
        ),
        ("quadratic", "ml", "AD-stale"): (
            ["-0x1.979f6a7fb2fe7p+1", "-0x1.8e0478910a83bp+2", "0x1.53464d96e95bep+2"],
            [],
        ),
        ("quadratic", "ul", "NFD"): (
            ["0x1.b272dbfeeb28ep+5", "0x1.3c06058fe3a14p+5", "0x1.0339421fe7047p+5"],
            [],
        ),
        ("quadratic", "ul", "AD"): (
            ["0x1.aefa5271e28e6p+5", "0x1.399181acfc80bp+5", "0x1.0147280019913p+5"],
            [],
        ),
        ("quadratic", "ul", "AD-stale"): (
            ["0x1.40bb0ce91052ep+9", "0x1.d1330453ad9f2p+8", "0x1.955fc75e5d6d8p+8"],
            ["neumann_truncated:lam_y@3"],
        ),
        ("quadratic", "bilevel", "NFD"): (
            ["0x1.811bcc8702484p+4", "0x1.23248afaf2ce9p+4", "0x1.f98b1901cd634p+3"],
            [],
        ),
        ("quadratic", "bilevel", "AD"): (
            ["0x1.8120878658e84p+4", "0x1.232833374c945p+4", "0x1.f99307e7025aep+3"],
            [],
        ),
        ("quadratic", "bilevel", "AD-stale"): (
            ["-0x1.8ec595e0f20fep+6", "-0x1.35f137090e414p+6", "-0x1.5fea99883645dp+6"],
            ["neumann_truncated:bilevel_lam@2"],
        ),
        # NFD on a noise draw: every Hessian product and CG solve is noisy
        ("quadratic-noisy", "ml", "NFD"): (
            ["-0x1.b4e5ceb5f984fp+1", "-0x1.ce7340cf286d0p+2", "0x1.bfb2d1ee524a4p+1"],
            ["cg_capped:ml_w"],
        ),
        ("quadratic-noisy", "ul", "NFD"): (
            ["0x1.116ae09adf712p+6", "0x1.77ffc239f45bcp+5", "0x1.9f89784dd3349p+4"],
            ["cg_capped:lam_z", "cg_curvature:track", "cg_capped:ml_w", "cg_capped:ml_w",
             "cg_capped:track", "cg_capped:ml_w", "cg_capped:ml_w", "cg_capped:track",
             "cg_curvature:ml_w", "cg_capped:ml_w", "cg_curvature:lam_y", "cg_capped:track",
             "cg_curvature:gx_w", "cg_capped:gx_w"],
        ),
        ("quadratic-noisy", "bilevel", "NFD"): (
            ["0x1.89c7bdc748049p+4", "0x1.3b84ffd5e57b5p+4", "0x1.f36de4e87c616p+3"],
            ["cg_capped:bilevel_lam"],
        ),
        ("quartic", "ml", "NFD"): (
            ["0x1.a9c1578826b10p-7", "0x1.4df6cedcabe9dp-1", "-0x1.5353f95422848p-5"],
            ["cg_capped:ml_w"],
        ),
        ("quartic", "ml", "AD"): (
            ["-0x1.a4d5029a32191p-4", "0x1.53db45aa50e38p-1", "-0x1.5353f95422848p-5"],
            [],
        ),
        ("quartic", "ml", "AD-stale"): (
            ["-0x1.a4d5029a32191p-4", "0x1.53db45aa50e38p-1", "-0x1.5353f95422848p-5"],
            [],
        ),
        ("quartic", "ul", "NFD"): (
            ["-0x1.b7b50c704d4cbp+0", "-0x1.275f229ba4fe0p+0", "-0x1.3871e54263f17p-2"],
            ["cg_capped:lam_z", "cg_capped:track", "cg_capped:ml_w", "cg_capped:ml_w",
             "cg_capped:track", "cg_capped:ml_w", "cg_capped:ml_w", "cg_capped:lam_y",
             "cg_capped:track", "cg_capped:gx_w", "cg_capped:gx_w"],
        ),
        ("quartic", "ul", "AD"): (
            ["-0x1.34c42486105f0p-1", "-0x1.e6d6991ed028ap-1", "-0x1.4fb0c8a9be02cp-2"],
            [],
        ),
        ("quartic", "ul", "AD-stale"): (
            ["0x1.33630daa5cf08p+1", "0x1.e3804f69ff744p+1", "0x1.25a68d9ad805cp+1"],
            ["neumann_truncated:lam_y@2"],
        ),
        ("quartic", "bilevel", "NFD"): (
            ["-0x1.dae8d3793a46ap-2", "-0x1.4d2fc756a4554p-1", "-0x1.4faa5eb80b0bcp-2"],
            [],
        ),
        ("quartic", "bilevel", "AD"): (
            ["-0x1.daed81627394dp-2", "-0x1.4d33a24029175p-1", "-0x1.4fb0c8a9be02cp-2"],
            [],
        ),
        ("quartic", "bilevel", "AD-stale"): (
            ["0x1.72f8d2138a534p+0", "0x1.4025c3b465630p+1", "0x1.25a68d9ad805cp+1"],
            ["neumann_truncated:bilevel_lam@2"],
        ),
    }

    def test_gradients_and_events_pinned(self):
        quartic = default_quartic(3, 3, 2, rng=5)
        quadratic = make_oracle(default_quadratic(3, 3, 3, rng=5))
        gen = np.random.default_rng(5)
        point = Point(gen.uniform(0, 9, 3), gen.uniform(0, 9, 3), gen.uniform(0, 9, 3))
        cases = {
            "quadratic": (quadratic, point, DETERMINISTIC),
            "quadratic-noisy": (wrap_gaussian_noise(quadratic, 0.1, 0.01, seed=1), point,
                                NoiseDraw(stream=1, counter=2)),
            "quartic": (make_oracle(quartic), default_init_point(quartic, rng=6), DETERMINISTIC),
        }
        cfgs = {
            "NFD": AdjointConfig(engine="NFD", fd_eps=0.1, cg_max_iters=2),
            "AD": AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=6, c0=2.0, c1=3.0),
            "AD-stale": AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=6, c0=2.0, c1=0.5),
        }
        fns = {"ml": ml_adjoint_gradient, "ul": ul_adjoint_gradient,
               "bilevel": bilevel_adjoint_gradient}
        for (problem, fn, engine), (grad, flags) in self.RECORDED.items():
            oracle, point, sample = cases[problem]
            events = []
            g = fns[fn](oracle, point, sample, cfgs[engine], events=events)
            expected = np.array([float.fromhex(h) for h in grad])
            np.testing.assert_array_equal(g, expected, err_msg=f"{problem}/{fn}/{engine}")
            assert events == flags, (problem, fn, engine)

    def test_advhpt_ad_gradients_pinned(self):
        # adv-hpt split 7 on an unsorted minibatch: the AD engine's nested
        # Neumann series run on the oracle's hvp_zz_f3 products. The x
        # gradient is a difference of penalty gradients that cancels most
        # bits, so the y gradient is pinned too: it moves with the last bit
        # of an Hzz product
        ds = ah.load_csv(ah.bundled_dataset_path())
        problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
        oracle = ah.build_oracle(problem, ds)
        gen = np.random.default_rng(7)
        _, m, t = problem.dims
        point = Point(np.array([0.2]), gen.normal(0, 0.3, m), gen.normal(0, 0.05, t))
        batch = MinibatchIndices(tuple(int(i) for i in gen.permutation(problem.n_train)[:20]))
        cfg = AdjointConfig(engine="AD", neumann_q=6, c0=0.06, c1=3e5)
        events = []
        g = ul_adjoint_gradient(oracle, point, batch, cfg, events=events)
        np.testing.assert_array_equal(g, [float.fromhex("0x1.916bbecad6badp-19")])
        assert events == []
        g = ml_adjoint_gradient(oracle, point, batch, cfg, events=events)
        expected = ["0x1.073749c494a29p+1", "0x1.f505c735a4b5ep+5", "-0x1.d187ca38e84b4p+5",
                    "-0x1.4de22c2a6ea6cp+7", "-0x1.1e526d4f51529p+6", "0x1.db806e5e01b74p+3"]
        np.testing.assert_array_equal(g, [float.fromhex(h) for h in expected])
        assert events == []
