import numpy as np
import pytest

from trilevel.adjoint import AdjointConfig, auto_scales, ul_adjoint_gradient
from trilevel.oracle import DETERMINISTIC, Point
from trilevel.synthetic import (
    QuadraticSpec,
    closed_form_point,
    default_init_point,
    default_quadratic,
    default_quartic,
    make_oracle,
)
from trilevel.verify import (
    AgreementReport,
    InnerSolveError,
    engine_agreement_report,
    fd_grad_f,
    solve_inner,
    solve_ll,
)


class TestFdGradF:
    def test_quadratic_identity_formula(self):
        spec = default_quadratic(8, 8, 8, rng=0)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 20, 8)
        g = fd_grad_f(oracle, x, spec=spec)
        expected = spec.h_x + spec.h_y + 2 * spec.h_z + 7 * x
        np.testing.assert_allclose(g, expected, atol=1e-7 * max(1, np.abs(expected).max()))

    def test_closed_form_requires_quadratic(self):
        oracle = make_oracle(default_quartic(rng=0))
        with pytest.raises(ValueError, match="QuadraticSpec"):
            fd_grad_f(oracle, np.zeros(5), spec=default_quartic(rng=0))

    def test_decoupled_reduces_to_grad_x_f1(self):
        spec = QuadraticSpec(
            n=3, m=3, t=3,
            h_x=np.array([1.0, 2.0, 3.0]), h_y=np.ones(3), h_z=np.ones(3),
            Hxx=np.eye(3), Hyy=2 * np.eye(3), Hzz=np.eye(3),
            Hxy=np.zeros((3, 3)), Hxz=np.zeros((3, 3)), Hyz=np.zeros((3, 3)),
        )
        oracle = make_oracle(spec)
        x = np.array([0.5, -1.0, 2.0])
        g = fd_grad_f(oracle, x, spec=spec)
        # decoupled: y(x)=0, z(x)=0, f = h_x'x + 0.5|x|^2 + const terms
        np.testing.assert_allclose(g, spec.h_x + x, atol=1e-8)

    def test_descent_referee_matches_h_engine_on_quartic(self):
        spec = default_quartic(rng=3)
        oracle = make_oracle(spec)
        init = default_init_point(spec, rng=3)
        g_fd = fd_grad_f(oracle, init.x, warm=init)
        g_h = ul_adjoint_gradient(
            oracle, closed_form_point(spec, init.x), DETERMINISTIC, AdjointConfig(engine="H")
        )
        assert np.linalg.norm(g_fd - g_h) / np.linalg.norm(g_h) <= 5e-4

    def test_self_consistency_under_eps_halving(self):
        # second-order scheme: the change from halving eps shrinks by ~4x
        # (the reduced objective is quadratic in x, so both changes sit at
        # the roundoff floor; the bound holds with an absolute floor)
        spec = default_quadratic(6, 6, 6, rng=1)
        oracle = make_oracle(spec)
        x = np.linspace(0, 5, 6)
        g1 = fd_grad_f(oracle, x, spec=spec, eps=4e-4)
        g2 = fd_grad_f(oracle, x, spec=spec, eps=2e-4)
        g3 = fd_grad_f(oracle, x, spec=spec, eps=1e-4)
        change1 = np.max(np.abs(g1 - g2))
        change2 = np.max(np.abs(g2 - g3))
        assert change2 <= change1 * 4.0 + 1e-8

    def test_inner_solver_error_reports_residual(self):
        oracle = make_oracle(default_quartic(rng=4))
        # z0 sits between the two roots (0 and -0.3), far from both
        with pytest.raises(InnerSolveError, match="residual"):
            solve_ll(oracle, -0.2 * np.ones(5), -0.1 * np.ones(5), -0.55 * np.ones(1),
                     tol=1e-14, max_iters=3)

    def test_solve_inner_reaches_tolerance(self):
        spec = default_quartic(rng=5)
        oracle = make_oracle(spec)
        init = default_init_point(spec, rng=3)
        y, z = solve_inner(oracle, init.x, init.y, init.z, tol=1e-10, max_iters=100000)
        from trilevel.adjoint import ml_adjoint_gradient

        g = ml_adjoint_gradient(oracle, Point(init.x, y, z), DETERMINISTIC, AdjointConfig(engine="H"))
        assert np.linalg.norm(g) <= 1e-10
        res = oracle.grad_z_f3(Point(init.x, y, z), DETERMINISTIC)
        assert np.linalg.norm(res) <= 1e-10


class TestAgreementReport:
    def test_identical_configs_zero_discrepancy(self):
        spec = default_quadratic(5, 5, 5, rng=2)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(5))
        cfg = AdjointConfig(engine="H")
        report = engine_agreement_report(oracle, point, [cfg, cfg], labels=["a", "b"])
        assert report.pair_error("a", "b") == 0.0

    def test_engines_and_fd_within_tolerance(self):
        spec = default_quadratic(6, 6, 6, rng=3)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 20, 6)
        point = closed_form_point(spec, x)
        c0, c1 = auto_scales(oracle, point, neumann_q=40)
        cfgs = [
            AdjointConfig(engine="H"),
            AdjointConfig(engine="NFD"),
            AdjointConfig(engine="AD", neumann_q=40, c0=c0, c1=c1),
        ]
        fd = fd_grad_f(oracle, x, spec=spec)
        report = engine_agreement_report(oracle, point, cfgs, fd_reference=fd)
        assert report.max_error() <= 1e-5
        assert report.labels == ["H", "NFD", "AD", "FD"]

    def test_quartic_nfd_error_shrinks_with_eps(self):
        spec = default_quartic(rng=6)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(6)
        point = closed_form_point(spec, rng.uniform(-0.4, -0.1, 5))
        errors = {}
        for eps in (0.1, 0.01):
            cfgs = [AdjointConfig(engine="H"), AdjointConfig(engine="NFD", fd_eps=eps)]
            report = engine_agreement_report(oracle, point, cfgs)
            errors[eps] = report.pair_error("H", "NFD")
        assert errors[0.1] / errors[0.01] >= 50.0

    def test_render_and_csv(self):
        spec = default_quadratic(4, 4, 4, rng=4)
        oracle = make_oracle(spec)
        point = closed_form_point(spec, np.ones(4))
        report = engine_agreement_report(
            oracle, point, [AdjointConfig(engine="H"), AdjointConfig(engine="NFD")]
        )
        text = report.render_text()
        assert "H" in text and "NFD" in text

    def test_needs_two_gradients(self):
        spec = default_quadratic(3, 3, 3, rng=5)
        with pytest.raises(ValueError):
            engine_agreement_report(
                make_oracle(spec), closed_form_point(spec, np.ones(3)),
                [AdjointConfig(engine="H")],
            )
