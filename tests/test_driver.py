from dataclasses import replace

import numpy as np
import pytest

from trilevel.adjoint import AdjointConfig
from trilevel.driver import (
    BudgetState,
    Decaying,
    IterationBudget,
    MinibatchSamples,
    NoiseSamples,
    NonFiniteError,
    TheoremConstant,
    adaptive_update,
    ll_sg,
    ml_bsg,
    run_bsg,
    run_tsg,
)
from trilevel.linalg import ConstantMatrix
from trilevel.oracle import (
    DETERMINISTIC,
    NoiseDraw,
    OracleCapabilities,
    Point,
    ProblemOracle,
    wrap_gaussian_noise,
)
from trilevel.synthetic import (
    QuadraticOracle,
    QuadraticSpec,
    closed_form_y,
    closed_form_z,
    default_quadratic,
    default_quartic,
    default_init_point,
    make_oracle,
    reduced_minimizer,
    reduced_objective,
)

H = AdjointConfig(engine="H")


def pure_ll_spec(t=2):
    """f3 = 0.5|z|^2 (no couplings into the lower level)."""
    return QuadraticSpec(
        n=2, m=2, t=t,
        h_x=np.zeros(2), h_y=np.zeros(2), h_z=np.zeros(t),
        Hxx=np.eye(2), Hyy=2 * np.eye(2), Hzz=np.eye(t),
        Hxy=np.zeros((2, 2)), Hxz=np.zeros((2, t)), Hyz=np.zeros((2, t)),
    )


def coupled_spec(rng, Hzz):
    """A 4/3/5 quadratic with the given Hzz and random couplings into z."""
    return QuadraticSpec(
        n=4, m=3, t=5,
        h_x=np.zeros(4), h_y=np.zeros(3), h_z=np.zeros(5),
        Hxx=np.eye(4), Hyy=4 * np.eye(3), Hzz=Hzz,
        Hxy=np.zeros((4, 3)),
        Hxz=0.3 * rng.standard_normal((4, 5)),
        Hyz=0.3 * rng.standard_normal((3, 5)),
    )


def reference_cycle(oracle, x, y, z0, gamma, K):
    """The paper's K lower-level steps, one gradient call per step."""
    gamma_fn = gamma if callable(gamma) else (lambda _k: gamma)
    z = np.array(z0, dtype=float)
    for k in range(1, K + 1):
        z = z - gamma_fn(k) * oracle.grad_z_f3(Point(x, y, z), DETERMINISTIC)
    return z


class TestSchedules:
    def test_theorem_constant_relations(self):
        s = TheoremConstant(I=16, J=4, K=9)
        assert s.alpha(1) == pytest.approx(0.25)
        assert s.beta(3) == pytest.approx(s.alpha(1) / 2)
        assert s.gamma(7) == pytest.approx(s.beta(1) / 3)
        for i in (1, 5, 100):
            assert s.alpha(i) == s.alpha(1)

    def test_decaying_values(self):
        s = Decaying(0.3, 0.2, 0.1)
        assert s.alpha(1) == 0.3
        assert s.alpha(3) == pytest.approx(0.1)
        assert s.beta(2) == pytest.approx(0.1)
        assert s.gamma(10) == pytest.approx(0.01)

    def test_decaying_validation(self):
        with pytest.raises(ValueError):
            Decaying(1.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            Decaying(0.3, 0.0, 0.1)

    def test_theorem_validation(self):
        with pytest.raises(ValueError):
            TheoremConstant(0, 1, 1)


class TestAdaptiveUpdate:
    def test_j_trigger(self):
        s = adaptive_update(BudgetState(2, 3), 1.0, 1.0 + 5e-3, 0.0, 1.0)
        assert (s.J, s.K) == (3, 3)

    def test_j_no_trigger(self):
        s = adaptive_update(BudgetState(2, 3), 1.0, 1.0 + 2e-2, 0.0, 1.0)
        assert (s.J, s.K) == (2, 3)

    def test_both_trigger(self):
        s = adaptive_update(BudgetState(1, 1), 1.0, 1.0 + 5e-3, 2.0, 2.0 + 5e-2)
        assert (s.J, s.K) == (2, 2)

    def test_threshold_boundary_is_strict(self):
        s = adaptive_update(BudgetState(1, 1), 0.0, 1e-2, 0.0, 1e-1)
        assert (s.J, s.K) == (1, 1)


class TestLlSg:
    def test_single_explicit_step(self):
        oracle = make_oracle(pure_ll_spec())
        z = ll_sg(oracle, np.zeros(2), np.zeros(2), np.array([1.0, 1.0]), 0.5, 1)
        np.testing.assert_allclose(z, [0.5, 0.5])

    def test_linear_contraction_to_closed_form(self):
        spec = default_quadratic(3, 3, 3, rng=0)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(0)
        x, y = rng.uniform(0, 5, 3), rng.uniform(0, 5, 3)
        z_star = closed_form_z(spec, x, y)
        z = rng.uniform(0, 5, 3)
        for _ in range(6):
            err_before = np.linalg.norm(z - z_star)
            z = ll_sg(oracle, x, y, z, 0.5, 1)
            np.testing.assert_allclose(np.linalg.norm(z - z_star), 0.5 * err_before, rtol=1e-10)

    def test_k_zero_rejected(self):
        oracle = make_oracle(pure_ll_spec())
        with pytest.raises(ValueError):
            ll_sg(oracle, np.zeros(2), np.zeros(2), np.zeros(2), 0.5, 0)

    def test_callable_gamma(self):
        oracle = make_oracle(pure_ll_spec())
        z = ll_sg(oracle, np.zeros(2), np.zeros(2), np.ones(2), lambda k: 0.5 / k, 2)
        # step 1: z = 0.5; step 2: z = 0.5 - 0.25*0.5 = 0.375
        np.testing.assert_allclose(z, 0.375)

    def test_non_finite_aborts(self):
        class BadOracle(ProblemOracle):
            capabilities = OracleCapabilities()

            @property
            def dims(self):
                return 2, 2, 2

            def grad_z_f3(self, p, s):
                return np.array([np.nan, 0.0])

        with pytest.raises(NonFiniteError):
            ll_sg(BadOracle(), np.zeros(2), np.zeros(2), np.zeros(2), 0.5, 1)

    def test_ll_grad_hook_matches_per_step_gradient(self):
        # a non-identity Hzz, so the closed form's eigenbasis is really exercised
        rng = np.random.default_rng(12)
        R = rng.standard_normal((5, 5))
        oracle = make_oracle(coupled_spec(rng, R @ R.T / 5 + np.eye(5)))
        assert oracle.capabilities.affine_ll
        for gamma in (Decaying(0.3, 0.2, 0.1).gamma, 0.05):
            for K in (1, 7, 233):
                z_form = z_ref = rng.uniform(0, 5, 5)
                for _ in range(4):
                    x, y = rng.uniform(0, 5, 4), rng.uniform(0, 5, 3)
                    z_form = ll_sg(oracle, x, y, z_form, gamma, K)
                    z_ref = reference_cycle(oracle, x, y, z_ref, gamma, K)
                    np.testing.assert_allclose(z_form, z_ref, rtol=1e-12)

    def test_closed_form_matches_reference_ill_conditioned_and_expanding(self):
        # kappa = 1e4, and steps with |1 - gamma lam| > 1 for the top eigenvalues
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        oracle = make_oracle(coupled_spec(rng, (Q * np.logspace(0, 4, 5)) @ Q.T))
        x, y, z0 = rng.uniform(0, 5, 4), rng.uniform(0, 5, 3), rng.uniform(0, 5, 5)
        for gamma in (1e-4, 2.5e-4, lambda k: 3e-4 / k):
            for K in (1, 7, 233):
                np.testing.assert_allclose(ll_sg(oracle, x, y, z0, gamma, K),
                                           reference_cycle(oracle, x, y, z0, gamma, K),
                                           rtol=1e-12)

    def test_noise_wrapper_keeps_per_step_noise(self):
        spec = default_quadratic(3, 3, 3, rng=6)
        clean = make_oracle(spec)
        noisy = wrap_gaussian_noise(clean, std_grad=0.5, std_hess=0.0, seed=3)
        rng = np.random.default_rng(6)
        x, y, z0 = (rng.uniform(0, 5, 3) for _ in range(3))
        gamma = Decaying(0.3, 0.2, 0.1).gamma

        def sampler(k):
            return NoiseDraw(stream=11, counter=k)

        z = ll_sg(noisy, x, y, z0, gamma, 5, sampler=sampler)
        z_manual = z0.copy()
        for k in range(5):
            g = noisy.grad_z_f3(Point(x, y, z_manual), sampler(k))
            z_manual = z_manual - gamma(k + 1) * g
        np.testing.assert_array_equal(z, z_manual)
        assert not np.allclose(z, ll_sg(clean, x, y, z0, gamma, 5, sampler=sampler))

    def test_noise_wrapper_takes_the_affine_cycle_when_unsampled(self):
        # the wrapper forwards capabilities and adds no noise on deterministic
        # samples, so an unsampled cycle is the bare oracle's, bit for bit
        spec = default_quadratic(4, 3, 6, rng=24)

        class Counting(QuadraticOracle):
            calls = 0

            def grad_z_f3(self, p, sample):
                Counting.calls += 1
                return super().grad_z_f3(p, sample)

        bare = Counting(spec)
        noisy = wrap_gaussian_noise(bare, std_grad=0.5, std_hess=0.5, seed=3)
        assert noisy.capabilities.affine_ll
        rng = np.random.default_rng(24)
        gamma = Decaying(0.3, 0.2, 0.1).gamma
        z_bare = z_noisy = rng.uniform(0, 5, 6)
        for _ in range(3):
            x, y = rng.uniform(0, 5, 4), rng.uniform(0, 5, 3)
            z_bare = ll_sg(bare, x, y, z_bare, gamma, 7)
            Counting.calls = 0
            z_noisy = ll_sg(noisy, x, y, z_noisy, gamma, 7)
            assert Counting.calls == 1
            np.testing.assert_array_equal(z_noisy, z_bare)

    def test_hook_contract_is_the_gradient_bit_for_bit(self):
        # the affine_ll contract: grad_z_f3(x, y, z) == Hzz z + grad_z_f3(x, y, 0)
        rng = np.random.default_rng(21)
        for spec in (default_quadratic(4, 3, 6, rng=21), pure_ll_spec(3)):
            oracle = make_oracle(spec)
            assert oracle.capabilities.affine_ll
            n, m, t = oracle.dims
            for _ in range(5):
                x, y, z = (rng.uniform(-5, 5, d) for d in (n, m, t))
                p = Point(x, y, z)
                affine = (oracle.hess_zz_f3(p, DETERMINISTIC) @ z
                          + oracle.grad_z_f3(Point(x, y, np.zeros(t)), DETERMINISTIC))
                assert np.array_equal(affine, oracle.grad_z_f3(p, DETERMINISTIC))

    def test_hook_cycle_writes_to_no_input(self):
        spec = default_quadratic(4, 3, 6, rng=22)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(22)
        x, y, z0 = rng.uniform(0, 5, 4), rng.uniform(0, 5, 3), rng.uniform(0, 5, 6)
        inputs = (x, y, z0, spec.Hzz)
        before = [a.copy() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        z = ll_sg(oracle, x, y, z0, Decaying(0.3, 0.2, 0.1).gamma, 9)
        for a, b in zip(inputs, before):
            np.testing.assert_array_equal(a, b)
        assert z.flags.writeable and not any(np.shares_memory(z, a) for a in inputs)

    def test_hook_matches_per_step_at_one_step(self):
        spec = default_quadratic(4, 3, 6, rng=23)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(23)
        for gamma in (0.5, Decaying(0.3, 0.2, 0.1).gamma):
            x, y, z0 = rng.uniform(0, 5, 4), rng.uniform(0, 5, 3), rng.uniform(0, 5, 6)
            np.testing.assert_allclose(ll_sg(oracle, x, y, z0, gamma, 1),
                                       reference_cycle(oracle, x, y, z0, gamma, 1),
                                       rtol=1e-12)

    def test_non_finite_hzz_aborts_before_the_eigendecomposition(self, monkeypatch):
        spec = default_quadratic(3, 3, 3, rng=32)

        class NanHzz(QuadraticOracle):
            def hess_zz_f3(self, p, sample):
                return ConstantMatrix(np.full((3, 3), np.nan))

        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(1) or eigh(A))
        oracle = NanHzz(spec)
        x = y = z0 = np.ones(3)
        with pytest.raises(NonFiniteError, match="A contains non-finite"):
            ll_sg(oracle, x, y, z0, 0.1, 5)
        trace = run_tsg(oracle, Point(x, y, z0), Decaying(0.3, 0.2, 0.1),
                        IterationBudget(3), H)
        assert trace.aborted == "A contains non-finite entries"
        assert len(trace.records) == 0
        assert calls == []

    def test_hook_cycle_non_finite_at_last_step_aborts(self):
        oracle = make_oracle(pure_ll_spec())
        x = y = np.zeros(2)
        z0 = np.array([1e10, -1e10])
        K = 4

        def gamma(k):
            # halving steps, then one whose product with the gradient overflows
            return 0.5 if k < K else 1e308

        assert np.all(np.isfinite(ll_sg(oracle, x, y, z0, gamma, K - 1)))
        with pytest.raises(NonFiniteError, match="lower-level"), np.errstate(over="ignore"):
            ll_sg(oracle, x, y, z0, gamma, K)

    def test_per_step_cycle_non_finite_at_last_step_aborts(self):
        oracle = make_oracle(pure_ll_spec())

        class PerStep(ProblemOracle):
            def grad_z_f3(self, p, s):
                return oracle.grad_z_f3(p, s)

        x = y = np.zeros(2)
        z0 = np.array([1e10, -1e10])
        K = 4

        def gamma(k):
            # the same overflow at step K as the affine case above
            return 0.5 if k < K else 1e308

        assert np.all(np.isfinite(ll_sg(PerStep(), x, y, z0, gamma, K - 1)))
        with pytest.raises(NonFiniteError, match="lower-level"), np.errstate(over="ignore"):
            ll_sg(PerStep(), x, y, z0, gamma, K)

    def test_diverging_run_aborts_alike_bare_and_forwarded(self):
        # Hzz = 60 I against gamma_bar = 1: the lower-level cycle diverges
        spec = QuadraticSpec(
            n=2, m=2, t=3,
            h_x=np.ones(2), h_y=np.ones(2), h_z=np.ones(3),
            Hxx=np.eye(2), Hyy=4 * np.eye(2), Hzz=60 * np.eye(3),
            Hxy=0.1 * np.eye(2), Hxz=0.1 * np.eye(2, 3), Hyz=0.1 * np.eye(2, 3),
        )
        bare = make_oracle(spec)

        class Forwarding:
            """Forwards every attribute, capabilities included."""

            def __getattr__(self, name):
                return getattr(bare, name)

        init = Point(np.ones(2), np.ones(2), np.ones(3))
        traces = []
        with np.errstate(over="ignore", invalid="ignore"):
            for oracle in (bare, Forwarding()):
                traces.append(run_tsg(oracle, init, Decaying(0.1, 0.1, 1.0),
                                      IterationBudget(200, 3, 8), H))
        assert traces[0].aborted is not None
        assert traces[0].aborted == traces[1].aborted
        assert len(traces[0].records) == len(traces[1].records)


class TestMlBsg:
    def test_single_adjoint_step(self):
        spec = default_quadratic(4, 4, 4, rng=1)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(1)
        x, y0 = rng.uniform(0, 5, 4), rng.uniform(0, 5, 4)
        z0 = closed_form_z(spec, x, y0)
        beta = 0.2
        y1, _ = ml_bsg(oracle, x, y0, z0, beta, 0.5, J=1, K=400, cfg=H)
        gy = (
            spec.Hyy @ y0 - spec.Hyx @ x
            - spec.Hyz @ np.linalg.solve(spec.Hzz, spec.Hzx @ x + 2 * spec.Hzy @ y0)
        )
        np.testing.assert_allclose(y1, y0 - beta * gy, atol=1e-9)

    def test_decoupled_is_plain_sg_on_f2(self):
        spec = QuadraticSpec(
            n=2, m=2, t=2,
            h_x=np.zeros(2), h_y=np.zeros(2), h_z=np.zeros(2),
            Hxx=np.eye(2), Hyy=2 * np.eye(2), Hzz=np.eye(2),
            Hxy=np.zeros((2, 2)), Hxz=np.zeros((2, 2)), Hyz=np.zeros((2, 2)),
        )
        oracle = make_oracle(spec)
        y0 = np.array([1.0, -2.0])
        y1, _ = ml_bsg(oracle, np.zeros(2), y0, np.zeros(2), 0.25, 0.5, J=3, K=1, cfg=H)
        y_manual = y0.copy()
        for _ in range(3):
            y_manual = y_manual - 0.25 * (spec.Hyy @ y_manual)
        np.testing.assert_allclose(y1, y_manual, atol=1e-12)

    def test_contraction_to_ml_solution(self):
        spec = default_quadratic(4, 4, 4, rng=2)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 5, 4)
        y0, z0 = rng.uniform(0, 5, 4), rng.uniform(0, 5, 4)
        yJ, _ = ml_bsg(oracle, x, y0, z0, 0.2, 0.5, J=50, K=50, cfg=H)
        assert np.linalg.norm(yJ - closed_form_y(spec, x)) <= 1e-6


class TestRunTsg:
    def test_loop_accounting(self):
        spec = default_quadratic(3, 3, 3, rng=3)
        oracle = make_oracle(spec)
        init = Point(np.ones(3), np.ones(3), np.ones(3))
        trace = run_tsg(oracle, init, Decaying(0.3, 0.2, 0.1), IterationBudget(1), H)
        assert len(trace.records) == 1
        rec = trace.records[0]
        assert rec.cum_ml == 1 and rec.cum_ll == 2
        assert rec.i == 1

    def test_iterate_threading(self):
        # the z reaching the extra lower-level pass must be the z returned
        # by the middle-level cycle, and the next cycle starts from the
        # previous one's final iterates
        spec = default_quadratic(3, 3, 3, rng=4)
        inner = make_oracle(spec)
        seen = []

        class Spy:
            def __init__(self):
                # without affine_ll, so every lower-level step calls grad_z_f3
                self.capabilities = replace(inner.capabilities, affine_ll=False)
                self.dims = inner.dims

            def __getattr__(self, name):
                target = getattr(inner, name)
                if name == "grad_z_f3":
                    def wrapper(point, sample, *rest):
                        seen.append((point.y.copy(), point.z.copy()))
                        return target(point, sample, *rest)

                    return wrapper
                return target

        init = Point(np.ones(3), np.ones(3), np.ones(3))
        run_tsg(Spy(), init, Decaying(0.3, 0.2, 0.1), IterationBudget(2, j0=2, k0=3), H)
        # K=3 steps per cycle, J=2 cycles + 1 extra pass, 2 UL iterations
        assert len(seen) == 3 * 3 * 2
        # within one UL iteration, each new cycle starts at the previous z
        # after its K updates (checked through the first cycle boundary)
        y0, z_first = seen[2]
        y1, z_next = seen[3]
        z_after = ll_sg(inner, init.x, y0, seen[0][1], Decaying(0.3, 0.2, 0.1).gamma, 3)
        np.testing.assert_allclose(z_next, z_after, atol=1e-12)
        assert not np.allclose(y0, y1)

    def test_adaptive_trajectory_matches_per_step_cycles(self):
        # the criterion-03 instance over 160 UL iterations, as the benchmark
        # runs it: rounding in the closed-form cycle must flip no adaptive
        # J/K decision against one gradient call per lower-level step
        spec = default_quadratic(10, 10, 10, rng=42)
        bare = make_oracle(spec)

        class PerStep:
            def __init__(self):
                self.capabilities = replace(bare.capabilities, affine_ll=False)

            def __getattr__(self, name):
                return getattr(bare, name)

        init = default_init_point(spec, rng=43)
        traces = [run_tsg(oracle, init, Decaying(0.3, 0.2, 0.1),
                          IterationBudget(160, adaptive=True), H)
                  for oracle in (bare, PerStep())]
        assert [t.aborted for t in traces] == [None, None]
        for name in ("J", "K", "cum_ll"):
            np.testing.assert_array_equal(*(t.column(name) for t in traces))
        np.testing.assert_allclose(*(t.column("f1") for t in traces), rtol=1e-9)
        assert traces[0].records[-1].K > traces[0].records[0].K

    def test_exact_inner_contraction(self):
        spec = default_quadratic(6, 6, 6, rng=5)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(5)
        init = default_init_point(spec, rng)
        xstar = reduced_minimizer(spec)

        class ConstSched:
            def alpha(self, i):
                return 0.1

            def beta(self, j):
                return 0.2

            def gamma(self, k):
                return 0.1

        def exact_inner(x):
            y = closed_form_y(spec, x)
            return y, closed_form_z(spec, x, y)

        trace = run_tsg(oracle, init, ConstSched(), IterationBudget(10), H,
                        exact_inner=exact_inner)
        # x_{i+1} - x* = 0.3 (x_i - x*) exactly on the identity instance
        errs = [np.linalg.norm(p.x - xstar) for p in trace.iterates]
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
        np.testing.assert_allclose(ratios, 0.3, rtol=1e-8)

    def test_convergence_decaying_adaptive(self):
        spec = default_quadratic(6, 6, 6, rng=6)
        oracle = make_oracle(spec)
        init = default_init_point(spec, rng=6)
        trace = run_tsg(oracle, init, Decaying(0.3, 0.2, 0.1),
                        IterationBudget(200, adaptive=True), H)
        fstar = reduced_objective(spec, reduced_minimizer(spec))
        f0 = reduced_objective(spec, init.x)
        fI = reduced_objective(spec, trace.iterates[-1].x)
        assert abs(fI - fstar) <= 0.01 * abs(f0 - fstar)
        # adaptive budgets grew at some point
        assert trace.records[-1].J > 1 and trace.records[-1].K > 1

    def test_step_sizes_in_unit_interval(self):
        spec = default_quadratic(3, 3, 3, rng=7)
        trace = run_tsg(make_oracle(spec), Point(np.ones(3), np.ones(3), np.ones(3)),
                        Decaying(0.3, 0.2, 0.1), IterationBudget(5), H)
        for r in trace.records:
            for v in (r.alpha, r.beta, r.gamma):
                assert 0.0 < v <= 1.0

    def test_records_and_iterates_in_order(self):
        spec = default_quadratic(3, 3, 3, rng=20)
        trace = run_tsg(make_oracle(spec), Point(np.ones(3), np.ones(3), np.ones(3)),
                        Decaying(0.3, 0.2, 0.1), IterationBudget(4), H)
        assert [r.i for r in trace.records] == [1, 2, 3, 4]
        # one iterate per record, the first at the initial x
        assert len(trace.iterates) == 4
        np.testing.assert_array_equal(trace.iterates[0].x, np.ones(3))

    def test_wall_clock_nondecreasing(self):
        spec = default_quadratic(3, 3, 3, rng=8)
        trace = run_tsg(make_oracle(spec), Point(np.ones(3), np.ones(3), np.ones(3)),
                        Decaying(0.3, 0.2, 0.1), IterationBudget(5), H)
        walls = trace.column("wall_s")
        assert np.all(np.diff(walls) >= 0.0)
        assert np.all(np.diff(trace.column("i")) == 1)

    def test_stochastic_runs_bit_identical(self):
        spec = default_quadratic(4, 4, 4, rng=9)

        def one():
            oracle = wrap_gaussian_noise(make_oracle(spec), 0.05, 0.01, seed=123)
            init = Point(np.ones(4), np.ones(4), np.ones(4))
            return run_tsg(oracle, init, Decaying(0.1, 0.1, 0.1), IterationBudget(8), H,
                           samples=NoiseSamples())

        t1, t2 = one(), one()
        for r1, r2 in zip(t1.records, t2.records):
            assert r1.f1 == r2.f1 and r1.f2 == r2.f2 and r1.gnorm == r2.gnorm

    def test_abort_on_non_finite(self):
        # every reduction ends its run at a non-finite gradient of a block it uses
        spec = default_quadratic(3, 3, 3, rng=10)
        inner = make_oracle(spec)

        class Exploder:
            def __init__(self, method):
                self.capabilities = inner.capabilities
                self.dims = inner.dims
                self.method = method
                self.calls = 0

            def __getattr__(self, name):
                target = getattr(inner, name)
                if name == self.method:
                    def wrapper(point, sample, *rest):
                        self.calls += 1
                        if self.calls > 4:
                            return np.full(3, np.inf)
                        return target(point, sample, *rest)

                    return wrapper
                return target

        for reduction, method in (
            ("trilevel", "grad_z_f3"), ("without-ul", "grad_z_f3"), ("without-ll", "grad_y_f2"),
        ):
            trace = run_bsg(reduction, Exploder(method), Point(np.ones(3), np.ones(3), np.ones(3)),
                            Decaying(0.3, 0.2, 0.1), IterationBudget(10), H)
            assert trace.aborted is not None, reduction
            assert len(trace.records) < 10, reduction

    def test_abort_on_non_finite_nfd(self):
        # NFD solves its adjoint systems by CG: a non-finite right-hand side
        # ends the run with trace.aborted set, as a non-finite step does
        inner = make_oracle(default_quadratic(3, 3, 3, rng=10))

        class Exploder:
            capabilities, dims = inner.capabilities, inner.dims

            def __init__(self, method):
                self.method = method

            def __getattr__(self, name):
                if name == self.method:
                    return lambda point, sample: np.full(3, np.inf)
                return getattr(inner, name)

        for reduction, method in (
            ("trilevel", "grad_z_f2"), ("without-ul", "grad_z_f2"), ("without-ll", "grad_y_f1"),
        ):
            trace = run_bsg(reduction, Exploder(method), Point(np.ones(3), np.ones(3), np.ones(3)),
                            Decaying(0.3, 0.2, 0.1), IterationBudget(10), AdjointConfig(engine="NFD"))
            assert trace.aborted == "b contains non-finite entries", reduction
            assert trace.records == [], reduction

    def test_ml_bias_shrinks_with_k(self):
        from trilevel.adjoint import ml_adjoint_gradient

        spec = default_quadratic(5, 5, 5, rng=11)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(11)
        x, y = rng.uniform(0, 9, 5), rng.uniform(0, 9, 5)
        z_star = closed_form_z(spec, x, y)
        z0 = z_star + 0.05 * rng.standard_normal(5)
        exact = ml_adjoint_gradient(oracle, Point(x, y, z_star), DETERMINISTIC, H)
        biases = []
        for K in (1, 2, 4, 8, 16):
            zK = ll_sg(oracle, x, y, z0, 0.5, K)
            g = ml_adjoint_gradient(oracle, Point(x, y, zK), DETERMINISTIC, H)
            biases.append(np.linalg.norm(g - exact))
        assert all(a >= b for a, b in zip(biases, biases[1:]))


class TestSampleFactories:
    def test_noise_streams_are_stable_functions_of_indices(self):
        s = NoiseSamples()
        assert s.ll(1, 2, 3) == s.ll(1, 2, 3)
        assert s.ll(1, 2, 3) != s.ll(1, 2, 4)
        assert s.ml(1, 2) != s.ll(1, 2, 0)

    def test_minibatch_reproducible_and_in_range(self):
        s = MinibatchSamples(100, 16, seed=5)
        a, b = s.ll(1, 2, 3), s.ll(1, 2, 3)
        assert a.indices == b.indices
        assert len(a.indices) == 16
        assert min(a.indices) >= 0 and max(a.indices) < 100
        assert len(set(a.indices)) == 16  # without replacement

    def test_minibatch_caps_at_population(self):
        s = MinibatchSamples(8, 64, seed=0)
        assert len(s.ul(1).indices) == 8


class TestRunBsg:
    def test_without_ul_matches_ml_bsg_trajectory(self):
        spec = default_quadratic(4, 4, 4, rng=12)
        oracle = make_oracle(spec)
        rng = np.random.default_rng(12)
        init = Point(rng.uniform(0, 9, 4), rng.uniform(0, 9, 4), rng.uniform(0, 9, 4))
        sched = Decaying(0.3, 0.2, 0.1)
        I = 6
        trace = run_bsg("without-ul", oracle, init, sched, IterationBudget(I, k0=3), H)
        y_ref, z_ref = ml_bsg(oracle, init.x, init.y, init.z, sched.beta, sched.gamma,
                              J=I, K=3, cfg=H)
        np.testing.assert_array_equal(trace.iterates[-1].y, y_ref)
        np.testing.assert_array_equal(trace.iterates[-1].z, z_ref)
        # x is never optimized
        for p in trace.iterates:
            np.testing.assert_array_equal(p.x, init.x)

    def test_deterministic_without_ul_takes_the_ll_grad_cycle(self):
        spec = default_quadratic(5, 5, 5, rng=16)

        class Counting(QuadraticOracle):
            calls = 0

            def grad_z_f3(self, p, sample):
                Counting.calls += 1
                return super().grad_z_f3(p, sample)

        bare = Counting(spec)

        class Forwarding:
            """Forwards every attribute, capabilities included."""

            def __getattr__(self, name):
                return getattr(bare, name)

        init = default_init_point(spec, rng=17)
        traces, calls = [], []
        for oracle in (bare, Forwarding()):
            Counting.calls = 0
            traces.append(run_bsg("without-ul", oracle, init, Decaying(0.3, 0.2, 0.1),
                                  IterationBudget(4, k0=5), H))
            calls.append(Counting.calls)
        # both take the affine cycle: one grad_z_f3 call per cycle, one cycle per iteration
        assert calls == [4, 4]
        direct, forwarded = traces
        assert forwarded.aborted is None and direct.aborted is None
        assert len(direct.records) == len(forwarded.records) == 4
        for r, q in zip(direct.records, forwarded.records):
            assert replace(r, wall_s=0.0) == replace(q, wall_s=0.0)
        for p, q in zip(direct.iterates, forwarded.iterates, strict=True):
            for name in ("x", "y", "z"):
                assert np.array_equal(getattr(p, name), getattr(q, name))

    def test_without_ll_keeps_z_zero_and_tunes_x(self):
        spec = default_quadratic(4, 4, 4, rng=13)
        oracle = make_oracle(spec)
        init = Point(np.ones(4), np.ones(4), np.ones(4))
        trace = run_bsg("without-ll", oracle, init, Decaying(0.3, 0.2, 0.1),
                        IterationBudget(6), H)
        for p in trace.iterates:
            np.testing.assert_array_equal(p.z, np.zeros(4))
        assert not np.allclose(trace.iterates[-1].x, init.x)
        assert len(trace.records) == 6

    def test_trilevel_reduction_delegates(self):
        spec = default_quadratic(3, 3, 3, rng=14)
        oracle = make_oracle(spec)
        init = Point(np.ones(3), np.ones(3), np.ones(3))
        t1 = run_bsg("trilevel", oracle, init, Decaying(0.3, 0.2, 0.1), IterationBudget(3), H)
        t2 = run_tsg(oracle, init, Decaying(0.3, 0.2, 0.1), IterationBudget(3), H)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1.f1 == r2.f1

    def test_unknown_reduction(self):
        spec = default_quadratic(3, 3, 3, rng=15)
        with pytest.raises(ValueError):
            run_bsg("sideways", make_oracle(spec), Point(np.ones(3), np.ones(3), np.ones(3)),
                    Decaying(0.3, 0.2, 0.1), IterationBudget(2), H)


class TestQuarticRun:
    def test_ll_selects_nonzero_solution(self):
        # init drawn inside the attraction basin of the nonzero root
        # (z0 < w/2 with w = Hzx x + Hzy y < 0)
        spec = default_quartic(rng=3)
        oracle = make_oracle(spec)
        gen = np.random.default_rng(3)
        x = gen.uniform(-0.4, 0, 5)
        y = gen.uniform(-0.2, 0, 5)
        z0 = gen.uniform(-0.6, 0, 1)
        w = spec.Hzx @ x + spec.Hzy @ y
        assert z0[0] < w[0] / 2
        zK = ll_sg(oracle, x, y, z0, 0.5, 600)
        assert np.linalg.norm(zK - w) <= 1e-4
