"""Acceptance suite.

One test per acceptance criterion, each asserting the stated tolerance
and runtime cap and printing a single pass/fail line (run with ``-s`` to
see the lines as they pass). Expected values come from closed forms,
hand calculus, or independent oracles computed in place.
"""

import csv
import math
import time

import numpy as np

from trilevel.adjoint import (
    AdjointConfig,
    auto_scales,
    ml_adjoint_gradient,
    neumann_inverse_apply,
    ul_adjoint_gradient,
)
from trilevel.advhpt import (
    build_oracle,
    build_problem,
    bundled_dataset_path,
    init_point,
    load_csv,
    noisy_test_mse,
    smoothed_l1,
    split_dataset,
)
from trilevel.cli import run_experiment
from trilevel.config import ExperimentConfig
from trilevel.driver import (
    BudgetState,
    Decaying,
    IterationBudget,
    MinibatchSamples,
    NoiseSamples,
    adaptive_update,
    ll_sg,
    run_tsg,
)
from trilevel.oracle import DETERMINISTIC, NoiseDraw, Point, fd_hvp, wrap_gaussian_noise
from trilevel.synthetic import (
    closed_form_point,
    closed_form_y,
    closed_form_z,
    default_init_point,
    default_quadratic,
    default_quartic,
    make_oracle,
    reduced_minimizer,
    reduced_objective,
)
from trilevel.verify import engine_agreement_report, fd_grad_f


def report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {name}  {detail}"
    print(line)
    assert ok, line


def sized_q(rho: float, bound: float = 1e-8) -> int:
    """Smallest Q with rho^(Q+1)/(1-rho) <= bound."""
    return max(0, math.ceil(math.log(bound * (1 - rho)) / math.log(rho)) - 1)


def test_criterion_01_adjoint_correctness_quadratic():
    t0 = time.perf_counter()
    spec = default_quadratic(10, 10, 10, rng=0)
    oracle = make_oracle(spec)
    rng = np.random.default_rng(0)
    worst_formula = worst_fd = 0.0
    for _ in range(20):
        x = rng.uniform(0.0, 20.0, 10)
        point = closed_form_point(spec, x)
        g = ul_adjoint_gradient(oracle, point, DETERMINISTIC, AdjointConfig(engine="H"))
        expected = spec.h_x + spec.h_y + 2 * spec.h_z + 7 * x
        fd = fd_grad_f(oracle, x, spec=spec)
        scale = np.linalg.norm(expected)
        worst_formula = max(worst_formula, np.linalg.norm(g - expected) / scale)
        worst_fd = max(worst_fd, np.linalg.norm(g - fd) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_formula <= 1e-6 and worst_fd <= 1e-6 and elapsed <= 5.0
    report(1, "adjoint correctness (quadratic)",
           ok, f"formula {worst_formula:.2e}, fd {worst_fd:.2e}, {elapsed:.2f}s")


def test_criterion_02_engine_equivalence():
    t0 = time.perf_counter()
    spec = default_quadratic(10, 10, 10, rng=0)
    oracle = make_oracle(spec)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 20.0, 10)
    point = closed_form_point(spec, x)
    c0, c1 = auto_scales(oracle, point)
    # Q from the geometric truncation bound rho^{Q+1}/(1-rho) <= 1e-8
    rho0 = float(np.max(np.abs(1.0 - np.linalg.eigvalsh(spec.Hzz) / c0)))
    hbar = spec.reduced_ml_hessian()
    rho1 = float(np.max(np.abs(1.0 - np.linalg.eigvalsh(hbar) / c1)))
    q = sized_q(max(rho0, rho1))
    cfgs = [
        AdjointConfig(engine="H"),
        AdjointConfig(engine="NFD", fd_eps=0.1),
        AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=q, c0=c0, c1=c1),
    ]
    rep = engine_agreement_report(oracle, point, cfgs)
    pairwise = rep.max_error()

    qspec = default_quartic(rng=0)
    qoracle = make_oracle(qspec)
    # first coordinate bounded away from 0 keeps the solution-path
    # curvature w^2 nondegenerate
    xq = np.random.default_rng(2).uniform(-0.4, -0.1, 5)
    qpoint = closed_form_point(qspec, xq)
    errs = {}
    for eps in (0.1, 0.01):
        r = engine_agreement_report(
            qoracle, qpoint,
            [AdjointConfig(engine="H"), AdjointConfig(engine="NFD", fd_eps=eps)],
        )
        errs[eps] = r.pair_error("H", "NFD")
    shrink = errs[0.1] / errs[0.01]
    elapsed = time.perf_counter() - t0
    ok = pairwise <= 1e-5 and shrink >= 50.0 and elapsed <= 10.0
    report(2, "engine equivalence",
           ok, f"pairwise {pairwise:.2e} (Q={q}), quartic shrink {shrink:.0f}x, {elapsed:.2f}s")


def test_criterion_03_convergence_desk_scale():
    t0 = time.perf_counter()
    spec = default_quadratic(10, 10, 10, rng=42)
    oracle = make_oracle(spec)
    init = default_init_point(spec, rng=43)
    trace = run_tsg(
        oracle, init, Decaying(0.3, 0.2, 0.1),
        IterationBudget(300, adaptive=True), AdjointConfig(engine="H"),
    )
    fstar = reduced_objective(spec, reduced_minimizer(spec))
    f0 = reduced_objective(spec, init.x)
    fI = reduced_objective(spec, trace.iterates[-1].x)
    ratio = abs(fI - fstar) / abs(f0 - fstar)
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.01 and elapsed <= 30.0
    report(3, "convergence at desk scale", ok, f"gap ratio {ratio:.2e}, {elapsed:.1f}s")


def test_criterion_04_exact_inner_contraction():
    t0 = time.perf_counter()
    spec = default_quadratic(10, 10, 10, rng=7)
    oracle = make_oracle(spec)
    init = default_init_point(spec, rng=8)
    xstar = reduced_minimizer(spec)

    class ConstAlpha:
        def alpha(self, i):
            return 0.1

        def beta(self, j):
            return 0.2

        def gamma(self, k):
            return 0.1

    def exact_inner(x):
        y = closed_form_y(spec, x)
        return y, closed_form_z(spec, x, y)

    trace = run_tsg(oracle, init, ConstAlpha(), IterationBudget(30),
                    AdjointConfig(engine="H"), exact_inner=exact_inner)
    ratio = np.linalg.norm(trace.iterates[-1].x - xstar) / np.linalg.norm(init.x - xstar)
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1e-12 and elapsed <= 1.0
    report(4, "exact-inner contraction", ok, f"ratio {ratio:.2e}, {elapsed:.2f}s")


def test_criterion_05_quartic_ll_solution_selection():
    t0 = time.perf_counter()
    spec = default_quartic(rng=3)
    oracle = make_oracle(spec)
    gen = np.random.default_rng(3)
    x = gen.uniform(-0.4, 0.0, 5)
    y = gen.uniform(-0.2, 0.0, 5)
    z0 = gen.uniform(-0.6, 0.0, 1)
    w = spec.Hzx @ x + spec.Hzy @ y
    assert z0[0] < w[0] / 2, "draw must start in the nonzero root's basin"
    z = ll_sg(oracle, x, y, z0, 0.5, 600)
    resid = float(np.linalg.norm(z - w))
    elapsed = time.perf_counter() - t0
    ok = resid <= 1e-4 and elapsed <= 2.0
    report(5, "quartic LL solution selection", ok, f"|z - w| = {resid:.2e}, {elapsed:.2f}s")


def test_criterion_06_k_scaling():
    t0 = time.perf_counter()
    spec = default_quadratic(10, 10, 10, rng=11)
    oracle = make_oracle(spec)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 20.0, 10)
    y = rng.uniform(0.0, 20.0, 10)
    z_star = closed_form_z(spec, x, y)
    # offset sized so that 16 halvings land below the 1e-6 target
    z0 = z_star + 0.05 * (rng.standard_normal(10) / math.sqrt(10))
    exact = ml_adjoint_gradient(oracle, Point(x, y, z_star), DETERMINISTIC, AdjointConfig(engine="H"))
    biases = []
    for K in (1, 2, 4, 8, 16):
        zK = ll_sg(oracle, x, y, z0, 0.5, K)
        g = ml_adjoint_gradient(oracle, Point(x, y, zK), DETERMINISTIC, AdjointConfig(engine="H"))
        biases.append(float(np.linalg.norm(g - exact)))
    elapsed = time.perf_counter() - t0
    nonincreasing = all(a >= b for a, b in zip(biases, biases[1:]))
    ok = nonincreasing and biases[-1] < 1e-6 and elapsed <= 2.0
    report(6, "K-scaling of the ML adjoint bias", ok,
           f"biases {['%.1e' % b for b in biases]}, {elapsed:.2f}s")


def test_criterion_07_neumann_decay():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for diag, scale in [
        (np.array([0.5, 1.5, 3.0]), 0.25),
        (np.array([1.0, 2.0, 4.0, 8.0]), 0.1),
    ]:
        rho = float(np.max(np.abs(1.0 - scale * diag)))
        b = np.eye(len(diag))[int(np.argmin(diag))]  # slowest mode
        exact = b / diag
        for q in range(1, 21):
            approx = neumann_inverse_apply(lambda v: diag * v, b, q, scale)
            err = np.linalg.norm(approx - exact)
            bound = scale * rho ** (q + 1) / (1.0 - rho) * np.linalg.norm(b)
            if not (bound / 2.0 <= err <= 2.0 * bound):
                ok = False
                detail.append(f"Q={q}: err {err:.2e} vs bound {bound:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0
    report(7, "Neumann truncation decay", ok, f"{detail or 'within factor 2'}, {elapsed:.2f}s")


def test_criterion_08_stochastic_unbiasedness_and_determinism():
    t0 = time.perf_counter()
    spec = default_quadratic(5, 5, 5, rng=5)
    inner = make_oracle(spec)
    noisy = wrap_gaussian_noise(inner, 0.1, 0.0, seed=7)
    point = Point(np.ones(5), np.ones(5), np.ones(5))
    clean = inner.grad_z_f3(point, DETERMINISTIC)
    draws = np.array(
        [noisy.grad_z_f3(point, NoiseDraw(stream=1, counter=c)) for c in range(10000)]
    )
    dev = float(np.max(np.abs(draws.mean(axis=0) - clean)))
    tol = 4 * 0.1 / math.sqrt(10000)

    def stochastic_run():
        oracle = wrap_gaussian_noise(make_oracle(spec), 0.05, 0.01, seed=99)
        return run_tsg(
            oracle, Point(np.ones(5), np.ones(5), np.ones(5)),
            Decaying(0.1, 0.1, 0.1), IterationBudget(8), AdjointConfig(engine="H"),
            samples=NoiseSamples(),
        )

    t1, t2 = stochastic_run(), stochastic_run()
    identical = all(
        r1.f1 == r2.f1 and r1.f2 == r2.f2 and r1.f3 == r2.f3 and r1.gnorm == r2.gnorm
        for r1, r2 in zip(t1.records, t2.records)
    )
    elapsed = time.perf_counter() - t0
    ok = dev < tol and identical and elapsed <= 5.0
    report(8, "stochastic unbiasedness + determinism", ok,
           f"mean dev {dev:.2e} < {tol:.1e}, identical={identical}, {elapsed:.2f}s")


def test_criterion_09_increasing_accuracy_controller():
    t0 = time.perf_counter()
    cases = [
        # (df1, df2, expected dJ, expected dK)
        (5e-3, 1.0, 1, 0),
        (2e-2, 1.0, 0, 0),
        (5e-3, 5e-2, 1, 1),
        (1.0, 5e-2, 0, 1),
        (1e-2, 1e-1, 0, 0),  # strict inequality at the thresholds
        (9.999e-3, 9.99e-2, 1, 1),
    ]
    ok = True
    for df1, df2, dj, dk in cases:
        s = adaptive_update(BudgetState(3, 4), 1.0, 1.0 + df1, 2.0, 2.0 + df2)
        if (s.J - 3, s.K - 4) != (dj, dk):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 1.0
    report(9, "increasing-accuracy controller", ok, f"{len(cases)} trigger cases, {elapsed:.2f}s")


def test_criterion_10_adversarial_pipeline(tmp_path):
    t0 = time.perf_counter()
    ds = load_csv(bundled_dataset_path())
    splits = split_dataset(ds, 5)
    sizes_ok = (splits.train.size, splits.val.size, splits.test.size) == (140, 30, 30)

    problem = build_problem(ds, splits)
    oracle = build_oracle(problem, ds)
    p0 = init_point(problem)
    c0, c1 = auto_scales(oracle, p0, neumann_q=5, c0=1.0)
    cfg = AdjointConfig(engine="AD", fd_eps=0.1, neumann_q=5, c0=c0, c1=c1)
    trace = run_tsg(
        oracle, p0, Decaying(0.1, 0.01, 0.1), IterationBudget(50, adaptive=True),
        cfg, samples=MinibatchSamples(problem.n_train, 64, seed=11),
    )
    f2s = trace.column("f2")
    decrease = (f2s[0] - f2s[-1]) / abs(f2s[0])
    run_ok = trace.aborted is None and len(trace.records) == 50 and decrease >= 0.20

    mean_t, values = noisy_test_mse(
        trace.iterates[-1].y,
        oracle.val_features, oracle.val_targets, noise_std=5.0, realizations=100, seed=1,
    )
    test_ok = len(values) == 100 and math.isfinite(mean_t)

    # both bilevel reductions through the experiment runner, schema-checked
    schema_ok = True
    for reduction in ("without-ul", "without-ll"):
        out = tmp_path / reduction
        exp = ExperimentConfig(
            problem="adv-hpt", csv=bundled_dataset_path(), spec_seed=5,
            engine="AD", neumann_q=5, mode="stochastic", minibatch=64,
            schedule="decaying", alpha_bar=0.1, beta_bar=0.01, gamma_bar=0.1,
            ul_iters=10, adaptive=False, repetitions=1, base_seed=3,
            output_dir=str(out), reduction=reduction, noise_test_realizations=5,
        )
        run_experiment(exp)
        with open(out / "run_0.csv") as fh:
            rows = list(csv.reader(fh))
        header_ok = rows[0] == [
            "run_id", "i", "cum_ml", "cum_ll", "wall_s", "f1", "f2", "f3",
            "gnorm", "J", "K", "alpha", "beta", "gamma",
        ]
        schema_ok = schema_ok and header_ok and len(rows) == 11

    elapsed = time.perf_counter() - t0
    ok = sizes_ok and run_ok and test_ok and schema_ok and elapsed <= 60.0
    report(10, "adversarial pipeline", ok,
           f"splits={sizes_ok}, f2 drop {decrease * 100:.0f}%, "
           f"realizations={len(values)}, reductions={schema_ok}, {elapsed:.1f}s")


def test_criterion_11_derivative_cross_checks():
    t0 = time.perf_counter()
    failures = []

    def ratio_check(name, analytic, fd_at, scale_hint=1.0):
        """err(1e-3) must be 50x below err(1e-2), or both at the exactness
        floor (central differences are exact for polynomial blocks)."""
        e_coarse = np.max(np.abs(analytic - fd_at(1e-2)))
        e_fine = np.max(np.abs(analytic - fd_at(1e-3)))
        floor = 1e-9 * max(1.0, scale_hint)
        if not (e_fine <= max(e_coarse / 50.0, floor)):
            failures.append(f"{name}: {e_coarse:.2e} -> {e_fine:.2e}")

    # quartic lower level: cubic gradients give measurable quadratic decay
    qspec = default_quartic(4, 3, 2, rng=2)
    qo = make_oracle(qspec)
    rng = np.random.default_rng(2)
    p = Point(rng.uniform(-0.4, -0.1, 4), rng.uniform(-0.2, -0.1, 3), rng.uniform(-0.6, -0.2, 2))
    S = DETERMINISTIC
    v = rng.standard_normal(2)

    for grad_name, hess_name in [
        ("grad_z_f3", "hess_zz_f3"), ("grad_x_f3", "hess_xz_f3"), ("grad_y_f3", "hess_yz_f3"),
    ]:
        analytic = getattr(qo, hess_name)(p, S) @ v
        ratio_check(
            f"quartic {hess_name}",
            analytic,
            lambda eps, gn=grad_name: fd_hvp(
                lambda z: getattr(qo, gn)(p.replace(z=z), S), p.z, v, eps
            ),
            scale_hint=float(np.abs(analytic).max()),
        )

    # quartic third-order contractions against differenced Hessian blocks;
    # the (z, z, y) contraction is the transposed (y, z, z) one
    for t3_name, hess_name, axis, transpose in [
        ("t3_zzz_f3_contract", "hess_zz_f3", "z", False),
        ("t3_yzz_f3_contract", "hess_yz_f3", "z", False),
        ("t3_yzz_f3_contract", "hess_zz_f3", "y", True),
        ("t3_yzy_f3_contract", "hess_yz_f3", "y", False),
        ("t3_zzx_f3_contract", "hess_zz_f3", "x", False),
        ("t3_yzx_f3_contract", "hess_yz_f3", "x", False),
    ]:
        if t3_name == "t3_zzz_f3_contract":  # returned applied to a block: the identity gives T[v]
            analytic = qo.t3_zzz_f3_contract(p, S, v, np.eye(2))
        else:
            analytic = getattr(qo, t3_name)(p, S, v)
        if transpose:
            analytic, t3_name = analytic.T, t3_name + ".T"

        def fd_contract(eps, hn=hess_name, ax=axis):
            dim = {"x": 4, "y": 3, "z": 2}[ax]
            out = np.zeros(analytic.shape)
            for c in range(dim):
                e = np.zeros(dim)
                e[c] = eps
                rep = {ax: getattr(p, ax) + e}
                hi = np.asarray(getattr(qo, hn)(p.replace(**rep), S))
                rep = {ax: getattr(p, ax) - e}
                lo = np.asarray(getattr(qo, hn)(p.replace(**rep), S))
                out[:, c] = ((hi - lo) / (2 * eps)) @ v
            return out

        ratio_check(f"quartic {t3_name}", analytic, fd_contract,
                    scale_hint=float(np.abs(analytic).max()))

    # quadratic instance: Hessians against (exact) differenced gradients;
    # H_zy(f2) is the transposed H_yz(f2)
    spec = default_quadratic(4, 4, 4, rng=3)
    o = make_oracle(spec)
    pq = Point(rng.uniform(0, 5, 4), rng.uniform(0, 5, 4), rng.uniform(0, 5, 4))
    vq = rng.standard_normal(4)
    for hess_name, analytic, grad, axis in [
        ("hess_zz_f3", o.hess_zz_f3(pq, S) @ vq, o.grad_z_f3, "z"),
        ("hess_yz_f2", o.hess_yz_f2(pq, S) @ vq, o.grad_y_f2, "z"),
        ("hess_yz_f2.T", o.hess_yz_f2(pq, S).T @ vq, o.grad_z_f2, "y"),
    ]:
        fd_at = lambda eps, g=grad, ax=axis: fd_hvp(
            lambda w: g(pq.replace(**{ax: w}), S), getattr(pq, ax), vq, eps
        )
        ratio_check(f"quadratic {hess_name}", analytic, fd_at,
                    scale_hint=float(np.abs(analytic).max()))

    # adversarial problem: the smoothed-L1 penalty carries the measurable
    # higher-order content
    ds = load_csv(bundled_dataset_path())
    splits = split_dataset(ds, 5)
    problem = build_problem(ds, splits)
    ao = build_oracle(problem, ds)
    pa = Point(np.array([0.4]), rng.normal(0, 0.5, 6), rng.normal(0, 0.05, problem.dims[2]))
    va = rng.standard_normal(6)
    analytic = ao.hess_yy_f2(pa, S) @ va
    ratio_check(
        "adv-hpt hess_yy_f2",
        analytic,
        lambda eps: fd_hvp(lambda y: ao.grad_y_f2(pa.replace(y=y), S), pa.y, va, eps),
        scale_hint=float(np.abs(analytic).max()),
    )
    theta = rng.normal(0, 0.5, 5)
    _, grad, hvp = smoothed_l1(theta, 0.25)
    v5 = rng.standard_normal(5)
    ratio_check(
        "smoothed_l1 hvp",
        hvp(v5),
        lambda eps: (smoothed_l1(theta + eps * v5, 0.25)[1] - smoothed_l1(theta - eps * v5, 0.25)[1]) / (2 * eps),
    )

    # adv-hpt delta-blocks are bilinear: FD is exact, floor applies
    vt = rng.standard_normal(problem.dims[2])
    analytic = ao.hess_zz_f3(pa, S) @ vt
    ratio_check(
        "adv-hpt hess_zz_f3",
        analytic,
        lambda eps: fd_hvp(lambda z: ao.grad_z_f3(pa.replace(z=z), S), pa.z, vt, eps),
        scale_hint=float(np.abs(analytic).max()),
    )

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed <= 10.0
    report(11, "derivative cross-checks", ok, f"{failures or 'all blocks'}, {elapsed:.2f}s")
