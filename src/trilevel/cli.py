"""Command-line experiment runner.

Subcommands and their flags:

* ``run --config C [--seed S] [--out DIR]``: execute repeated seeded
  runs of a configured experiment, one after another, and write plot-ready CSVs
  (per-run traces, per-iteration and per-wall-time aggregates with 95%
  t-CIs, and -- for the adversarial problem -- a noisy-test summary).
* ``verify [--config C]``: desk-scale engine-agreement and FD-referee
  checks; nonzero exit on any tolerance breach.
* ``grid-search --config C [--seed S] [--out DIR]``: sweep the decaying
  step scales over {0.1, 0.01, 0.001} per level and report the best
  final objective.
* ``split-info CSV [--seed S]``: print the train/val/test sizes for a CSV.

``--seed`` and ``--out`` override base_seed and output_dir.
:func:`run_experiment` keeps a ``jobs`` keyword, 1 only, for callers that pass it.
Verbosity is controlled by the TSG_LOG environment variable (0/1).
"""

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import advhpt as ah
from .adjoint import ENGINE_AD, ENGINE_H, ENGINE_NFD, AdjointConfig, auto_scale_bilevel, auto_scales
from .config import ExperimentConfig, load_config, save_config
from .driver import (
    Decaying,
    DeterministicSamples,
    IterationBudget,
    MinibatchSamples,
    NoiseSamples,
    REDUCTION_WITHOUT_LL,
    RunTrace,
    TheoremConstant,
    TRACE_COLUMNS,
    run_bsg,
)
from .oracle import Point, wrap_gaussian_noise
from .synthetic import (
    closed_form_point,
    default_init_point,
    default_quadratic,
    default_quartic,
    make_oracle,
    save_spec,
)
from .verify import engine_agreement_report, fd_grad_f


def _log(msg: str):
    if os.environ.get("TSG_LOG", "0") not in ("", "0"):
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# experiment assembly


@dataclass
class _Task:
    """Everything needed to run one repetition and evaluate results."""

    oracle_for: callable  # rep_seed -> oracle
    samples_for: callable  # rep_seed -> sample factory
    init: Point
    schedule: object
    budget: IterationBudget
    adjoint_cfg: AdjointConfig
    test_eval: callable = None  # trace, oracle -> rows for the noisy-test CSV
    spec: object = None


def _build_task(cfg: ExperimentConfig) -> _Task:
    """Assemble the experiment, raising ValueError on any value the run cannot use."""
    cfg.validate()
    budget = IterationBudget(cfg.ul_iters, cfg.j0, cfg.k0, cfg.adaptive)
    schedule = (TheoremConstant(cfg.ul_iters, cfg.j0, cfg.k0) if cfg.schedule == "theorem"
                else Decaying(cfg.alpha_bar, cfg.beta_bar, cfg.gamma_bar))
    spec = test_eval = None

    if cfg.problem in ("quadratic", "quartic"):
        make_spec = default_quadratic if cfg.problem == "quadratic" else default_quartic
        spec = make_spec(cfg.n, cfg.m, cfg.t, rng=cfg.spec_seed)
        base_oracle = make_oracle(spec)
        init = default_init_point(spec, rng=cfg.spec_seed + 1)
        adjoint_cfg = _resolve_adjoint(cfg, base_oracle, init)

        if cfg.mode == "stochastic":
            def oracle_for(rep_seed):
                return wrap_gaussian_noise(make_oracle(spec), cfg.std_grad, cfg.std_hess, rep_seed)

            def samples_for(rep_seed):
                return NoiseSamples()
        else:
            def oracle_for(rep_seed):
                return make_oracle(spec)

            def samples_for(rep_seed):
                return DeterministicSamples()
    else:  # adversarial hyperparameter tuning
        ds = ah.load_csv(cfg.csv)
        splits = ah.split_dataset(ds, cfg.spec_seed)
        problem = ah.build_problem(ds, splits)
        oracle = ah.build_oracle(problem, ds)
        init = ah.init_point(problem)
        adjoint_cfg = _resolve_adjoint(cfg, oracle, init, pin_c0=1.0)

        if cfg.mode == "deterministic":
            def samples_for(rep_seed):
                return DeterministicSamples()
        else:
            def samples_for(rep_seed):
                return MinibatchSamples(problem.n_train, cfg.minibatch, rep_seed)

        def oracle_for(rep_seed):
            return oracle

        mean, std = oracle.feature_mean, oracle.feature_std
        test_features = (ds.features[splits.test] - mean) / std
        test_targets = ds.targets[splits.test]

        def test_eval(trace: RunTrace, run_id: int):
            _, values = ah.noisy_test_mse(
                trace.iterates[-1].y, test_features, test_targets,
                realizations=cfg.noise_test_realizations, seed=cfg.base_seed + run_id,
            )
            return values

    # the per-repetition parts check their values when built: build one now
    oracle_for(cfg.base_seed), samples_for(cfg.base_seed)
    return _Task(oracle_for, samples_for, init, schedule, budget, adjoint_cfg, test_eval, spec)


def _resolve_adjoint(cfg: ExperimentConfig, oracle, init: Point, pin_c0=None) -> AdjointConfig:
    """Fill in auto AD c0/c1 at the initial point.

    c1 bounds the operator that the reduction's Neumann series inverts: the
    reduced Hessian Hbar_yy, or H_yy(f2) at z = 0 for ``without-ll``, whose
    gradient uses no c0. Both come from oracle products, so ``fd_eps``
    does not change them.
    """
    c0, c1 = cfg.c0, cfg.c1
    if cfg.engine == ENGINE_AD and cfg.reduction == REDUCTION_WITHOUT_LL:
        if c1 is None:
            c1 = auto_scale_bilevel(oracle, init.replace(z=np.zeros_like(init.z)))
            _log(f"auto scale: c1={c1:.6g}")
    elif cfg.engine == ENGINE_AD and (c0 is None or c1 is None):
        # auto_scales returns a given c0 unchanged
        c0, auto_c1 = auto_scales(oracle, init, neumann_q=cfg.neumann_q,
                                  c0=pin_c0 if c0 is None else c0)
        c1 = c1 if c1 is not None else auto_c1
        _log(f"auto scales: c0={c0:.6g} c1={c1:.6g}")
    return AdjointConfig(
        engine=cfg.engine, fd_eps=cfg.fd_eps, cg_max_iters=cfg.cg_max_iters,
        neumann_q=cfg.neumann_q, c0=c0, c1=c1,
    )


# ---------------------------------------------------------------------------
# running and aggregation


@dataclass
class AggregateResult:
    iterations: np.ndarray
    mean_f1: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    mean_wall_s: np.ndarray
    time_buckets: np.ndarray
    time_mean_f1: np.ndarray
    time_ci_lo: np.ndarray
    time_ci_hi: np.ndarray
    traces: list


# scipy.special.stdtrit(df, 0.975) for df = 1..30, bit for bit: runs of up
# to 31 repetitions take their t-quantile from here without importing scipy
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


def _ci_half(values: np.ndarray) -> float:
    """95% half-width via the t-distribution (stdtrit, its quantile) over repetitions."""
    n = values.size
    if n < 2:
        return 0.0
    sem = values.std(ddof=1) / math.sqrt(n)
    if sem == 0.0:
        return 0.0
    if n - 1 <= len(T975):
        return float(T975[n - 2] * sem)
    from scipy.special import stdtrit

    return float(stdtrit(n - 1, 0.975) * sem)


def aggregate(traces: list) -> AggregateResult:
    n_iters = min(len(t.records) for t in traces)
    iters = np.arange(1, n_iters + 1)
    f1 = np.array([[t.records[i].f1 for t in traces] for i in range(n_iters)])
    wall = np.array([[t.records[i].wall_s for t in traces] for i in range(n_iters)])
    half = np.array([_ci_half(row) for row in f1])
    mean = f1.mean(axis=1)

    # per-wall-time buckets: each run contributes its latest value by T
    max_wall = float(wall.max()) if wall.size else 0.0
    buckets = np.linspace(0.0, max_wall, num=min(50, max(2, n_iters)))
    tm, tlo, thi = [], [], []
    for T in buckets:
        latest = []
        for t in traces:
            vals = [r.f1 for r in t.records[:n_iters] if r.wall_s <= T]
            latest.append(vals[-1] if vals else t.records[0].f1)
        latest = np.array(latest)
        h = _ci_half(latest)
        tm.append(latest.mean())
        tlo.append(latest.mean() - h)
        thi.append(latest.mean() + h)

    return AggregateResult(
        iterations=iters,
        mean_f1=mean,
        ci_lo=mean - half,
        ci_hi=mean + half,
        mean_wall_s=wall.mean(axis=1),
        time_buckets=buckets,
        time_mean_f1=np.array(tm),
        time_ci_lo=np.array(tlo),
        time_ci_hi=np.array(thi),
        traces=traces,
    )


def _write_trace_csv(path, run_id: int, trace: RunTrace):
    with open(path, "w") as fh:
        fh.write("run_id," + ",".join(TRACE_COLUMNS) + "\n")
        for r in trace.records:
            cells = [str(run_id)] + [repr(v) for v in r.row()]
            fh.write(",".join(cells) + "\n")


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> AggregateResult:
    """Execute ``cfg.repetitions`` independent runs in turn and write all outputs.

    Raises ValueError, before any output is written, for a config the run
    cannot use or for ``jobs`` other than 1 (kept for callers that pass
    ``jobs=1``), and RuntimeError when any run aborts (partial traces are
    still written first).
    """
    if jobs != 1:
        raise ValueError(f"repetitions run serially: jobs must be 1, got {jobs!r}")
    return _run_task(cfg, _build_task(cfg))


def _run_task(cfg: ExperimentConfig, task: _Task) -> AggregateResult:
    os.makedirs(cfg.output_dir, exist_ok=True)
    save_config(cfg, os.path.join(cfg.output_dir, "config.ini"))
    if task.spec is not None:
        save_spec(task.spec, os.path.join(cfg.output_dir, "spec.json"), seed=cfg.spec_seed)

    def one(rep: int) -> RunTrace:
        seed = cfg.base_seed + rep
        oracle = task.oracle_for(seed)
        samples = task.samples_for(seed)
        _log(f"run {rep}: seed={seed}")
        return run_bsg(
            cfg.reduction, oracle, task.init, task.schedule, task.budget,
            task.adjoint_cfg, samples=samples,
        )

    traces = [one(rep) for rep in range(cfg.repetitions)]
    for rep, trace in enumerate(traces):
        _write_trace_csv(os.path.join(cfg.output_dir, f"run_{rep}.csv"), rep, trace)

    aborted = [(rep, t.aborted) for rep, t in enumerate(traces) if t.aborted]
    if aborted:
        raise RuntimeError(f"aborted runs: {aborted}")

    agg = aggregate(traces)
    with open(os.path.join(cfg.output_dir, "aggregate.csv"), "w") as fh:
        fh.write("iteration,mean_f1,ci_lo,ci_hi,mean_wall_s\n")
        for it, m, lo, hi, w in zip(agg.iterations, agg.mean_f1, agg.ci_lo, agg.ci_hi, agg.mean_wall_s):
            fh.write(f"{int(it)},{float(m)!r},{float(lo)!r},{float(hi)!r},{float(w)!r}\n")
    with open(os.path.join(cfg.output_dir, "aggregate_time.csv"), "w") as fh:
        fh.write("bucket_s,mean_f1,ci_lo,ci_hi\n")
        for b, m, lo, hi in zip(agg.time_buckets, agg.time_mean_f1, agg.time_ci_lo, agg.time_ci_hi):
            fh.write(f"{float(b)!r},{float(m)!r},{float(lo)!r},{float(hi)!r}\n")

    if task.test_eval is not None:
        with open(os.path.join(cfg.output_dir, "noisy_test.csv"), "w") as fh:
            fh.write("run_id,realization,mse\n")
            for rep, trace in enumerate(traces):
                values = task.test_eval(trace, rep)
                for k, v in enumerate(values):
                    fh.write(f"{rep},{k},{float(v)!r}\n")

    return agg


# ---------------------------------------------------------------------------
# verify subcommand


def verify_checks(cfg: ExperimentConfig) -> list[tuple[str, float, float, bool]]:
    """Desk-scale referee suite. Returns (name, value, tolerance, ok) rows."""
    checks = []

    # quadratic: engines plus closed-form FD referee must coincide
    n = min(cfg.n, 10)
    spec = default_quadratic(n, n, n, rng=cfg.spec_seed)
    oracle = make_oracle(spec)
    x = default_init_point(spec, rng=cfg.spec_seed + 1).x
    point = closed_form_point(spec, x)
    c0, c1 = auto_scales(oracle, point, neumann_q=cfg.neumann_q)
    cfgs = [
        AdjointConfig(engine=ENGINE_H),
        AdjointConfig(engine=ENGINE_NFD, fd_eps=cfg.fd_eps),
        AdjointConfig(engine=ENGINE_AD, fd_eps=cfg.fd_eps, neumann_q=max(cfg.neumann_q, 40), c0=c0, c1=c1),
    ]
    fd_ref = fd_grad_f(oracle, x, spec=spec)
    report = engine_agreement_report(oracle, point, cfgs, labels=["H", "NFD", "AD"], fd_reference=fd_ref)
    print("quadratic agreement (relative l2):")
    print(report.render_text())
    checks.append(("quadratic_pairwise_max", report.max_error(), 1e-5, report.max_error() <= 1e-5))

    # FD referee self-consistency (second-order scheme)
    g_coarse = fd_grad_f(oracle, x, spec=spec, eps=2e-4)
    g_fine = fd_grad_f(oracle, x, spec=spec, eps=1e-4)
    delta = float(np.max(np.abs(g_coarse - g_fine)))
    checks.append(("fd_referee_consistency", delta, 1e-6, delta <= 1e-6))

    # quartic: H must match the descent-based referee; NFD within the
    # finite-difference error budget at the configured eps
    qspec = default_quartic(5, 5, 1, rng=cfg.spec_seed)
    qoracle = make_oracle(qspec)
    qinit = default_init_point(qspec, rng=3)
    qpoint = closed_form_point(qspec, qinit.x)
    qfd = fd_grad_f(qoracle, qinit.x, warm=qinit)
    qc0, qc1 = auto_scales(qoracle, qpoint, neumann_q=max(cfg.neumann_q, 40))
    qcfgs = [
        AdjointConfig(engine=ENGINE_H),
        AdjointConfig(engine=ENGINE_NFD, fd_eps=cfg.fd_eps),
        AdjointConfig(engine=ENGINE_AD, fd_eps=cfg.fd_eps, neumann_q=max(cfg.neumann_q, 40), c0=qc0, c1=qc1),
    ]
    qreport = engine_agreement_report(qoracle, qpoint, qcfgs, labels=["H", "NFD", "AD"], fd_reference=qfd)
    print("quartic agreement (relative l2):")
    print(qreport.render_text())
    checks.append(("quartic_h_vs_fd", qreport.pair_error("H", "FD"), 5e-4,
                   qreport.pair_error("H", "FD") <= 5e-4))
    checks.append(("quartic_pairwise_max", qreport.max_error(), 0.08,
                   qreport.max_error() <= 0.08))
    return checks


def _cmd_verify(cfg: ExperimentConfig) -> int:
    checks = verify_checks(cfg)
    for name, value, tol, ok in checks:
        print(f"{'ok' if ok else 'FAIL':>4}  {name:<28} {value:.3e} (tol {tol:.1e})")
    return 0 if all(ok for *_, ok in checks) else 1


# ---------------------------------------------------------------------------
# grid search


def _cmd_grid_search(cfg: ExperimentConfig, task: _Task) -> int:
    """Run ``task`` once per grid point with only its step scales swapped:
    nothing else it holds (problem, oracle, AD scales) depends on them."""
    grid = (0.1, 0.01, 0.001)
    rows = []
    for ab in grid:
        for bb in grid:
            for gb in grid:
                sub = replace(
                    cfg, alpha_bar=ab, beta_bar=bb, gamma_bar=gb,
                    schedule="decaying", repetitions=1,
                    output_dir=os.path.join(cfg.output_dir, f"grid_{ab}_{bb}_{gb}"),
                )
                try:
                    agg = _run_task(sub, replace(task, schedule=Decaying(ab, bb, gb)))
                    final = float(agg.mean_f1[-1])
                except RuntimeError:
                    final = float("nan")
                rows.append((ab, bb, gb, final))
                _log(f"grid ({ab}, {bb}, {gb}) -> {final}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "grid.csv"), "w") as fh:
        fh.write("alpha_bar,beta_bar,gamma_bar,final_f1\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")
    valid = [r for r in rows if math.isfinite(r[3])]
    if not valid:
        print("grid search: no run finished")
        return 1
    best = min(valid, key=lambda r: r[3])
    print(f"best: alpha_bar={best[0]} beta_bar={best[1]} gamma_bar={best[2]} final_f1={best[3]:.6g}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trilevel", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run, verify, grid = (sub.add_parser(name) for name in ("run", "verify", "grid-search"))
    verify.add_argument("--config", help="INI config path")
    for p in (run, grid):
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        p.add_argument("--out", default=None, help="override output_dir")

    p = sub.add_parser("split-info")
    p.add_argument("csv")
    p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "split-info":
        ds = ah.load_csv(args.csv)
        splits = ah.split_dataset(ds, args.seed)
        print(f"rows={ds.n_rows} features={ds.n_features}")
        print(f"train={splits.train.size} val={splits.val.size} test={splits.test.size}")
        return 0

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig(n=10, m=10, t=10)
        if args.command == "verify":  # it runs every engine, whatever [engine] kind is
            replace(cfg, engine=ENGINE_AD).validate()
        else:
            if args.seed is not None:
                cfg.base_seed = args.seed
            if args.out is not None:
                cfg.output_dir = args.out
            task = _build_task(cfg)
    except (OSError, ValueError, configparser.Error) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.command == "verify":
        return _cmd_verify(cfg)
    if args.command == "grid-search":
        return _cmd_grid_search(cfg, task)
    try:
        _run_task(cfg, task)
    except RuntimeError as err:
        print(f"run failed: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
