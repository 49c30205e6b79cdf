"""One workload process: a single ``run_experiment`` call, measured.

    python bench/child.py --workload NAME --seed N --out DIR --trace 0|1

Started by ``bench/run.py``, one at a time, in a fresh interpreter. The
environment variable ``BENCH_SPAWN_TIME`` carries the parent's
``time.time()`` taken just before the process was started, so set-up time
counts interpreter start-up too. Prints one JSON object as its last line.
"""

import time

T_MAIN = time.time()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import Instrumentation, SpanRecorder, layer_metrics  # noqa: E402
from workloads import RUN_CSV_HEADER, WORKLOADS  # noqa: E402


def trace_digest(traces, out_dir) -> str:
    """Digest of everything a run computes, wall-clock columns excluded:
    every trace record, every iterate, the spec echo and the noisy-test
    rows. Equal digests mean bit-identical results."""
    import numpy as np

    h = hashlib.sha256()
    for trace in traces:
        h.update(repr(trace.aborted).encode())
        for rec in trace.records:
            row = [getattr(rec, f.name) for f in dataclasses.fields(rec) if f.name != "wall_s"]
            h.update(repr(row).encode())
        for point in trace.iterates or []:
            for v in (point.x, point.y, point.z):
                h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    for name in ("spec.json", "noisy_test.csv"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def gap_ratio(cfg, x_final) -> float:
    """|f(x_I) - f*| / |f(x_0) - f*| from the package's closed forms.

    The closed forms run with LAPACK solves in place of the package's
    Python-loop LU: the referee needs ~450 dense 150-dim solves on the
    quartic workload, which take ~18 s in the Python LU and ~0.5 s here.
    """
    import numpy as np
    from trilevel import synthetic

    make = synthetic.default_quadratic if cfg.problem == "quadratic" else synthetic.default_quartic
    spec = make(cfg.n, cfg.m, cfg.t, rng=cfg.spec_seed)
    init = synthetic.default_init_point(spec, rng=cfg.spec_seed + 1)
    package_solve = getattr(synthetic, "solve_dense", None)
    if package_solve is not None:
        synthetic.solve_dense = np.linalg.solve
    try:
        f = [synthetic.reduced_objective(spec, x)
             for x in (synthetic.reduced_minimizer(spec), init.x, x_final)]
    finally:
        if package_solve is not None:
            synthetic.solve_dense = package_solve
    fstar, f0, f_final = f
    return abs(f_final - fstar) / abs(f0 - fstar)


def check_repetition(work, cfg, rep, trace, out_dir, test_rows, accuracy):
    """Return the reasons repetition ``rep`` failed (empty when it passed)
    and the gated measures. The closed-form accuracy gate runs only when
    ``accuracy`` is set."""
    problems, measures = [], {}
    if trace is None:
        return ["no trace returned"], measures
    if trace.aborted:
        problems.append(f"aborted: {trace.aborted}")
    if len(trace.records) != cfg.ul_iters:
        problems.append(f"{len(trace.records)} of {cfg.ul_iters} iterations recorded")
    values = [v for r in trace.records for v in (r.f1, r.f2, r.f3, r.gnorm)]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite trace value")
    path = os.path.join(out_dir, f"run_{rep}.csv")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError:
        lines = []
    if not lines or lines[0] != RUN_CSV_HEADER:
        problems.append("run csv header differs from the documented schema")
    elif len(lines) != len(trace.records) + 1:
        problems.append("run csv row count differs from the trace")
    if problems or not trace.records:
        return problems, measures

    if accuracy and (work.gap_max is not None or work.gap_below is not None):
        ratio = measures["gap_ratio"] = gap_ratio(cfg, trace.iterates[-1].x)
        if not math.isfinite(ratio):
            problems.append("non-finite gap ratio")
        elif work.gap_max is not None and ratio > work.gap_max:
            problems.append(f"gap ratio {ratio:.3e} > {work.gap_max:g}")
        elif work.gap_below is not None and ratio >= work.gap_below:
            problems.append(f"gap ratio {ratio:.3e} >= {work.gap_below:g}")
    if work.f2_drop_min is not None:
        f2 = [r.f2 for r in trace.records]
        drop = measures["f2_drop"] = (f2[0] - f2[-1]) / abs(f2[0])
        if not drop >= work.f2_drop_min:
            problems.append(f"f2 drop {drop:.3f} < {work.f2_drop_min:g}")
    if work.test_rows is not None:
        rows = test_rows.get(rep, [])
        if len(rows) != work.test_rows or not all(math.isfinite(v) for v in rows):
            problems.append(f"{len(rows)} noisy-test rows, {sum(map(math.isfinite, rows))} finite")
        measures["noisy_test_rows"] = len(rows)
    return problems, measures


def read_test_rows(out_dir) -> dict:
    rows: dict = {}
    path = os.path.join(out_dir, "noisy_test.csv")
    if os.path.exists(path):
        with open(path) as fh:
            next(fh)
            for line in fh:
                run_id, _, mse = line.strip().split(",")
                rows.setdefault(int(run_id), []).append(float(mse))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    ap.add_argument("--gate", type=int, choices=(0, 1), default=1,
                    help="run the closed-form accuracy gate (costly on quartic-wide-H)")
    args = ap.parse_args()
    t_spawn = float(os.environ.get("BENCH_SPAWN_TIME", T_MAIN))

    t0 = time.perf_counter()
    from trilevel import cli
    import_s = time.perf_counter() - t0
    from trilevel.advhpt import bundled_dataset_path
    from trilevel.config import ExperimentConfig

    work = WORKLOADS[args.workload]
    kwargs = work.experiment_kwargs(args.seed)
    if kwargs["problem"] == "adv-hpt":
        kwargs["csv"] = bundled_dataset_path()
    cfg = ExperimentConfig(output_dir=args.out, **kwargs)

    recorder = SpanRecorder() if args.trace else None
    traces = []
    stamps = {}

    def capture(run_bsg):
        def run(*a, **kw):
            stamps.setdefault("first_call", time.time())
            traces.append(run_bsg(*a, **kw))
            return traces[-1]

        return run

    run_experiment = cli.run_experiment
    if recorder is not None:
        run_experiment = recorder.wrap("cli.run_experiment", run_experiment)

    with Instrumentation(recorder, capture):
        try:
            run_experiment(cfg, jobs=1)
        except RuntimeError:  # aborted repetitions; check_repetition reports them
            pass
    t_end = time.time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = stamps.get("first_call", t_end)
    test_rows = read_test_rows(args.out)
    checks = [check_repetition(work, cfg, rep, traces[rep] if rep < len(traces) else None,
                               args.out, test_rows, args.gate)
              for rep in range(cfg.repetitions)]
    failures = {rep: problems for rep, (problems, _) in enumerate(checks) if problems}
    iter_ms = []
    flags = []
    for trace in traces:
        previous = 0.0
        for rec in trace.records:
            iter_ms.append(1e3 * (rec.wall_s - previous))
            previous = rec.wall_s
            flags.extend(f for f in rec.flags.split(";") if f)
    bytes_written = sum(
        os.path.getsize(os.path.join(args.out, f)) for f in os.listdir(args.out)
    ) if os.path.isdir(args.out) else 0
    result = {
        "setup_s": first - t_spawn,
        "solve_s": t_end - first,
        "iter_ms": iter_ms,
        "peak_rss_mb": peak_rss_mb,
        "attempted": cfg.repetitions,
        "failed": len(failures),
        "failures": failures,
        "measures": [m for _, m in checks],
        "digest": trace_digest(traces, args.out),
    }
    if recorder is not None:
        layers = layer_metrics(recorder, flags)
        layers["cli.import_s"] = import_s
        layers["cli.bytes_written"] = bytes_written
        result["layers"] = layers
        if args.spans:
            recorder.save(args.spans)
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
