"""Benchmark of the trilevel experiment runner, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs the workload's experiment config through ``trilevel.cli.run_experiment``
(``jobs=1``) in fresh workload processes, one at a time, with BLAS pinned
to one thread, until ``--seconds`` is used up (at least ``MIN_PROCS``
processes). Prints the machine record, one line per
process, every metric with its unit and the correctness gates, and as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced processes and reports the per-layer metrics of the
traced ones, plus the tracing overhead; the spans of the last traced
process are written to ``.bench_work/trace/<workload>.npz``.

See ``bench/README.md`` for the workloads, the metrics and how to read them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import MIN_PROCS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 42
BLAS_THREADS = 1
# a run must end within 180 s; a workload process is killed before that
RUN_DEADLINE_S = 170
WORK_DIR = os.path.join(ROOT, ".bench_work")


def machine_record() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def run_process(workload: str, seed: int, trace: bool, index: int, timeout: float) -> dict:
    """Run one workload process and return its JSON result. Only the first
    process of a run evaluates the closed-form accuracy gate; the others
    must reproduce its trace digest, so they reach the same results."""
    out = os.path.join(WORK_DIR, "out", f"{workload}-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--trace", str(int(trace)),
           "--gate", str(int(index == 0))]
    if trace:
        os.makedirs(os.path.join(WORK_DIR, "trace"), exist_ok=True)
        cmd += ["--spans", os.path.join(WORK_DIR, "trace", f"{workload}.npz")]
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    env["TSG_LOG"] = "0"
    env.pop("PYTHONPATH", None)
    env["BENCH_SPAWN_TIME"] = repr(time.time())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values):
    """Interquartile range as a share of the median (0 for fewer than 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


# Timings that vary with the box's speed report the upper quartile over a
# run's processes. The shared box this was written on runs the same code
# up to ~1.5x faster in bursts that come and go within seconds, and the
# share of burst time changes from minute to minute. Medians and minima
# follow that share (IQR/median up to 0.31 across 10 runs); the upper
# quartile sits in the common, slower state (0.24 at worst over two sets
# of 10 runs).
UPPER_QUARTILE = 75


def end_to_end_metrics(work, procs) -> dict:
    """End-to-end metrics of the untraced processes of one run."""
    import numpy as np

    def over_procs(xs, unit, label):
        """Median, or upper quartile, of one value per process."""
        if label == "median":
            return {"value": statistics.median(xs), "unit": unit,
                    "note": f" (median of {len(xs)} processes; IQR/median {spread(xs):.3f})"}
        return {"value": float(np.percentile(xs, UPPER_QUARTILE)), "unit": unit,
                "note": f" ({label} of {len(xs)} processes; median {statistics.median(xs):.6g}, "
                        f"IQR/median {spread(xs):.3f})"}

    samples = [ms for p in procs for ms in p["iter_ms"]]
    pct = work.tail_percentile
    tail = float(np.percentile(samples, pct))
    return {
        "setup_s": over_procs([p["setup_s"] for p in procs], "s", "median"),
        "solve_s": over_procs([p["solve_s"] for p in procs], "s", "upper quartile"),
        "ul_iter_ms_p50": over_procs([float(np.median(p["iter_ms"])) for p in procs], "ms",
                                     "upper quartile of per-process medians"),
        "ul_iter_ms_tail": {"value": tail, "unit": "ms",
                            "note": f" (p{pct} of {len(samples)} pooled UL iterations, "
                                    f"{sum(ms > tail for ms in samples)} above)"},
        "peak_rss_mb": over_procs([p["peak_rss_mb"] for p in procs], "MB", "median"),
    }


def per_layer_metrics(untraced, traced) -> dict:
    """Medians over the traced processes, and the tracing overhead on
    ``solve_s`` against the untraced processes of the same run."""
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name, _ in PER_LAYER if name != "trace.overhead_frac"}
    values["trace.overhead_frac"] = (statistics.median(p["solve_s"] for p in traced)
                                     / statistics.median(p["solve_s"] for p in untraced) - 1.0)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "trilevel", "cli.py")):
        print(f"no trilevel sources under {ROOT}/src; run from a full checkout", file=sys.stderr)
        return 2

    import compileall

    # byte-compile once so no workload process pays for it during set-up
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    work = WORKLOADS[args.workload]
    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    kw = work.experiment_kwargs(args.seed)
    print(f"workload {work.name}: {work.why}")
    print(f"  seed {args.seed} -> spec_seed={kw['spec_seed']} base_seed={kw['base_seed']}; "
          f"{args.seconds:g} s budget, at least {MIN_PROCS} processes")

    procs = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        untraced = [p for p in procs if not p["traced"]]
        traced = [p for p in procs if p["traced"]]
        enough = (len(traced) >= 1 and len(untraced) >= 1) if args.trace else len(procs) >= MIN_PROCS
        if enough:
            typical = statistics.median(p["wall_s"] for p in procs)
            if elapsed + typical > args.seconds:
                break
        trace_next = bool(args.trace) and len(traced) < len(untraced)
        t0 = time.perf_counter()
        try:
            res = run_process(work.name, args.seed, trace_next, len(procs),
                              timeout=max(1.0, RUN_DEADLINE_S - elapsed))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            print(f"workload process failed: {err}", file=sys.stderr)
            return 1
        res["wall_s"] = time.perf_counter() - t0
        res["traced"] = trace_next
        procs.append(res)
        status = "ok" if not res["failed"] else f"FAILED {res['failures']}"
        print(f"  process {len(procs)}{' (traced)' if trace_next else ''}: "
              f"setup {res['setup_s']:.3f} s, solve {res['solve_s']:.3f} s, "
              f"rss {res['peak_rss_mb']:.1f} MB, reps {res['attempted'] - res['failed']}/"
              f"{res['attempted']} {status}, digest {res['digest']}")

    untraced = [p for p in procs if not p["traced"]]
    traced = [p for p in procs if p["traced"]]
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    digests = sorted({p["digest"] for p in procs})
    gates = {
        "every repetition passed its gates and the run csv schema": failed == 0,
        "all processes gave one trace digest (traced and untraced alike)": len(digests) == 1,
    }
    if args.trace:
        print(f"per-layer metrics (median of {len(traced)} traced processes):")
        metrics = per_layer_metrics(untraced, traced)
    else:
        print(f"end-to-end metrics ({len(untraced)} processes):")
        metrics = end_to_end_metrics(work, untraced)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}{m.pop('note', '')}")
    print(f"  fail_frac = {failed}/{attempted} repetitions = {failed / attempted:.3g}")
    print(f"  trace digest: {', '.join(digests)}")
    for label, ok in gates.items():
        print(f"  gate {'ok  ' if ok else 'FAIL'} {label}")
    for rep, measures in enumerate(procs[0]["measures"]):
        print(f"  repetition {rep} of process 1: "
              + ", ".join(f"{k} {v:.4g}" for k, v in measures.items()))

    print(json.dumps({
        "correct": all(gates.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
