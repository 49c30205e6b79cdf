"""Fast self-check of the benchmark harness.

    python3 bench/selfcheck.py

Checks that span self times and the per-layer arithmetic are right on a
synthetic span tree, that a proxied (traced) run of a tiny quadratic
gives the same trace digest as an unproxied one for the H and the noisy
NFD engine, and that BENCHMARK.json names the metrics the code reports.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from child import trace_digest  # noqa: E402
from tracing import PER_LAYER, Instrumentation, SpanRecorder, layer_metrics, self_times  # noqa: E402

WORK = os.path.join(ROOT, ".bench_work", "selfcheck")


def check(label, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail else ''}")
    if not ok:
        sys.exit(1)


def synthetic_tree():
    """run [0,10] > ul [1,4] > lu [2,3]; run > noise [5,9] > problem [6,8]."""
    import numpy as np

    rec = SpanRecorder()
    spans = [  # name, parent, start, end
        ("driver.run_tsg", -1, 0.0, 10.0),
        ("adjoint.ul_grad", 0, 1.0, 4.0),
        ("linalg.lu_factor", 1, 2.0, 3.0),
        ("oracle.noise/grad_z_f3", 0, 5.0, 9.0),
        ("synthetic.oracle/grad_z_f3", 3, 6.0, 8.0),
    ]
    for name, parent, start, end in spans:
        rec.name_id.append(rec.intern(name))
        rec.parent.append(parent)
        rec.start.append(start)
        rec.end.append(end)
    own = self_times(np.array(rec.parent, dtype=np.int64), np.array(rec.end) - np.array(rec.start))
    check("self time = duration - direct children", own.tolist() == [3.0, 2.0, 1.0, 2.0, 2.0], str(own))
    m = layer_metrics(rec, ["cg_curvature:lam_y", "neumann_truncated:lam_y@3", "cg_curvature:ml_w"])
    expect = {
        "driver.run_tsg.self_s": 3.0, "adjoint.ul_grad.self_s": 2.0, "adjoint.ul_grad.ms_p50": 3000.0,
        "linalg.lu_factor.self_s": 1.0, "linalg.lu_factor.calls": 1,
        "oracle.noise.self_s": 2.0, "synthetic.oracle.self_s": 2.0, "oracle.self_s": 4.0,
        "oracle.calls.grad_z_f3": 1, "oracle.noise.calls": 1,
        "adjoint.cg_curvature": 2, "adjoint.neumann_truncated": 1, "trace.spans": 5,
    }
    wrong = {k: (m[k], v) for k, v in expect.items() if m[k] != v}
    check("per-layer arithmetic on the synthetic tree", not wrong, str(wrong) if wrong else "")


def proxied_run_is_transparent():
    from trilevel.cli import run_experiment
    from trilevel.config import ExperimentConfig

    base = dict(problem="quadratic", n=3, m=3, t=3, spec_seed=5, base_seed=5,
                ul_iters=4, j0=2, k0=3, adaptive=False, repetitions=2)
    cases = {
        "H": dict(base, engine="H"),
        "noisy NFD": dict(base, engine="NFD", mode="stochastic", std_grad=0.1, std_hess=0.01),
    }
    for label, kwargs in cases.items():
        digests = []
        for recorder in (None, SpanRecorder()):
            out = os.path.join(WORK, "traced" if recorder else "plain")
            traces = []

            def capture(run_bsg):
                def run(*a, **kw):
                    traces.append(run_bsg(*a, **kw))
                    return traces[-1]

                return run

            with Instrumentation(recorder, capture):
                run_experiment(ExperimentConfig(output_dir=out, **kwargs), jobs=1)
            digests.append(trace_digest(traces, out))
            if recorder is not None:
                calls = sum(v for k, v in layer_metrics(recorder, []).items()
                            if k.startswith("oracle.calls."))
                check(f"{label}: traced run recorded oracle calls", calls > 0, str(calls))
            shutil.rmtree(out, ignore_errors=True)
        check(f"{label}: proxied and plain runs give one trace digest",
              digests[0] == digests[1], " vs ".join(digests))


def benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check("BENCHMARK.json per_layer matches the traced run's metrics", listed == list(PER_LAYER))
    from workloads import WORKLOADS

    check("BENCHMARK.json workloads match bench/workloads.py",
          [w["name"] for w in spec["workloads"]] == list(WORKLOADS))


def main() -> int:
    synthetic_tree()
    proxied_run_is_transparent()
    benchmark_json_matches_code()
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
