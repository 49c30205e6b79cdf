"""Span recorder and instrumentation for the traced benchmark run.

Spans are recorded from outside the package: public functions are
replaced by timing wrappers through the module attributes their callers
look up at call time, and oracles are wrapped in a delegating proxy.
Nothing under ``src/`` is edited. Each span holds a name, a start, an end
and the index of its parent span; spans stay in memory (flat arrays)
until the run ends.

Only the recording primitives are imported at module load; numpy is
imported lazily so that the workload process can time ``import
trilevel.cli`` without it already being loaded.
"""

import inspect
from array import array
from time import perf_counter

# Layers of the oracle proxies. A noise proxy wraps the noise oracle, whose
# inner problem oracle has its own proxy, so noise self time = outer - inner.
NOISE_LAYER = "oracle.noise"
PROBLEM_LAYERS = ("synthetic.oracle", "advhpt.oracle")
ORACLE_LAYERS = (NOISE_LAYER,) + PROBLEM_LAYERS

# Every derivative block of the ProblemOracle contract, in contract order.
ORACLE_BLOCKS = (
    "f1", "f2", "f3",
    "grad_x_f1", "grad_y_f1", "grad_z_f1",
    "grad_x_f2", "grad_y_f2", "grad_z_f2",
    "grad_x_f3", "grad_y_f3", "grad_z_f3",
    "hess_zz_f3", "hess_xz_f3", "hess_yz_f3",
    "hess_zx_f2", "hess_zy_f2", "hess_zz_f2",
    "hess_yx_f2", "hess_yy_f2", "hess_yz_f2",
    "hvp_zz_f3", "hvp_xz_f3", "hvp_yz_f3",
    "t3_yzx_f3_contract", "t3_yzz_f3_contract", "t3_zzx_f3_contract",
    "t3_zzz_f3_contract", "t3_yzy_f3_contract", "t3_zzy_f3_contract",
)
_ORACLE_BLOCK_SET = frozenset(ORACLE_BLOCKS)

# Per-layer metrics of the traced run: (name, unit), in report order.
PER_LAYER = (
    [
        ("driver.ll_sg.calls", "count"),
        ("driver.ll_sg.steps", "count"),
        ("driver.ll_sg.self_s", "s"),
        ("driver.ll_sg.us_per_step", "us"),
        ("driver.ml_bsg.self_s", "s"),
        ("driver.run_tsg.self_s", "s"),
        ("driver.samples.draws", "count"),
        ("driver.samples.self_s", "s"),
        ("synthetic.oracle.self_s", "s"),
        ("linalg.lu_factor.calls", "count"),
        ("linalg.lu_factor.self_s", "s"),
        ("linalg.lu_solve.calls", "count"),
        ("linalg.lu_solve.rhs_cols", "count"),
        ("linalg.lu_solve.self_s", "s"),
        ("linalg.lu_cache.lookups", "count"),
        ("linalg.lu_cache.hit_frac", "frac"),
        ("linalg.solve_dense.calls", "count"),
        ("linalg.cg.solves", "count"),
        ("linalg.cg.iters", "count"),
        ("linalg.cg.capped", "count"),
        ("linalg.cg.converged_frac", "frac"),
        ("linalg.cg.self_s", "s"),
    ]
    + [(f"oracle.calls.{block}", "count") for block in ORACLE_BLOCKS]
    + [
        ("oracle.self_s", "s"),
        ("oracle.noise.calls", "count"),
        ("oracle.noise.self_s", "s"),
        ("adjoint.ml_grad.calls", "count"),
        ("adjoint.ml_grad.self_s", "s"),
        ("adjoint.ul_grad.calls", "count"),
        ("adjoint.ul_grad.self_s", "s"),
        ("adjoint.ul_grad.ms_p50", "ms"),
        ("adjoint.neumann_truncated", "count"),
        ("adjoint.cg_curvature", "count"),
        ("adjoint.auto_scales.s", "s"),
        ("advhpt.oracle.self_s", "s"),
        ("advhpt.load_s", "s"),
        ("advhpt.noisy_test_mse.s", "s"),
        ("cli.import_s", "s"),
        ("cli.run_experiment.self_s", "s"),
        ("cli.bytes_written", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_frac", "frac"),
    ]
)


class SpanRecorder:
    """In-memory span store for one single-threaded run.

    Spans nest strictly (the run is single-threaded), so the open spans
    form a stack and each new span's parent is the top of that stack.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # per-call observations made by hooks, keyed by span name
        self.counters: dict[str, float] = {}
        self.cg_solves: list[tuple[int, bool, bool, bool]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, key: str, value: float):
        k = f"{name}.{key}"
        self.counters[k] = self.counters.get(k, 0) + value

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(arguments, result)`` runs after the span closes, so its own
        cost is not charged to the layer; ``arguments`` maps every
        parameter name of ``fn`` to its value, defaults included.
        """
        nid = self.intern(name)
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        signature = inspect.signature(fn) if hook is not None else None

        def spanned(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def arrays(self):
        import numpy as np

        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path):
        """Write every span to a compressed ``.npz`` file."""
        import numpy as np

        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent,
            start=start, end=end,
        )


def self_times(parent, duration):
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap in a single-threaded run, so the
    covered time is the sum of their durations.
    """
    import numpy as np

    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    return duration - covered


class OracleProxy:
    """Delegating oracle that records a span around every derivative call.

    Attribute reads other than oracle methods (``capabilities``, ``dims``,
    dataset statistics) pass straight through, and call results are the
    inner oracle's own objects, so identity-keyed caches behave as without
    the proxy.
    """

    def __init__(self, inner, recorder: SpanRecorder, layer: str):
        self._inner = inner
        self._recorder = recorder
        self._layer = layer

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name in _ORACLE_BLOCK_SET:
            attr = self._recorder.wrap(f"{self._layer}/{name}", attr)
            self.__dict__[name] = attr
        return attr


# ---------------------------------------------------------------------------
# instrumentation of the package


def _ll_sg_hook(rec):
    def hook(arguments, result):
        rec.add("driver.ll_sg", "steps", arguments.get("K", 0))

    return hook


def _lu_solve_hook(rec):
    def hook(arguments, result):
        import numpy as np

        shape = np.shape(arguments.get("B", ()))
        rec.add("linalg.lu_solve", "rhs_cols", shape[1] if len(shape) == 2 else 1)

    return hook


def _cg_hook(rec):
    def hook(arguments, report):
        import numpy as np

        b = np.asarray(arguments.get("b", ()), dtype=float)
        max_iters = arguments.get("max_iters")
        if max_iters is None:  # cg_solve's own default
            max_iters = 10 * b.size
        threshold = arguments.get("tol", 1e-8) * max(1.0, float(np.linalg.norm(b)))
        curvature = bool(report.terminated_on_curvature)
        converged = not curvature and report.residual_norm <= threshold
        capped = not curvature and not converged and report.iterations >= max_iters
        rec.cg_solves.append((int(report.iterations), capped, converged, curvature))

    return hook


class Instrumentation:
    """Installs timing wrappers on the package's module attributes.

    Use as a context manager; leaving it restores every attribute, so a
    traced and an untraced run can share one process (the self-check does).
    ``run_bsg_wrapper`` wraps ``cli.run_bsg`` in both modes: it is how the
    workload process learns when the optimizer is first entered and gets
    the traces of aborted repetitions. With ``recorder=None`` nothing else
    is touched (the untraced run). An attribute the package no longer has
    raises AttributeError, so a renamed or removed function fails the
    traced run instead of reading as a layer that got faster.
    """

    def __init__(self, recorder, run_bsg_wrapper):
        self.recorder = recorder
        self.run_bsg_wrapper = run_bsg_wrapper
        self._saved = []

    def _patch(self, module, attr, make_replacement):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_replacement(original))

    def __enter__(self):
        from trilevel import adjoint, advhpt, cli, driver, linalg

        rec = self.recorder
        run_bsg = cli.run_bsg
        if rec is not None:
            run_bsg = rec.wrap("driver.run_bsg", run_bsg)
        self._patch(cli, "run_bsg", lambda _: self.run_bsg_wrapper(run_bsg))
        if rec is None:
            return self

        spans = [
            (driver, "ll_sg", "driver.ll_sg", _ll_sg_hook(rec)),
            (driver, "ml_bsg", "driver.ml_bsg", None),
            (driver, "run_tsg", "driver.run_tsg", None),
            (driver, "ml_adjoint_gradient", "adjoint.ml_grad", None),
            (driver, "ul_adjoint_gradient", "adjoint.ul_grad", None),
            (adjoint, "cg_solve", "linalg.cg", _cg_hook(rec)),
            (adjoint, "lu_factor_cached", "linalg.lu_factor_cached", None),
            (adjoint, "lu_solve", "linalg.lu_solve", _lu_solve_hook(rec)),
            (adjoint, "solve_dense", "linalg.solve_dense", None),
            (linalg, "lu_factor", "linalg.lu_factor", None),
            (cli, "auto_scales", "adjoint.auto_scales", None),
            (advhpt, "load_csv", "advhpt.load_csv", None),
            (advhpt, "noisy_test_mse", "advhpt.noisy_test_mse", None),
        ]
        for module, attr, name, hook in spans:
            self._patch(module, attr, lambda fn, name=name, hook=hook: rec.wrap(name, fn, hook))

        def proxied(layer):
            def wrap_factory(factory):
                def make(*args, **kwargs):
                    return OracleProxy(factory(*args, **kwargs), rec, layer)

                return make

            return wrap_factory

        self._patch(cli, "make_oracle", proxied("synthetic.oracle"))
        self._patch(advhpt, "build_oracle", proxied("advhpt.oracle"))
        self._patch(cli, "wrap_gaussian_noise", proxied(NOISE_LAYER))

        def traced_samples(cls):
            methods = {m: rec.wrap("driver.samples", getattr(cls, m)) for m in ("ul", "ml", "ll")}
            return type(cls.__name__, (cls,), methods)

        self._patch(cli, "MinibatchSamples", traced_samples)
        self._patch(cli, "NoiseSamples", traced_samples)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(rec: SpanRecorder, flags: list[str]) -> dict[str, float]:
    """Per-layer numbers of one traced workload process.

    ``flags`` are the trace-record event flags of every repetition. The
    caller adds ``cli.import_s``, ``cli.bytes_written`` and
    ``trace.overhead_frac``, which are not span measurements.
    """
    import numpy as np

    name_id, parent, start, end = rec.arrays()
    duration = end - start
    own = self_times(parent, duration)
    n_names = len(rec.names)
    count_by = np.bincount(name_id, minlength=n_names)
    self_by = np.bincount(name_id, weights=own, minlength=n_names)
    total_by = np.bincount(name_id, weights=duration, minlength=n_names)

    def ids(pred):
        return [i for i, nm in enumerate(rec.names) if pred(nm)]

    def count(name):
        i = rec._ids.get(name)
        return int(count_by[i]) if i is not None else 0

    def self_s(*names):
        return float(sum(self_by[rec._ids[n]] for n in names if n in rec._ids))

    def total_s(name):
        i = rec._ids.get(name)
        return float(total_by[i]) if i is not None else 0.0

    def layer_self(layer):
        return float(sum(self_by[i] for i in ids(lambda nm: nm.startswith(layer + "/"))))

    oracle_ids = np.array(ids(lambda nm: nm.split("/")[0] in ORACLE_LAYERS), dtype=np.int64)
    is_oracle = np.isin(name_id, oracle_ids)
    parent_is_oracle = np.zeros_like(is_oracle)
    has_parent = parent >= 0
    parent_is_oracle[has_parent] = is_oracle[parent[has_parent]]
    outer_counts = np.bincount(name_id[is_oracle & ~parent_is_oracle], minlength=n_names)
    block_calls = dict.fromkeys(ORACLE_BLOCKS, 0)
    for i in oracle_ids:
        block_calls[rec.names[i].split("/", 1)[1]] += int(outer_counts[i])

    steps = rec.counters.get("driver.ll_sg.steps", 0)
    cached = count("linalg.lu_factor_cached")
    cached_id = rec._ids.get("linalg.lu_factor_cached", -1)
    factor_id = rec._ids.get("linalg.lu_factor", -1)
    misses = int(np.sum((name_id == factor_id) & has_parent & (np.where(has_parent, name_id[parent], -1) == cached_id)))
    cg = rec.cg_solves
    ul_durations = duration[name_id == rec._ids.get("adjoint.ul_grad", -1)]

    out = {
        "driver.ll_sg.calls": count("driver.ll_sg"),
        "driver.ll_sg.steps": steps,
        "driver.ll_sg.self_s": self_s("driver.ll_sg"),
        "driver.ll_sg.us_per_step": 1e6 * total_s("driver.ll_sg") / steps if steps else 0.0,
        "driver.ml_bsg.self_s": self_s("driver.ml_bsg"),
        "driver.run_tsg.self_s": self_s("driver.run_tsg"),
        "driver.samples.draws": count("driver.samples"),
        "driver.samples.self_s": self_s("driver.samples"),
        "synthetic.oracle.self_s": layer_self("synthetic.oracle"),
        "linalg.lu_factor.calls": count("linalg.lu_factor"),
        "linalg.lu_factor.self_s": self_s("linalg.lu_factor"),
        "linalg.lu_solve.calls": count("linalg.lu_solve"),
        "linalg.lu_solve.rhs_cols": rec.counters.get("linalg.lu_solve.rhs_cols", 0),
        "linalg.lu_solve.self_s": self_s("linalg.lu_solve"),
        "linalg.lu_cache.lookups": cached,
        "linalg.lu_cache.hit_frac": (cached - misses) / cached if cached else 0.0,
        "linalg.solve_dense.calls": count("linalg.solve_dense"),
        "linalg.cg.solves": len(cg),
        "linalg.cg.iters": sum(c[0] for c in cg),
        "linalg.cg.capped": sum(c[1] for c in cg),
        "linalg.cg.converged_frac": sum(c[2] for c in cg) / len(cg) if cg else 0.0,
        "linalg.cg.self_s": self_s("linalg.cg"),
    }
    out.update({f"oracle.calls.{b}": block_calls[b] for b in ORACLE_BLOCKS})
    out.update({
        "oracle.self_s": sum(layer_self(layer) for layer in ORACLE_LAYERS),
        "oracle.noise.calls": sum(count(f"{NOISE_LAYER}/{b}") for b in ORACLE_BLOCKS),
        "oracle.noise.self_s": layer_self(NOISE_LAYER),
        "adjoint.ml_grad.calls": count("adjoint.ml_grad"),
        "adjoint.ml_grad.self_s": self_s("adjoint.ml_grad"),
        "adjoint.ul_grad.calls": count("adjoint.ul_grad"),
        "adjoint.ul_grad.self_s": self_s("adjoint.ul_grad"),
        "adjoint.ul_grad.ms_p50": 1e3 * float(np.median(ul_durations)) if ul_durations.size else 0.0,
        "adjoint.neumann_truncated": sum(f.startswith("neumann_truncated:") for f in flags),
        "adjoint.cg_curvature": sum(f.startswith("cg_curvature:") for f in flags),
        "adjoint.auto_scales.s": total_s("adjoint.auto_scales"),
        "advhpt.oracle.self_s": layer_self("advhpt.oracle"),
        "advhpt.load_s": total_s("advhpt.load_csv"),
        "advhpt.noisy_test_mse.s": total_s("advhpt.noisy_test_mse"),
        "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        "trace.spans": int(name_id.size),
    })
    return {k: int(v) if isinstance(v, (int, np.integer)) else float(v) for k, v in out.items()}
