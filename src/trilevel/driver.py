"""Nested three-loop stochastic-gradient optimizer.

One upper-level iteration runs a full middle-level cycle (each of whose
iterations runs a full lower-level cycle), performs one extra lower-level
pass at the updated middle-level variables, computes the trilevel adjoint
gradient, and steps the upper-level variables. Iterates thread across
cycles: each new cycle starts from the last iterate of the previous one.

The trilevel method (:func:`run_tsg`) and its bilevel reductions
(:func:`run_bsg`) run one outer loop, ``_outer_loop``: it evaluates and
records the objectives and iterates, aborts on non-finite values and
applies the adaptive budget rule. Each reduction supplies only a step
function for one outer iteration. ``without-ul`` freezes x and runs
one middle-level iteration per outer step; ``without-ll`` freezes z at
zero and tunes x against the middle level only.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .adjoint import (
    AdjointConfig,
    bilevel_adjoint_gradient,
    ml_adjoint_gradient,
    ul_adjoint_gradient,
)
from .linalg import NonFiniteError, SingularMatrixError
from .oracle import (
    DETERMINISTIC,
    MinibatchIndices,
    NoiseDraw,
    Point,
    ProblemOracle,
    SampleSpec,
    splitmix64,
    stream_gen,
)

Array = np.ndarray

REDUCTION_TRILEVEL = "trilevel"
REDUCTION_WITHOUT_UL = "without-ul"
REDUCTION_WITHOUT_LL = "without-ll"
REDUCTIONS = (REDUCTION_TRILEVEL, REDUCTION_WITHOUT_UL, REDUCTION_WITHOUT_LL)


# ---------------------------------------------------------------------------
# step-size schedules


@dataclass(frozen=True)
class TheoremConstant:
    """Constant steps alpha = 1/sqrt(I), beta = alpha/sqrt(J),
    gamma = alpha/(sqrt(J) sqrt(K))."""

    I: int
    J: int
    K: int

    def __post_init__(self):
        if min(self.I, self.J, self.K) < 1:
            raise ValueError("I, J, K must be positive")

    def alpha(self, i: int) -> float:
        return 1.0 / math.sqrt(self.I)

    def beta(self, j: int) -> float:
        return self.alpha(1) / math.sqrt(self.J)

    def gamma(self, k: int) -> float:
        return self.alpha(1) / (math.sqrt(self.J) * math.sqrt(self.K))


@dataclass(frozen=True)
class Decaying:
    """Per-cycle decaying steps alpha_i = abar/i, beta_j = bbar/j,
    gamma_k = gbar/k with 1-based indices resetting each cycle."""

    alpha_bar: float
    beta_bar: float
    gamma_bar: float

    def __post_init__(self):
        for name in ("alpha_bar", "beta_bar", "gamma_bar"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")

    def alpha(self, i: int) -> float:
        return self.alpha_bar / i

    def beta(self, j: int) -> float:
        return self.beta_bar / j

    def gamma(self, k: int) -> float:
        return self.gamma_bar / k


StepSchedule = Union[TheoremConstant, Decaying]


def _step_fn(value) -> Callable[[int], float]:
    """Accept a constant step or a callable of the 1-based iteration index."""
    if callable(value):
        return value
    v = float(value)
    return lambda _k: v


# ---------------------------------------------------------------------------
# budgets and the increasing-accuracy controller


# The increasing-accuracy rule's stall thresholds on the f1 and f2 changes.
UL_THRESHOLD = 1e-2
ML_THRESHOLD = 1e-1


@dataclass(frozen=True)
class IterationBudget:
    ul_iters: int
    j0: int = 1
    k0: int = 1
    adaptive: bool = False

    def __post_init__(self):
        if self.ul_iters < 1 or self.j0 < 1 or self.k0 < 1:
            raise ValueError("iteration budgets must be positive")


@dataclass(frozen=True)
class BudgetState:
    J: int
    K: int


def adaptive_update(
    state: BudgetState,
    prev_f1: float,
    cur_f1: float,
    prev_f2: float,
    cur_f2: float,
) -> BudgetState:
    """Increasing-accuracy rule: J grows by one when the f1 change drops
    below UL_THRESHOLD, K grows by one when the f2 change drops below
    ML_THRESHOLD. At most one increment per level per call."""
    J = state.J + (1 if abs(cur_f1 - prev_f1) < UL_THRESHOLD else 0)
    K = state.K + (1 if abs(cur_f2 - prev_f2) < ML_THRESHOLD else 0)
    return BudgetState(J, K)


# ---------------------------------------------------------------------------
# sample factories


class DeterministicSamples:
    """Full-data / noise-free evaluation at every level."""

    def ul(self, i: int) -> SampleSpec:
        return DETERMINISTIC

    def ml(self, i: int, j: int) -> SampleSpec:
        return DETERMINISTIC

    def ll(self, i: int, j: int, k: int) -> SampleSpec:
        return DETERMINISTIC


class NoiseSamples:
    """Noise-draw descriptors keyed by level and iteration indices.

    Streams are pure functions of (level, i, j) with the inner index as
    the counter, so evaluation order never changes the draws. The run
    seed lives in the noise-wrapping oracle, not here.
    """

    _UL, _ML, _LL = 1, 2, 3

    def ul(self, i: int) -> SampleSpec:
        return NoiseDraw(stream=splitmix64(self._UL), counter=i)

    def ml(self, i: int, j: int) -> SampleSpec:
        return NoiseDraw(stream=splitmix64(self._ML, i), counter=j)

    def ll(self, i: int, j: int, k: int) -> SampleSpec:
        return NoiseDraw(stream=splitmix64(self._LL, i, j), counter=k)


class MinibatchSamples:
    """Uniform without-replacement minibatches drawn from seeded
    counter-based streams, one batch per (level, i, j, k) evaluation."""

    _UL, _ML, _LL = 4, 5, 6

    def __init__(self, n_rows: int, batch_size: int, seed: int):
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.n_rows = int(n_rows)
        self.batch_size = min(int(batch_size), self.n_rows)
        self.seed = int(seed)

    def _draw(self, *tags) -> SampleSpec:
        gen = stream_gen(self.seed, *tags)
        idx = gen.choice(self.n_rows, size=self.batch_size, replace=False)
        return MinibatchIndices(tuple(int(v) for v in idx))

    def ul(self, i: int) -> SampleSpec:
        return self._draw(self._UL, i)

    def ml(self, i: int, j: int) -> SampleSpec:
        return self._draw(self._ML, i, j)

    def ll(self, i: int, j: int, k: int) -> SampleSpec:
        return self._draw(self._LL, i, j, k)


# ---------------------------------------------------------------------------
# traces


TRACE_COLUMNS = [
    "i", "cum_ml", "cum_ll", "wall_s", "f1", "f2", "f3",
    "gnorm", "J", "K", "alpha", "beta", "gamma",
]


@dataclass(frozen=True)
class TraceRecord:
    i: int
    cum_ml: int
    cum_ll: int
    wall_s: float
    f1: float
    f2: float
    f3: float
    gnorm: float
    J: int
    K: int
    alpha: float
    beta: float
    gamma: float
    flags: str = ""

    def row(self) -> list:
        return [getattr(self, c) for c in TRACE_COLUMNS]


@dataclass
class RunTrace:
    records: list = field(default_factory=list)
    aborted: Optional[str] = None
    iterates: list = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def __len__(self):
        return len(self.records)


# ---------------------------------------------------------------------------
# the three loops


def _finite_or_raise(vec: Array, what: str) -> Array:
    if not np.all(np.isfinite(vec)):
        raise NonFiniteError(f"non-finite {what}")
    return vec


def ll_sg(
    oracle: ProblemOracle,
    x: Array,
    y: Array,
    z0: Array,
    gamma,
    K: int,
    sampler: Optional[Callable[[int], SampleSpec]] = None,
) -> Array:
    """K stochastic-gradient steps on the lower-level objective in z.

    ``gamma`` is a step value or a callable of the 1-based step index;
    ``sampler`` maps the 0-based step index to a SampleSpec. The K step sizes
    are evaluated once, up front.

    Without a sampler, an oracle whose capabilities declare ``affine_ll``
    has its K steps z -= gamma_k (A z + g0) computed in closed form from
    A = hess_zz_f3 = V diag(lam) V' and one gradient g = grad_z_f3 at the
    start point z0: z_K = z0 - V diag(d) V' g with
    d_i = sum_k gamma_k prod_{j>k} (1 - gamma_j lam_i). d needs no division
    by lam, so it holds for any symmetric A; (lam, V) is the ``eigh`` that
    A, a :class:`~trilevel.linalg.ConstantMatrix`, computes once. Every
    other oracle, and any sampled cycle, gets a ``grad_z_f3(point, sample)``
    call per step, so noise reaches every step. Neither path writes to
    ``x``, ``y``, ``z0`` or the oracle's arrays.

    Both paths share one abort rule: a single finiteness check of the
    final iterate, which raises NonFiniteError. Every oracle here carries
    NaN and Inf through its gradients and the step z - gamma g keeps them,
    and a diverging closed form overflows its factors, so a cycle that
    goes non-finite at any step ends non-finite.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    gamma_fn = _step_fn(gamma)
    gammas = [gamma_fn(k) for k in range(1, K + 1)]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.array(z0, dtype=float)
    if sampler is None and oracle.capabilities.affine_ll:
        p = Point(x, y, z)
        lam, V = oracle.hess_zz_f3(p, DETERMINISTIC).eigh
        g = oracle.grad_z_f3(p, DETERMINISTIC)
        rev = gammas[::-1]
        with np.errstate(over="ignore", invalid="ignore"):
            # rows 1 - gamma_j lam for j = K+1 (gamma_{K+1} = 0), K, ..., 2: the
            # cumulative product's row K-k is prod_{j>k} (1 - gamma_j lam)
            F = 1.0 - np.multiply.outer([0.0] + rev[:-1], lam)
            d = np.dot(rev, F.cumprod(axis=0))
            z = z - V @ (d * (g @ V))
    else:
        grad_z_f3 = oracle.grad_z_f3
        for k in range(K):
            sample = DETERMINISTIC if sampler is None else sampler(k)
            z = z - gammas[k] * grad_z_f3(Point(x, y, z), sample)
    # any NaN/Inf entry propagates through the dot (so does an overflowing norm)
    if not math.isfinite(z.dot(z)):
        raise NonFiniteError(f"non-finite lower-level iterate after {K} steps")
    return z


def ml_bsg(
    oracle: ProblemOracle,
    x: Array,
    y0: Array,
    z0: Array,
    beta,
    gamma,
    J: int,
    K: int,
    cfg: AdjointConfig,
    ml_sampler: Optional[Callable[[int], SampleSpec]] = None,
    ll_sampler: Optional[Callable[[int, int], SampleSpec]] = None,
    events: Optional[list] = None,
) -> tuple[Array, Array]:
    """Bilevel SG cycle for the middle-level problem.

    Each of the J iterations refreshes z with a lower-level cycle, forms
    the (inexact) middle-level adjoint gradient there, and steps y.
    Returns (y_J, z_J) with iterates threaded across cycles.
    """
    if J < 1:
        raise ValueError("J must be at least 1")
    beta_fn = _step_fn(beta)
    y = np.asarray(y0, dtype=float).copy()
    z = np.asarray(z0, dtype=float).copy()
    for j in range(J):
        y, z, _ = _ml_iteration(oracle, x, y, z, beta_fn(j + 1), gamma, K, cfg, j,
                                ml_sampler, ll_sampler, events)
    return y, z


def _ml_iteration(oracle, x, y, z, beta, gamma, K, cfg, j, ml_sampler, ll_sampler, events):
    """Iteration j of a middle-level cycle: a lower-level cycle from z, the
    middle-level adjoint gradient g there and a step of size beta on y.
    Returns (y, z, g)."""
    ll_j = None if ll_sampler is None else (lambda k: ll_sampler(j, k))
    z = ll_sg(oracle, x, y, z, gamma, K, sampler=ll_j)
    ml_spec = DETERMINISTIC if ml_sampler is None else ml_sampler(j)
    g = ml_adjoint_gradient(oracle, Point(x, y, z), ml_spec, cfg, events)
    _finite_or_raise(g, f"middle-level adjoint gradient at step {j}")
    return y - beta * g, z, g


def _cycle_samplers(samples, i: int):
    """Outer iteration i's (ml, ll) samplers. Deterministic runs get none, so
    no inner step calls a sampler and ``ll_sg`` may take its affine cycle."""
    if isinstance(samples, DeterministicSamples):
        return None, None
    return (lambda j: samples.ml(i, j)), (lambda j, k: samples.ll(i, j, k))


def _outer_loop(step, grows, oracle, init: Point, budget: IterationBudget) -> RunTrace:
    """The outer loop every reduction runs.

    ``step(i, x, y, z, state, events)`` runs outer iteration i from the
    iterates and the budgets ``state``, appending solver flags to
    ``events``. It returns (point, g, x_next, (ml_iters, ll_steps), fields):
    the point to record, the outer gradient, the next x, the middle- and
    lower-level work done, and the record's J, K, alpha, beta and gamma.
    The loop evaluates the objectives deterministically at the point and
    records them and the point; a breakdown (NonFiniteError, SingularMatrixError,
    a non-finite f1 or f2) ends the run with ``trace.aborted`` set. With an
    adaptive budget, the increasing-accuracy rule grows the budgets flagged in
    ``grows`` = (J, K).
    """
    trace = RunTrace()
    x, y, z = init.x.copy(), init.y.copy(), init.z.copy()
    state = BudgetState(budget.j0, budget.k0)
    cum_ml = cum_ll = 0
    prev_f1 = prev_f2 = None
    t0 = time.perf_counter()

    for i in range(1, budget.ul_iters + 1):
        events: list = []
        try:
            point, g, x_next, (ml_iters, ll_steps), fields = step(i, x, y, z, state, events)
        except (NonFiniteError, SingularMatrixError) as err:
            trace.aborted = str(err)
            return trace

        f1 = float(oracle.f1(point, DETERMINISTIC))
        f2 = float(oracle.f2(point, DETERMINISTIC))
        f3 = float(oracle.f3(point, DETERMINISTIC))
        if not (math.isfinite(f1) and math.isfinite(f2)):
            trace.aborted = f"non-finite objective at iteration {i}"
            return trace

        cum_ml += ml_iters
        cum_ll += ll_steps
        record = TraceRecord(
            i=i, cum_ml=cum_ml, cum_ll=cum_ll,
            wall_s=time.perf_counter() - t0,
            f1=f1, f2=f2, f3=f3, gnorm=float(np.linalg.norm(g)),
            flags=";".join(events), **fields,
        )
        trace.records.append(record)
        trace.iterates.append(point)

        x, y, z = x_next, point.y, point.z
        if budget.adaptive and prev_f1 is not None:
            grown = adaptive_update(state, prev_f1, f1, prev_f2, f2)
            state = BudgetState(grown.J if grows[0] else state.J,
                                grown.K if grows[1] else state.K)
        prev_f1, prev_f2 = f1, f2

    return trace


def run_tsg(
    oracle: ProblemOracle,
    init: Point,
    schedule: StepSchedule,
    budget: IterationBudget,
    cfg: AdjointConfig,
    samples=None,
    exact_inner: Optional[Callable[[Array], tuple[Array, Array]]] = None,
) -> RunTrace:
    """Run the full trilevel stochastic-gradient method.

    Emits one trace record per upper-level iteration (objective values are
    deterministic evaluations at the current iterate). When the budget is
    adaptive, the increasing-accuracy rule grows J and K between
    iterations. ``exact_inner`` is a test hook mapping x to exact (y, z)
    inner solutions, bypassing the inner loops.
    """
    samples = samples or DeterministicSamples()

    def step(i, x, y, z, state, events):
        J, K = state.J, state.K
        if exact_inner is not None:
            y, z = (np.asarray(v, float) for v in exact_inner(x))
            work = (0, 0)
        else:
            ml_sampler, ll_sampler = _cycle_samplers(samples, i)
            y, z = ml_bsg(oracle, x, y, z, schedule.beta, schedule.gamma, J, K, cfg,
                          ml_sampler, ll_sampler, events)
            # extra lower-level pass at the updated middle iterate
            z = ll_sg(oracle, x, y, z, schedule.gamma, K,
                      sampler=ll_sampler and (lambda k: ll_sampler(J, k)))
            work = (J, K * (J + 1))
        point = Point(x, y, z)
        g = ul_adjoint_gradient(oracle, point, samples.ul(i), cfg, events)
        _finite_or_raise(g, "upper-level adjoint gradient")
        alpha = schedule.alpha(i)
        return point, g, x - alpha * g, work, dict(
            J=J, K=K, alpha=alpha, beta=schedule.beta(1), gamma=schedule.gamma(1))

    return _outer_loop(step, (True, True), oracle, init, budget)


def run_bsg(
    reduction: str,
    oracle: ProblemOracle,
    init: Point,
    schedule: StepSchedule,
    budget: IterationBudget,
    cfg: AdjointConfig,
    samples=None,
) -> RunTrace:
    """Run a bilevel reduction of the trilevel problem (same trace schema).

    ``without-ul`` holds x at its initial value and runs the middle-level
    bilevel cycle as the outer loop (f1 is evaluated, never optimized);
    the adaptive rule grows K only. ``without-ll`` holds z at zero and
    alternates middle-level SG on f2 with upper-level steps along the
    bilevel adjoint gradient; the adaptive rule grows J only.
    """
    if reduction == REDUCTION_TRILEVEL:
        return run_tsg(oracle, init, schedule, budget, cfg, samples)
    samples = samples or DeterministicSamples()

    def without_ul_step(i, x, y, z, state, events):
        # outer iteration i is middle-level iteration j = i-1, at step beta_i
        y, z, g = _ml_iteration(oracle, x, y, z, schedule.beta(i), schedule.gamma, state.K,
                                cfg, i - 1, *_cycle_samplers(samples, 0), events)
        return Point(x, y, z), g, x, (1, state.K), dict(
            J=1, K=state.K, alpha=0.0, beta=schedule.beta(i), gamma=schedule.gamma(1))

    def without_ll_step(i, x, y, z, state, events):
        for j in range(state.J):
            g2 = np.asarray(oracle.grad_y_f2(Point(x, y, z), samples.ml(i, j)), float)
            _finite_or_raise(g2, "middle-level gradient")
            y = y - schedule.beta(j + 1) * g2
        point = Point(x, y, z)
        g = bilevel_adjoint_gradient(oracle, point, samples.ul(i), cfg, events)
        _finite_or_raise(g, "bilevel adjoint gradient")
        alpha = schedule.alpha(i)
        return point, g, x - alpha * g, (state.J, 0), dict(
            J=state.J, K=0, alpha=alpha, beta=schedule.beta(1), gamma=0.0)

    if reduction == REDUCTION_WITHOUT_UL:
        return _outer_loop(without_ul_step, (False, True), oracle, init, budget)
    if reduction == REDUCTION_WITHOUT_LL:
        return _outer_loop(without_ll_step, (True, False), oracle,
                           init.replace(z=np.zeros_like(init.z)), budget)
    raise ValueError(f"unknown reduction {reduction!r}")
