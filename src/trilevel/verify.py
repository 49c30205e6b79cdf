"""Independent referees for the adjoint engines.

The main referee differentiates the reduced objective
f(x) = f1(x, y(x), z(x)) by outer central differences, obtaining the
inner solutions either from closed forms (quadratic synthetic family) or
by running plain deterministic descent on the inner problems to a fixed
residual (``INNER_TOL``, at most ``INNER_MAX_ITERS`` iterations). Because
it only composes function values at solved inner points, it shares no
code path with the trilevel adjoint assembly it is used to check.

Also provides pairwise engine-agreement reports used by the acceptance
suite and the command-line ``verify`` subcommand.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adjoint import ENGINE_H, AdjointConfig, ml_adjoint_gradient, ul_adjoint_gradient
from .oracle import DETERMINISTIC, Point, ProblemOracle, fd_hvp
from .synthetic import QuadraticSpec, reduced_objective

Array = np.ndarray


# the descent referee's inner residual target and iteration cap
INNER_TOL = 1e-10
INNER_MAX_ITERS = 200_000
# step of the central-difference curvature probe in solve_ll
LL_FD_EPS = 1e-5


class InnerSolveError(RuntimeError):
    """Inner descent failed to reach the requested residual."""


def _power_step(apply_hvp, dim: int, iters: int = 8, seed: int = 0) -> float:
    """Conservative descent step 1/(2 L) with L a power-iteration estimate
    of the Hessian norm (floored so degenerate probes stay usable)."""
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 1e-12
    for _ in range(iters):
        u = np.asarray(apply_hvp(v), float)
        norm = float(np.linalg.norm(u))
        if not np.isfinite(norm) or norm <= 1e-14:
            break
        est = max(est, norm)
        v = u / norm
    return 1.0 / (2.0 * max(est, 1e-8))


def solve_ll(
    oracle: ProblemOracle,
    x: Array,
    y: Array,
    z0: Array,
    tol: float,
    max_iters: int,
) -> Array:
    """Gradient descent on the lower-level objective in z until
    |grad_z f3| <= tol.

    The base step is 1/(2 L) from a power-iteration curvature estimate,
    re-probed periodically; each step backtracks until the objective does
    not increase, which keeps quartic-growth objectives from diverging.
    """
    z = np.asarray(z0, float).copy()

    def grad(zv):
        return np.asarray(oracle.grad_z_f3(Point(x, y, zv), DETERMINISTIC), float)

    def value(zv):
        return float(oracle.f3(Point(x, y, zv), DETERMINISTIC))

    base_step = _power_step(lambda v: fd_hvp(grad, z, v, LL_FD_EPS), z.size)
    fz = value(z)
    for it in range(max_iters):
        g = grad(z)
        res = float(np.linalg.norm(g))
        if res <= tol:
            return z
        if it % 200 == 199:  # curvature changes along the path
            base_step = _power_step(lambda v: fd_hvp(grad, z, v, LL_FD_EPS), z.size, seed=it)
        step = base_step
        while True:
            z_new = z - step * g
            f_new = value(z_new)
            if np.isfinite(f_new) and f_new <= fz + 1e-14 * max(1.0, abs(fz)):
                break
            step *= 0.5
            if step < 1e-18:
                raise InnerSolveError(
                    f"lower-level line search stalled at residual {res:.3e} > {tol:.1e}"
                )
        z, fz = z_new, f_new
    raise InnerSolveError(
        f"lower-level residual {float(np.linalg.norm(grad(z))):.3e} > {tol:.1e} "
        f"after {max_iters} iterations"
    )


def solve_inner(
    oracle: ProblemOracle,
    x: Array,
    y0: Array,
    z0: Array,
    tol: float,
    max_iters: int,
) -> tuple[Array, Array]:
    """Deterministic inner solve: descend the reduced middle-level
    objective in y (re-solving z before every gradient) until the
    middle-level adjoint residual reaches tol.

    The y-direction uses the analytic middle-level adjoint gradient at
    the freshly solved z; the outer referee built on top of this never
    touches the upper-level adjoint assembly it checks.
    """
    y = np.asarray(y0, float).copy()
    z = np.asarray(z0, float).copy()
    h_cfg = AdjointConfig(engine=ENGINE_H)

    def ml_grad(yv, zv):
        zs = solve_ll(oracle, x, yv, zv, tol, max_iters)
        return ml_adjoint_gradient(oracle, Point(x, yv, zs), DETERMINISTIC, h_cfg), zs

    g, z = ml_grad(y, z)

    def hvp(v):
        eps = 1e-5
        gp, _ = ml_grad(y + eps * v, z)
        gm, _ = ml_grad(y - eps * v, z)
        return (gp - gm) / (2 * eps)

    step = _power_step(hvp, y.size, iters=5)
    for it in range(max_iters):
        res = float(np.linalg.norm(g))
        if res <= tol:
            return y, z
        y = y - step * g
        g, z = ml_grad(y, z)
    raise InnerSolveError(
        f"middle-level residual {float(np.linalg.norm(g)):.3e} > {tol:.1e} "
        f"after {max_iters} iterations"
    )


def fd_grad_f(
    oracle: ProblemOracle,
    x,
    spec: Optional[QuadraticSpec] = None,
    warm: Optional[Point] = None,
    eps: float = 1e-4,
) -> Array:
    """Central-difference gradient, at step ``eps``, of the reduced objective f at x.

    Given a ``spec`` (which must be a QuadraticSpec) the inner solutions
    come from its closed forms; otherwise each of the 2n evaluations runs
    deterministic inner descent to ``INNER_TOL``, warm-started from the
    solution at x (itself solved from ``warm``, or from zeros).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, float)
    n = x.size
    grad = np.zeros(n)

    if spec is not None:
        if not isinstance(spec, QuadraticSpec):
            raise ValueError("the closed-form referee requires a QuadraticSpec")
        for a in range(n):
            e = np.zeros(n)
            e[a] = eps
            grad[a] = (
                reduced_objective(spec, x + e) - reduced_objective(spec, x - e)
            ) / (2 * eps)
        return grad

    if warm is not None:
        y_base, z_base = warm.y, warm.z
    else:
        _, m, t = oracle.dims
        y_base, z_base = np.zeros(m), np.zeros(t)
    y_base, z_base = solve_inner(oracle, x, y_base, z_base, INNER_TOL, INNER_MAX_ITERS)

    def f_of(xv):
        y, z = solve_inner(oracle, xv, y_base, z_base, INNER_TOL, INNER_MAX_ITERS)
        return float(oracle.f1(Point(xv, y, z), DETERMINISTIC))

    for a in range(n):
        e = np.zeros(n)
        e[a] = eps
        grad[a] = (f_of(x + e) - f_of(x - e)) / (2 * eps)
    return grad


# ---------------------------------------------------------------------------
# engine agreement


@dataclass
class AgreementReport:
    labels: list
    gradients: list
    rel_errors: Array  # pairwise relative l2 discrepancies

    def max_error(self) -> float:
        return float(self.rel_errors.max()) if self.rel_errors.size else 0.0

    def pair_error(self, a: str, b: str) -> float:
        return float(self.rel_errors[self.labels.index(a), self.labels.index(b)])

    def render_text(self) -> str:
        width = max(len(l) for l in self.labels) + 2
        lines = [" " * width + "".join(f"{l:>12}" for l in self.labels)]
        for i, l in enumerate(self.labels):
            cells = "".join(f"{self.rel_errors[i, j]:>12.3e}" for j in range(len(self.labels)))
            lines.append(f"{l:<{width}}" + cells)
        return "\n".join(lines)


def engine_agreement_report(
    oracle: ProblemOracle,
    point: Point,
    cfgs: Sequence[AdjointConfig],
    labels: Optional[Sequence[str]] = None,
    fd_reference: Optional[Array] = None,
) -> AgreementReport:
    """Pairwise relative discrepancies between engine outputs at a point,
    optionally including an externally computed FD reference gradient."""
    if len(cfgs) < 2 and fd_reference is None:
        raise ValueError("need at least two gradients to compare")
    labels = list(labels) if labels is not None else [c.engine for c in cfgs]
    grads = [np.asarray(ul_adjoint_gradient(oracle, point, DETERMINISTIC, c), float) for c in cfgs]
    if fd_reference is not None:
        labels.append("FD")
        grads.append(np.asarray(fd_reference, float))
    k = len(grads)
    rel = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                denom = max(np.linalg.norm(grads[i]), np.linalg.norm(grads[j]), 1e-30)
                rel[i, j] = np.linalg.norm(grads[i] - grads[j]) / denom
    return AgreementReport(labels=labels, gradients=grads, rel_errors=rel)
