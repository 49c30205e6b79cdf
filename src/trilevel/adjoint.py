"""Adjoint gradients of the reduced middle- and upper-level objectives.

Three interchangeable backends compute the same two quantities:

* the middle-level adjoint gradient
      grad_y fbar = grad_y f2 - H_yz(f3) Hzz(f3)^{-1} grad_z f2,
* the upper-level adjoint gradient
      grad f = (grad_x f1 - H_xz(f3) lam_z) - Hbar_xy lam_y,
  with lam_z = Hzz(f3)^{-1} grad_z f1 and
  lam_y = Hbar_yy^{-1} (grad_y f1 - H_yz(f3) lam_z),

where Hbar_xy / Hbar_yy are the cross and curvature Hessians of the
reduced middle-level objective fbar(x, y) = f2(x, y, z(x, y)).

Backends:

* ``H``   assembles Hbar_yy densely from analytic Hessians and
  third-order contractions, applies Hbar_xy to lam_y in reverse mode, and
  solves directly with LAPACK: one (m+2)-column and one vector Hzz(f3)
  solve per UL gradient. Reference quality; only meant for desk-scale
  problems.
* ``NFD`` solves every inverse-Hessian system with linear CG, realizing
  each Hessian-vector product as a central finite difference of the
  corresponding gradient.
* ``AD``  replaces the solves with truncated Neumann series at scales
  1/c0 (lower level) and 1/c1 (reduced middle level), consuming analytic
  Hessian-vector products where the oracle provides them. A Hzz(f3)
  series whose products are analytic on a fixed sample is the same
  truncated polynomial evaluated on its Krylov space
  (:func:`neumann_krylov_apply`), in as many products as that space has
  dimensions (at most 2 on adv-hpt) instead of Q.

NFD and AD share one matrix-free class, ``_Ops``: its ``inverse`` method
is the only place that chooses between CG, the Neumann recurrence and its
Krylov evaluation, and its f3 products are analytic only under AD with an
HVP-capable oracle.
For NFD and AD, directional derivatives of the reduced maps grad_y fbar
and grad_x fbar along a y-direction v are taken with the lower-level
variable moved to first order along s = (dz/dy) v; differencing at frozen
z would converge to the partial (fixed-z) Hessian instead of the reduced
one, which is a different matrix whenever f2 or f3 couples y and z.

All evaluations inside one gradient computation receive the caller's
SampleSpec unchanged (fixed-sample contract).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import cg_solve, lu_factor_cached, lu_solve, solve_dense
from .oracle import DETERMINISTIC, NoiseDraw, Point, ProblemOracle, SampleSpec

Array = np.ndarray

ENGINE_H = "H"
ENGINE_NFD = "NFD"
ENGINE_AD = "AD"
ENGINES = (ENGINE_H, ENGINE_NFD, ENGINE_AD)


@dataclass
class AdjointConfig:
    """Approximation knobs for the adjoint engines.

    ``cg_max_iters=None`` leaves the cap to :func:`cg_solve` (10x the dimension).
    ``c0`` and ``c1`` are the Lipschitz-style scaling constants of the
    lower-level Hessian and the reduced middle-level Hessian; the AD
    engine requires them (see :func:`auto_scales`).
    """

    engine: str = ENGINE_H
    fd_eps: float = 0.1
    cg_tol: float = 1e-8
    cg_max_iters: Optional[int] = None
    neumann_q: Optional[int] = None
    c0: Optional[float] = None
    c1: Optional[float] = None

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; expected one of {ENGINES}")
        if self.fd_eps <= 0:
            raise ValueError("fd_eps must be positive")
        if self.cg_tol <= 0:
            raise ValueError("cg_tol must be positive")
        if self.cg_max_iters is not None and self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be positive")


# A Neumann iterate larger than this multiple of |b| counts as divergence.
NEUMANN_GROWTH_CAP = 10.0


def neumann_inverse_apply(
    hvp: Callable[[Array], Array],
    b,
    Q: int,
    scale: float,
    events: Optional[list] = None,
    label: str = "neumann",
) -> Array:
    """Truncated-Neumann approximation of A^{-1} b with a divergence guard.

    Runs the recurrence r_0 = b, r_{h+1} = r_h - scale * hvp(r_h) and
    returns scale * sum_{h=0..Q} r_h. Converges geometrically when
    |I - scale*A| < 1 (not enforced; the caller picks scale = 1/C with C
    an upper bound on |A|).

    Guard: if an iterate is non-finite or its norm exceeds
    NEUMANN_GROWTH_CAP * |b| (the scaled operator has left the contractive
    regime, e.g. a stale scale constant or a locally indefinite Hessian),
    accumulation stops at the last sane term, so the truncated sum is a
    bounded, regularized inverse. The stop is appended to ``events``, when
    a list is given, as ``neumann_truncated:<label>@<h>`` with h the
    1-based index of the rejected term.
    """
    if Q < 0:
        raise ValueError("Q must be nonnegative")
    if scale <= 0:
        raise ValueError("scale must be positive")
    r = np.asarray(b, dtype=float)
    total = r.copy()
    cap = NEUMANN_GROWTH_CAP * max(float(np.linalg.norm(b)), 1e-300)
    for h in range(Q):
        hv = np.asarray(hvp(r), dtype=float)
        if hv.shape != r.shape:
            raise ValueError("hvp output dimension mismatch")
        r = r - scale * hv
        norm = math.sqrt(r.dot(r))  # np.linalg.norm's value, without its wrapper
        if not math.isfinite(norm) or norm > cap:
            if events is not None:
                events.append(f"neumann_truncated:{label}@{h + 1}")
            break
        total += r
    return scale * total


# A Lanczos residual at most this multiple of |T| means the Krylov space of
# b is invariant under the operator: the tridiagonal T then represents it
# exactly on that space.
LANCZOS_BREAKDOWN_TOL = 1e-12


def neumann_krylov_apply(
    hvp: Callable[[Array], Array],
    b,
    Q: int,
    scale: float,
    events: Optional[list] = None,
    label: str = "neumann",
) -> Array:
    """:func:`neumann_inverse_apply`'s truncated sum, guard and event,
    evaluated on the Krylov space of b, for an ``hvp`` that is an exact
    symmetric linear map A.

    Every iterate r_h = (I - scale*A)^h b lies in span{b, Ab, ..., A^h b}.
    Lanczos from b/|b|, with full reorthogonalisation, builds an orthonormal
    basis V of that space and the tridiagonal T = V^T A V in at most Q
    products, and stops once the space is invariant (beta_k <=
    LANCZOS_BREAKDOWN_TOL * |T|); when that space has dimension k, one
    series costs k products. After p products without breakdown T has p+1
    rows, and its last diagonal entry, which would cost product p+1, does
    not enter (I - scale*T)^h e1 for h <= p. With T = U diag(lam) U^T,
    c = U^T e1 and mu = 1 - scale*lam, the guard norms are
    |r_h| = |b| |c * mu^h| for all h at once, and the sum maps back as
    scale * |b| * V U (c * sum_h mu^h). A non-finite product at call j
    truncates at term j, as it does in the recurrence.
    """
    if Q < 0:
        raise ValueError("Q must be nonnegative")
    if scale <= 0:
        raise ValueError("scale must be positive")
    b = np.asarray(b, dtype=float)
    beta0 = math.sqrt(b.dot(b))
    if Q == 0 or beta0 == 0.0:
        return scale * b
    if not math.isfinite(beta0):
        if events is not None:
            events.append(f"neumann_truncated:{label}@1")
        return scale * b
    cap = NEUMANN_GROWTH_CAP * max(beta0, 1e-300)

    n = b.size
    V = np.empty((min(Q + 1, n), n))
    V[0] = b / beta0
    alpha, beta = [], []
    tnorm = 0.0
    failed = exact = False
    for j in range(Q):
        w = np.asarray(hvp(V[j]), dtype=float)
        if w.shape != b.shape:
            raise ValueError("hvp output dimension mismatch")
        if not math.isfinite(w.dot(w)):
            failed = True
            break
        basis = V[: j + 1]
        proj = basis @ w
        w = w - proj @ basis
        w -= (basis @ w) @ basis
        alpha.append(float(proj[j]))
        beta_j = math.sqrt(w.dot(w))
        tnorm = max(tnorm, abs(alpha[-1]) + (beta[-1] if beta else 0.0) + beta_j)
        if beta_j <= LANCZOS_BREAKDOWN_TOL * tnorm or j + 1 == n:
            exact = True
            break
        beta.append(beta_j)
        V[j + 1] = w / beta_j
    # p products without breakdown represent terms h <= p only; T's unknown
    # last diagonal entry is set to its neighbour, which those terms ignore
    last = Q if exact else len(alpha)
    if not exact:
        alpha.append(alpha[-1] if alpha else 0.0)
    k = len(alpha)
    if k == 1:  # a 1-dimensional Krylov space, adv-hpt's usual case: no LAPACK call
        lam, U = np.array(alpha), np.ones((1, 1))
    else:
        lam, U = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    mu = 1.0 - scale * lam
    # mu^h may overflow past the guard's stop; a non-finite norm is a stop
    with np.errstate(over="ignore", invalid="ignore"):
        terms = U[0] * mu ** np.arange(last + 1)[:, None]
        sane = (terms * terms).sum(axis=1) <= (cap / beta0) ** 2
    first_bad = int(sane.argmin())
    stop = first_bad if not sane[first_bad] else (last + 1 if failed else None)
    if stop is not None and events is not None:
        events.append(f"neumann_truncated:{label}@{stop}")
    coef = terms[:stop].sum(axis=0)
    return (scale * beta0) * ((U @ coef) @ V[:k])


# ---------------------------------------------------------------------------
# engine plumbing


def _fd_dir(method, point: Point, sample, eps: float, **dirs: Array) -> Array:
    """Central difference of ``method(point, sample)`` at step eps along the
    direction that moves each named variable block by ``dirs[block]``."""
    plus, minus = {}, {}
    for block, d in dirs.items():
        at, step = getattr(point, block), eps * d
        plus[block], minus[block] = at + step, at - step
    gp = np.asarray(method(point.replace(**plus), sample), float)
    return (gp - np.asarray(method(point.replace(**minus), sample), float)) / (2.0 * eps)


class _Ops:
    """Matrix-free primitives of the NFD and AD engines, bound to
    (oracle, sample, cfg, events).

    The two engines differ in two places only. :meth:`inverse` solves
    every inverse-Hessian system: by CG under NFD, by a truncated Neumann
    series at 1/c0 (Hzz) or 1/c1 (reduced middle level) under AD.
    ``analytic`` is set when the engine is AD and the oracle has HVPs; the
    f3 products H_{block,z} v then come from the oracle, otherwise they are
    central differences of its gradients. An analytic Hzz series on a
    sample that is not a NoiseDraw multiplies by one exact symmetric
    matrix, so :meth:`inverse` evaluates it on its Krylov space; every
    other series runs the recurrence. ``block`` names the x, y or z
    variable block of a product.
    """

    def __init__(self, oracle, sample, cfg, events):
        self.oracle = oracle
        self.sample = sample
        self.cfg = cfg
        self.events = events
        self.analytic = cfg.engine == ENGINE_AD and oracle.capabilities.has_hvp

    def inverse(self, apply_A, b, scale_name: str, label: str) -> Array:
        """Approximate A^{-1} b. ``scale_name`` names the AD scale constant
        bounding |A| ("c0" or "c1"); CG solves that stop on curvature or at
        the iteration cap above tolerance are flagged in ``events``."""
        cfg, events = self.cfg, self.events
        if cfg.engine == ENGINE_NFD:
            report = cg_solve(apply_A, b, tol=cfg.cg_tol, max_iters=cfg.cg_max_iters)
            if events is not None:
                if report.terminated_on_curvature:
                    events.append(f"cg_curvature:{label}")
                elif not report.converged:
                    events.append(f"cg_capped:{label}")
            return report.solution
        scale = getattr(cfg, scale_name)
        if cfg.neumann_q is None or cfg.neumann_q < 0:
            raise ValueError("AD engine requires a nonnegative neumann_q")
        if scale is None or scale <= 0:
            raise ValueError(f"AD engine requires a positive {scale_name}")
        # Hzz products from the oracle on a fixed sample form an exact
        # symmetric linear map; FD products and noise draws keyed by their
        # direction do not, so those series keep the recurrence
        exact_linear = scale_name == "c0" and self.analytic and not isinstance(self.sample, NoiseDraw)
        apply = neumann_krylov_apply if exact_linear else neumann_inverse_apply
        return apply(apply_A, b, cfg.neumann_q, 1.0 / scale, events, label)

    def hvp_z(self, point, block, v) -> Array:
        """H_{block,z}(f3) v."""
        if self.analytic:
            return np.asarray(getattr(self.oracle, f"hvp_{block}z_f3")(point, self.sample, v), float)
        method = getattr(self.oracle, f"grad_{block}_f3")
        return _fd_dir(method, point, self.sample, self.cfg.fd_eps, z=v)

    def inv_zz(self, point, b, label) -> Array:
        return self.inverse(lambda v: self.hvp_z(point, "z", v), b, "c0", label)

    def hvp_zy(self, point, v) -> Array:
        # transposed cross product H_zy(f3) v; no oracle surface for it,
        # so both matrix-free engines difference grad_z f3 in y
        return _fd_dir(self.oracle.grad_z_f3, point, self.sample, self.cfg.fd_eps, y=v)

    def fbar_gradient(self, point, block) -> Array:
        """grad_block fbar = grad_block f2 - H_{block,z}(f3) Hzz(f3)^{-1} grad_z f2."""
        o, s = self.oracle, self.sample
        label = "ml_w" if block == "y" else "gx_w"
        w = self.inv_zz(point, np.asarray(o.grad_z_f2(point, s), float), label)
        return np.asarray(getattr(o, f"grad_{block}_f2")(point, s), float) - self.hvp_z(point, block, w)

    def track_z(self, point, v) -> Array:
        """First-order motion of the lower-level solution under a
        y-perturbation v: solves Hzz s = -H_zy v."""
        rhs = self.hvp_zy(point, v)
        return -self.inv_zz(point, rhs, "track")

    def reduced_apply(self, point, block, v) -> Array:
        """Hbar_{block,y} v as a central difference of grad_block fbar along
        (v, track_z(v)): Hbar_yy v for block y, and for block x Hbar_xy v
        in the two-evaluation form of the mixed partial."""
        return _fd_dir(lambda p, _: self.fbar_gradient(p, block), point, self.sample,
                       self.cfg.fd_eps, y=v, z=self.track_z(point, v))


# ---------------------------------------------------------------------------
# public operations


def ml_adjoint_gradient(
    oracle: ProblemOracle,
    point: Point,
    sample: SampleSpec = DETERMINISTIC,
    cfg: AdjointConfig = None,
    events: Optional[list] = None,
) -> Array:
    """Adjoint gradient of the reduced middle-level objective in y,
    grad_y f2 - H_yz(f3) Hzz(f3)^{-1} grad_z f2, evaluated with point.z
    standing in for the exact lower-level solution."""
    return _fbar_gradient("y", oracle, point, sample, cfg, events)


def grad_x_fbar(
    oracle: ProblemOracle,
    point: Point,
    sample: SampleSpec = DETERMINISTIC,
    cfg: AdjointConfig = None,
    events: Optional[list] = None,
) -> Array:
    """x-gradient of the reduced middle-level objective:
    grad_x f2 - H_xz(f3) Hzz(f3)^{-1} grad_z f2."""
    return _fbar_gradient("x", oracle, point, sample, cfg, events)


def _fbar_gradient(block, oracle, point, sample, cfg, events) -> Array:
    """Gradient of the reduced middle-level objective in the x or y block."""
    cfg = cfg or AdjointConfig()
    if cfg.engine == ENGINE_H:
        if not oracle.capabilities.has_hessians:
            raise ValueError("H engine requires an oracle with Hessian blocks")
        w = _zz_solver(oracle.hess_zz_f3(point, sample))(
            np.asarray(oracle.grad_z_f2(point, sample), float))
        return (np.asarray(getattr(oracle, f"grad_{block}_f2")(point, sample), float)
                - getattr(oracle, f"hess_{block}z_f3")(point, sample) @ w)
    return _Ops(oracle, sample, cfg, events).fbar_gradient(point, block)


def ul_adjoint_gradient(
    oracle: ProblemOracle,
    point: Point,
    sample: SampleSpec = DETERMINISTIC,
    cfg: AdjointConfig = None,
    events: Optional[list] = None,
) -> Array:
    """Trilevel adjoint gradient of the reduced objective in x.

    Axes of inexactness are the caller's: point.y and point.z stand in
    for the exact inner solutions. CG solves that stop on curvature
    (``cg_curvature:<label>``) or at the iteration cap above tolerance
    (``cg_capped:<label>``) are appended to ``events`` when a list is
    supplied.
    """
    cfg = cfg or AdjointConfig()
    if cfg.engine == ENGINE_H:
        return _ul_dense(oracle, point, sample, cfg)
    ops = _Ops(oracle, sample, cfg, events)
    o, s = oracle, sample

    lam_z = ops.inv_zz(point, np.asarray(o.grad_z_f1(point, s), float), "lam_z")
    b = np.asarray(o.grad_y_f1(point, s), float) - ops.hvp_z(point, "y", lam_z)
    lam_y = ops.inverse(lambda v: ops.reduced_apply(point, "y", v), b, "c1", "lam_y")
    cross = ops.reduced_apply(point, "x", lam_y)
    return np.asarray(o.grad_x_f1(point, s), float) - ops.hvp_z(point, "x", lam_z) - cross


def _zz_solver(Hzz) -> Callable[[Array], Array]:
    """B -> Hzz^{-1} B after one lookup in the one-entry memo: products
    with the inverse of an Hzz object seen on the last lookup, one-shot
    solves otherwise. One lookup per gradient, so a second solve against
    the same fresh Hessian does not make the memo invert it."""
    F = lu_factor_cached(Hzz)
    if F is None:
        return lambda B: solve_dense(Hzz, B)
    return lambda B: lu_solve(F, B)


def _ul_dense(oracle, point, sample, cfg) -> Array:
    """Reference backend: dense assembly of Hbar_yy from analytic Hessian
    blocks and third-order contractions, and the x side in reverse mode.

    With T_abc = T_abc(f3) contracted with w2 = Hzz^{-1} grad_z f2, the pieces
    D = T_zzz - Hzz2 and E = Hyz2 - T_yzz, and Jx, Jy = dz/dx, dz/dy:
      Hbar_yx = Hyx2 - T_yzx + E Jx - Jy^T (T_zzx - Hzx2 + D Jx);
      Hzz(f3) is symmetric, so Jx^T q = -Hxz3 Hzz^{-1} q for any t-vector q;
      with u = Jy lam_y and q = E^T lam_y - D^T u, Hbar_yx^T lam_y =
      (Hyx2 - T_yzx)^T lam_y - (T_zzx - Hzx2)^T u - Hxz3 Hzz^{-1} q.
    So Jx is never formed: Hzz is solved against [grad_z f1 | Hyz3^T |
    grad_z f2], then against the one vector grad_z f1 - q."""
    caps = oracle.capabilities
    if not caps.has_third_order:
        raise ValueError("H engine requires an oracle with third-order contractions")
    o, p, s = oracle, point, sample

    gz1 = np.asarray(o.grad_z_f1(p, s), float)
    Hxz3 = np.asarray(o.hess_xz_f3(p, s), float)  # n x t
    Hyz3 = np.asarray(o.hess_yz_f3(p, s), float)  # m x t
    solve_zz = _zz_solver(o.hess_zz_f3(p, s))
    sol = solve_zz(np.column_stack([gz1, Hyz3.T, np.asarray(o.grad_z_f2(p, s), float)]))
    lam_z, w2 = sol[:, 0], sol[:, -1]
    Jy = -sol[:, 1:-1]  # t x m, dz/dy on the solution manifold
    # D and E carry the correction term -H_yz Hzz^{-1} grad_z f2's z-derivatives
    D = o.t3_zzz_f3_contract(p, s, w2) - np.asarray(o.hess_zz_f2(p, s), float)
    E = np.asarray(o.hess_yz_f2(p, s), float) - o.t3_yzz_f3_contract(p, s, w2)

    Hyy_bar = (np.asarray(o.hess_yy_f2(p, s), float) - o.t3_yzy_f3_contract(p, s, w2) + E @ Jy
               - Jy.T @ (o.t3_zzy_f3_contract(p, s, w2) - np.asarray(o.hess_zy_f2(p, s), float) + D @ Jy))
    lam_y = solve_dense(Hyy_bar, np.asarray(o.grad_y_f1(p, s), float) - Hyz3 @ lam_z)

    u = Jy @ lam_y
    v = solve_zz(gz1 - (E.T @ lam_y - D.T @ u))
    return (np.asarray(o.grad_x_f1(p, s), float)
            - (np.asarray(o.hess_yx_f2(p, s), float) - o.t3_yzx_f3_contract(p, s, w2)).T @ lam_y
            + (o.t3_zzx_f3_contract(p, s, w2) - np.asarray(o.hess_zx_f2(p, s), float)).T @ u
            - Hxz3 @ v)


def bilevel_adjoint_gradient(
    oracle: ProblemOracle,
    point: Point,
    sample: SampleSpec = DETERMINISTIC,
    cfg: AdjointConfig = None,
    events: Optional[list] = None,
) -> Array:
    """Adjoint gradient for the bilevel reduction with the lower level
    removed: min_x f1(x, y, z) s.t. y in argmin_y f2(x, y, z), at frozen z.

    grad = grad_x f1 - H_xy(f2) H_yy(f2)^{-1} grad_y f1.

    AD inverts H_yy(f2) at 1/c1 and uses no c0. Both matrix-free engines
    take the H_yy(f2) and H_xy(f2) products as central differences of
    grad_y f2 and grad_x f2 at ``fd_eps``, whose error dominates off the
    quadratic family: on adv-hpt (split 7) at the default 0.1 the AD
    gradient is about 10 % off the H engine's, falling as O(fd_eps^2).
    """
    cfg = cfg or AdjointConfig()
    o, p, s = oracle, point, sample
    gy1 = np.asarray(o.grad_y_f1(p, s), float)
    if cfg.engine == ENGINE_H:
        if not o.capabilities.has_hessians:
            raise ValueError("H engine requires an oracle with Hessian blocks")
        lam = solve_dense(o.hess_yy_f2(p, s), gy1)
        return np.asarray(o.grad_x_f1(p, s), float) - np.asarray(o.hess_yx_f2(p, s), float).T @ lam

    ops = _Ops(o, s, cfg, events)
    lam = ops.inverse(lambda v: _fd_dir(o.grad_y_f2, p, s, cfg.fd_eps, y=v), gy1, "c1", "bilevel_lam")
    cross = _fd_dir(o.grad_x_f2, p, s, cfg.fd_eps, y=lam)
    return np.asarray(o.grad_x_f1(p, s), float) - cross


# ---------------------------------------------------------------------------
# AD scale calibration


def auto_scales(
    oracle: ProblemOracle,
    point: Point,
    neumann_q: int = 20,
    fd_eps: float = 0.1,
    c0: Optional[float] = None,
) -> tuple[float, float]:
    """Estimate the Neumann scaling constants (c0, c1) at a probe point,
    on the deterministic sample.

    c0 doubles the max absolute row sum of a probe lower-level Hessian
    (or a power-iteration norm estimate when only HVPs are available);
    c1 doubles a power-iteration estimate of the reduced middle-level
    Hessian norm obtained through the AD engine's own operator. Pass an
    explicit ``c0`` to pin the lower-level scale and calibrate only c1;
    problems whose lower-level curvature at the probe point is degenerate
    (e.g. a cold-started adversarial perturbation problem) need this,
    since the probe-local estimate would make 1/c0 enormous; it is
    returned unchanged.
    """
    cfg = AdjointConfig(engine=ENGINE_AD, fd_eps=fd_eps, neumann_q=neumann_q)
    ops = _Ops(oracle, DETERMINISTIC, cfg, None)
    if c0 is None:
        if oracle.capabilities.has_hessians:
            Hzz = np.asarray(oracle.hess_zz_f3(point, DETERMINISTIC), float)
            c0 = 2.0 * float(np.max(np.sum(np.abs(Hzz), axis=1)))
        else:
            c0 = 2.0 * _power_norm(lambda v: ops.hvp_z(point, "z", v), point.z.size)
    cfg.c0 = c0
    c1 = 2.0 * _power_norm(lambda v: ops.reduced_apply(point, "y", v), point.y.size)
    return c0, c1


def auto_scale_bilevel(oracle: ProblemOracle, point: Point, fd_eps: float = 0.1) -> float:
    """c1 for :func:`bilevel_adjoint_gradient`: doubles a power-iteration
    estimate of |H_yy(f2)| at a probe point, on the deterministic sample."""
    return 2.0 * _power_norm(
        lambda v: _fd_dir(oracle.grad_y_f2, point, DETERMINISTIC, fd_eps, y=v), point.y.size
    )


def _power_norm(apply_A, dim) -> float:
    """Norm estimate of the operator after five power iterations from a
    fixed random start (seed 0)."""
    v = np.random.default_rng(0).standard_normal(dim)
    v /= np.linalg.norm(v)
    est = 1.0
    for _ in range(5):
        u = np.asarray(apply_A(v), float)
        est = float(np.linalg.norm(u))
        if est == 0.0 or not np.isfinite(est):
            return max(est, 1.0)
        v = u / est
    return est
