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

* All three run one reduced middle-level gradient (:func:`ml_adjoint_gradient`)
  on their ``solve_zz``, which applies Hzz(f3)^{-1} (:func:`_make_solve_zz`),
  and their cross product H_{b,z}(f3) w (:func:`_cross_z`).
* ``H`` and ``AD`` run one algebra on the oracle's Hessian blocks, products
  and third-order contractions: the reduced-Hessian algebra of the UL
  gradient (:func:`_ul_reduced`) and the bilevel gradient. They differ only
  in their two solvers: ``solve_zz`` and ``solve_yy``, the inverse of an
  m x m matrix, Hbar_yy or the bilevel gradient's H_yy(f2)
  (:func:`_make_solve_yy`).
* ``H`` solves directly: one (m+2)-column and one vector Hzz(f3) solve per
  UL gradient, by Hzz(f3)'s own ``solve`` when it has one (the quartic's
  Sherman-Morrison), else by LAPACK. Reference quality; only meant for
  desk-scale problems.
* ``AD`` replaces the solves with truncated Neumann series at scales 1/c0
  (one Hzz(f3) series per column, on the oracle's ``hvp_zz_f3``) and 1/c1
  (the m x m matrix): m+3 inner series per UL gradient. On every sample,
  a noise draw included, each series multiplies by one fixed symmetric
  matrix, so one routine evaluates them all on their Krylov spaces
  (:func:`neumann_inverse_apply`), in as many products as that space has
  dimensions (at most 2 for adv-hpt's Hzz(f3)) instead of Q. Its scale c1
  bounds the Hbar_yy that this engine inverts (:func:`auto_scales`).
* ``NFD`` solves every inverse-Hessian system with linear CG (:func:`_cg`),
  realizing each Hessian-vector product as a central finite difference of
  the corresponding gradient (:func:`_fd_dir`). Its UL gradient forms each
  reduced-Hessian product by a second-order adjoint, at two CG solves and
  with no solve's output differenced (:func:`ul_adjoint_gradient`). It
  moves the lower-level variable to first order along s = (dz/dy) v:
  differencing at frozen z would converge to the partial (fixed-z) Hessian
  instead of the reduced one, which is a different matrix whenever f2 or f3
  couples y and z. ``fd_eps`` acts on this engine only.

All evaluations inside one gradient computation receive the caller's
SampleSpec unchanged (fixed-sample contract).
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import cg_solve, is_integer, lu_factor_cached, lu_solve, solve_dense
from .oracle import DETERMINISTIC, Point, ProblemOracle, SampleSpec

Array = np.ndarray

ENGINE_H = "H"
ENGINE_NFD = "NFD"
ENGINE_AD = "AD"
ENGINES = (ENGINE_H, ENGINE_NFD, ENGINE_AD)


@dataclass
class AdjointConfig:
    """Approximation knobs for the adjoint engines.

    ``fd_eps`` (the finite-difference step), ``cg_tol`` and ``cg_max_iters``
    are the NFD engine's; ``cg_max_iters=None`` leaves the cap to
    :func:`cg_solve` (10x the dimension). ``neumann_q``, ``c0`` and ``c1``
    are the AD engine's: its series length and the Lipschitz-style scaling
    constants of the lower-level Hessian and the reduced middle-level
    Hessian, which it requires (see :func:`auto_scales`).
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
        if not self.fd_eps > 0:  # NaN fails too
            raise ValueError("fd_eps must be positive")
        if not self.cg_tol > 0:
            raise ValueError("cg_tol must be positive")
        if self.cg_max_iters is not None and (not is_integer(self.cg_max_iters) or self.cg_max_iters < 1):
            raise ValueError("cg_max_iters must be a positive integer")
        if self.neumann_q is not None and not is_integer(self.neumann_q):
            raise ValueError("neumann_q must be an integer")


# A Neumann iterate larger than this multiple of |b| counts as divergence.
NEUMANN_GROWTH_CAP = 10.0


# A Lanczos residual at most this multiple of |T| means the Krylov space of
# b is invariant under the operator: the tridiagonal T then represents it
# exactly on that space.
LANCZOS_BREAKDOWN_TOL = 1e-12


def neumann_inverse_apply(
    hvp: Callable[[Array], Array],
    b,
    Q: int,
    scale: float,
    events: Optional[list] = None,
    label: str = "neumann",
) -> Array:
    """Truncated-Neumann approximation of A^{-1} b with a divergence guard,
    for an ``hvp`` that is a symmetric linear map A.

    The series is the recurrence r_0 = b, r_{h+1} = r_h - scale * A r_h,
    summed as scale * sum_{h=0..Q} r_h. It converges geometrically when
    |I - scale*A| < 1 (not enforced; the caller picks scale = 1/C with C an
    upper bound on |A|).

    Guard: if an iterate is non-finite or its norm exceeds
    NEUMANN_GROWTH_CAP * |b| (the scaled operator has left the contractive
    regime, e.g. a stale scale constant or a locally indefinite Hessian),
    the sum stops at the last sane term, so it is a bounded, regularized
    inverse. The stop is appended to ``events``, when a list is given, as
    ``neumann_truncated:<label>@<h>`` with h the 1-based index of the
    rejected term.

    Evaluation: every iterate r_h = (I - scale*A)^h b lies in span{b, Ab,
    ..., A^h b}. Lanczos from b/|b|, with full reorthogonalisation, builds
    an orthonormal basis V of that space and the tridiagonal T = V^T A V in
    at most Q products, and stops once the space is invariant (beta_k <=
    LANCZOS_BREAKDOWN_TOL * |T|); when that space has dimension k, one
    series costs k products. After p products without breakdown T has p+1
    rows, and its last diagonal entry, which would cost product p+1, does
    not enter (I - scale*T)^h e1 for h <= p. With T = U diag(lam) U^T,
    c = U^T e1 and mu = 1 - scale*lam, the guard norms are
    |r_h| = |b| |c * mu^h| for all h at once, and the sum maps back as
    scale * |b| * V U (c * sum_h mu^h). A non-finite product at call j
    truncates at term j, where the recurrence would meet it.
    """
    if not is_integer(Q) or Q < 0:
        raise ValueError("Q must be a nonnegative integer")
    if not scale > 0:
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


def _cg(apply_A, b, label: str, cfg, events) -> Array:
    """The NFD engine's solver: A^{-1} b by CG at ``cg_tol`` and
    ``cg_max_iters``; solves that stop on curvature or at the iteration cap
    above tolerance are flagged in ``events``."""
    report = cg_solve(apply_A, b, tol=cfg.cg_tol, max_iters=cfg.cg_max_iters)
    if events is not None:
        if report.terminated_on_curvature:
            events.append(f"cg_curvature:{label}")
        elif not report.converged:
            events.append(f"cg_capped:{label}")
    return report.solution


def _cross_z(block, oracle, point, sample, cfg, w) -> Array:
    """H_{block,z}(f3) w: the oracle's block under H and AD, a central
    difference of grad_block f3 along z at ``fd_eps`` under NFD, where
    block may also be z (Hzz(f3) w, in NFD's reduced-Hessian products)."""
    if cfg.engine == ENGINE_NFD:
        return _fd_dir(getattr(oracle, f"grad_{block}_f3"), point, sample, cfg.fd_eps, z=w)
    return getattr(oracle, f"hess_{block}z_f3")(point, sample) @ w


def _make_solve_zz(oracle, point, sample, cfg, events):
    """The engine's ``solve_zz(B, labels)`` at (point, sample): Hzz(f3)^{-1}
    applied to a t-vector (one label) or, under H and AD, to the columns of
    a t x k block (one label per column).

    H uses Hzz(f3)'s own ``solve`` when it has one (the quartic's
    :class:`~trilevel.linalg.RankOneUpdate`), the inverse that a
    :class:`~trilevel.linalg.ConstantMatrix` carries (the quadratic's), and
    else one-shot LAPACK solves (adv-hpt's Hzz(f3), or a noise draw's). AD
    applies one truncated Neumann series per column at 1/c0 on the oracle's
    ``hvp_zz_f3``, each labelled as its NFD twin. NFD solves a vector by CG
    (:func:`_cg`) on central differences of grad_z f3 along z at ``fd_eps``.
    """
    if cfg.engine == ENGINE_NFD:
        return lambda b, label: _cg(lambda v: _fd_dir(oracle.grad_z_f3, point, sample, cfg.fd_eps, z=v),
                                    b, label, cfg, events)
    if cfg.engine == ENGINE_H:
        Hzz = oracle.hess_zz_f3(point, sample)
        solve = getattr(Hzz, "solve", None)
        if solve is not None:
            return lambda B, labels: solve(B)
        F = lu_factor_cached(Hzz)
        if F is None:
            return lambda B, labels: solve_dense(Hzz, B)
        return lambda B, labels: lu_solve(F, B)

    q, scale = cfg.neumann_q, _neumann_scale(cfg, "c0")

    def hvp(v):
        return oracle.hvp_zz_f3(point, sample, v)

    def solve_zz(B, labels):
        if B.ndim == 1:
            return neumann_inverse_apply(hvp, B, q, scale, events, labels)
        return np.column_stack([neumann_inverse_apply(hvp, b, q, scale, events, label)
                                for b, label in zip(B.T, labels)])

    return solve_zz


def _make_solve_yy(cfg, events):
    """The H or AD engine's ``solve_yy(A, b, label)``: A^{-1} b for an m x m
    matrix A, by LAPACK under H and by a truncated Neumann series at 1/c1
    under AD."""
    if cfg.engine == ENGINE_H:
        return lambda A, b, label: solve_dense(A, b)
    q, scale = cfg.neumann_q, _neumann_scale(cfg, "c1")
    return lambda A, b, label: neumann_inverse_apply(lambda v: A @ v, b, q, scale, events, label)


def _neumann_scale(cfg, name: str) -> float:
    """1/c for the AD scale constant ``name``, once the series' knobs are valid."""
    c = getattr(cfg, name)
    if not is_integer(cfg.neumann_q) or cfg.neumann_q < 0:
        raise ValueError("AD engine requires a nonnegative integer neumann_q")
    if c is None or not c > 0:
        raise ValueError(f"AD engine requires a positive {name}")
    return 1.0 / c


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
    standing in for the exact lower-level solution, on the engine's
    ``solve_zz`` and cross product (:func:`_cross_z`)."""
    cfg = cfg or AdjointConfig()
    solve_zz = _make_solve_zz(oracle, point, sample, cfg, events)
    w = solve_zz(np.asarray(oracle.grad_z_f2(point, sample), float), "ml_w")
    return np.asarray(oracle.grad_y_f2(point, sample), float) - _cross_z("y", oracle, point, sample, cfg, w)


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

    H and AD run the reduced-Hessian algebra of :func:`_ul_reduced` with
    their solver pair. NFD solves lam_y by CG on Hbar_yy products and
    forms one Hbar_xy product, each by the second-order adjoint of
    fbar's gradient: with w = Hzz(f3)^{-1} grad_z f2 solved once and
    s = -Hzz(f3)^{-1} H_zy(f3) v (the ``track`` solve),
      Hbar_{b,y} v = dG_b - H_bz(f3) dw,  dw = Hzz(f3)^{-1} dG_z (the ``dw`` solve),
    where dG_b is the central difference of grad_b f2 - H_bz(f3) w along
    (y, z) = (v, s) at frozen w, and every H_{.z}(f3) w is :func:`_cross_z`'s.
    """
    cfg = cfg or AdjointConfig()
    o, p, s = oracle, point, sample
    solve_zz = _make_solve_zz(o, p, s, cfg, events)
    if cfg.engine != ENGINE_NFD:
        return _ul_reduced(o, p, s, solve_zz, _make_solve_yy(cfg, events))

    def frozen(block):
        # grad_block f2 - H_{block,z}(f3) w as a function of the point, at frozen w
        grad_f2 = getattr(o, f"grad_{block}_f2")
        return lambda q, _: np.asarray(grad_f2(q, s), float) - _cross_z(block, o, q, s, cfg, w)

    def reduced(block, v):
        # Hbar_{block,y} v; z moves along dz/dy v = -Hzz^{-1} H_zy v
        z_dir = -solve_zz(_fd_dir(o.grad_z_f3, p, s, cfg.fd_eps, y=v), "track")
        dw = solve_zz(_fd_dir(frozen("z"), p, s, cfg.fd_eps, y=v, z=z_dir), "dw")
        return (_fd_dir(frozen(block), p, s, cfg.fd_eps, y=v, z=z_dir)
                - _cross_z(block, o, p, s, cfg, dw))

    lam_z = solve_zz(np.asarray(o.grad_z_f1(p, s), float), "lam_z")
    w = solve_zz(np.asarray(o.grad_z_f2(p, s), float), "ml_w")
    b = np.asarray(o.grad_y_f1(p, s), float) - _cross_z("y", o, p, s, cfg, lam_z)
    lam_y = _cg(lambda v: reduced("y", v), b, "lam_y", cfg, events)
    cross = reduced("x", lam_y)
    return np.asarray(o.grad_x_f1(p, s), float) - _cross_z("x", o, p, s, cfg, lam_z) - cross


def _ul_reduced(oracle, point, sample, solve_zz, solve_yy) -> Array:
    """The reduced-Hessian algebra of the upper-level gradient: Hbar_yy
    assembled densely from Hessian blocks, products and third-order
    contractions, and the x side in reverse mode. The engine supplies the
    two solvers (:func:`_make_solve_zz`, :func:`_make_solve_yy`).
    ``solve_yy`` receives Hbar_yy itself, so a caller that passes its own
    sees the matrix (:func:`auto_scales`). H solves both directly; AD
    applies truncated Neumann series at 1/c0 and 1/c1, so its gradient is
    a Q-term estimate built from the oracle's products.

    With T_abc = T_abc(f3) contracted with w2 = Hzz^{-1} grad_z f2, the pieces
    D = T_zzz - Hzz2 and E = Hyz2 - T_yzz, and Jx, Jy = dz/dx, dz/dy:
      Hbar_yx = Hyx2 - T_yzx + E Jx - Jy^T (T_zzx - Hzx2 + D Jx);
      Hbar_yy = Hyy2 - T_yzy + S + S^T - Jy^T D Jy, with S = E Jy.
    Hbar_yy is Hbar_yx with y for x: mixed derivatives are symmetric, so
    T_zzy - Hzy2 = -E^T, and the oracle supplies no zy blocks.
    Hzz(f3) is symmetric, so Jx^T q = -Hxz3 Hzz^{-1} q for any t-vector q;
    with u = Jy lam_y and q = E^T lam_y - D u, Hbar_yx^T lam_y =
      (Hyx2 - T_yzx)^T lam_y - (T_zzx - Hzx2)^T u - Hxz3 Hzz^{-1} q.
    So Jx is never formed: Hzz is solved against [grad_z f1 | Hyz3^T |
    grad_z f2], then against the one vector grad_z f1 - q. D is symmetric
    and is only applied to Jy, as products, so D u = (D Jy) lam_y and no
    t x t array is formed beyond the H engine's Hzz(f3)."""
    o, p, s = oracle, point, sample

    gz1 = np.asarray(o.grad_z_f1(p, s), float)
    Hxz3 = np.asarray(o.hess_xz_f3(p, s), float)  # n x t
    Hyz3 = np.asarray(o.hess_yz_f3(p, s), float)  # m x t
    sol = solve_zz(np.column_stack([gz1, Hyz3.T, np.asarray(o.grad_z_f2(p, s), float)]),
                   ["lam_z"] + ["track"] * Hyz3.shape[0] + ["ml_w"])
    lam_z, w2 = sol[:, 0], sol[:, -1]
    Jy = -sol[:, 1:-1]  # t x m, dz/dy on the solution manifold
    # D and E carry the correction term -H_yz Hzz^{-1} grad_z f2's z-derivatives
    DJy = o.t3_zzz_f3_contract(p, s, w2, Jy) - np.asarray(o.hvp_zz_f2(p, s, Jy), float)
    E = np.asarray(o.hess_yz_f2(p, s), float) - o.t3_yzz_f3_contract(p, s, w2)

    S = E @ Jy
    Hyy_bar = (np.asarray(o.hess_yy_f2(p, s), float) - o.t3_yzy_f3_contract(p, s, w2) + S + S.T
               - Jy.T @ DJy)
    lam_y = solve_yy(Hyy_bar, np.asarray(o.grad_y_f1(p, s), float) - Hyz3 @ lam_z, "lam_y")

    u = Jy @ lam_y
    v = solve_zz(gz1 - (E.T @ lam_y - DJy @ lam_y), "gx_w")
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

    H and AD invert the oracle's H_yy(f2) with their ``solve_yy`` (AD's
    Neumann series at 1/c1 needs no c0), and both apply the oracle's
    H_yx(f2). NFD takes the H_yy(f2) and H_xy(f2) products as central
    differences of grad_y f2 and grad_x f2 at ``fd_eps``, whose error
    dominates off the quadratic family.
    """
    cfg = cfg or AdjointConfig()
    o, p, s = oracle, point, sample
    gy1 = np.asarray(o.grad_y_f1(p, s), float)
    if cfg.engine == ENGINE_NFD:
        lam = _cg(lambda v: _fd_dir(o.grad_y_f2, p, s, cfg.fd_eps, y=v), gy1, "bilevel_lam", cfg, events)
        cross = _fd_dir(o.grad_x_f2, p, s, cfg.fd_eps, y=lam)
    else:
        solve_yy = _make_solve_yy(cfg, events)
        lam = solve_yy(np.asarray(o.hess_yy_f2(p, s), float), gy1, "bilevel_lam")
        cross = np.asarray(o.hess_yx_f2(p, s), float).T @ lam
    return np.asarray(o.grad_x_f1(p, s), float) - cross


# ---------------------------------------------------------------------------
# AD scale calibration


def auto_scales(
    oracle: ProblemOracle,
    point: Point,
    neumann_q: int = 20,
    c0: Optional[float] = None,
) -> tuple[float, float]:
    """The AD engine's Neumann scaling constants (c0, c1) at a probe point,
    on the deterministic sample.

    c0 doubles the max absolute row sum of the probe lower-level Hessian.
    Pass an explicit ``c0`` to pin the lower-level scale and calibrate only
    c1; problems whose lower-level curvature at the probe point is
    degenerate (e.g. a cold-started adversarial perturbation problem) need
    this, since the probe-local estimate would make 1/c0 enormous; it is
    returned unchanged. c1 doubles the spectral norm of the reduced
    middle-level Hessian Hbar_yy that AD's UL gradient inverts at the probe
    point: the matrix :func:`_ul_reduced` assembles with AD's ``neumann_q``-term
    Hzz series at 1/c0, so c1 follows c0 and Q. The probe stops there, so it
    runs none of the gradient's x side.
    """
    if c0 is None:
        Hzz = np.asarray(oracle.hess_zz_f3(point, DETERMINISTIC), float)
        c0 = 2.0 * float(np.max(np.sum(np.abs(Hzz), axis=1)))
    cfg = AdjointConfig(engine=ENGINE_AD, neumann_q=neumann_q, c0=c0)
    solve_zz = _make_solve_zz(oracle, point, DETERMINISTIC, cfg, None)

    class Captured(Exception):
        pass

    def capture(Hyy_bar, b, label):
        raise Captured(Hyy_bar)

    try:
        _ul_reduced(oracle, point, DETERMINISTIC, solve_zz, capture)
    except Captured as stop:
        return c0, 2.0 * float(np.linalg.norm(stop.args[0], 2))


def auto_scale_bilevel(oracle: ProblemOracle, point: Point) -> float:
    """c1 for :func:`bilevel_adjoint_gradient`: doubles the spectral norm of
    the oracle's H_yy(f2) at a probe point, on the deterministic sample."""
    return 2.0 * float(np.linalg.norm(np.asarray(oracle.hess_yy_f2(point, DETERMINISTIC), float), 2))
