"""Dense linear-algebra kernel.

Minimal numerics used by the adjoint engines and the synthetic problems:
a linear conjugate-gradient solver with non-positive-curvature detection,
direct solves by numpy's own LAPACK (``gesv``, a partial-pivot LU) with a
one-entry memo that inverts a matrix object solved repeatedly once and
gives an array seen once a one-shot solve, a one-entry memo of the
symmetric eigendecomposition of a matrix object, and the order-3 tensor
contraction that the synthetic problems' third-order callbacks are
checked against. Nothing here imports scipy.

Vectors, matrices, and order-3 tensors are plain float64 ndarrays of
rank 1, 2, and 3. All operations are pure; inputs are never mutated, so
an inverse may be shared across threads.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

# Below this, a curvature value counts as zero.
CURVATURE_TOL = 1e-14


class SingularMatrixError(ValueError):
    """Raised when a direct solve meets an exactly zero LU pivot or gives a
    non-finite solution or inverse from finite inputs."""


class NonFiniteError(RuntimeError):
    """NaN/Inf in a gradient, objective, operator product or solver input: a
    breakdown that aborts a run, as a SingularMatrixError does. Shape and
    argument errors raise ValueError."""


def _as_finite(value, ndim: int, name: str) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> Array:
    return _as_finite(v, 1, name)


def as_matrix(m, name: str = "matrix") -> Array:
    return _as_finite(m, 2, name)


def as_tensor3(t, name: str = "tensor") -> Array:
    return _as_finite(t, 3, name)


@dataclass(frozen=True)
class CgReport:
    """Outcome of a conjugate-gradient solve.

    ``solution`` is the final iterate; when ``terminated_on_curvature`` is
    true it is the iterate held at the moment d'Ad <= 0 was detected.
    ``converged`` is true when the solve met its tolerance; a solve that
    is neither converged nor stopped on curvature ended at the cap.
    """

    solution: Array
    iterations: int
    residual_norm: float
    terminated_on_curvature: bool
    converged: bool


def cg_solve(
    apply_A: Callable[[Array], Array],
    b,
    tol: float = 1e-8,
    max_iters: Optional[int] = None,
) -> CgReport:
    """Solve A x = b for symmetric positive definite A given as an operator.

    Standard Hestenes-Stiefel recurrence. The residual is recomputed from
    scratch (b - A x) every 50 iterations to control drift in long solves.
    Terminates early, returning the current iterate, as soon as a search
    direction d with d'Ad <= CURVATURE_TOL * |d|^2 is met.

    Convergence criterion: |r| <= tol * max(1, |b|).
    """
    b = as_vector(b, "b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = b.size
    if max_iters is None:
        max_iters = 10 * n
    if max_iters < 1:
        raise ValueError("max_iters must be a positive integer")

    x = np.zeros(n)
    r = b.copy()
    d = r.copy()
    rs = float(r @ r)
    threshold = tol * max(1.0, float(np.linalg.norm(b)))

    if math.sqrt(rs) <= threshold:
        return CgReport(x, 0, math.sqrt(rs), False, True)

    for k in range(max_iters):
        Ad = np.asarray(apply_A(d), dtype=float)
        if Ad.shape != d.shape:
            raise ValueError(
                f"operator output shape {Ad.shape} does not match rhs shape {d.shape}"
            )
        # NaN or Inf anywhere in Ad makes d'Ad non-finite (0 * Inf is NaN)
        dAd = float(d @ Ad)
        if not math.isfinite(dAd):
            raise NonFiniteError("operator returned non-finite values")
        if dAd <= CURVATURE_TOL * float(d @ d):
            res = float(np.linalg.norm(b - _apply(apply_A, x, n)))
            return CgReport(x, k, res, True, False)
        alpha = rs / dAd
        x = x + alpha * d
        if (k + 1) % 50 == 0:
            r = b - _apply(apply_A, x, n)
        else:
            r = r - alpha * Ad
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= threshold:
            return CgReport(x, k + 1, math.sqrt(rs_new), False, True)
        d = r + (rs_new / rs) * d
        rs = rs_new

    return CgReport(x, max_iters, math.sqrt(rs), False, False)


def _apply(apply_A, x, n):
    out = np.asarray(apply_A(x), dtype=float)
    if out.shape != (n,):
        raise ValueError("operator output dimension mismatch")
    return out


def tensor_contract_vec(T, v) -> Array:
    """Contract the middle index of a (d1, d2, d3) tensor with a d2-vector.

    out[a, c] = sum_b T[a, b, c] * v[b]
    """
    T = as_tensor3(T, "T")
    v = as_vector(v, "v")
    if T.shape[1] != v.size:
        raise ValueError(
            f"middle dimension {T.shape[1]} does not match vector dim {v.size}"
        )
    return np.einsum("abc,b->ac", T, v)


def lu_factor(A) -> Array:
    """The inverse of the square matrix A, by LAPACK ``gesv`` against the
    identity: the factorization that :func:`lu_solve` applies. The LU
    names are kept because the benchmark's tracer counts calls by them.

    Raises SingularMatrixError when LAPACK meets an exactly zero pivot or
    the inverse is not finite, and NonFiniteError on NaN/Inf entries.
    """
    A = _square(A)
    return _gesv(A, np.eye(A.shape[0]))


def lu_solve(F: Array, B) -> Array:
    """Solve A X = B with F = :func:`lu_factor` (A); B is a vector or a
    matrix, X has its shape. F is only read, so threads may share it."""
    return F @ B


def solve_dense(A, B) -> Array:
    """One-shot direct solve A X = B by LAPACK ``gesv`` (partial-pivot LU);
    B may be a vector or matrix. Raises as :func:`lu_factor` does."""
    return _gesv(_square(A), np.asarray(B, dtype=float))


def _square(A) -> Array:
    A = as_matrix(A, "A")
    n, nc = A.shape
    if n != nc or n == 0:
        raise ValueError(f"matrix must be square and non-empty, got {A.shape}")
    return A


def _gesv(A: Array, B: Array) -> Array:
    try:
        X = np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("singular matrix: LAPACK met an exactly zero pivot") from None
    if not np.all(np.isfinite(X)):
        if not np.all(np.isfinite(B)):
            raise NonFiniteError("right-hand side contains non-finite entries")
        raise SingularMatrixError("numerically singular matrix: its solution is not finite")
    return X


# One-entry inverse memo, an (array, inverse) pair. An oracle that returns
# the same Hessian object on every call (constant-curvature problems) has
# it inverted once, on its second sight, and each later solve is one
# product; an array seen once (a fresh Hessian per call) gets a one-shot
# solve instead, as its inverse would cost about four of them. A lookup
# reads the pair once and an update swaps it whole, so threads need no
# lock: each sees the old pair or the new one, and the identity check keeps
# a thread from taking another array's inverse.
_LU_LAST: Optional[tuple] = None


def lu_factor_cached(A) -> Optional[Array]:
    """The inverse of A when the last call saw this same array object, else
    None (the caller then solves once with :func:`solve_dense`)."""
    global _LU_LAST
    last = _LU_LAST
    if last is None or last[0] is not A:
        _LU_LAST = (A, None)
        return None
    if last[1] is None:
        last = _LU_LAST = (A, lu_factor(A))
    return last[1]


# One-entry eigendecomposition memo, an (array, eigenvalues, eigenvectors)
# triple swapped whole as the inverse memo above is. Every caller uses the
# decomposition, so it is computed on first sight.
_EIGH_LAST: Optional[tuple] = None


def eigh_cached(A) -> tuple[Array, Array]:
    """(lam, V) with A = V diag(lam) V' for the symmetric matrix A, by
    LAPACK through ``np.linalg.eigh``; reused while the last call saw this
    same array object. Raises NonFiniteError on NaN/Inf entries."""
    global _EIGH_LAST
    last = _EIGH_LAST
    if last is None or last[0] is not A:
        last = _EIGH_LAST = (A, *np.linalg.eigh(_square(A)))
    return last[1], last[2]
