"""Dense linear-algebra kernel.

Minimal numerics used by the adjoint engines and the synthetic problems:
a linear conjugate-gradient solver with non-positive-curvature detection,
direct solves by numpy's own LAPACK (``gesv``, a partial-pivot LU), a
constant symmetric matrix that carries its own inverse and
eigendecomposition (:class:`ConstantMatrix`), a Sherman-Morrison solve
for such a matrix plus a rank-one term (:class:`RankOneUpdate`), and the
order-3 tensor contraction that the synthetic problems' third-order
callbacks are checked against. Nothing here imports scipy.

Vectors, matrices, and order-3 tensors are plain float64 ndarrays of
rank 1, 2, and 3. All operations are pure; inputs are never mutated, so
an inverse may be shared across threads.
"""

import math
from dataclasses import dataclass
from functools import cached_property
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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, as a count must be."""
    return isinstance(value, (int, np.integer))


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
    if not tol > 0:
        raise ValueError("tol must be positive")
    n = b.size
    if max_iters is None:
        max_iters = 10 * n
    if not is_integer(max_iters) or max_iters < 1:
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
    return _finite_solution(X, B)


def _finite_solution(X: Array, B: Array) -> Array:
    if not np.all(np.isfinite(X)):
        if not np.all(np.isfinite(B)):
            raise NonFiniteError("right-hand side contains non-finite entries")
        raise SingularMatrixError("numerically singular matrix: its solution is not finite")
    return X


class ConstantMatrix:
    """A constant symmetric matrix A that carries its own inverse and
    eigendecomposition, each computed once, on first use, by
    :func:`lu_factor` and ``np.linalg.eigh`` (a synthetic oracle's Hzz(f3),
    one object per oracle). ``np.asarray`` gives A itself and ``@``
    multiplies by it. Raises as :func:`lu_factor` does on a non-finite or
    non-square A."""

    def __init__(self, A):
        self.A = _square(A)
        self.shape = self.A.shape

    def __array__(self, dtype=None, copy=None):
        return np.array(self.A, dtype=dtype, copy=copy)

    def __matmul__(self, V) -> Array:
        return self.A @ V

    @cached_property
    def inverse(self) -> Array:
        return lu_factor(self.A)

    @cached_property
    def eigh(self) -> tuple[Array, Array]:
        """(lam, V) with A = V diag(lam) V'."""
        return np.linalg.eigh(self.A)


def lu_factor_cached(A) -> Optional[Array]:
    """The inverse A carries when it is a :class:`ConstantMatrix`, else None
    (the caller then solves once with :func:`solve_dense`). The name is kept
    because the benchmark's tracer counts calls by it."""
    return A.inverse if isinstance(A, ConstantMatrix) else None


class RankOneUpdate:
    """The matrix c A + u u' for a :class:`ConstantMatrix` A (the quartic's
    Hzz(f3), c = 2g). ``np.asarray`` gives it dense, summed as u u' + c A;
    ``@`` and :meth:`solve` never form it."""

    def __init__(self, c: float, A: ConstantMatrix, u: Array):
        self.c, self.A, self.u = float(c), A, u
        self.shape = A.shape

    def __array__(self, dtype=None, copy=None):
        return np.asarray(np.outer(self.u, self.u) + self.c * self.A.A, dtype=dtype)

    def __matmul__(self, V) -> Array:
        return np.multiply.outer(self.u, self.u @ V) + self.c * (self.A @ V)

    def solve(self, B) -> Array:
        """X with (c A + u u') X = B, B a t-vector or t x k block, by
        Sherman-Morrison (1950): X = (A^-1 B - A^-1 u (u' A^-1 B) / (c + u' A^-1 u)) / c.
        Raises as :func:`solve_dense` does, and at c = 0 (rank one). At t = 1,
        where the formula cancels near c = 0, it is :func:`solve_dense`."""
        B = np.asarray(B, dtype=float)
        if self.shape[0] == 1:
            return solve_dense(np.asarray(self), B)
        if self.c == 0.0:
            raise SingularMatrixError("singular matrix: c A + u u^T with c = 0 has rank one")
        AiB, Aiu = self.A.inverse @ B, self.A.inverse @ self.u
        denom = self.c + float(self.u @ Aiu)
        if not math.isfinite(denom):
            raise NonFiniteError("matrix contains non-finite entries")
        if denom == 0.0:
            raise SingularMatrixError("singular matrix: zero Sherman-Morrison denominator")
        X = (AiB - np.multiply.outer(Aiu, (self.u @ AiB) / denom)) / self.c
        return _finite_solution(X, B)
