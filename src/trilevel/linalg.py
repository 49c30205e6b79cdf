"""Dense linear-algebra kernel.

Minimal numerics used by the adjoint engines and the synthetic problems:
a linear conjugate-gradient solver with non-positive-curvature detection,
a partial-pivot LU direct solver (LAPACK getrf, BLAS triangular solves
and a pivot tolerance check) with a one-entry memo that factors a matrix
object solved repeatedly only once, and the order-3 tensor contraction
that the synthetic problems' third-order callbacks are checked against.

Only the LU routines use scipy, and :func:`scipy_lapack` imports its BLAS
and LAPACK wrappers on the first call: a run that never factors a matrix
(the NFD and AD engines) never pays the ~0.3 s import of scipy.linalg.

Vectors, matrices, and order-3 tensors are plain float64 ndarrays of
rank 1, 2, and 3 (row-major; packed LU factors and LU solutions of matrix
right-hand sides are column-major). All operations are pure; inputs are
never mutated, so a factorization may be shared across threads.
"""

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray

# Below this, a pivot or a curvature value counts as zero.
PIVOT_TOL = 1e-12
CURVATURE_TOL = 1e-14


class SingularMatrixError(ValueError):
    """Raised when an LU factorization has a pivot below tolerance."""


class NonFiniteError(RuntimeError):
    """NaN/Inf in a gradient, objective, operator product or solver input: a
    breakdown that aborts a run, as a SingularMatrixError does. Shape and
    argument errors raise ValueError."""


def as_vector(v, name: str = "vector") -> Array:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_matrix(m, name: str = "matrix") -> Array:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


def as_tensor3(t, name: str = "tensor") -> Array:
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"{name} must be 3-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return arr


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

    if np.sqrt(rs) <= threshold:
        return CgReport(x, 0, float(np.sqrt(rs)), False, True)

    for k in range(max_iters):
        Ad = np.asarray(apply_A(d), dtype=float)
        if Ad.shape != d.shape:
            raise ValueError(
                f"operator output shape {Ad.shape} does not match rhs shape {d.shape}"
            )
        if not np.all(np.isfinite(Ad)):
            raise NonFiniteError("operator returned non-finite values")
        dAd = float(d @ Ad)
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
        if np.sqrt(rs_new) <= threshold:
            return CgReport(x, k + 1, float(np.sqrt(rs_new)), False, True)
        d = r + (rs_new / rs) * d
        rs = rs_new

    return CgReport(x, max_iters, float(np.sqrt(rs)), False, False)


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


@functools.cache
def scipy_lapack():
    """scipy's (blas, lapack) wrapper modules, imported on the first call."""
    from scipy.linalg import blas, lapack

    return blas, lapack


def lu_factor(A) -> tuple[Array, Array]:
    """Partial-pivot LU factorization by LAPACK ``getrf``: returns (LU, perm).

    ``LU`` packs the unit lower-triangular L and the upper-triangular U of
    PA = LU in one Fortran-ordered array, and ``perm`` is the row
    permutation: (PA)[i] = A[perm[i]]. Raises SingularMatrixError when a
    pivot, a diagonal entry of U, falls below PIVOT_TOL in absolute value.
    """
    A = as_matrix(A, "A")
    n, nc = A.shape
    if n != nc or n == 0:
        raise ValueError(f"matrix must be square and non-empty, got {A.shape}")
    _, lapack = scipy_lapack()
    lu, swaps, _ = lapack.dgetrf(A)
    pivots = np.abs(np.diagonal(lu))
    if not np.all(pivots >= PIVOT_TOL):  # also catches NaN pivots
        col = int(np.argmin(pivots >= PIVOT_TOL))
        raise SingularMatrixError(
            f"pivot {lu[col, col]:.3e} below tolerance at column {col}"
        )
    # getrf reports row interchanges in order (row i swapped with swaps[i])
    perm = list(range(n))
    for i, j in enumerate(swaps.tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return lu, np.array(perm)


def lu_solve(lu: Array, perm: Array, B) -> Array:
    """Solve A X = B with a factorization (LU, perm) from :func:`lu_factor`
    by two BLAS triangular solves; B is a vector or matrix, X has its shape.

    LAPACK getrs is not used: scipy's wrapper rewrites the pivot array in
    place during the call, which races when threads share a cached
    factorization, and OpenBLAS threads it on matrix right-hand sides,
    where waking the threads costs far more than a small solve.
    """
    b = np.asarray(B, dtype=float)
    n = lu.shape[0]
    if b.shape[0] != n:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {n}")
    x = b[perm]  # P b, a fresh array
    blas, _ = scipy_lapack()
    if x.ndim == 1:
        x = blas.dtrsv(lu, x, lower=1, diag=1, overwrite_x=1)  # L y = P b
        return blas.dtrsv(lu, x, overwrite_x=1)  # U x = y
    x = blas.dtrsm(1.0, lu, x, lower=1, diag=1, overwrite_b=1)
    return blas.dtrsm(1.0, lu, x, overwrite_b=1)


def solve_dense(A, B) -> Array:
    """Direct solve A X = B by partial-pivot LU; B may be a vector or matrix."""
    lu, perm = lu_factor(A)
    return lu_solve(lu, perm, B)


# One-entry factorization memo, an (array, factorization) pair: an oracle
# that returns the same Hessian object for every call (constant-curvature
# problems) gets its LU computed once, and a fresh array replaces the pair.
# A lookup reads the pair once and an update swaps it whole, so threads
# need no lock: each sees the old pair or the new one, and the identity
# check keeps a thread from taking another array's factorization.
_LU_LAST: Optional[tuple] = None


def lu_factor_cached(A) -> tuple[Array, Array]:
    global _LU_LAST
    last = _LU_LAST
    if last is not None and last[0] is A:
        return last[1]
    fact = lu_factor(A)
    _LU_LAST = (A, fact)
    return fact
