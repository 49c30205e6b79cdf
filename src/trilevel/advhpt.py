"""Trilevel adversarial hyperparameter tuning on tabular data.

The upper level tunes a scalar log-penalty weight lam against validation
MSE, the middle level fits a linear model theta (features plus intercept)
to perturbed training data under a smoothed-L1 penalty exp(lam)*|theta|/m,
and the lower level chooses the worst-case per-sample feature perturbation
delta against a quadratic penalty c*|delta|^2 / (m * N_train). The lower
level is converted to a minimization by negating its objective:

    f1(lam, theta, delta) = validation MSE of theta (unperturbed)
    f2 = perturbed training MSE + exp(lam) * smoothed_l1(theta_f) / m
    f3 = -perturbed training MSE + c * |delta|^2 / (m * N_train)

delta has one row per training sample and one column per feature (the
intercept is never perturbed); minibatch samples restrict the MSE sums to
the given training rows with 1/|batch| scaling, while the penalty terms
stay exact. The lower level is only strongly convex in delta while
|theta_f|^2 < c / m; :func:`ll_convexity_margin` reports the margin, and
the optimizer is run regardless, as the objective stays well-behaved for
the step sizes used here.

The experiment's constants are fixed, not parameters: the target is the
CSV's last column, the split is 70/15/15 (test takes the remainder),
c = 0.1, mu = 0.25 and every run starts cold at lam = 0.
"""

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .linalg import NonFiniteError
from .oracle import (
    Deterministic,
    MinibatchIndices,
    Point,
    ProblemOracle,
    stream_gen,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# dataset ingestion and splitting


@dataclass
class TabularDataset:
    """Raw numeric table: features (N x d), targets (N,), column names."""

    features: Array
    targets: Array
    feature_names: list

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError("targets length must match feature rows")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def load_csv(path) -> TabularDataset:
    """Load a comma-separated file with a header row into a raw dataset.

    The target is the last column. Every cell must parse as a real
    number; a bad or missing cell raises with its row and column.
    Standardization happens later, after the train split is known.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {line_no} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for col_no, cell in enumerate(row):
                cell = cell.strip()
                if cell == "":
                    raise ValueError(
                        f"{path}: missing value at row {line_no}, column {header[col_no]!r}"
                    )
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: unparseable cell {cell!r} at row {line_no}, column {header[col_no]!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return TabularDataset(features=data[:, :-1], targets=data[:, -1], feature_names=header[:-1])


def bundled_dataset_path() -> str:
    """Path of the packaged 200-row synthetic tabular CSV."""
    return str(resources.files("trilevel").joinpath("data/tabular_200.csv"))


# shares of the rows in the train and validation splits; test takes the remainder
TRAIN_FRAC = 0.70
VAL_FRAC = 0.15


@dataclass(frozen=True)
class Splits:
    train: Array
    val: Array
    test: Array


def split_dataset(ds: TabularDataset, seed: int) -> Splits:
    """Disjoint train/val/test row indices: a seeded shuffle followed by
    floor(TRAIN_FRAC*N) / floor(VAL_FRAC*N) / remainder."""
    n = ds.n_rows
    if n < 10:
        raise ValueError("need at least 10 rows to form experiment splits")
    order = stream_gen(seed, 17).permutation(n)
    # nudge before flooring: 0.7 * 20640 is 14447.999999999998 in binary
    n_train = int(math.floor(TRAIN_FRAC * n + 1e-9))
    n_val = int(math.floor(VAL_FRAC * n + 1e-9))
    return Splits(
        train=np.sort(order[:n_train]),
        val=np.sort(order[n_train : n_train + n_val]),
        test=np.sort(order[n_train + n_val :]),
    )


def standardize_stats(features: Array, train_idx: Array) -> tuple[Array, Array]:
    """Per-column mean and standard deviation fit on the training rows only.
    Constant columns get unit scale so standardization stays defined."""
    train = features[train_idx]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


# ---------------------------------------------------------------------------
# smoothed L1 penalty


def smoothed_l1(theta, mu: float):
    """Smooth approximation of the L1 norm: sum_i sqrt(theta_i^2 + mu^2).

    Returns (value, gradient, hvp) where hvp applies the diagonal Hessian
    mu^2 / (theta_i^2 + mu^2)^{3/2}. The approximation error is at most mu
    per coordinate and O(mu^2 / |theta_i|) for large entries.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    theta = np.asarray(theta, dtype=float)
    root = np.sqrt(theta**2 + mu**2)
    value = float(np.sum(root))
    grad = theta / root
    diag = mu**2 / root**3

    def hvp(v):
        return diag * np.asarray(v, dtype=float)

    return value, grad, hvp


# ---------------------------------------------------------------------------
# problem and oracle


@dataclass(frozen=True)
class AdvHptProblem:
    """Problem instance: the train/val row sets and the penalty constants.

    Variable layout: x = [lam] (scalar), y = theta with the intercept as
    its last coordinate (m = d + 1), z = delta flattened row-major with
    one row per training sample (t = N_train * d).
    """

    train_idx: Array
    val_idx: Array
    n_features: int
    c = 0.1  # lower-level perturbation penalty
    mu = 0.25  # smoothed-L1 width

    def __post_init__(self):
        object.__setattr__(self, "train_idx", np.asarray(self.train_idx, dtype=int))
        object.__setattr__(self, "val_idx", np.asarray(self.val_idx, dtype=int))

    @property
    def n_train(self) -> int:
        return self.train_idx.size

    @property
    def dims(self) -> tuple[int, int, int]:
        d = self.n_features
        return 1, d + 1, self.n_train * d


def build_problem(ds: TabularDataset, splits: Splits) -> AdvHptProblem:
    return AdvHptProblem(train_idx=splits.train, val_idx=splits.val, n_features=ds.n_features)


class _RowBlockHzz:
    """Hzz(f3) on one sample: diag I minus the block coef theta_f theta_f'
    on each batch row of the (N_train, d) delta coordinates. ``np.asarray``
    forms the t x t matrix (the H engine solves it, a noise wrapper adds
    to it); ``@`` applies it to a t-vector without forming it. It has two
    eigenvalues, diag and diag - coef |theta_f|^2 on the batch rows'
    theta_f direction, so an AD Neumann series makes one or two products."""

    def __init__(self, diag: float, coef: float, theta_f: Array, batch: Array, n: int):
        self.diag, self.coef, self.theta_f, self.batch, self.n = diag, coef, theta_f, batch, n
        self.shape = (n * theta_f.size,) * 2

    def __array__(self, dtype=None, copy=None):
        theta_f, batch, n, d = self.theta_f, self.batch, self.n, self.theta_f.size
        H = self.diag * np.eye(n * d)
        H.reshape(n, d, n, d)[batch, :, batch, :] -= self.coef * np.outer(theta_f, theta_f)
        return np.asarray(H, dtype=dtype)

    def __matmul__(self, v) -> Array:
        theta_f, batch = self.theta_f, self.batch
        V = np.asarray(v, dtype=float).reshape(self.n, theta_f.size)
        out = self.diag * V
        s = V.take(batch, axis=0) @ theta_f
        out[batch] = out.take(batch, axis=0) - self.coef * (s[:, None] * theta_f[None, :])
        return out.ravel()


class AdvHptOracle(ProblemOracle):
    """Analytic derivatives of the linear-model / MSE formulation.

    Deterministic samples use the full training split; MinibatchIndices
    index rows of the training split. Hzz(f3) (a :class:`_RowBlockHzz`),
    the Hzz(f2) product and the third-order contractions exploit the
    per-row block structure of the delta coordinates, so the AD engine
    forms no t x t array; only the H engine densifies Hzz(f3) to solve
    it. f3 has no x and its Hzz does not depend on delta, so the x and zzz
    contractions are zero.
    """

    def __init__(self, problem: AdvHptProblem, ds: TabularDataset):
        self.problem = problem
        mean, std = standardize_stats(ds.features, problem.train_idx)
        self.feature_mean = mean
        self.feature_std = std
        self.train_features = (ds.features[problem.train_idx] - mean) / std
        self.train_targets = ds.targets[problem.train_idx]
        self.val_features = (ds.features[problem.val_idx] - mean) / std
        self.val_targets = ds.targets[problem.val_idx]

    @property
    def dims(self):
        return self.problem.dims

    # -- helpers ----------------------------------------------------------
    def _batch(self, sample) -> Array:
        n = self.problem.n_train
        if isinstance(sample, MinibatchIndices):
            if sample.lo < 0 or sample.hi >= n:
                raise IndexError(f"batch index out of range [0, {n})")
            return sample.rows
        if isinstance(sample, Deterministic):
            return np.arange(n)
        raise ValueError(f"unsupported sample kind for this problem: {type(sample).__name__}")

    def _split(self, p: Point):
        d = self.problem.n_features
        lam = float(p.x[0])
        theta_f = p.y[:d]
        theta_0 = float(p.y[d])
        delta = p.z.reshape(self.problem.n_train, d)
        return lam, theta_f, theta_0, delta

    def _residuals(self, theta_f, theta_0, delta, batch):
        feats = self.train_features[batch] + delta[batch]
        return feats, feats @ theta_f + theta_0 - self.train_targets[batch]

    def _penalty(self, lam, theta_f):
        """exp(lam)/m times smoothed_l1(theta_f): (value, gradient, the
        scale exp(lam)/m, the unscaled Hessian-vector product). A lam past
        exp's range is a breakdown of the run, so it raises NonFiniteError."""
        m = self.problem.n_features + 1
        value, grad, hvp = smoothed_l1(theta_f, self.problem.mu)
        try:
            scale = math.exp(lam) / m
        except OverflowError:
            raise NonFiniteError(f"penalty weight exp(lam) overflows at lam = {lam:.6g}") from None
        return scale * value, scale * grad, scale, hvp

    # -- values ------------------------------------------------------------
    def f1(self, p, sample):
        _, theta_f, theta_0, _ = self._split(p)
        r = self.val_features @ theta_f + theta_0 - self.val_targets
        return float(np.mean(r**2))

    def f2(self, p, sample):
        lam, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        _, r = self._residuals(theta_f, theta_0, delta, batch)
        pen, _, _, _ = self._penalty(lam, theta_f)
        return float(np.mean(r**2)) + pen

    def f3(self, p, sample):
        lam, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        _, r = self._residuals(theta_f, theta_0, delta, batch)
        m = self.problem.n_features + 1
        psi = self.problem.c * float(p.z @ p.z) / (m * self.problem.n_train)
        return -float(np.mean(r**2)) + psi

    # -- gradients -----------------------------------------------------------
    def grad_x_f1(self, p, sample):
        return np.zeros(1)

    def grad_y_f1(self, p, sample):
        _, theta_f, theta_0, _ = self._split(p)
        r = self.val_features @ theta_f + theta_0 - self.val_targets
        n_val = self.val_targets.size
        return (2.0 / n_val) * np.concatenate([self.val_features.T @ r, [r.sum()]])

    def grad_z_f1(self, p, sample):
        return np.zeros(self.problem.dims[2])

    def grad_x_f2(self, p, sample):
        lam, theta_f, _, _ = self._split(p)
        pen, _, _, _ = self._penalty(lam, theta_f)
        return np.array([pen])

    def grad_y_f2(self, p, sample):
        # the MSE parts of f2 and f3 are negatives of each other
        lam, theta_f, _, _ = self._split(p)
        _, pen_grad, _, _ = self._penalty(lam, theta_f)
        return -self.grad_y_f3(p, sample) + np.concatenate([pen_grad, [0.0]])

    def grad_z_f2(self, p, sample):
        _, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        _, r = self._residuals(theta_f, theta_0, delta, batch)
        out = np.zeros_like(delta)
        out[batch] = (2.0 / batch.size) * np.outer(r, theta_f)
        return out.ravel()

    def grad_x_f3(self, p, sample):
        return np.zeros(1)

    def grad_y_f3(self, p, sample):
        lam, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        feats, r = self._residuals(theta_f, theta_0, delta, batch)
        nb = batch.size
        return -(2.0 / nb) * np.concatenate([feats.T @ r, [r.sum()]])

    def grad_z_f3(self, p, sample):
        m = self.problem.n_features + 1
        scale = 2.0 * self.problem.c / (m * self.problem.n_train)
        return -self.grad_z_f2(p, sample) + scale * p.z

    # -- Hessian blocks and the Hzz(f2) product --------------------------------
    def hess_zz_f3(self, p, sample):
        _, theta_f, _, _ = self._split(p)
        batch = self._batch(sample)
        n, d = self.problem.n_train, self.problem.n_features
        return _RowBlockHzz(2.0 * self.problem.c / ((d + 1) * n), 2.0 / batch.size, theta_f, batch, n)

    def hess_xz_f3(self, p, sample):
        return np.zeros((1, self.problem.dims[2]))

    def hess_yz_f3(self, p, sample):
        # batch row i's m x d block is -(2/|B|)(a_i theta_f' + r_i [I; 0]),
        # with a_i = [feats_i, 1]
        _, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        n, d = self.problem.n_train, self.problem.n_features
        feats, r = self._residuals(theta_f, theta_0, delta, batch)
        A = np.hstack([feats, np.ones((batch.size, 1))])
        blocks = A[:, :, None] * theta_f[None, None, :]  # (|B|, m, d)
        diag = np.arange(d)
        blocks[:, diag, diag] += r[:, None]
        H = np.zeros((d + 1, n, d))
        H[:, batch, :] = -(2.0 / batch.size) * blocks.transpose(1, 0, 2)
        return H.reshape(d + 1, n * d)

    def hess_yz_f2(self, p, sample):
        # the MSE parts of f2 and f3 are negatives of each other and the
        # penalties are theta- or delta-only, so the cross block flips sign
        return -self.hess_yz_f3(p, sample)

    def hess_zx_f2(self, p, sample):
        return np.zeros((self.problem.dims[2], 1))

    def hvp_zz_f2(self, p, sample, V):
        # Hzz(f2) is block diagonal: (2/|B|) theta_f theta_f' on each batch row
        _, theta_f, _, _ = self._split(p)
        batch = self._batch(sample)
        n, d = self.problem.n_train, self.problem.n_features
        V = np.asarray(V, dtype=float)
        Vr = V.reshape(n, d, -1)
        s = np.einsum("j,ijk->ik", theta_f, Vr[batch])
        out = np.zeros_like(Vr)
        out[batch] = (2.0 / batch.size) * theta_f[None, :, None] * s[:, None, :]
        return out.reshape(V.shape)

    def hess_yx_f2(self, p, sample):
        lam, theta_f, _, _ = self._split(p)
        _, pen_grad, _, _ = self._penalty(lam, theta_f)
        return np.concatenate([pen_grad, [0.0]])[:, None]

    def hess_yy_f2(self, p, sample):
        lam, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        feats, _ = self._residuals(theta_f, theta_0, delta, batch)
        nb = batch.size
        A = np.hstack([feats, np.ones((nb, 1))])
        H = (2.0 / nb) * A.T @ A
        _, _, scale, pen_hvp = self._penalty(lam, theta_f)
        d = self.problem.n_features
        H[:d, :d] += scale * np.diag(pen_hvp(np.ones(d)))
        return H

    # -- third-order contractions ----------------------------------------------
    # f3 has no x, and its Hzz does not depend on delta: T_yzx, T_zzx and
    # T_zzz vanish
    def t3_yzx_f3_contract(self, p, sample, w):
        return np.zeros((self.problem.n_features + 1, 1))

    def t3_zzx_f3_contract(self, p, sample, w):
        return np.zeros((self.problem.dims[2], 1))

    def t3_zzz_f3_contract(self, p, sample, w, V):
        return np.zeros(np.shape(V))

    def t3_yzz_f3_contract(self, p, sample, w):
        # batch row i's m x d block is -(2/|B|)[(theta_f.w_i) I + w_i theta_f']
        # on the theta_f rows; the intercept row is zero
        _, theta_f, _, _ = self._split(p)
        batch = self._batch(sample)
        n, d = self.problem.n_train, self.problem.n_features
        W = np.asarray(w, dtype=float).reshape(n, d)[batch]
        blocks = W[:, :, None] * theta_f[None, None, :]  # (|B|, d, d)
        diag = np.arange(d)
        blocks[:, diag, diag] += (W @ theta_f)[:, None]
        T = np.zeros((d + 1, n, d))
        T[:d, batch, :] = -(2.0 / batch.size) * blocks.transpose(1, 0, 2)
        return T.reshape(d + 1, n * d)

    def t3_yzy_f3_contract(self, p, sample, w):
        # -(2/|B|)(A'W + W'A), with A's rows [feats_i, 1] and W's [w_i, 0]
        _, theta_f, theta_0, delta = self._split(p)
        batch = self._batch(sample)
        n, d = self.problem.n_train, self.problem.n_features
        feats, _ = self._residuals(theta_f, theta_0, delta, batch)
        A = np.hstack([feats, np.ones((batch.size, 1))])
        W = np.zeros((batch.size, d + 1))
        W[:, :d] = np.asarray(w, dtype=float).reshape(n, d)[batch]
        AW = A.T @ W
        return -(2.0 / batch.size) * (AW + AW.T)


def build_oracle(problem: AdvHptProblem, ds: TabularDataset) -> AdvHptOracle:
    return AdvHptOracle(problem, ds)


def init_point(problem: AdvHptProblem) -> Point:
    """Cold start: lam = 0, zero model, zero perturbation."""
    _, m, t = problem.dims
    return Point(np.zeros(1), np.zeros(m), np.zeros(t))


def ll_convexity_margin(problem: AdvHptProblem, theta) -> float:
    """Smallest eigenvalue of the lower-level Hessian in delta:
    2c/(m*N_train) - 2|theta_f|^2/N_train. Negative means the worst-case
    perturbation problem is locally concave along theta_f."""
    d = problem.n_features
    theta = np.asarray(theta, dtype=float)
    theta_f = theta[:d]
    m = d + 1
    n = problem.n_train
    return 2.0 * problem.c / (m * n) - 2.0 * float(theta_f @ theta_f) / n


def noisy_test_mse(
    theta,
    features: Array,
    targets: Array,
    noise_std: float = 5.0,
    realizations: int = 100,
    seed: int = 0,
) -> tuple[float, Array]:
    """Test MSE under Gaussian feature noise, averaged over realizations.

    Each realization adds i.i.d. N(0, noise_std^2) to every (standardized)
    feature cell -- never to the intercept or the targets -- and evaluates
    the model. Returns (mean, per-realization values); realizations use
    independent counter-based substreams, so they are order-independent
    and safe to evaluate in parallel.
    """
    if realizations < 1:
        raise ValueError("realizations must be at least 1")
    theta = np.asarray(theta, dtype=float)
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    d = features.shape[1]
    theta_f, theta_0 = theta[:d], float(theta[d])
    values = np.empty(realizations)
    for r in range(realizations):
        gen = stream_gen(seed, 23, r)
        noisy = features + gen.normal(0.0, noise_std, size=features.shape)
        resid = noisy @ theta_f + theta_0 - targets
        values[r] = float(np.mean(resid**2))
    return float(values.mean()), values
