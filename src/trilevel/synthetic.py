"""Synthetic trilevel benchmark problems with closed-form solutions.

Two families share the upper/middle objectives

    f1(x,y,z) = hx'x + hy'y + hz'z + 0.5 x'Hxx x + x'Hxy y + x'Hxz z
    f2(x,y,z) = 0.5 y'Hyy y - y'Hyx x - y'Hyz z

and differ in the lower level: the quadratic family uses

    f3(x,y,z) = 0.5 z'Hzz z - z'Hzx x - z'Hzy y

(zero third-order derivatives), while the quartic family squares the
residual scalar g = z'Hzz z - z'(Hzx x + Hzy y):

    f3(x,y,z) = 0.5 * g^2

whose lower-level minimizers are the ellipsoid {g = 0} through z = 0 and
z = Hzz^{-1}(Hzx x + Hzy y): just those two points at t = 1; for t >= 2 a
non-unique solution set, on which Hzz(f3) = u u' (u = 2 Hzz z - Hzx x -
Hzy y) has rank one. Elsewhere Hzz(f3) = 2g Hzz + u u', which the oracle
returns as a :class:`~trilevel.linalg.RankOneUpdate` solved by Sherman-Morrison.

Both admit closed-form inner solutions (for the quartic, the point
z = Hzz^{-1}(Hzx x + Hzy y) of the lower level's solution set), making the
reduced objective and its gradient available as independent test
references. The closed forms and the specs' positive-definiteness checks
call ``np.linalg.solve`` directly, so they share neither the H engine's
assembly nor the inverse the oracle's Hzz carries.
"""

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

from .linalg import ConstantMatrix, RankOneUpdate, as_matrix, as_vector
from .oracle import OracleCapabilities, Point, ProblemOracle

Array = np.ndarray


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _check_spd(A: Array, name: str):
    if not np.allclose(A, A.T, rtol=0, atol=1e-10 * max(1.0, float(np.abs(A).max()))):
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite") from None


@dataclass(frozen=True)
class _SyntheticSpec:
    n: int
    m: int
    t: int
    h_x: Array
    h_y: Array
    h_z: Array
    Hxx: Array
    Hyy: Array
    Hzz: Array
    Hxy: Array
    Hxz: Array
    Hyz: Array

    def __post_init__(self):
        if min(self.n, self.m, self.t) < 1:
            raise ValueError(f"n, m and t must be at least 1, got {self.n}, {self.m}, {self.t}")
        for nm in ("h_x", "h_y", "h_z"):
            object.__setattr__(self, nm, as_vector(getattr(self, nm), nm))
        for nm in ("Hxx", "Hyy", "Hzz", "Hxy", "Hxz", "Hyz"):
            object.__setattr__(self, nm, as_matrix(getattr(self, nm), nm))
        n, m, t = self.n, self.m, self.t
        shapes = {
            "h_x": (n,), "h_y": (m,), "h_z": (t,),
            "Hxx": (n, n), "Hyy": (m, m), "Hzz": (t, t),
            "Hxy": (n, m), "Hxz": (n, t), "Hyz": (m, t),
        }
        for nm, shape in shapes.items():
            got = getattr(self, nm).shape
            if got != shape:
                raise ValueError(f"{nm} has shape {got}, expected {shape}")
        _check_spd(self.Hxx, "Hxx")
        _check_spd(self.Hyy, "Hyy")
        _check_spd(self.Hzz, "Hzz")

    # transposed blocks, by the symmetric-pairing convention
    @property
    def Hyx(self) -> Array:
        return self.Hxy.T

    @property
    def Hzx(self) -> Array:
        return self.Hxz.T

    @property
    def Hzy(self) -> Array:
        return self.Hyz.T

    def reduced_ml_hessian(self) -> Array:
        """Hessian of the reduced middle-level objective: Hyy - 2 Hyz Hzz^{-1} Hzy."""
        return self.Hyy - 2.0 * self.Hyz @ np.linalg.solve(self.Hzz, self.Hzy)


@dataclass(frozen=True)
class QuadraticSpec(_SyntheticSpec):
    def __post_init__(self):
        super().__post_init__()
        # required for a well-posed middle level
        _check_spd(self.reduced_ml_hessian(), "reduced ML Hessian")


@dataclass(frozen=True)
class QuarticSpec(_SyntheticSpec):
    """The quartic family: the same blocks, with f3 = 0.5 * g^2."""


SyntheticSpec = Union[QuadraticSpec, QuarticSpec]


def default_quadratic(n: int = 50, m: int = 50, t: int = 50, rng=0) -> QuadraticSpec:
    """Benchmark quadratic instance: identity matrices except Hyy = 4I,
    linear coefficients drawn i.i.d. uniform on [0, 10]."""
    gen = _as_generator(rng)
    return QuadraticSpec(
        n=n, m=m, t=t,
        h_x=gen.uniform(0.0, 10.0, n),
        h_y=gen.uniform(0.0, 10.0, m),
        h_z=gen.uniform(0.0, 10.0, t),
        Hxx=np.eye(n), Hyy=4.0 * np.eye(m), Hzz=np.eye(t),
        Hxy=np.eye(n, m), Hxz=np.eye(n, t), Hyz=np.eye(m, t),
    )


def default_quartic(n: int = 5, m: int = 5, t: int = 1, rng=0) -> QuarticSpec:
    """Benchmark quartic instance: identity matrices except Hyy = 4I,
    linear coefficients drawn i.i.d. uniform on [0, 0.1]."""
    gen = _as_generator(rng)
    return QuarticSpec(
        n=n, m=m, t=t,
        h_x=gen.uniform(0.0, 0.1, n),
        h_y=gen.uniform(0.0, 0.1, m),
        h_z=gen.uniform(0.0, 0.1, t),
        Hxx=np.eye(n), Hyy=4.0 * np.eye(m), Hzz=np.eye(t),
        Hxy=np.eye(n, m), Hxz=np.eye(n, t), Hyz=np.eye(m, t),
    )


def default_init_point(spec: SyntheticSpec, rng=0) -> Point:
    """Standard initial iterate: componentwise uniform on [0, 20] for the
    quadratic family; on [-0.4, 0] / [-0.2, 0] / [-0.6, 0] per level for
    the quartic family."""
    gen = _as_generator(rng)
    if isinstance(spec, QuarticSpec):
        return Point(
            gen.uniform(-0.4, 0.0, spec.n),
            gen.uniform(-0.2, 0.0, spec.m),
            gen.uniform(-0.6, 0.0, spec.t),
        )
    return Point(
        gen.uniform(0.0, 20.0, spec.n),
        gen.uniform(0.0, 20.0, spec.m),
        gen.uniform(0.0, 20.0, spec.t),
    )


# ---------------------------------------------------------------------------
# closed forms


def closed_form_z(spec: SyntheticSpec, x, y) -> Array:
    """Lower-level solution z(x, y) = Hzz^{-1} (Hzx x + Hzy y).

    For the quartic family this is one lower-level minimizer: at t = 1 the
    nonzero one (the branch the benchmark methods converge to); for t >= 2
    one point of the ellipsoid {g = 0} of global minimizers.
    """
    x = as_vector(x, "x")
    y = as_vector(y, "y")
    return np.linalg.solve(spec.Hzz, spec.Hzx @ x + spec.Hzy @ y)


def closed_form_y(spec: SyntheticSpec, x) -> Array:
    """Middle-level solution y(x) = (Hyy - 2 Hyz Hzz^{-1} Hzy)^{-1}
    (Hyx + Hyz Hzz^{-1} Hzx) x."""
    x = as_vector(x, "x")
    rhs = (spec.Hyx + spec.Hyz @ np.linalg.solve(spec.Hzz, spec.Hzx)) @ x
    return np.linalg.solve(spec.reduced_ml_hessian(), rhs)


def closed_form_point(spec: SyntheticSpec, x) -> Point:
    x = as_vector(x, "x")
    y = closed_form_y(spec, x)
    return Point(x, y, closed_form_z(spec, x, y))


def reduced_objective(spec: SyntheticSpec, x) -> float:
    """f(x) = f1(x, y(x), z(x, y(x))) through the closed forms."""
    p = closed_form_point(spec, x)
    return _f1(spec, p)


def reduced_gradient(spec: SyntheticSpec, x) -> Array:
    """Analytic gradient of the reduced objective via the chain rule.

    With Y = dy/dx and Z = dz/dx on the closed-form solution path,
    grad f = grad_x f1 + Y' grad_y f1 + Z' grad_z f1.
    """
    x = as_vector(x, "x")
    Y = np.linalg.solve(
        spec.reduced_ml_hessian(),
        spec.Hyx + spec.Hyz @ np.linalg.solve(spec.Hzz, spec.Hzx),
    )
    Z = np.linalg.solve(spec.Hzz, spec.Hzx + spec.Hzy @ Y)
    p = closed_form_point(spec, x)
    gx = spec.h_x + spec.Hxx @ p.x + spec.Hxy @ p.y + spec.Hxz @ p.z
    gy = spec.h_y + spec.Hyx @ p.x
    gz = spec.h_z + spec.Hzx @ p.x
    return gx + Y.T @ gy + Z.T @ gz


def reduced_minimizer(spec: SyntheticSpec) -> Array:
    """Argmin of the reduced objective (solves grad f = 0; f is quadratic in x)."""
    n = spec.n
    g0 = reduced_gradient(spec, np.zeros(n))
    H = np.column_stack(
        [reduced_gradient(spec, e) - g0 for e in np.eye(n)]
    )
    return np.linalg.solve(H, -g0)


def _f1(spec, p: Point) -> float:
    return float(
        spec.h_x @ p.x + spec.h_y @ p.y + spec.h_z @ p.z
        + 0.5 * p.x @ (spec.Hxx @ p.x)
        + p.x @ (spec.Hxy @ p.y)
        + p.x @ (spec.Hxz @ p.z)
    )


# ---------------------------------------------------------------------------
# oracles


class _SyntheticOracle(ProblemOracle):
    """Analytic derivatives shared by the quadratic and quartic families,
    on the spec's Hzz held as one :class:`~trilevel.linalg.ConstantMatrix`."""

    def __init__(self, spec: _SyntheticSpec):
        self.spec = spec
        self._Hzz = ConstantMatrix(spec.Hzz)

    @property
    def dims(self):
        return self.spec.n, self.spec.m, self.spec.t

    def _w(self, x: Array, y: Array) -> Array:
        """The lower level's linear term Hzx x + Hzy y."""
        return self.spec.Hzx @ x + self.spec.Hzy @ y

    def f1(self, p, sample):
        return _f1(self.spec, p)

    def f2(self, p, sample):
        s = self.spec
        return float(0.5 * p.y @ (s.Hyy @ p.y) - p.y @ (s.Hyx @ p.x) - p.y @ (s.Hyz @ p.z))

    def grad_x_f1(self, p, sample):
        s = self.spec
        return s.h_x + s.Hxx @ p.x + s.Hxy @ p.y + s.Hxz @ p.z

    def grad_y_f1(self, p, sample):
        return self.spec.h_y + self.spec.Hyx @ p.x

    def grad_z_f1(self, p, sample):
        return self.spec.h_z + self.spec.Hzx @ p.x

    def grad_x_f2(self, p, sample):
        return -self.spec.Hxy @ p.y

    def grad_y_f2(self, p, sample):
        s = self.spec
        return s.Hyy @ p.y - s.Hyx @ p.x - s.Hyz @ p.z

    def grad_z_f2(self, p, sample):
        return -self.spec.Hzy @ p.y

    def hess_yx_f2(self, p, sample):
        return -self.spec.Hyx

    def hess_yy_f2(self, p, sample):
        return self.spec.Hyy.copy()

    def hess_yz_f2(self, p, sample):
        return -self.spec.Hyz

    def hess_zx_f2(self, p, sample):
        return np.zeros((self.spec.t, self.spec.n))

    def hvp_zz_f2(self, p, sample, V):
        return np.zeros(np.shape(V))


class QuadraticOracle(_SyntheticOracle):
    """Quadratic lower level, so its gradient is affine in z; all third-order
    derivatives vanish."""

    capabilities = OracleCapabilities(affine_ll=True)

    def f3(self, p, sample):
        s = self.spec
        return float(0.5 * p.z @ (s.Hzz @ p.z) - p.z @ (s.Hzx @ p.x) - p.z @ (s.Hzy @ p.y))

    def grad_x_f3(self, p, sample):
        return -self.spec.Hxz @ p.z

    def grad_y_f3(self, p, sample):
        return -self.spec.Hyz @ p.z

    def grad_z_f3(self, p, sample):
        return self.spec.Hzz @ p.z - self._w(p.x, p.y)

    def hess_zz_f3(self, p, sample):
        # one object per oracle, carrying the inverse the H engine solves
        # with and the eigendecomposition of the lower-level cycle
        return self._Hzz

    def hess_xz_f3(self, p, sample):
        return -self.spec.Hxz

    def hess_yz_f3(self, p, sample):
        return -self.spec.Hyz

    def t3_yzx_f3_contract(self, p, sample, v):
        return np.zeros((self.spec.m, self.spec.n))

    def t3_yzz_f3_contract(self, p, sample, v):
        return np.zeros((self.spec.m, self.spec.t))

    def t3_zzx_f3_contract(self, p, sample, v):
        return np.zeros((self.spec.t, self.spec.n))

    def t3_zzz_f3_contract(self, p, sample, w, V):
        return np.zeros(np.shape(V))

    def t3_yzy_f3_contract(self, p, sample, v):
        return np.zeros((self.spec.m, self.spec.m))


class QuarticOracle(_SyntheticOracle):
    """Squared-residual lower level; third-order terms are rank-structured
    and evaluated as contraction callbacks, never materialized tensors.
    Hzz(f3) is a :class:`~trilevel.linalg.RankOneUpdate` of the oracle's
    constant Hzz, whose inverse is computed on the first solve and kept."""

    def _parts(self, p: Point):
        w = self._w(p.x, p.y)
        Hz = self.spec.Hzz @ p.z
        g = float(p.z @ Hz - p.z @ w)
        u = 2.0 * Hz - w
        return g, u

    def f3(self, p, sample):
        g, _ = self._parts(p)
        return 0.5 * g * g

    def grad_x_f3(self, p, sample):
        g, _ = self._parts(p)
        return -g * (self.spec.Hxz @ p.z)

    def grad_y_f3(self, p, sample):
        g, _ = self._parts(p)
        return -g * (self.spec.Hyz @ p.z)

    def grad_z_f3(self, p, sample):
        g, u = self._parts(p)
        return g * u

    def hess_zz_f3(self, p, sample):
        g, u = self._parts(p)
        return RankOneUpdate(2.0 * g, self._Hzz, u)

    def hess_xz_f3(self, p, sample):
        g, u = self._parts(p)
        return -np.outer(self.spec.Hxz @ p.z, u) - g * self.spec.Hxz

    def hess_yz_f3(self, p, sample):
        g, u = self._parts(p)
        return -np.outer(self.spec.Hyz @ p.z, u) - g * self.spec.Hyz

    def t3_yzx_f3_contract(self, p, sample, v):
        s = self.spec
        return np.outer(s.Hyz @ p.z, s.Hxz @ v) + np.outer(s.Hyz @ v, s.Hxz @ p.z)

    def t3_yzy_f3_contract(self, p, sample, v):
        s = self.spec
        return np.outer(s.Hyz @ p.z, s.Hyz @ v) + np.outer(s.Hyz @ v, s.Hyz @ p.z)

    def t3_yzz_f3_contract(self, p, sample, v):
        s = self.spec
        _, u = self._parts(p)
        return (
            -(u @ v) * s.Hyz
            - 2.0 * np.outer(s.Hyz @ p.z, s.Hzz @ v)
            - np.outer(s.Hyz @ v, u)
        )

    def t3_zzx_f3_contract(self, p, sample, v):
        s = self.spec
        _, u = self._parts(p)
        return (
            -(u @ v) * s.Hzx
            - np.outer(u, s.Hxz @ v)
            - 2.0 * np.outer(s.Hzz @ v, s.Hxz @ p.z)
        )

    def t3_zzz_f3_contract(self, p, sample, w, V):
        # 2[(u.w) Hzz + u (Hzz w)' + (Hzz w) u'] applied to V
        s = self.spec
        _, u = self._parts(p)
        Hw = s.Hzz @ w
        return 2.0 * ((u @ w) * (s.Hzz @ V) + np.multiply.outer(u, Hw @ V)
                      + np.multiply.outer(Hw, u @ V))


def make_oracle(spec: SyntheticSpec) -> ProblemOracle:
    if isinstance(spec, QuarticSpec):
        return QuarticOracle(spec)
    return QuadraticOracle(spec)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class LyapunovDiag:
    """Composite progress measure for quadratic runs: the reduced objective
    plus squared inner-solution errors."""

    f_val: float
    y_err_sq: float
    z_err_sq: float
    z_xy_err_sq: float

    @property
    def total(self) -> float:
        return self.f_val + self.y_err_sq + self.z_err_sq + self.z_xy_err_sq


def lyapunov_diag(spec: QuadraticSpec, point: Point) -> LyapunovDiag:
    """Evaluate the progress measure at a point (quadratic specs only;
    the quartic family has no closed forms on both branches)."""
    if not isinstance(spec, QuadraticSpec):
        raise TypeError("lyapunov_diag supports QuadraticSpec only")
    y_star = closed_form_y(spec, point.x)
    z_star = closed_form_z(spec, point.x, y_star)
    z_xy = closed_form_z(spec, point.x, point.y)
    return LyapunovDiag(
        f_val=reduced_objective(spec, point.x),
        y_err_sq=float(np.sum((point.y - y_star) ** 2)),
        z_err_sq=float(np.sum((point.z - z_star) ** 2)),
        z_xy_err_sq=float(np.sum((point.z - z_xy) ** 2)),
    )


# ---------------------------------------------------------------------------
# serialization


def save_spec(spec: SyntheticSpec, path, seed=None):
    """Write a spec to a structured text file for run reproducibility: the
    bytes of ``json.dump(payload, fh, indent=1)`` with the arrays as nested
    lists, whose finite floats JSON writes by ``float.__repr__``."""
    payload = {
        "kind": "quartic" if isinstance(spec, QuarticSpec) else "quadratic",
        "n": spec.n, "m": spec.m, "t": spec.t,
        "seed": seed,
    }
    for nm in ("h_x", "h_y", "h_z", "Hxx", "Hyy", "Hzz", "Hxy", "Hxz", "Hyz"):
        payload[nm] = getattr(spec, nm)
    body = ",\n".join(f" {json.dumps(k)}: {_json_value(v, 1)}" for k, v in payload.items())
    with open(path, "w") as fh:
        fh.write("{\n" + body + "\n}")


def _json_value(value, depth: int) -> str:
    """``value`` as ``json.dump(indent=1)`` writes it at nesting ``depth``:
    a scalar by ``json.dumps``, a float array as nested lists."""
    if not isinstance(value, np.ndarray):
        return json.dumps(value)
    pad = "\n" + " " * (depth + 1)
    if value.ndim == 1:
        items = map(float.__repr__, value.tolist())
    else:
        items = (_json_value(row, depth + 1) for row in value)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def load_spec(path) -> SyntheticSpec:
    with open(path) as fh:
        payload = json.load(fh)
    cls = QuarticSpec if payload["kind"] == "quartic" else QuadraticSpec
    kwargs = {k: payload[k] for k in ("n", "m", "t")}
    for nm in ("h_x", "h_y", "h_z", "Hxx", "Hyy", "Hzz", "Hxy", "Hxz", "Hyz"):
        kwargs[nm] = np.asarray(payload[nm], dtype=float)
    return cls(**kwargs)
