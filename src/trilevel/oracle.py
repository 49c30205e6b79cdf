"""Derivative-evaluation contract for trilevel problems.

Every problem exposes values, gradients, Hessian blocks, Hessian-vector
products and third-order contractions of its three objectives through a
:class:`ProblemOracle`. Evaluations are parameterized by a sample
descriptor so the same interface serves deterministic, minibatch, and
synthetic-noise regimes.

Randomness is counter-based (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011): a noise draw is a pure function of
(seed, stream, counter, block, evaluated point), so runs are
bit-reproducible regardless of evaluation order or concurrency. The Philox
key is (seed, SplitMix64(stream, block)) and its counter is (sample
counter, BLAKE2b-64 of the x||y||z float64 bytes, 0, 0). A noise draw
perturbs each square Hessian block by one symmetric matrix, and the
Hzz(f2) product applies its own, so on one draw every Hessian is a fixed
symmetric linear map. Each thread holds one Philox per noise wrapper and
re-keys it to that key and counter before every draw.
"""

import hashlib
import math
import threading
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linalg import as_vector

Array = np.ndarray

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# points and sample descriptors


@dataclass(frozen=True)
class Point:
    """The (x, y, z) triple of upper/middle/lower-level variable vectors.

    Construction converts to 1-d float arrays; finiteness is enforced at
    operation boundaries (gradient steps, solves, objective evaluations)
    rather than per construction, since points are built once per inner
    step in the hot loops.
    """

    x: Array
    y: Array
    z: Array

    def __post_init__(self):
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _block(name, getattr(self, name)))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.x.size, self.y.size, self.z.size

    def replace(self, x=None, y=None, z=None) -> "Point":
        """A copy with the given blocks swapped in. Only those are converted
        and checked; the kept blocks are shared, as they already are 1-d
        float arrays."""
        new = object.__new__(Point)
        for name, arr in (("x", x), ("y", y), ("z", z)):
            object.__setattr__(new, name, getattr(self, name) if arr is None else _block(name, arr))
        return new


def _block(name: str, value) -> Array:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Deterministic:
    """Full-data / noise-free evaluation."""


@dataclass(frozen=True)
class MinibatchIndices:
    """Evaluation restricted to the given dataset rows (1/|batch| scaling).

    The rows must be distinct: a derivative block that assigns per-row
    values (``out[batch] = ...``) counts a repeated row once, while the
    sums over the batch count it once per occurrence. ``rows`` is the
    indices as a read-only int array, ``lo`` and ``hi`` their extremes.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if len(self.indices) == 0:
            raise ValueError("minibatch must contain at least one index")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("minibatch indices must be distinct")
        rows = np.array(self.indices, dtype=int)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "lo", min(self.indices))
        object.__setattr__(self, "hi", max(self.indices))


@dataclass(frozen=True)
class NoiseDraw:
    """Synthetic-noise evaluation keyed by a reproducible (stream, counter) pair."""

    stream: int
    counter: int


SampleSpec = Union[Deterministic, MinibatchIndices, NoiseDraw]

DETERMINISTIC = Deterministic()


@dataclass(frozen=True)
class OracleCapabilities:
    """Structure an oracle declares so that the driver may exploit it.
    ``affine_ll``: on deterministic samples, ``grad_z_f3(Point(x, y, z)) ==
    hess_zz_f3(p) @ z + grad_z_f3(Point(x, y, 0))`` bit for bit
    (``np.array_equal``) for every z and any p at (x, y), with ``hess_zz_f3``
    a symmetric :class:`~trilevel.linalg.ConstantMatrix`. ``driver.ll_sg``
    then takes ``hess_zz_f3`` and one ``grad_z_f3`` per cycle and computes
    the cycle's K steps in closed form, in the eigenbasis it carries."""

    affine_ll: bool = False


class ProblemOracle:
    """Base class for derivative oracles.

    The contract has 22 derivative methods. Every engine calls the
    f1/f2/f3 values and the nine gradient blocks. The H and AD engines also
    call the seven Hessian blocks, the product ``hvp_zz_f2`` and the five
    third-order contractions; the NFD engine calls none of them (an
    ``affine_ll`` lower-level cycle calls ``hess_zz_f3`` under any
    engine). A method the subclass does not define raises the base class's
    NotImplementedError.
    Mixed derivatives are symmetric, so each mixed block is supplied once
    and the engines transpose it: H_zy(f2) is ``hess_yz_f2(...).T`` and the
    (z, z, y) contraction is ``t3_yzz_f3_contract(...).T``. The zz blocks of
    the reduced Hessian, Hzz(f2) and T_zzz(f3)[w], are products with a
    t-vector or a t x k block V, so no engine needs a t x t array beyond
    Hzz(f3) itself, which may be an array-like with ``shape``,
    ``__array__`` and ``@`` (AD's Neumann series multiply by it): a
    :class:`~trilevel.linalg.ConstantMatrix` (an ``affine_ll`` oracle's),
    whose inverse the H engine uses, one with a ``solve(B)`` that it calls
    (the quartic's :class:`~trilevel.linalg.RankOneUpdate`), or one whose
    ``@`` never forms it (adv-hpt's); a noise wrapper densifies it. So on
    one sample Hzz(f3) is one symmetric matrix, which AD's Neumann series
    assume.
    All evaluations take (point, sample) and must be deterministic
    functions of their arguments. Callers must not write to the arrays an
    oracle returns.
    """

    capabilities = OracleCapabilities()

    @property
    def dims(self) -> tuple[int, int, int]:
        raise NotImplementedError

    # values -------------------------------------------------------------
    def f1(self, point: Point, sample: SampleSpec) -> float:
        raise NotImplementedError

    def f2(self, point: Point, sample: SampleSpec) -> float:
        raise NotImplementedError

    def f3(self, point: Point, sample: SampleSpec) -> float:
        raise NotImplementedError

    # gradients ----------------------------------------------------------
    def grad_x_f1(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_y_f1(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_z_f1(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_x_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_y_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_z_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_x_f3(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_y_f3(self, point, sample) -> Array:
        raise NotImplementedError

    def grad_z_f3(self, point, sample) -> Array:
        raise NotImplementedError

    # Hessian blocks (H and AD engines) -----------------------------------
    def hess_zz_f3(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_xz_f3(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_yz_f3(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_zx_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_yx_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_yy_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def hess_yz_f2(self, point, sample) -> Array:
        raise NotImplementedError

    def hvp_zz_f2(self, point, sample, V) -> Array:
        """Hzz(f2) V for V of shape (t,) or (t, k)."""
        raise NotImplementedError

    # third-order contractions (H and AD engines) -------------------------
    # Each contracts the middle (lower-level) index of the named tensor
    # with a t-vector w and returns the resulting matrix; the zzz one is
    # returned applied to V, of shape (t,) or (t, k).
    def t3_yzx_f3_contract(self, point, sample, v) -> Array:
        raise NotImplementedError

    def t3_yzz_f3_contract(self, point, sample, v) -> Array:
        raise NotImplementedError

    def t3_zzx_f3_contract(self, point, sample, v) -> Array:
        raise NotImplementedError

    def t3_zzz_f3_contract(self, point, sample, w, V) -> Array:
        raise NotImplementedError

    def t3_yzy_f3_contract(self, point, sample, v) -> Array:
        raise NotImplementedError


def fd_hvp(grad: Callable[[Array], Array], at, v, eps: float) -> Array:
    """Central-difference Hessian-vector product.

    Returns [grad(at + eps*v) - grad(at - eps*v)] / (2*eps). Exact for
    gradients that are affine in the perturbed variable.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    at = as_vector(at, "at")
    v = as_vector(v, "v")
    if at.size != v.size:
        raise ValueError("direction dimension does not match base point")
    gp = np.asarray(grad(at + eps * v), dtype=float)
    gm = np.asarray(grad(at - eps * v), dtype=float)
    return (gp - gm) / (2.0 * eps)


# ---------------------------------------------------------------------------
# counter-based randomness


def splitmix64(*words: int) -> int:
    """Mix integer words into one 64-bit value (SplitMix64 finalizer chain)."""
    state = 0x9E3779B97F4A7C15
    for w in words:
        state = (state + (int(w) & _MASK64) + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


def stream_gen(seed: int, *tags: int) -> np.random.Generator:
    """Counter-based generator for the (seed, tags...) stream.

    Built on Philox so identical keys give identical draws independent of
    call order; safe to construct concurrently.
    """
    key = (int(seed) & _MASK64, splitmix64(*tags) if tags else 0)
    return np.random.Generator(np.random.Philox(key=key))


def _digest(*arrays: Array) -> int:
    """BLAKE2b-64 of the arrays' C-contiguous float64 bytes, concatenated."""
    h = hashlib.blake2b(digest_size=8)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float))
    return int.from_bytes(h.digest(), "little")


# the output buffer of a fresh Philox; with buffer_pos = 4 no word of it is used
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)

# block tags keep noise draws independent across derivative blocks; the
# None slots (13, 14, 18, 19, 20) keep each later block's tag, and so its
# draws, unchanged
_BLOCK_TAGS = {
    name: idx
    for idx, name in enumerate(
        [
            "grad_x_f1", "grad_y_f1", "grad_z_f1",
            "grad_x_f2", "grad_y_f2", "grad_z_f2",
            "grad_x_f3", "grad_y_f3", "grad_z_f3",
            "hess_zz_f3", "hess_xz_f3", "hess_yz_f3",
            "hess_zx_f2", None, None,
            "hess_yx_f2", "hess_yy_f2", "hess_yz_f2",
            None, None, None,
            "hvp_zz_f2",
        ]
    )
    if name is not None
}

# the square blocks, each perturbed by one symmetric matrix per draw; Hzz(f2),
# which has no Hessian method of its own, is drawn under its product's tag
# and applied to the product's V
_SYMMETRIC = frozenset({"hess_zz_f3", "hess_yy_f2", "hvp_zz_f2"})


class GaussianNoiseOracle(ProblemOracle):
    """Adds zero-mean Gaussian noise to an inner oracle's derivatives.

    On NoiseDraw samples, every gradient gets i.i.d. N(0, std_grad^2)
    elementwise and every Hessian block gets N(0, std_hess^2) elementwise;
    third-order contractions and function values pass through unperturbed.
    Deterministic samples bypass noise entirely. A square block (Hzz(f3),
    H_yy(f2), Hzz(f2)) gets one symmetric matrix E: its (k, k) draw G
    mirrored as triu(G) + triu(G, 1)^T, so every entry is still
    N(0, std_hess^2). ``hess_zz_f3`` returns the densified clean block
    plus E, and the product ``hvp_zz_f2(p, s, V)`` the clean product plus
    E V. So on one draw each Hessian is one fixed symmetric matrix, and the
    Hzz(f2) product is linear in V.

    Each call draws from a Philox stream with key
    (seed, SplitMix64(stream, block tag)) and counter (sample counter,
    BLAKE2b-64 of the C-contiguous float64 bytes of x||y||z, 0, 0). The
    oracle's fixed dims make the concatenation unambiguous, and the digest
    ignores memory layout. So repeated evaluation of the same block at the
    same point and sample is bit-identical, while distinct points or blocks
    draw independent noise (a finite difference of noisy gradients is
    itself noisy, as it would be with sampled data).

    Each thread owns one Philox per wrapper. Before every draw the call
    assigns it the complete state (key, counter, empty buffer), so nothing
    carries over from an earlier call and concurrent evaluation is safe.
    """

    def __init__(self, inner: ProblemOracle, std_grad: float, std_hess: float, seed: int):
        if not (0 <= std_grad < math.inf and 0 <= std_hess < math.inf):  # NaN fails too
            raise ValueError("noise standard deviations must be finite and nonnegative")
        self.inner = inner
        self.std_grad = float(std_grad)
        self.std_hess = float(std_hess)
        self.seed = int(seed)
        self.capabilities = inner.capabilities
        self._local = threading.local()

    @property
    def dims(self):
        return self.inner.dims

    def _draw(self, sample: NoiseDraw, block: str, point: Point, std, shape) -> Array:
        """N(0, std^2) noise of the given shape, drawn by this thread's re-keyed Philox.

        The thread's Philox and its complete state dict are built once; each
        draw fills the dict's key and counter words in place and assigns it
        whole. ``tagged`` is the one (stream, block) whose key word it holds.
        """
        local = self._local
        if not hasattr(local, "state"):
            local.gen, local.tagged = np.random.Generator(np.random.Philox()), None
            local.state = {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": [self.seed & _MASK64, 0]},
                "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
            }
        key, counter = local.state["state"]["key"], local.state["state"]["counter"]
        if local.tagged != (sample.stream, block):
            key[1] = splitmix64(sample.stream, _BLOCK_TAGS[block])
            local.tagged = (sample.stream, block)
        counter[0] = int(sample.counter) & _MASK64
        counter[1] = _digest(point.x, point.y, point.z)
        local.gen.bit_generator.state = local.state
        return local.gen.normal(0.0, std, size=shape)

    def _noisy(self, name: str, std: float, point, sample, *V):
        clean = getattr(self.inner, name)(point, sample, *V)
        if not isinstance(sample, NoiseDraw) or std == 0.0:
            return clean
        if name not in _SYMMETRIC:
            return clean + self._draw(sample, name, point, std, np.shape(clean))
        k = np.shape(clean)[0]
        G = self._draw(sample, name, point, std, (k, k))
        E = np.triu(G) + np.triu(G, 1).T
        return clean + (E @ V[0] if V else E)

    # values pass through
    def f1(self, point, sample):
        return self.inner.f1(point, sample)

    def f2(self, point, sample):
        return self.inner.f2(point, sample)

    def f3(self, point, sample):
        return self.inner.f3(point, sample)


def _install_noise_methods():
    def noisy_method(name):
        std_attr = "std_grad" if name.startswith("grad_") else "std_hess"

        def method(self, point, sample, *v):
            return self._noisy(name, getattr(self, std_attr), point, sample, *v)

        method.__name__ = name
        return method

    def passthrough(name):
        def method(self, point, sample, *args):
            return getattr(self.inner, name)(point, sample, *args)

        method.__name__ = name
        return method

    for block in _BLOCK_TAGS:
        setattr(GaussianNoiseOracle, block, noisy_method(block))
    for t3 in [name for name in vars(ProblemOracle) if name.startswith("t3_")]:
        setattr(GaussianNoiseOracle, t3, passthrough(t3))


_install_noise_methods()


def wrap_gaussian_noise(
    inner: ProblemOracle, std_grad: float, std_hess: float, seed: int
) -> ProblemOracle:
    """Wrap a deterministic-capable oracle with Gaussian derivative noise."""
    return GaussianNoiseOracle(inner, std_grad, std_hess, seed)
