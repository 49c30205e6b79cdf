import hashlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from trilevel.oracle import (
    _BLOCK_TAGS,
    _SYMMETRIC,
    DETERMINISTIC,
    GaussianNoiseOracle,
    MinibatchIndices,
    NoiseDraw,
    OracleCapabilities,
    Point,
    ProblemOracle,
    fd_hvp,
    splitmix64,
    stream_gen,
    wrap_gaussian_noise,
)
from trilevel import advhpt as ah
from trilevel.synthetic import default_init_point, default_quadratic, default_quartic, make_oracle


@pytest.fixture(scope="module")
def quad_oracle():
    return make_oracle(default_quadratic(4, 4, 4, rng=0))


class TestPoint:
    def test_dims(self):
        p = Point([1.0], [1.0, 2.0], [3.0, 4.0, 5.0])
        assert p.dims == (1, 2, 3)

    def test_replace(self):
        p = Point([1.0], [2.0], [3.0])
        q = p.replace(z=np.array([9.0]))
        assert q.z[0] == 9.0 and q.x is p.x

    def test_replace_checks_only_the_new_blocks(self):
        p = Point([1.0], [2.0, 3.0], [4.0])
        q = p.replace(y=[5, 6])
        assert q.x is p.x and q.z is p.z
        assert q.y.dtype == float and q.y.tolist() == [5.0, 6.0]
        with pytest.raises(ValueError, match="z must be 1-d"):
            p.replace(z=np.zeros((1, 1)))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            Point(np.zeros((2, 2)), [1.0], [1.0])


class TestSampleSpecs:
    def test_minibatch_validation(self):
        with pytest.raises(ValueError):
            MinibatchIndices(())
        s = MinibatchIndices((3, 1))
        assert s.indices == (3, 1)
        assert s.rows.tolist() == [3, 1] and (s.lo, s.hi) == (1, 3)
        with pytest.raises(ValueError, match="read-only"):
            s.rows[0] = 0
        assert s == MinibatchIndices([3, 1]) and hash(s) == hash(MinibatchIndices((3, 1)))

    def test_minibatch_rejects_repeated_rows(self):
        # adv-hpt's per-row derivative blocks would count a repeated row once
        # and its objective sums once per occurrence
        with pytest.raises(ValueError, match="distinct"):
            MinibatchIndices((0, 0, 1))

    def test_noise_draw_hashable(self):
        assert NoiseDraw(1, 2) == NoiseDraw(1, 2)
        assert hash(NoiseDraw(1, 2)) == hash(NoiseDraw(1, 2))

    def test_affine_ll_is_the_only_capability(self):
        assert [f.name for f in fields(OracleCapabilities)] == ["affine_ll"]
        assert not ProblemOracle.capabilities.affine_ll


class TestFdHvp:
    def test_exact_on_quadratic(self):
        # grad of 0.5|z|^2 is identity; central FD is exact regardless of eps
        rng = np.random.default_rng(0)
        at, v = rng.standard_normal(5), rng.standard_normal(5)
        for eps in (1.0, 0.1, 1e-4):
            np.testing.assert_allclose(fd_hvp(lambda z: z, at, v, eps), v, atol=1e-9)

    def test_quartic_scalar_value(self):
        # f(z) = 0.5 (z^2 - z)^2, grad = (z^2 - z)(2z - 1); FD at z=1, v=1,
        # eps=0.1 gives 1.02 against the true second derivative 1.0
        grad = lambda z: (z**2 - z) * (2 * z - 1)
        out = fd_hvp(grad, np.array([1.0]), np.array([1.0]), 0.1)
        np.testing.assert_allclose(out, [1.02], atol=1e-12)

    def test_zero_direction(self):
        np.testing.assert_array_equal(
            fd_hvp(lambda z: z**3, np.ones(3), np.zeros(3), 0.1), np.zeros(3)
        )

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            fd_hvp(lambda z: z, np.ones(2), np.ones(2), 0.0)


class TestStreams:
    def test_splitmix_deterministic(self):
        assert splitmix64(1, 2, 3) == splitmix64(1, 2, 3)
        assert splitmix64(1, 2, 3) != splitmix64(1, 2, 4)

    def test_stream_gen_reproducible(self):
        a = stream_gen(7, 1, 2).normal(size=4)
        b = stream_gen(7, 1, 2).normal(size=4)
        np.testing.assert_array_equal(a, b)
        c = stream_gen(8, 1, 2).normal(size=4)
        assert not np.array_equal(a, c)


class TestNoiseWrapper:
    def setup_method(self):
        self.spec = default_quadratic(4, 4, 4, rng=0)
        self.inner = make_oracle(self.spec)
        self.point = Point(np.ones(4), 2 * np.ones(4), 3 * np.ones(4))

    def test_zero_std_identity(self):
        wrapped = wrap_gaussian_noise(self.inner, 0.0, 0.0, seed=1)
        for sample in (DETERMINISTIC, NoiseDraw(1, 1)):
            np.testing.assert_array_equal(
                wrapped.grad_z_f3(self.point, sample),
                self.inner.grad_z_f3(self.point, sample),
            )
            np.testing.assert_array_equal(
                wrapped.hess_zz_f3(self.point, sample),
                self.inner.hess_zz_f3(self.point, sample),
            )

    def test_deterministic_bypasses_noise(self):
        wrapped = wrap_gaussian_noise(self.inner, 1.0, 1.0, seed=1)
        np.testing.assert_array_equal(
            wrapped.grad_y_f2(self.point, DETERMINISTIC),
            self.inner.grad_y_f2(self.point, DETERMINISTIC),
        )

    def test_reproducible_draws(self):
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.0, seed=2)
        g1 = wrapped.grad_z_f3(self.point, NoiseDraw(stream=5, counter=11))
        g2 = wrapped.grad_z_f3(self.point, NoiseDraw(stream=5, counter=11))
        np.testing.assert_array_equal(g1, g2)
        g3 = wrapped.grad_z_f3(self.point, NoiseDraw(stream=5, counter=12))
        assert not np.array_equal(g1, g3)

    def test_blocks_draw_independent_noise(self):
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.0, seed=2)
        s = NoiseDraw(stream=1, counter=1)
        nz = wrapped.grad_z_f3(self.point, s) - self.inner.grad_z_f3(self.point, s)
        ny = wrapped.grad_y_f3(self.point, s) - self.inner.grad_y_f3(self.point, s)
        assert not np.allclose(nz, ny)

    def test_point_dependence(self):
        # noise must vary with the evaluated point, otherwise differencing
        # two noisy gradients under one sample would cancel the noise
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.0, seed=2)
        s = NoiseDraw(stream=1, counter=1)
        n1 = wrapped.grad_z_f3(self.point, s) - self.inner.grad_z_f3(self.point, s)
        other = self.point.replace(z=self.point.z + 0.1)
        n2 = wrapped.grad_z_f3(other, s) - self.inner.grad_z_f3(other, s)
        assert not np.allclose(n1, n2)

    def test_third_order_passthrough(self):
        wrapped = wrap_gaussian_noise(self.inner, 1.0, 1.0, seed=3)
        v = np.ones(4)
        s = NoiseDraw(stream=2, counter=2)
        np.testing.assert_array_equal(
            wrapped.t3_zzz_f3_contract(self.point, s, v, np.eye(4)),
            self.inner.t3_zzz_f3_contract(self.point, s, v, np.eye(4)),
        )

    def test_values_pass_through(self):
        wrapped = wrap_gaussian_noise(self.inner, 1.0, 1.0, seed=3)
        s = NoiseDraw(stream=2, counter=2)
        assert wrapped.f2(self.point, s) == self.inner.f2(self.point, s)

    def test_hvp_noise_reproducible(self):
        wrapped = wrap_gaussian_noise(self.inner, 0.0, 0.5, seed=4)
        v = np.arange(4.0)
        s = NoiseDraw(stream=3, counter=3)
        h1 = wrapped.hvp_zz_f3(self.point, s, v)
        h2 = wrapped.hvp_zz_f3(self.point, s, v)
        np.testing.assert_array_equal(h1, h2)
        assert not np.allclose(h1, self.inner.hvp_zz_f3(self.point, s, v))

    def test_hvp_digest_ignores_layout(self):
        wrapped = wrap_gaussian_noise(self.inner, 0.0, 0.5, seed=4)
        s = NoiseDraw(stream=3, counter=3)
        w = np.linspace(-1.0, 2.0, 8)
        strided = w[::2]
        assert not strided.flags.c_contiguous
        np.testing.assert_array_equal(
            wrapped.hvp_zz_f3(self.point, s, strided),
            wrapped.hvp_zz_f3(self.point, s, strided.copy()),
        )
        # the point's digest keys the draw, whatever the direction's layout:
        # every direction at the same point and sample meets one noise matrix
        E = wrapped.hess_zz_f3(self.point, s) - self.inner.hess_zz_f3(self.point, s)
        for v in (strided, strided + 1.0):
            n = wrapped.hvp_zz_f3(self.point, s, v) - self.inner.hvp_zz_f3(self.point, s, v)
            np.testing.assert_allclose(n, E @ v, rtol=1e-12)

    def test_square_blocks_are_symmetric_and_product_noise_is_linear(self):
        # one draw perturbs each square block by one symmetric matrix, and a
        # product applies it: the noise of Hzz(f3) V and Hzz(f2) V is linear
        # in V, column by column
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=6)
        s = NoiseDraw(stream=2, counter=9)
        for block in ("hess_zz_f3", "hess_yy_f2"):
            H = np.asarray(getattr(wrapped, block)(self.point, s))
            assert np.array_equal(H, H.T)
            assert not np.array_equal(H, np.asarray(getattr(self.inner, block)(self.point, s)))
        gen = np.random.default_rng(6)
        v1, v2 = gen.normal(0, 1, 4), gen.normal(0, 1, 4)
        for block in ("hvp_zz_f3", "hvp_zz_f2"):
            def noise(V, _b=block):
                return getattr(wrapped, _b)(self.point, s, V) - getattr(self.inner, _b)(self.point, s, V)

            n1, n2 = noise(v1), noise(v2)
            assert not np.allclose(n1, 0.0)
            np.testing.assert_allclose(noise(2.0 * v1 - 3.0 * v2), 2.0 * n1 - 3.0 * n2, rtol=1e-12)
            np.testing.assert_allclose(noise(np.column_stack([v1, v2])), np.column_stack([n1, n2]),
                                       rtol=1e-12)

    def test_draws_thread_safe(self):
        # no generator state is shared between calls, so concurrent draws
        # match serial ones bit for bit
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.1, seed=9)
        calls = [
            (wrapped.grad_z_f3 if i % 2 else wrapped.hess_zz_f3,
             self.point.replace(z=self.point.z + 0.01 * i), NoiseDraw(stream=i % 3, counter=i))
            for i in range(200)
        ]
        serial = [method(point, s) for method, point, s in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(method, point, s) for method, point, s in calls]
                threaded = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    def test_draws_pinned(self):
        # recorded draws: a change to keys, counters or scales shows here.
        # The inner oracle returns zeros, so each output is the noise alone.
        # The Hessian is its draw's upper triangle mirrored, and the product
        # that matrix applied to (0, 1, 2, 3)
        class Zeros(ProblemOracle):
            def grad_z_f3(self, point, sample):
                return np.zeros(4)

            def hess_zz_f3(self, point, sample):
                return np.zeros((4, 4))

            def hvp_zz_f3(self, point, sample, v):
                return np.zeros(4)

        wrapped = wrap_gaussian_noise(Zeros(), 0.3, 0.2, seed=7)
        s = NoiseDraw(stream=3, counter=5)
        recorded = {
            "grad": ["0x1.bc007d97e6fa9p-2", "0x1.1ae8a9dfb8ac4p-2",
                     "-0x1.195ae39a434e3p-2", "-0x1.547a04e1529a8p-4"],
            "hess": ["-0x1.f77443534be5ap-4", "0x1.23cfef1a41cb3p-2",
                     "-0x1.a3fd3a2acc462p-6", "-0x1.1bc8ed101473cp-2",
                     "0x1.23cfef1a41cb3p-2", "-0x1.041491d8983bep-6",
                     "0x1.2e2d2aed986d3p-3", "0x1.186c63f04632bp-5",
                     "-0x1.a3fd3a2acc462p-6", "0x1.2e2d2aed986d3p-3",
                     "-0x1.9b2873c8bd51cp-3", "0x1.ca55f5f1bfea8p-3",
                     "-0x1.1bc8ed101473cp-2", "0x1.186c63f04632bp-5",
                     "0x1.ca55f5f1bfea8p-3", "-0x1.5b509e01ea160p-6"],
            "hvp": ["-0x1.32053fadaa8c6p-1", "0x1.8714874a293c7p-2",
                    "0x1.ab6f1298aec4ap-2", "0x1.ac4464cf6cccbp-2"],
        }
        drawn = {
            "grad": wrapped.grad_z_f3(self.point, s),
            "hess": wrapped.hess_zz_f3(self.point, s),
            "hvp": wrapped.hvp_zz_f3(self.point, s, np.arange(4.0)),
        }
        for name, values in recorded.items():
            expected = np.array([float.fromhex(h) for h in values])
            np.testing.assert_array_equal(np.ravel(drawn[name]), expected)

    def test_interleaved_draws_match_fresh_wrappers(self):
        # one thread re-keys its generator before every draw, so draws from
        # two wrappers, three blocks and counter words on both sides of 2**63,
        # taken in any order, equal one-call draws of fresh wrappers and of a
        # Philox built from the documented key and counter as exact uint64
        # words (a plain list mixing words below and above 2**63 would go
        # through float64). The product draws its Hessian's matrix: tag 9,
        # the upper triangle mirrored, applied to the direction
        def digest(*arrays):
            h = hashlib.blake2b(digest_size=8)
            for arr in arrays:
                h.update(np.ascontiguousarray(arr, dtype=float))
            return int.from_bytes(h.digest(), "little")

        tags = {"grad_z_f3": 8, "hess_zz_f3": 9, "hvp_zz_f3": 9}
        directions = {"grad_z_f3": (), "hess_zz_f3": (), "hvp_zz_f3": (np.arange(4.0),)}
        seeds = (3, 2**40 + 11)
        points = [self.point.replace(z=self.point.z + 0.25 * k) for k in range(3)]
        samples = [NoiseDraw(stream, counter) for stream in (0, 2, 9)
                   for counter in (5, 2**62 + 1, 2**63 + 4097, 2**64 - 2**12)]
        calls = [(seed, block, point, s) for seed in seeds for block in tags
                 for point in points for s in samples]
        random.Random(0).shuffle(calls)
        wrappers = {seed: wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=seed) for seed in seeds}
        large = set()
        for seed, block, point, s in calls:
            v = directions[block]
            drawn = getattr(wrappers[seed], block)(point, s, *v)
            fresh = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=seed)
            assert np.array_equal(drawn, getattr(fresh, block)(point, s, *v))

            key = [seed, splitmix64(s.stream, tags[block])]
            counter = [s.counter, digest(point.x, point.y, point.z), 0, 0]
            large.update(w >= 2**63 for w in counter[:2])
            clean = getattr(self.inner, block)(point, s, *v)
            gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64),
                                                       counter=np.array(counter, dtype=np.uint64)))
            if block == "grad_z_f3":
                noise = gen.normal(0.0, 0.3, size=np.shape(clean))
            else:
                G = gen.normal(0.0, 0.2, size=(4, 4))
                noise = np.triu(G) + np.triu(G, 1).T
                noise = noise @ v[0] if v else noise
            assert np.array_equal(drawn, clean + noise)
        assert large == {False, True}

    def test_hvp_zz_f2_noise_is_keyed_by_its_block(self):
        # Hzz(f2) V on a t x k block gets E V, with E one symmetric t x t
        # matrix of std_hess entries drawn under tag 21, so the noise is
        # linear in V and independent of Hzz(f3)'s
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=5)
        s = NoiseDraw(stream=4, counter=6)
        V = np.arange(12.0).reshape(4, 3)

        def digest(*arrays):
            h = hashlib.blake2b(digest_size=8)
            for arr in arrays:
                h.update(np.ascontiguousarray(arr, dtype=float))
            return int.from_bytes(h.digest(), "little")

        key = np.array([5, splitmix64(4, 21)], dtype=np.uint64)
        counter = np.array([6, digest(self.point.x, self.point.y, self.point.z), 0, 0], dtype=np.uint64)
        G = np.random.Generator(np.random.Philox(key=key, counter=counter)).normal(0.0, 0.2, size=(4, 4))
        E = np.triu(G) + np.triu(G, 1).T
        clean = self.inner.hvp_zz_f2(self.point, s, V)
        drawn = wrapped.hvp_zz_f2(self.point, s, V)
        assert drawn.shape == V.shape
        assert np.array_equal(drawn, clean + E @ V)
        # the quadratic's Hzz(f2) is zero, so these compare the noise alone
        np.testing.assert_allclose(wrapped.hvp_zz_f2(self.point, s, V[:, 0]), drawn[:, 0], rtol=1e-13)
        E3 = wrapped.hess_zz_f3(self.point, s) - self.inner.hess_zz_f3(self.point, s)
        assert not np.allclose(E, E3)

    def test_block_tags_and_wrapper_surface_are_pinned(self):
        # a block's tag is in its Philox key, so renumbering one changes all
        # its draws; tags 13, 14, 18, 19 and 20 stay unused. hvp_zz_f3 draws
        # under hess_zz_f3's tag, the matrix it applies. The wrapper adds no
        # derivative method the contract lacks, nor lacks one the contract has
        assert _BLOCK_TAGS == {
            "grad_x_f1": 0, "grad_y_f1": 1, "grad_z_f1": 2,
            "grad_x_f2": 3, "grad_y_f2": 4, "grad_z_f2": 5,
            "grad_x_f3": 6, "grad_y_f3": 7, "grad_z_f3": 8,
            "hess_zz_f3": 9, "hess_xz_f3": 10, "hess_yz_f3": 11,
            "hess_zx_f2": 12,
            "hess_yx_f2": 15, "hess_yy_f2": 16, "hess_yz_f2": 17,
            "hvp_zz_f2": 21,
        }
        assert _SYMMETRIC == {"hess_zz_f3": "hess_zz_f3", "hvp_zz_f3": "hess_zz_f3",
                              "hess_yy_f2": "hess_yy_f2", "hvp_zz_f2": "hvp_zz_f2"}

        def derivative_methods(cls):
            return {name for name, attr in vars(cls).items()
                    if name.startswith(("grad_", "hess_", "hvp_", "t3_")) and callable(attr)}

        assert derivative_methods(GaussianNoiseOracle) == derivative_methods(ProblemOracle)

    def test_draws_alternating_streams_and_blocks_match_fresh_philox(self):
        # one wrapper on one thread: runs of a repeated (stream, block) re-key
        # from the memoized key word, a change of either re-keys afresh; every
        # draw equals a Philox built from its documented key and counter
        tags = {"grad_z_f3": 8, "grad_y_f3": 7}
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=2**63 + 5)
        order = [(1, "grad_z_f3"), (1, "grad_z_f3"), (2, "grad_z_f3"), (2, "grad_y_f3"),
                 (2, "grad_y_f3"), (1, "grad_y_f3"), (1, "grad_z_f3"), (2, "grad_z_f3")]
        for k, (stream, block) in enumerate(order):
            point = self.point.replace(z=self.point.z + 0.5 * k)
            s = NoiseDraw(stream, counter=k % 3)
            drawn = getattr(wrapped, block)(point, s)
            h = hashlib.blake2b(digest_size=8)
            for arr in (point.x, point.y, point.z):
                h.update(arr)
            key = np.array([2**63 + 5, splitmix64(stream, tags[block])], dtype=np.uint64)
            counter = np.array([k % 3, int.from_bytes(h.digest(), "little"), 0, 0], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
            clean = getattr(self.inner, block)(point, s)
            assert np.array_equal(drawn, clean + gen.normal(0.0, 0.3, size=clean.shape))

    def test_counters_above_2_63_draw_distinct_noise(self):
        # counter words are exact uint64: neighbours above 2**63 must not
        # collapse to one float64 value and draw the same noise
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=7)
        a = wrapped.grad_z_f3(self.point, NoiseDraw(stream=3, counter=2**63 + 1000))
        b = wrapped.grad_z_f3(self.point, NoiseDraw(stream=3, counter=2**63 + 1001))
        assert not np.array_equal(a, b)

    def test_one_philox_per_thread(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        wrapped = wrap_gaussian_noise(self.inner, 0.3, 0.2, seed=5)
        for c in range(50):
            wrapped.grad_z_f3(self.point, NoiseDraw(stream=1, counter=c))
            wrapped.hvp_zz_f3(self.point, NoiseDraw(stream=2, counter=c), np.ones(4))
        assert len(built) <= 1

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            wrap_gaussian_noise(self.inner, -0.1, 0.0, seed=0)

    def test_unbiasedness_clt(self):
        # sample mean over 10k draws within 4*sigma/sqrt(10000) elementwise
        wrapped = wrap_gaussian_noise(self.inner, 0.1, 0.0, seed=7)
        clean = self.inner.grad_z_f3(self.point, DETERMINISTIC)
        draws = np.array(
            [wrapped.grad_z_f3(self.point, NoiseDraw(stream=1, counter=c)) for c in range(10000)]
        )
        dev = np.abs(draws.mean(axis=0) - clean)
        assert dev.max() < 4 * 0.1 / np.sqrt(10000)


class _AdvHptOnNoiseDraws(ah.AdvHptOracle):
    """Evaluates a NoiseDraw on the full training split, so that a noise
    wrapper around adv-hpt has a sample on which it adds noise."""

    def _batch(self, sample):
        return super()._batch(DETERMINISTIC if isinstance(sample, NoiseDraw) else sample)


class TestHessianProductContract:
    # hvp_zz_f3 is Hzz(f3) times the direction on every oracle and sample,
    # and a noise wrapper keeps that: one draw perturbs the Hessian once
    @staticmethod
    def case(family):
        draw = NoiseDraw(stream=1, counter=2)
        if family == "quadratic":
            spec = default_quadratic(4, 4, 4, rng=0)
            return make_oracle(spec), default_init_point(spec, rng=1), [DETERMINISTIC, draw]
        if family == "quartic":
            spec = default_quartic(3, 3, 2, rng=5)
            return make_oracle(spec), default_init_point(spec, rng=6), [DETERMINISTIC, draw]
        ds = ah.load_csv(ah.bundled_dataset_path())
        problem = ah.build_problem(ds, ah.split_dataset(ds, 7))
        gen = np.random.default_rng(7)
        _, m, t = problem.dims
        point = Point(np.array([0.2]), gen.normal(0, 0.3, m), gen.normal(0, 0.05, t))
        batch = MinibatchIndices(tuple(int(i) for i in gen.permutation(problem.n_train)[:20]))
        return _AdvHptOnNoiseDraws(problem, ds), point, [DETERMINISTIC, batch, draw]

    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "noisy"])
    @pytest.mark.parametrize("family", ["quadratic", "quartic", "adv-hpt"])
    def test_hvp_zz_f3_is_the_hessian_times_v(self, family, wrapped):
        oracle, point, samples = self.case(family)
        if wrapped:
            oracle = wrap_gaussian_noise(oracle, 0.1, 0.1, seed=3)
        v = np.random.default_rng(4).normal(0, 1, point.z.size)
        for sample in samples:
            expected = np.asarray(oracle.hess_zz_f3(point, sample), float) @ v
            got = oracle.hvp_zz_f3(point, sample, v)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), sample


class TestHessianFdConsistency:
    def test_hessians_match_fd_of_gradients(self, quad_oracle):
        # quadratic problem: FD of a linear gradient is exact
        rng = np.random.default_rng(1)
        p = Point(rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4))
        v = rng.standard_normal(4)
        got = fd_hvp(
            lambda z: quad_oracle.grad_z_f3(p.replace(z=z), DETERMINISTIC), p.z, v, 1e-3
        )
        np.testing.assert_allclose(got, quad_oracle.hess_zz_f3(p, DETERMINISTIC) @ v, atol=1e-9)

    def test_quartic_hessian_fd_decay(self):
        # central FD error of the cubic gradient decays as eps^2
        oracle = make_oracle(default_quartic(3, 3, 2, rng=1))
        rng = np.random.default_rng(2)
        p = Point(rng.uniform(-0.4, 0, 3), rng.uniform(-0.2, 0, 3), rng.uniform(-0.6, 0, 2))
        v = rng.standard_normal(2)
        exact = oracle.hess_zz_f3(p, DETERMINISTIC) @ v
        errs = []
        for eps in (1e-2, 1e-3):
            got = fd_hvp(
                lambda z: oracle.grad_z_f3(p.replace(z=z), DETERMINISTIC), p.z, v, eps
            )
            errs.append(np.linalg.norm(got - exact))
        assert errs[0] / max(errs[1], 1e-16) >= 50.0

    def test_symmetry_and_transpose_pairing(self, quad_oracle):
        p = Point(np.ones(4), np.ones(4), np.ones(4))
        Hzz = np.asarray(quad_oracle.hess_zz_f3(p, DETERMINISTIC))
        np.testing.assert_allclose(Hzz, Hzz.T, atol=1e-12)
