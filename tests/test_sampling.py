"""Determinism and distributional contracts of the seeded samplers."""

import threading

import numpy as np
import pytest

from lozo import sampling
from lozo.sampling import (
    SamplerKind,
    _generator,
    derive_seed,
    make_sketch,
    sample_gaussian,
    sample_v,
)
from lozo.linalg import LayerShape, ParamSet
from lozo.optimizers import LozoState, OptimizerConfig, lozo_step
from lozo.problems import make_quadratic

from oracles import fresh_generator, fresh_sample_v


class TestGaussian:
    def test_bit_identical_replay(self):
        a = sample_gaussian(7, 3, 2)
        b = sample_gaussian(7, 3, 2)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = sample_gaussian(7, 3, 2)
        b = sample_gaussian(8, 3, 2)
        assert np.any(a != b)

    def test_moments(self):
        draw = sample_gaussian(1, 1000, 1000).ravel()
        assert abs(draw.mean()) < 5e-3
        assert abs(draw.var() - 1.0) < 5e-3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            sample_gaussian(1, 0, 3)


class TestSampleV:
    def test_coordinate_n2_r1(self):
        root2 = np.sqrt(2.0)
        for seed in range(20):
            v = sample_v(seed, 2, 1, SamplerKind.RANDOM_COORDINATE)
            assert v[:, 0].tolist() in ([root2, 0.0], [0.0, root2])

    def test_haar_orthogonality(self):
        for n in (4, 16, 64, 256):
            v = sample_v(n, n, min(4, n), SamplerKind.HAAR_SCALED)
            gram = v.T @ v
            err = np.linalg.norm(gram - n * np.eye(gram.shape[0]))
            assert err <= 1e-12 * n

    @pytest.mark.parametrize("kind", list(SamplerKind))
    @pytest.mark.parametrize("n, r", [(32, 2), (256, 4), (16, 4), (1024, 4), (4, 4), (1, 1)])
    def test_fortran_order_with_the_reference_bytes(self, n, r, kind):
        # the Haar reference draws through np.linalg.qr, while sample_v calls LAPACK directly;
        # V comes in dgemm's Fortran order with the values of the C-order reference
        for i in range(25):
            seed = derive_seed(n, r, i)
            v = sample_v(seed, n, r, kind)
            assert v.flags.f_contiguous
            assert v.tobytes() == fresh_sample_v(seed, n, r, kind).tobytes()

    def test_coordinate_gram_exact(self):
        for seed in range(10):
            v = sample_v(seed, 9, 3, SamplerKind.RANDOM_COORDINATE)
            np.testing.assert_array_equal(v.T @ v, 9.0 * np.eye(3))

    def test_coordinate_second_moment(self):
        # E[V V^T] = r I, checked by Monte Carlo over 1e5 seeds
        n, trials = 3, 100_000
        acc = np.zeros((n, n))
        for seed in range(trials):
            v = sample_v(derive_seed(123, seed), n, 1, SamplerKind.RANDOM_COORDINATE)
            acc += v @ v.T
        acc /= trials
        assert np.max(np.abs(acc - np.eye(n))) < 0.05

    def test_normal_gram_concentration(self):
        # for n >= 50 r the Gram matrix is close to n I with high probability
        n, r = 100, 2
        failures = 0
        for seed in range(100):
            v = sample_v(derive_seed(9, seed), n, r, SamplerKind.STANDARD_NORMAL)
            if np.linalg.norm(v.T @ v / n - np.eye(r)) > 0.5:
                failures += 1
        assert failures <= 1

    def test_rank_exceeding_n_rejected(self):
        with pytest.raises(ValueError):
            sample_v(0, 3, 4, SamplerKind.STANDARD_NORMAL)

    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_dimensions_below_one_are_named_before_any_draw(self, kind, monkeypatch):
        # r = 0 gave an empty V (the Haar kind died inside LAPACK), and r = -1 numpy's own error; r > n keeps its check
        def fail(seed):
            raise AssertionError("drawn before the dimensions were checked")

        monkeypatch.setattr(sampling, "_generator", fail)
        for n, r in ((5, 0), (0, 0), (5, -1), (-2, 1), (3, 4)):
            with pytest.raises(ValueError, match=rf"^V's dimensions must satisfy 1 <= r <= n, got n={n}, r={r}$"):
                sample_v(3, n, r, kind)


class TestSketch:
    def test_regenerate_bit_identical(self):
        shapes = [LayerShape(3, 4, 1), LayerShape(5, 6, 2)]
        u1, v1 = make_sketch(42, shapes, SamplerKind.HAAR_SCALED, step=3, period=1)[1]
        u2, v2 = make_sketch(42, shapes, SamplerKind.HAAR_SCALED, step=3, period=1)[1]
        np.testing.assert_array_equal(u1, u2)
        np.testing.assert_array_equal(v1, v2)

    def test_shape_contract(self):
        sk = make_sketch(42, [LayerShape(3, 4, 1)], SamplerKind.STANDARD_NORMAL, step=0, period=0)
        u, v = sk[0]
        assert u.shape == (3, 1)
        assert v.shape == (4, 1)

    def test_invalid_layer_index(self):
        sk = make_sketch(42, [LayerShape(3, 4, 1)], SamplerKind.STANDARD_NORMAL, step=0, period=0)
        with pytest.raises(IndexError):
            sk[1]

    @pytest.mark.parametrize("t", [8, 9], ids=["boundary", "inner"])
    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_matches_a_steps_own_draws(self, kind, t):
        # the last duplicate derivation of a step's factors draws the U_l a lozo_step returns and the V_l it caches
        shapes = [LayerShape(5, 6, 2), LayerShape(7, 3, 3)]
        config = OptimizerConfig(alpha=1e-3, total_steps=t + 1, base_seed=derive_seed(11, 12), nu=4, v_kind=kind)
        oracle = make_quadratic(shapes, data_seed=13, noise_scale=0.2, num_samples=3)
        state = LozoState(t=t)
        _, us = lozo_step(ParamSet.zeros(shapes), state, oracle, config)
        sketch = make_sketch(config.base_seed, shapes, kind, step=t, period=t // config.nu)
        assert len(sketch) == len(us) == len(state.v_cache.vs)
        for u, v, (u_sk, v_sk) in zip(us, state.v_cache.vs, sketch):
            assert u.tobytes() == u_sk.tobytes() and v.tobytes() == v_sk.tobytes()

    def test_streams_are_distinct(self):
        seeds = {
            derive_seed(5, tag, layer, t)
            for tag in (0x11, 0x22, 0x33)
            for layer in range(3)
            for t in range(10)
        }
        assert len(seeds) == 90  # no collisions across tags, layers, steps

    def test_derivation_is_stationary(self):
        assert derive_seed(5, 1, 2, 3) == derive_seed(5, 1, 2, 3)
        assert derive_seed(5, 1, 2, 3) != derive_seed(5, 1, 2, 4)


class TestReusedGenerator:
    """Draws reuse one bit generator per thread; each must equal a fresh Philox(key=seed)."""

    seeds = (0, 1, 2**64 - 1, derive_seed(3, 4), derive_seed(5, 6, 7))

    def test_gaussian_matches_fresh_philox(self):
        for seed in self.seeds:
            expected = fresh_generator(seed).standard_normal((7, 3))
            assert sample_gaussian(seed, 7, 3).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_sample_v_matches_fresh_philox(self, kind):
        for seed in self.seeds:
            assert sample_v(seed, 9, 4, kind).tobytes() == fresh_sample_v(seed, 9, 4, kind).tobytes()

    def test_interleaved_draws_match_fresh_philox(self):
        kinds = list(SamplerKind)
        for i in range(30):
            seed = derive_seed(8, i % 4)  # seeds repeat, kinds rotate, shapes change
            if i % 4 == 3:
                expected = fresh_generator(seed).standard_normal((5, 2 + i % 3))
                got = sample_gaussian(seed, 5, 2 + i % 3)
            else:
                kind = kinds[i % 3]
                expected = fresh_sample_v(seed, 8, 1 + i % 5, kind)
                got = sample_v(seed, 8, 1 + i % 5, kind)
            assert got.tobytes() == expected.tobytes(), f"draw {i} differs"

    def test_draw_after_a_partly_used_buffer_matches_fresh_philox(self):
        # 32-bit draws leave has_uint32 set and the 64-bit buffer partly used; the reset must clear both
        for seed in self.seeds:
            left = _generator(seed)
            left.integers(0, 7, size=3, dtype=np.uint32)
            state = left.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
            assert sample_gaussian(seed, 7, 3).tobytes() == fresh_generator(seed).standard_normal((7, 3)).tobytes()
            _generator(seed).integers(0, 7, size=3, dtype=np.uint32)
            got = _generator(seed).random(5, dtype=np.float32)  # 32-bit draws, which read has_uint32 first
            assert got.tobytes() == fresh_generator(seed).random(5, dtype=np.float32).tobytes()

    def test_draws_from_other_threads_match_fresh_philox(self):
        mismatches = []

        def draw(offset):
            for i in range(40):
                seed = derive_seed(offset, i)
                if sample_v(seed, 10, 3, SamplerKind.HAAR_SCALED).tobytes() != fresh_sample_v(
                    seed, 10, 3, SamplerKind.HAAR_SCALED
                ).tobytes():
                    mismatches.append((offset, i))

        threads = [threading.Thread(target=draw, args=(k,)) for k in (1, 2)]
        for th in threads:
            th.start()
        draw(0)
        for th in threads:
            th.join()
        assert mismatches == []
