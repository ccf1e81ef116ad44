"""Estimator contracts: CGE, the low-rank scalar, and the RGE and low-rank estimates of the optimizer steps."""

import tracemalloc

import numpy as np
import pytest

from lozo import estimators
from lozo.estimators import (
    CGE_DIMENSION_CAP,
    EvaluationError,
    DENSE_BLOCK,
    _central_difference,
    add_dense,
    add_low_rank,
    cge,
    lge_scalar,
    low_rank_operands,
)
from lozo.linalg import LayerShape, ParamSet, frobenius_norm
from lozo.problems import LossOracle, make_quadratic
from lozo.optimizers import LozoState, OptimizerConfig, lozo_step, zo_sgd_step
from lozo.sampling import STREAM_U, STREAM_V, SamplerKind, derive_seed, sample_gaussian, sample_v

from oracles import misaligned, reference_add_low_rank


def half_sqnorm_oracle():
    return LossOracle(
        "half_sqnorm",
        1,
        lambda x, xi: 0.5 * sum(float(np.vdot(a, a)) for a in x.layers),
        grad_fn=lambda x, xi: ParamSet([a.copy() for a in x.layers], x.shapes),
    )


def linear_oracle(c_mats):
    return LossOracle(
        "linear",
        1,
        lambda x, xi: sum(float(np.vdot(c, a)) for c, a in zip(c_mats, x.layers)),
        grad_fn=lambda x, xi: ParamSet([c.copy() for c in c_mats], x.shapes),
    )


def factors_at(base_seed, x, t):
    """Step t's (U_l, V_l) per layer as a nu = 1 lozo_step draws them, with a standard-normal V."""
    return [
        (
            sample_gaussian(derive_seed(base_seed, STREAM_U, i, t), s.m, s.r),
            sample_v(derive_seed(base_seed, STREAM_V, i, t), s.n, s.r, SamplerKind.STANDARD_NORMAL),
        )
        for i, s in enumerate(x.shapes)
    ]


def _read_only(a):
    b = a.copy()
    b.flags.writeable = False
    return b


class CountingOracle:
    """Wraps an oracle and counts evaluate() calls."""

    def __init__(self, inner):
        self.inner = inner
        self.num_samples = inner.num_samples
        self.calls = 0

    def evaluate(self, x, xi):
        self.calls += 1
        return self.inner.evaluate(x, xi)


class TestCGE:
    def test_exact_on_quadratic(self):
        oracle = half_sqnorm_oracle()
        x = ParamSet([np.array([[1.0, 2.0]])], [LayerShape(1, 2, 1)])
        for eps in (1e-2, 1e-4, 1e-6):
            g = cge(oracle, x, eps, 0)
            np.testing.assert_allclose(g.layers[0], [[1.0, 2.0]], rtol=1e-9)

    def test_exact_on_linear(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        oracle = linear_oracle([c])
        x = ParamSet([np.array([[0.3, -0.7], [2.0, 0.1]])], [LayerShape(2, 2, 1)])
        g = cge(oracle, x, 1e-3, 0)
        np.testing.assert_allclose(g.layers[0], c, atol=1e-10)

    def test_exp_entries(self):
        oracle = LossOracle("exp_sum", 1, lambda x, xi: float(np.sum(np.exp(x.layers[0]))))
        x = ParamSet.zeros([LayerShape(2, 3, 1)])
        g = cge(oracle, x, 1e-5, 0)
        np.testing.assert_allclose(g.layers[0], np.ones((2, 3)), atol=1e-9)

    def test_evaluation_count_is_2d(self):
        oracle = CountingOracle(half_sqnorm_oracle())
        x = ParamSet([np.ones((3, 4))], [LayerShape(3, 4, 1)])
        cge(oracle, x, 1e-3, 0)
        assert oracle.calls == 2 * 12

    def test_dimension_cap(self):
        oracle = CountingOracle(half_sqnorm_oracle())
        x = ParamSet.zeros([LayerShape(1, CGE_DIMENSION_CAP + 1, 1)])
        with pytest.raises(ValueError, match="cap"):
            cge(oracle, x, 1e-3, 0)
        assert oracle.calls == 0

    def test_non_finite_names_coordinate(self):
        def bad_eval(x, xi):
            return float("nan") if x.layers[0][1, 2] != 0.0 else 0.0

        oracle = LossOracle("bad", 1, bad_eval)
        x = ParamSet.zeros([LayerShape(2, 3, 1)])
        with pytest.raises(EvaluationError) as e:
            cge(oracle, x, 1e-3, 0)
        assert e.value.layer == 0
        assert e.value.entry == (1, 2)


def rge_config(base_seed, epsilon, trials=1):
    """A zo-sgd config at alpha = 0: its step's last pass only restores X, so c Z is the step's RGE estimate."""
    return OptimizerConfig(alpha=0.0, total_steps=trials, base_seed=base_seed, epsilon=epsilon)


class TestRGE:
    def test_exact_on_linear(self):
        rng = np.random.default_rng(11)
        c = rng.standard_normal((4, 3))
        oracle = linear_oracle([c])
        for i, eps in enumerate((1.0, 1e-3, 1e-8)):
            x = ParamSet.zeros([LayerShape(4, 3, 1)])
            fd, (z,) = zo_sgd_step(x, oracle, rge_config(11 + i, eps), 0)
            expected = float(np.vdot(c, z)) * z
            diff = np.abs(fd * z - expected)
            ulps = diff / np.maximum(np.spacing(np.abs(expected)), np.finfo(float).tiny)
            assert np.max(ulps) <= 8.0

    def test_zero_direction(self):
        oracle = half_sqnorm_oracle()
        x = ParamSet([np.ones((2, 2))], [LayerShape(2, 2, 1)])
        assert _central_difference(oracle, x, 0, 1e-3, add_dense, [np.zeros((2, 2))]) == 0.0
        np.testing.assert_array_equal(x.layers[0], np.ones((2, 2)))

    def test_two_evaluations(self):
        oracle = CountingOracle(half_sqnorm_oracle())
        x = ParamSet([np.ones((3, 3))], [LayerShape(3, 3, 1)])
        zo_sgd_step(x, oracle, rge_config(1, 1e-3), 0)
        assert oracle.calls == 2

    def test_monte_carlo_unbiased_on_quadratic(self):
        shapes = [LayerShape(4, 3, 1)]
        oracle = make_quadratic(shapes, data_seed=5, noise_scale=0.0, num_samples=2)
        x = ParamSet([sample_gaussian(3, 4, 3)], shapes)
        truth = oracle.analytic_grad(x, 0).layers[0]
        acc = np.zeros((4, 3))
        trials = 100_000
        config = rge_config(77, 1e-6, trials)
        for i in range(trials):
            c, (z,) = zo_sgd_step(x, oracle, config, i)
            acc += c * z
        rel = frobenius_norm(acc / trials - truth) / frobenius_norm(truth)
        assert rel <= 0.05


class TestBadEpsilon:
    @pytest.mark.parametrize(
        "estimate",
        [
            lambda oracle, x, eps: lge_scalar(oracle, x, factors_at(5, x, 0), eps, 0),
            lambda oracle, x, eps: cge(oracle, x, eps, 0),
        ],
        ids=["lge_scalar", "cge"],
    )
    @pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_epsilon_rejected_before_x_is_touched(self, estimate, eps):
        # inf left X all NaN and then raised EvaluationError, whose contract says X was restored
        oracle = CountingOracle(half_sqnorm_oracle())
        x = ParamSet([sample_gaussian(4, 3, 3)], [LayerShape(3, 3, 1)])
        before = x.copy()
        with pytest.raises(ValueError, match="^epsilon must be positive"):
            estimate(oracle, x, eps)
        assert x.layers[0].tobytes() == before.layers[0].tobytes()
        assert oracle.calls == 0


class TestLGEScalar:
    def test_linear_identity(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal((5, 4))
        oracle = linear_oracle([c])
        shapes = [LayerShape(5, 4, 2)]
        x = ParamSet.zeros(shapes)
        for eps in (1.0, 1e-4, 1e-9):
            sk = factors_at(4, x, 0)
            u, v = sk[0]
            expected = float(np.vdot(c, u @ v.T))
            got = lge_scalar(oracle, x, sk, eps, 0)
            ulps = abs(got - expected) / max(np.spacing(abs(expected)), np.finfo(float).tiny)
            assert ulps <= 8.0

    def test_quadratic_identity_any_eps(self):
        shapes = [LayerShape(6, 5, 2)]
        oracle = make_quadratic(shapes, data_seed=9, noise_scale=0.0, num_samples=2)
        x = ParamSet([sample_gaussian(1, 6, 5)], shapes)
        grad = oracle.analytic_grad(x, 0).layers[0]
        sk = factors_at(2, x, 1)
        u, v = sk[0]
        expected = float(np.vdot(grad, u @ v.T))
        for eps in (1e-1, 1e-3, 1e-6):
            assert lge_scalar(oracle, x, sk, eps, 0) == pytest.approx(expected, rel=1e-9)

    def test_flat_loss_gives_zero(self):
        oracle = LossOracle("const", 1, lambda x, xi: 3.5)
        shapes = [LayerShape(4, 4, 2)]
        x = ParamSet.zeros(shapes)
        sk = factors_at(8, x, 0)
        assert lge_scalar(oracle, x, sk, 1e-3, 0) == 0.0

    def test_restores_after_failure(self):
        calls = {"n": 0}

        def nan_on_second(x, xi):
            calls["n"] += 1
            return float("nan") if calls["n"] == 2 else 1.0

        oracle = LossOracle("nan2", 1, nan_on_second)
        shapes = [LayerShape(5, 5, 2)]
        x = ParamSet([sample_gaussian(3, 5, 5)], shapes)
        before = x.copy()
        sk = factors_at(12, x, 0)
        with pytest.raises(EvaluationError):
            lge_scalar(oracle, x, sk, 1e-3, 0)
        drift = frobenius_norm(x.layers[0] - before.layers[0])
        assert drift <= 1e-12 * (1.0 + before.norm())


class TestLGE:
    def test_two_evaluations(self):
        shapes = [LayerShape(3, 3, 1)]
        oracle = CountingOracle(make_quadratic(shapes, data_seed=1, num_samples=2))
        x = ParamSet.zeros(shapes)
        lozo_step(x, LozoState(), oracle, OptimizerConfig(alpha=0.0, total_steps=1, base_seed=1, nu=1))
        assert oracle.calls == 2

    @pytest.mark.parametrize(
        "malform",
        [
            lambda f: f[:1],
            lambda f: f + f[:1],
            lambda f: [f[0], (f[1][0][:-1], f[1][1])],
            lambda f: [f[0], (f[1][0][:, :2], f[1][1])],
            lambda f: [f[0], (f[1][0], f[1][1][1:])],
            lambda f: [f[0], (f[1][0], f[1][1][:, :2])],
            lambda f: [f[0], f[1][::-1]],
        ],
        ids=["pair-short", "pair-extra", "u-row-short", "u-rank-short", "v-row-short", "v-rank-short", "u-v-swapped"],
    )
    def test_malformed_factors_rejected_before_x_is_touched(self, malform):
        shapes = [LayerShape(6, 5, 2), LayerShape(4, 7, 3)]
        oracle = CountingOracle(make_quadratic(shapes, data_seed=3, num_samples=2))
        x = ParamSet([sample_gaussian(7, 6, 5), sample_gaussian(8, 4, 7)], shapes)
        before = x.copy()
        factors = factors_at(9, x, 0)
        with pytest.raises(ValueError, match="factors"):
            lge_scalar(oracle, x, malform(factors), 1e-3, 0)
        assert oracle.calls == 0
        for a, b in zip(x.layers, before.layers):
            assert a.tobytes() == b.tobytes()

    def test_monte_carlo_unbiased(self):
        # smaller companion of the acceptance-scale run: threshold max(5%, 4/sqrt(N))
        shapes = [LayerShape(6, 4, 2)]
        oracle = make_quadratic(shapes, data_seed=13, noise_scale=0.0, num_samples=2)
        x = ParamSet([sample_gaussian(14, 6, 4)], shapes)
        truth = oracle.analytic_grad(x, 0).layers[0]
        trials = 20_000
        acc = np.zeros((6, 4))
        # draw i is lozo_step i of a nu = 1 run at alpha = 0, whose update pass only restores X
        config = OptimizerConfig(alpha=0.0, total_steps=trials, base_seed=99, epsilon=1e-6, nu=1)
        for i in range(trials):
            state = LozoState(t=i)
            c, (u,) = lozo_step(x, state, oracle, config)
            acc += (c / 2) * (u @ state.v_cache.vs[0].T)
        rel = frobenius_norm(acc / trials - truth) / frobenius_norm(truth)
        assert rel <= max(0.05, 4.0 / np.sqrt(trials))


class TestPerturbInPlace:
    def test_three_phase_restore(self):
        shapes = [LayerShape(16, 16, 2)]
        x = ParamSet([sample_gaussian(41, 16, 16)], shapes)
        before = x.copy()
        sk = factors_at(42, x, 0)
        eps = 1e-3
        for scale in (eps, -2.0 * eps, eps):
            add_low_rank(x, low_rank_operands(x, sk), scale)
        per_entry = np.abs(x.layers[0] - before.layers[0])
        assert np.max(per_entry / np.maximum(np.spacing(np.abs(before.layers[0])), np.finfo(float).tiny)) <= 4.0

    def test_zero_scale_bit_exact(self):
        shapes = [LayerShape(4, 4, 2)]
        x = ParamSet([sample_gaussian(43, 4, 4)], shapes)
        before = x.copy()
        sk = factors_at(44, x, 0)
        add_low_rank(x, low_rank_operands(x, sk), 0.0)
        np.testing.assert_array_equal(x.layers[0], before.layers[0])

    def test_round_trip_drift(self):
        shapes = [LayerShape(16, 16, 2)]
        x = ParamSet([sample_gaussian(45, 16, 16)], shapes)
        before = x.copy()
        sk = factors_at(46, x, 0)
        add_low_rank(x, low_rank_operands(x, sk), 1e-3)
        add_low_rank(x, low_rank_operands(x, sk), -1e-3)
        drift = np.max(np.abs(x.layers[0] - before.layers[0]))
        assert drift <= 1e-12 * before.norm()


class TestAddLowRank:
    """X_l += s_l U_l V_l^T in place, through BLAS, on layers past OpenBLAS's small-matrix kernel."""

    LARGE = [LayerShape(512, 512, 4), LayerShape(448, 576, 4)]

    def _layers(self, shapes, seed):
        x = ParamSet([sample_gaussian(derive_seed(seed, i), s.m, s.n) for i, s in enumerate(shapes)], shapes)
        factors = [
            (sample_gaussian(derive_seed(seed, i, 1), s.m, s.r), sample_gaussian(derive_seed(seed, i, 2), s.n, s.r))
            for i, s in enumerate(shapes)
        ]
        return x, factors

    @pytest.mark.parametrize(
        "shapes, scale", [(LARGE[:1], 1e-3), (LARGE, [-2.5e-2, 7e-4])], ids=["512x512", "two-layers-per-layer-scale"]
    )
    def test_updates_in_place_without_a_full_size_temporary(self, shapes, scale):
        x, factors = self._layers(shapes, seed=60)
        scales = scale if isinstance(scale, list) else [scale] * len(shapes)
        expected = [a + s * (u @ v.T) for a, (u, v), s in zip(x.layers, factors, scales)]
        layers = list(x.layers)
        pointers = [a.ctypes.data for a in layers]
        tracemalloc.start()
        try:
            add_low_rank(x, low_rank_operands(x, factors), scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(x.layers, layers))
        assert [a.ctypes.data for a in x.layers] == pointers
        assert peak < min(a.nbytes for a in layers) / 8
        for a, e in zip(x.layers, expected):
            assert np.max(np.abs(a - e)) <= 4.0 * np.spacing(np.max(np.abs(e)))

    @pytest.mark.parametrize("shapes", [LARGE[:1], LARGE], ids=["512x512", "two-layers"])
    def test_probe_restores_large_layers(self, shapes):
        x, factors = self._layers(shapes, seed=61)
        before = x.copy()
        _central_difference(half_sqnorm_oracle(), x, 0, 1e-3, add_low_rank, low_rank_operands(x, factors))
        add_low_rank(x, low_rank_operands(x, factors), 1e-3)  # the probe leaves X - eps P; the caller adds eps P back
        drift = np.sqrt(sum(frobenius_norm(a - b) ** 2 for a, b in zip(x.layers, before.layers)))
        assert drift <= 1e-12 * (1.0 + before.norm())

    @pytest.mark.parametrize(
        "index, spoil",
        [
            (0, lambda a: a.T),
            (1, np.asfortranarray),
            (1, lambda a: a.astype(np.float32)),
            (1, _read_only),
            (0, misaligned),
        ],
        ids=["transposed-view", "fortran-order", "float32", "read-only", "misaligned"],
    )
    def test_layer_that_cannot_be_updated_in_place_is_rejected(self, index, spoil):
        # BLAS would update a copy of such a layer and drop the update; no layer is touched
        shapes = [LayerShape(6, 6, 2), LayerShape(6, 6, 2)]
        x, factors = self._layers(shapes, seed=62)
        x.layers[index] = spoil(x.layers[index])
        before = [a.copy() for a in x.layers]
        with pytest.raises(ValueError, match=f"layer {index} must be a writeable C-contiguous float64 array"):
            add_low_rank(x, low_rank_operands(x, factors), 1e-3)
        for a, b in zip(x.layers, before):
            np.testing.assert_array_equal(a, b)

    def test_one_positional_blas_call_per_layer_on_a_view_of_u(self, monkeypatch):
        # no keyword parsing, and no Fortran-order copy of U: its transpose is passed as is
        calls = []
        real = estimators.dgemm

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "dgemm", recording)
        shapes = [LayerShape(6, 5, 2), LayerShape(4, 7, 3)]
        x, factors = self._layers(shapes, seed=65)
        for scale in (1e-3, [-2e-3, 5e-4]):
            add_low_rank(x, low_rank_operands(x, factors), scale)
        assert len(calls) == 2 * len(shapes)
        for (args, kwargs), (a, (u, _)) in zip(calls, 2 * list(zip(x.layers, factors))):
            assert kwargs == {}
            assert np.shares_memory(args[2], u)
            assert np.shares_memory(args[4], a)

    @pytest.mark.parametrize(
        "m, n, r",
        [(32, 32, 2), (256, 256, 4), (16, 256, 4), (512, 512, 4), (7, 5, 3), (5, 9, 1)],
        ids=["32x32-r2", "256x256-r4", "16x256-r4", "512x512-r4", "7x5-r3", "5x9-r1"],
    )
    def test_matches_the_keyword_call_bitwise(self, m, n, r):
        shapes = [LayerShape(m, n, r)]
        x, factors = self._layers(shapes, seed=66)
        expected = [a.copy() for a in x.layers]
        for scale in (1e-3, -2.7e-2):
            add_low_rank(x, low_rank_operands(x, factors), scale)
            reference_add_low_rank(expected, factors, scale)
            assert [a.tobytes() for a in x.layers] == [e.tobytes() for e in expected]


class TestAddDense:
    """Layers above DENSE_BLOCK entries go through one block buffer with the same bytes as X += s Z."""

    @pytest.mark.parametrize(
        "dims",
        [[(300, 257)], [(2, DENSE_BLOCK + 3)], [(16, 8), (512, 512)]],
        ids=["ragged-last-block", "row-wider-than-block", "small-and-large"],
    )
    def test_blocked_pass_matches_the_numpy_expression_bitwise(self, dims):
        shapes = [LayerShape(m, n, 1) for m, n in dims]
        x = ParamSet([sample_gaussian(derive_seed(63, i), m, n) for i, (m, n) in enumerate(dims)], shapes)
        zs = [sample_gaussian(derive_seed(64, i), m, n) for i, (m, n) in enumerate(dims)]
        scale = -3.7e-3
        expected = [a + scale * z for a, z in zip(x.layers, zs)]
        layers = list(x.layers)
        tracemalloc.start()
        try:
            add_dense(x, zs, scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(a is b for a, b in zip(x.layers, layers))
        for a, e in zip(x.layers, expected):
            assert np.array_equal(a, e)
        # one block buffer (a row, where a row is wider than a block) and no full-size temporary
        assert peak <= 8 * max(DENSE_BLOCK, *(n for _, n in dims)) + 4096 < max(a.nbytes for a in layers)

