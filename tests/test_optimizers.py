"""Optimizer step semantics, momentum algebra, determinism, footprints."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lozo import estimators, optimizers
from lozo.estimators import _central_difference, add_low_rank, low_rank_operands
from lozo.linalg import LayerShape, ParamSet, frobenius_norm
from lozo.optimizers import (
    LozoState,
    MomentumState,
    OptimizerConfig,
    StepError,
    lozo_step,
    project_momentum,
    run,
    sample_index,
    state_footprint,
    vanilla_lge_step,
    zo_sgd_step,
)
from lozo.problems import LossOracle, make_quadratic
from lozo.sampling import (
    STREAM_U,
    STREAM_V,
    STREAM_Z,
    SamplerKind,
    derive_seed,
    sample_gaussian,
    sample_v,
)

from oracles import ema_momentum, lstsq_projection, misaligned, naive_lozo_step


def half_sqnorm():
    return LossOracle(
        "half_sqnorm", 1, lambda x, xi: 0.5 * sum(float(np.vdot(a, a)) for a in x.layers)
    )


class TestZoSgdStep:
    def test_one_step_closed_form(self):
        # f = ||X||^2 / 2 on a 1x1 layer: X1 = (1 - alpha z^2) X0 exactly
        oracle = half_sqnorm()
        shapes = [LayerShape(1, 1, 1)]
        x = ParamSet([np.array([[1.0]])], shapes)
        config = OptimizerConfig(alpha=0.05, total_steps=1, base_seed=5, epsilon=1e-6)
        zo_sgd_step(x, oracle, config, 0)
        z = float(sample_gaussian(derive_seed(5, STREAM_Z, 0, 0), 1, 1)[0, 0])
        assert x.layers[0][0, 0] == pytest.approx(1.0 - 0.05 * z * z, abs=1e-10)

    def test_zero_alpha_keeps_parameters(self):
        oracle = half_sqnorm()
        shapes = [LayerShape(3, 3, 1)]
        x = ParamSet([sample_gaussian(1, 3, 3)], shapes)
        before = x.copy()
        config = OptimizerConfig(alpha=0.0, total_steps=1, base_seed=2)
        zo_sgd_step(x, oracle, config, 0)
        drift = frobenius_norm(x.layers[0] - before.layers[0])
        assert drift <= 1e-12 * (1.0 + before.norm())

    def test_directions_are_each_configs_own_seeds(self):
        # Z's seed prefixes are cached per base seed: stepping two configs alternately, and far out in t,
        # must draw each config's own derive_seed(base_seed, STREAM_Z, l, t)
        shapes = [LayerShape(4, 3, 2), LayerShape(2, 4, 1)]
        oracle = make_quadratic(shapes, data_seed=3, noise_scale=0.2, num_samples=3)
        configs = [OptimizerConfig(alpha=1e-2, total_steps=1, base_seed=seed) for seed in (6, 2**64 - 1)]
        x = ParamSet([sample_gaussian(4 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        for t in (0, 1, 2, 2**40):
            for config in configs:
                c, zs = zo_sgd_step(x, oracle, config, t)
                assert isinstance(c, float) and len(zs) == len(shapes)
                for i, (z, s) in enumerate(zip(zs, shapes)):
                    expected = sample_gaussian(derive_seed(config.base_seed, STREAM_Z, i, t), s.m, s.n)
                    assert z.tobytes() == expected.tobytes(), f"base seed {config.base_seed}, layer {i}, t {t}"

    def test_same_seed_bit_identical(self):
        shapes = [LayerShape(4, 3, 2)]
        oracle = make_quadratic(shapes, data_seed=3, noise_scale=0.2, num_samples=3)
        xa = ParamSet([sample_gaussian(4, 4, 3)], shapes)
        xb = xa.copy()
        config = OptimizerConfig(alpha=1e-2, total_steps=1, base_seed=6)
        for t in range(30):
            zo_sgd_step(xa, oracle, config, t)
            zo_sgd_step(xb, oracle, config, t)
        np.testing.assert_array_equal(xa.layers[0], xb.layers[0])


class TestLozoStep:
    def test_flat_loss_leaves_parameters(self):
        oracle = LossOracle("const", 1, lambda x, xi: 2.0)
        shapes = [LayerShape(5, 4, 2)]
        x = ParamSet([sample_gaussian(7, 5, 4)], shapes)
        before = x.copy()
        config = OptimizerConfig(alpha=0.1, total_steps=1, base_seed=8)
        state = LozoState()
        lozo_step(x, state, oracle, config)
        drift = frobenius_norm(x.layers[0] - before.layers[0])
        assert drift <= 1e-12 * (1.0 + before.norm())

    def test_nu1_equals_vanilla_bitwise(self, shape=LayerShape(6, 5, 2), steps=50):
        shapes = [shape]
        oracle = make_quadratic(shapes, data_seed=9, noise_scale=0.3, num_samples=4)
        x_lazy = ParamSet([sample_gaussian(10, shape.m, shape.n)], shapes)
        x_vanilla = x_lazy.copy()
        config = OptimizerConfig(alpha=1e-2, total_steps=steps, base_seed=11, nu=1)
        state = LozoState()
        for t in range(steps):
            lozo_step(x_lazy, state, oracle, config)
            vanilla_lge_step(x_vanilla, oracle, config, t)
        np.testing.assert_array_equal(x_lazy.layers[0], x_vanilla.layers[0])

    def test_nu1_equals_vanilla_bitwise_on_large_layer(self):
        # 512 x 512 takes add_low_rank past OpenBLAS's small-matrix kernel
        self.test_nu1_equals_vanilla_bitwise(LayerShape(512, 512, 4), steps=3)

    def test_v_seeds_rotate_only_at_boundaries(self):
        # V's seeds are keyed by the period t // nu; the cached V changes exactly when it does
        shapes = [LayerShape(4, 4, 2)]
        oracle = make_quadratic(shapes, data_seed=12, num_samples=2)
        x = ParamSet.zeros(shapes)
        config = OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=13, nu=5)
        state = LozoState()
        seen = []
        for _ in range(12):
            lozo_step(x, state, oracle, config)
            seen.append(state.v_cache)
        for t in range(12):
            assert seen[t].period == t // 5
            if t % 5 == 0 and t > 0:
                assert seen[t].vs is not seen[t - 1].vs
                assert not np.array_equal(seen[t].vs[0], seen[t - 1].vs[0])
            elif t > 0:
                assert seen[t].vs is seen[t - 1].vs

    def test_seed_replay_matches_eager_storage(self):
        # regenerating factors from seeds must reproduce the trajectory of a
        # loop that materializes and stores (U, V) up front
        shapes = [LayerShape(5, 6, 2)]
        oracle = make_quadratic(shapes, data_seed=14, noise_scale=0.2, num_samples=3)
        x_replay = ParamSet([sample_gaussian(15, 5, 6)], shapes)
        x_eager = x_replay.copy()
        config = OptimizerConfig(alpha=5e-3, total_steps=1, base_seed=16, nu=4)
        state = LozoState()
        for t in range(12):
            lozo_step(x_replay, state, oracle, config)
            # eager path: build the same factors once, store, and reuse
            u = sample_gaussian(derive_seed(config.base_seed, STREAM_U, 0, t), 5, 2)
            v = sample_v(derive_seed(config.base_seed, STREAM_V, 0, t // config.nu), 6, 2, config.v_kind)
            eps = config.epsilon
            c = _central_difference(oracle, x_eager, sample_index(t, 3), eps, add_low_rank, low_rank_operands(x_eager, [(u, v)]))
            # the probe left x at X - eps U V^T; one pass restores and updates
            x_eager.layers[0] += (eps - config.alpha * c / 2) * (u @ v.T)
            np.testing.assert_array_equal(x_replay.layers[0], x_eager.layers[0])

    def test_step_error_restores_and_reports(self):
        calls = {"n": 0}

        def eventually_nan(x, xi):
            calls["n"] += 1
            return float("nan") if calls["n"] > 6 else 1.0

        oracle = LossOracle("late_nan", 1, eventually_nan)
        shapes = [LayerShape(4, 4, 2)]
        x = ParamSet([sample_gaussian(17, 4, 4)], shapes)
        config = OptimizerConfig(alpha=1e-2, total_steps=10, base_seed=18)
        state = LozoState()
        for _ in range(3):
            lozo_step(x, state, oracle, config)
        before = x.copy()
        with pytest.raises(StepError) as err:
            lozo_step(x, state, oracle, config)
        assert err.value.step == 3
        drift = frobenius_norm(x.layers[0] - before.layers[0])
        assert drift <= 1e-12 * (1.0 + before.norm())


class TestProjectMomentum:
    def test_identity_resample(self):
        v = sample_v(1, 8, 2, SamplerKind.HAAR_SCALED)
        n_factor = sample_gaussian(2, 5, 2)
        np.testing.assert_allclose(project_momentum(n_factor, v, v, 8), n_factor, atol=1e-12)

    def test_orthogonal_subspaces(self):
        v_old = np.array([[np.sqrt(2.0)], [0.0]])
        v_new = np.array([[0.0], [np.sqrt(2.0)]])
        n_factor = np.array([[1.0], [1.0]])
        np.testing.assert_array_equal(project_momentum(n_factor, v_old, v_new, 2), [[0.0], [0.0]])

    def test_matches_brute_force_least_squares(self):
        for seed in range(10):
            v_old = sample_v(derive_seed(20, seed, 0), 16, 3, SamplerKind.HAAR_SCALED)
            v_new = sample_v(derive_seed(20, seed, 1), 16, 3, SamplerKind.HAAR_SCALED)
            n_factor = sample_gaussian(derive_seed(20, seed, 2), 6, 3)
            closed = project_momentum(n_factor, v_old, v_new, 16)
            brute = lstsq_projection(n_factor, v_old, v_new)
            assert np.max(np.abs(closed - brute)) <= 1e-10


class TestLozoMStep:
    shapes = [LayerShape(6, 5, 2)]

    def _setup(self, beta, nu=4, seed=21):
        oracle = make_quadratic(self.shapes, data_seed=seed, noise_scale=0.2, num_samples=3)
        x = ParamSet([sample_gaussian(seed + 1, 6, 5)], self.shapes)
        config = OptimizerConfig(alpha=5e-3, total_steps=1, base_seed=seed + 2, nu=nu, beta=beta)
        return oracle, x, config

    def test_beta_zero_matches_plain_lozo(self):
        oracle, x_m, config = self._setup(beta=0.0)
        x_plain = x_m.copy()
        state_m, state_p = LozoState(), LozoState()
        mom = MomentumState.zeros(self.shapes, beta=0.0)
        for _ in range(20):
            lozo_step(x_m, state_m, oracle, config, mom)
            lozo_step(x_plain, state_p, oracle, config)
        # identical up to reassociation of the scalar products, amplified over 20 steps
        np.testing.assert_allclose(x_m.layers[0], x_plain.layers[0], rtol=1e-10, atol=1e-12)

    def test_first_step_scaling(self):
        oracle, x, config = self._setup(beta=0.9)
        before = x.copy()
        mom = MomentumState.zeros(self.shapes, beta=0.9)
        state = LozoState()
        c, _ = lozo_step(x, state, oracle, config, mom)
        u = sample_gaussian(derive_seed(config.base_seed, STREAM_U, 0, 0), 6, 2)
        v = sample_v(derive_seed(config.base_seed, STREAM_V, 0, 0), 5, 2, config.v_kind)
        expected = before.layers[0] - (config.alpha / 2) * ((0.1 * c * u) @ v.T)
        np.testing.assert_allclose(x.layers[0], expected, rtol=1e-12)

    def test_momentum_is_ema_when_v_fixed(self):
        oracle, x, _ = self._setup(beta=0.8)
        steps = 24
        config = OptimizerConfig(alpha=5e-3, total_steps=steps, base_seed=23, nu=steps, beta=0.8)
        mom = MomentumState.zeros(self.shapes, beta=0.8)
        state = LozoState()
        cs, us = [], []
        for t in range(steps):
            c, _ = lozo_step(x, state, oracle, config, mom)
            cs.append(c)
            us.append(sample_gaussian(derive_seed(config.base_seed, STREAM_U, 0, t), 6, 2))
        expected = ema_momentum(cs, us, beta=0.8)
        np.testing.assert_allclose(mom.n_factors[0], expected, rtol=1e-12)

    @pytest.mark.parametrize("bad", ["rank", "short", "long", "beta"])
    def test_mismatched_momentum_is_rejected_before_anything_moves(self, bad):
        # a rank-2 factor on a rank-3 layer raised an unnamed broadcast error after the probe, leaving X at
        # X - eps P; a list one layer short moved layer 1 by U V^T at scale 1 and dropped its factor; a beta
        # other than config.beta stepped at the momentum's own beta
        shapes = [LayerShape(8, 6, 2), LayerShape(5, 7, 3)]
        oracle = make_quadratic(shapes, data_seed=3, noise_scale=0.2, num_samples=3)
        config = OptimizerConfig(alpha=1e-2, total_steps=1, base_seed=3, nu=2)
        x = ParamSet([sample_gaussian(4 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        state, mom = LozoState(), MomentumState.zeros(shapes, config.beta)
        for _ in range(3):
            lozo_step(x, state, oracle, config, mom)
        factors, match = {
            "rank": ([mom.n_factors[0], np.zeros((5, 2))], r"layer 1 must be a \(5, 3\) array, got \(5, 2\)"),
            "short": (mom.n_factors[:1], "momentum has 1 factors for 2 layers: layer 1 is unmatched"),
            "long": (mom.n_factors + [np.zeros((5, 3))], "momentum has 3 factors for 2 layers: layer 2 is unmatched"),
            "beta": (mom.n_factors, r"^momentum beta 0.5 does not match config.beta 0.9$"),
        }[bad]
        bad_mom = MomentumState(factors, 0.5 if bad == "beta" else mom.beta)
        x_bytes, factor_bytes, cache = [a.tobytes() for a in x.layers], [f.tobytes() for f in factors], state.v_cache
        with pytest.raises(ValueError, match=match):
            lozo_step(x, state, oracle, config, bad_mom)
        assert [a.tobytes() for a in x.layers] == x_bytes
        assert state.t == 3 and state.v_cache is cache
        assert bad_mom.n_factors is factors and [f.tobytes() for f in factors] == factor_bytes

    def test_rerun_on_large_layer_is_byte_identical(self):
        # 512 x 512 takes add_low_rank past OpenBLAS's small-matrix kernel; nu = 2 crosses two boundaries
        shapes = [LayerShape(512, 512, 4)]
        oracle = make_quadratic(shapes, data_seed=70, noise_scale=0.2, num_samples=2)
        config = OptimizerConfig(alpha=1e-2, total_steps=5, base_seed=71, nu=2)

        def trajectory():
            x = ParamSet([sample_gaussian(72, 512, 512)], shapes)
            state, mom = LozoState(), MomentumState.zeros(shapes, config.beta)
            for _ in range(config.total_steps):
                lozo_step(x, state, oracle, config, mom)
            return x.layers[0].tobytes() + mom.n_factors[0].tobytes()

        assert trajectory() == trajectory()

    def test_momentum_storage_is_low_rank(self):
        mom = MomentumState.zeros([LayerShape(100, 80, 3)], beta=0.9)
        assert [f.shape for f in mom.n_factors] == [(100, 3)]

    @pytest.mark.parametrize(
        "shapes, match",
        [([(2, 2, 1)], r"must hold LayerShape values, got \(2, 2, 1\)$"), (LayerShape(2, 2, 1), "must be a sequence")],
        ids=["tuple", "lone"],
    )
    def test_zeros_names_shapes_that_are_not_layer_shapes_before_any_allocation(self, monkeypatch, shapes, match):
        # a tuple died with "'tuple' object has no attribute 'm'", a lone LayerShape with "object is not iterable"
        def refuse(*args, **kwargs):
            raise AssertionError("a factor was allocated before the shapes were checked")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(TypeError, match="^shapes " + match):
            MomentumState.zeros(shapes, 0.9)


class TestRun:
    shapes = [LayerShape(8, 8, 2)]

    def test_zero_steps(self):
        oracle = make_quadratic(self.shapes, data_seed=24, num_samples=2)
        x = ParamSet.zeros(self.shapes)
        config = OptimizerConfig(alpha=1e-2, total_steps=0, base_seed=25)
        assert run(oracle, x, config, "lozo") == []
        assert frobenius_norm(x.layers[0]) == 0.0

    def test_identical_configs_identical_records(self):
        oracle = make_quadratic(self.shapes, data_seed=26, noise_scale=0.1, num_samples=3)
        config = OptimizerConfig(alpha=1e-2, total_steps=40, base_seed=27, nu=5)
        rec_a = run(oracle, ParamSet.zeros(self.shapes), config, "lozo", eval_every=4)
        rec_b = run(oracle, ParamSet.zeros(self.shapes), config, "lozo", eval_every=4)
        assert [(r.step, r.loss, r.fd_scalar_abs, r.est_norm) for r in rec_a] == [
            (r.step, r.loss, r.fd_scalar_abs, r.est_norm) for r in rec_b
        ]

    def test_steps_strictly_increasing(self):
        oracle = make_quadratic(self.shapes, data_seed=28, num_samples=2)
        config = OptimizerConfig(alpha=1e-2, total_steps=25, base_seed=29, nu=5)
        records = run(oracle, ParamSet.zeros(self.shapes), config, "lozo", eval_every=7)
        steps = [r.step for r in records]
        assert steps == sorted(set(steps))

    def test_convergence_on_strongly_convex_quadratic(self):
        # d = 64 quadratic, low-rank optimizer with lazy resampling
        oracle = make_quadratic(self.shapes, data_seed=30, noise_scale=0.0, num_samples=2)
        x = ParamSet.zeros(self.shapes)
        config = OptimizerConfig(alpha=5e-3, total_steps=20_000, base_seed=31, nu=50)
        records = run(oracle, x, config, "lozo", eval_every=500)
        assert records[-1].loss <= 1e-3  # optimum value is 0

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_parameters_from_a_misaligned_buffer_move(self, algo):
        # such a layer would make BLAS update a copy and drop every low-rank update; ParamSet stores an aligned one
        shapes = [LayerShape(6, 5, 2)]
        oracle = make_quadratic(shapes, data_seed=1)
        config = OptimizerConfig(alpha=1e-2, total_steps=50, base_seed=0, nu=5)
        x = ParamSet([misaligned(np.zeros((6, 5)))], shapes)
        records = run(oracle, x, config, algo, eval_every=10)
        reference = run(oracle, ParamSet.zeros(shapes), config, algo, eval_every=10)
        assert [(r.loss, r.fd_scalar_abs, r.est_norm) for r in records] == [
            (r.loss, r.fd_scalar_abs, r.est_norm) for r in reference
        ]
        assert records[-1].loss < 0.9 * records[0].loss and all(r.fd_scalar_abs > 0.0 for r in records)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None], ids=["float", "integral-float", "bool", "str", "none"])
    def test_eval_every_must_be_an_integer(self, value):
        # eval_every=2.5 used to record only the first and last of six steps, and True every step
        oracle = make_quadratic(self.shapes, data_seed=32, num_samples=2)
        config = OptimizerConfig(alpha=1e-2, total_steps=6, base_seed=33)
        with pytest.raises(TypeError, match="eval_every must be an integer"):
            run(oracle, ParamSet.zeros(self.shapes), config, "lozo", eval_every=value)

    def test_unknown_algorithm_rejected(self):
        oracle = make_quadratic(self.shapes, data_seed=32, num_samples=2)
        config = OptimizerConfig(alpha=1e-2, total_steps=1, base_seed=33)
        with pytest.raises(ValueError):
            run(oracle, ParamSet.zeros(self.shapes), config, "adam")

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    @pytest.mark.parametrize("eval_every, k", [(1, 4), (3, 2)])
    def test_closing_iter_run_takes_no_further_step(self, evaluate_calls, algo, eval_every, k):
        oracle = make_quadratic(self.shapes, data_seed=34, num_samples=2)
        x = ParamSet.zeros(self.shapes)
        config = OptimizerConfig(alpha=1e-2, total_steps=20, base_seed=35, nu=3)
        gen = optimizers.iter_run(oracle, x, config, algo, eval_every)
        taken = [next(gen) for _ in range(k)]
        at_close = x.layers[0].tobytes()
        gen.close()
        assert [r.step for r in taken] == [1 + eval_every * i for i in range(k)]
        assert len(evaluate_calls) == 2 * taken[-1].step
        assert x.layers[0].tobytes() == at_close
        with pytest.raises(StopIteration):
            next(gen)
        assert len(evaluate_calls) == 2 * taken[-1].step
        full = run(oracle, ParamSet.zeros(self.shapes), config, algo, eval_every)
        assert [replace(r, wall_ms=0.0) for r in taken] == [replace(r, wall_ms=0.0) for r in full[:k]]

    @pytest.mark.parametrize("algo, eval_every, error, match", [
        ("adam", 1, ValueError, "unknown algorithm 'adam'"),
        ("lozo", 0, ValueError, "eval_every must be at least 1"),
        ("lozo", 1.5, TypeError, "eval_every must be an integer"),
    ], ids=["algo", "eval_every-0", "eval_every-float"])
    def test_iter_run_checks_its_arguments_before_the_first_step(self, evaluate_calls, algo, eval_every, error, match):
        oracle = make_quadratic(self.shapes, data_seed=32, num_samples=2)
        x = ParamSet.zeros(self.shapes)
        config = OptimizerConfig(alpha=1e-2, total_steps=6, base_seed=33)
        gen = optimizers.iter_run(oracle, x, config, algo, eval_every)
        with pytest.raises(error, match=match):
            next(gen)
        assert evaluate_calls == [] and not x.layers[0].any()


class TestStateFootprint:
    def test_large_layer_example(self):
        shapes = [LayerShape(2048, 2048, 2)]
        assert state_footprint("lozo-m", shapes) == 4096
        assert state_footprint("lozo", shapes) == 0
        assert state_footprint("zo-sgd", shapes) == 0
        with pytest.raises(ValueError):
            state_footprint("full-momentum", shapes)

    def test_ratio_identity_per_layer(self):
        # transformer-ish shape list: the per-layer ratio to a full m x n momentum is r / n
        shapes = [LayerShape(1024, 1024, 4), LayerShape(4096, 1024, 4), LayerShape(1024, 4096, 4)]
        for s in shapes:
            low = state_footprint("lozo-m", [s])
            assert low * s.n == s.m * s.n * s.r

    def test_positive_counts(self):
        shapes = [LayerShape(8, 4, 1)]
        assert state_footprint("lozo-m", shapes) > 0

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_shapes_that_are_not_layer_shapes_are_named(self, algo):
        # lozo and zo-sgd returned 0 for them, and lozo-m died with "'tuple' object has no attribute 'm'"
        with pytest.raises(TypeError, match=r"^shapes must hold LayerShape values, got \(2, 2, 1\)$"):
            state_footprint(algo, [(2, 2, 1)])
        with pytest.raises(TypeError, match="^shapes must be a sequence of LayerShape"):
            state_footprint(algo, LayerShape(2, 2, 1))


class TestStepMemory:
    """The paper's memory claim: a low-rank step allocates a few (m + n) x r factors, never an m x n matrix.

    The bound is 4 x sum_l (m_l + n_l) r_l 8 bytes, far below one layer's
    m x n x 8. The oracle reads one entry and allocates nothing, so the
    traced peak is the step's own. nu = 5: step 1 is inside a period, step 5
    a resample boundary (where lozo-m also projects its momentum).
    """

    LAYERS = {
        "1024x1024": [LayerShape(1024, 1024, 4)],
        "two-layers": [LayerShape(256, 512, 4), LayerShape(128, 256, 2)],
    }

    @pytest.mark.parametrize("step", [1, 5], ids=["inside-a-period", "at-a-boundary"])
    @pytest.mark.parametrize("kind", list(SamplerKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    @pytest.mark.parametrize("layers", LAYERS, ids=str)
    def test_peak_is_a_few_low_rank_factors(self, layers, algo, kind, step):
        shapes = self.LAYERS[layers]
        oracle = LossOracle("one-entry", 1, lambda x, xi: float(x.layers[0][0, 0]))
        x = ParamSet([sample_gaussian(80 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        config = OptimizerConfig(alpha=1e-3, total_steps=step + 1, base_seed=81, nu=5, v_kind=kind)
        state = LozoState()
        mom = MomentumState.zeros(shapes, config.beta) if algo == "lozo-m" else None
        for _ in range(step):
            lozo_step(x, state, oracle, config, mom)
        tracemalloc.start()
        try:
            lozo_step(x, state, oracle, config, mom)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 4 * sum((s.m + s.n) * s.r * 8 for s in shapes)
        assert bound < min(s.m * s.n * 8 for s in shapes)
        assert peak <= bound, f"peak {peak} B is {peak / (bound / 4):.2f} x sum (m + n) r 8 B"


class TestZoSgdRunMemory:
    """run holds a zo-sgd step's Z neither through its record's eval_metric nor into the next step.

    The bounds are these runs' tracemalloc peaks when zo_sgd_step still
    summed ||Z||^2 itself and returned only the norm, measured once.
    One 512 x 512 array is 2 MiB. On the quadratic the peak is Z and one
    evaluation's X - A; with a one-entry evaluate it is Z and add_dense's
    512 KiB block buffer, so a Z kept through the record's eval_metric (the
    quadratic's X - A) reads 4 MiB there. Records every third step, a Z kept
    into the next step reads 2 MiB more on both.
    """

    PEAK_BEFORE = {
        ("quadratic", 1): 4197484,
        ("one-entry", 1): 2623412,
        ("quadratic", 3): 4196772,
        ("one-entry", 3): 2622876,
    }

    @pytest.mark.parametrize("oracle_kind, eval_every", list(PEAK_BEFORE))
    def test_peak_is_no_higher_than_before(self, oracle_kind, eval_every):
        shapes = [LayerShape(512, 512, 4)]
        quadratic = make_quadratic(shapes, data_seed=90, noise_scale=0.1, num_samples=4)
        one_entry = LossOracle("one-entry", 4, lambda x, xi: float(x.layers[0][0, 0]), expected_fn=quadratic.eval_metric)
        oracle = quadratic if oracle_kind == "quadratic" else one_entry
        config = OptimizerConfig(alpha=1e-3, total_steps=4, base_seed=91)
        run(oracle, ParamSet.zeros(shapes), config, "zo-sgd", eval_every=eval_every)  # warm every cache first
        x = ParamSet.zeros(shapes)
        tracemalloc.start()
        try:
            run(oracle, x, config, "zo-sgd", eval_every=eval_every)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = self.PEAK_BEFORE[oracle_kind, eval_every]
        assert peak <= bound, f"peak {peak} B is {(peak - bound) / 2**20:.2f} MiB above the {bound} B before"


class TestConfigValidation:
    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=0, nu=0)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=0, beta=1.0)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=0, epsilon=0.0)

    @pytest.mark.parametrize("key", ["alpha", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_alpha_and_epsilon_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            OptimizerConfig(**{"alpha": 1e-3, "total_steps": 1, "base_seed": 0, key: value})

    @pytest.mark.parametrize("key", ["nu", "total_steps", "base_seed"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None], ids=["float", "integral-float", "bool", "str", "none"])
    def test_integer_fields_reject_other_types(self, key, value):
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            OptimizerConfig(**{"alpha": 1e-3, "total_steps": 3, "base_seed": 0, key: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, -(2**63)])
    def test_base_seed_outside_64_bits_is_rejected(self, seed):
        # the seed hash masks to 64 bits, so 2**64 ran seed 0's trajectory and -1 ran 2**64 - 1's
        with pytest.raises(ValueError, match=rf"base_seed must lie in \[0, 2\*\*64\), got {seed}"):
            OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_base_seed_range_ends_are_kept(self, seed):
        assert OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=seed).base_seed == int(seed)

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_numpy_integers_run_as_python_ints(self, algo):
        shapes = [LayerShape(4, 3, 2)]
        oracle = make_quadratic(shapes, data_seed=1, num_samples=2)
        plain = OptimizerConfig(alpha=1e-2, total_steps=5, base_seed=2**63 + 5, nu=2)
        numpy = OptimizerConfig(alpha=1e-2, total_steps=np.int64(5), base_seed=np.uint64(2**63 + 5), nu=np.int32(2))
        assert numpy == plain and all(type(getattr(numpy, k)) is int for k in ("nu", "total_steps", "base_seed"))

        def rows(cfg):
            return [(r.loss, r.fd_scalar_abs, r.est_norm) for r in run(oracle, ParamSet.zeros(shapes), cfg, algo)]

        assert rows(numpy) == rows(plain)


class TestRetryAfterStepError:
    """A step that fails leaves every piece of optimizer state as it was."""

    shapes = [LayerShape(6, 5, 2)]
    failing_call = 21  # the first evaluation of step t = 10, a resample boundary at nu = 5

    def _trajectory(self, algo, fail, monkeypatch):
        base = make_quadratic(self.shapes, data_seed=40, noise_scale=0.2, num_samples=3)
        calls = {"n": 0, "projections": 0}

        def counted_projection(*args):
            calls["projections"] += 1
            return project_momentum(*args)

        monkeypatch.setattr(optimizers, "project_momentum", counted_projection)

        def flaky(x, xi):
            calls["n"] += 1
            value = base.evaluate(x, xi)
            return float("nan") if fail and calls["n"] == self.failing_call else value

        oracle = LossOracle("flaky", base.num_samples, flaky)
        config = OptimizerConfig(alpha=2e-2, total_steps=30, base_seed=41, nu=5)
        x = ParamSet([sample_gaussian(42, 6, 5)], self.shapes)
        state = LozoState()
        mom = MomentumState.zeros(self.shapes, config.beta) if algo == "lozo-m" else None
        failures = 0
        while state.t < config.total_steps:
            before = (state.t, [f.copy() for f in mom.n_factors] if mom else [])
            cache = state.v_cache
            cached_v = [v.copy() for v in cache.vs] if cache else []
            calls["projections"] = 0
            try:
                lozo_step(x, state, oracle, config, mom)
                if failures and state.t == 11:
                    # the retried boundary step projects lozo-m's momentum once per layer
                    assert calls["projections"] == (len(self.shapes) if mom else 0)
            except StepError as e:
                failures += 1
                assert e.step == 10
                assert state.t == before[0]
                assert calls["projections"] == 0  # projection comes after the probe
                for f, g in zip(mom.n_factors if mom else [], before[1]):
                    np.testing.assert_array_equal(f, g)
                # the previous period's V stays cached, unchanged
                assert state.v_cache is cache and cache.period == state.t // config.nu - 1
                for v, w in zip(cache.vs, cached_v):
                    np.testing.assert_array_equal(v, w)
        return x, failures

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_retry_at_boundary_matches_uninterrupted_run(self, algo, monkeypatch):
        clean, clean_failures = self._trajectory(algo, fail=False, monkeypatch=monkeypatch)
        retried, failures = self._trajectory(algo, fail=True, monkeypatch=monkeypatch)
        assert (clean_failures, failures) == (0, 1)
        # the failed probe's +eps / -2eps / +eps round trip leaves a few ulps of drift
        assert np.max(np.abs(clean.layers[0] - retried.layers[0])) <= 1e-10


class TestPeriodV:
    """V is drawn once per period and cached, without changing a single bit."""

    shapes = [LayerShape(6, 5, 2)]

    def _setup(self, algo, kind, nu=5):
        oracle = make_quadratic(self.shapes, data_seed=50, noise_scale=0.2, num_samples=3)
        config = OptimizerConfig(alpha=2e-2, total_steps=20, base_seed=51, nu=nu, v_kind=kind)
        x = ParamSet([sample_gaussian(52, 6, 5)], self.shapes)
        mom = MomentumState.zeros(self.shapes, config.beta) if algo == "lozo-m" else None
        return oracle, config, x, mom

    @pytest.mark.parametrize("kind", [SamplerKind.HAAR_SCALED, SamplerKind.STANDARD_NORMAL])
    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_matches_naive_reference_bitwise(self, algo, kind):
        oracle, config, x, mom = self._setup(algo, kind)
        ref = x.copy()
        ref_n = [f.copy() for f in mom.n_factors] if mom else None
        state = LozoState()
        for t in range(17):  # boundaries at 0, 5, 10 and 15
            lozo_step(x, state, oracle, config, mom)
            ref_n = naive_lozo_step(oracle, ref, config, t, ref_n)
            assert np.array_equal(x.layers[0], ref.layers[0]), f"x differs after step {t}"
            for f, g in zip(mom.n_factors if mom else [], ref_n or []):
                assert np.array_equal(f, g), f"momentum differs after step {t}"

    @pytest.mark.parametrize("resume_at", [5, 7])  # a boundary, and inside a period
    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_state_from_seeds_alone_resumes_bitwise(self, algo, resume_at):
        # every seed derives from t, so LozoState(t=k) is a complete checkpoint of the lazy state
        oracle, config, x, mom = self._setup(algo, SamplerKind.HAAR_SCALED)
        state = LozoState()
        for _ in range(resume_at):
            lozo_step(x, state, oracle, config, mom)
        resumed_x = x.copy()
        resumed_mom = MomentumState([f.copy() for f in mom.n_factors], mom.beta) if mom else None
        resumed = LozoState(t=resume_at)
        assert resumed.v_cache is None and resumed == state
        for _ in range(8):
            lozo_step(x, state, oracle, config, mom)
            lozo_step(resumed_x, resumed, oracle, config, resumed_mom)
        assert np.array_equal(x.layers[0], resumed_x.layers[0])
        for f, g in zip(mom.n_factors if mom else [], resumed_mom.n_factors if mom else []):
            assert np.array_equal(f, g)

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_one_v_draw_per_layer_per_period(self, algo, monkeypatch):
        calls = {"n": 0}

        def counting(*args):
            calls["n"] += 1
            return sample_v(*args)

        monkeypatch.setattr(optimizers, "sample_v", counting)
        shapes = [LayerShape(6, 5, 2), LayerShape(4, 6, 3)]
        oracle = make_quadratic(shapes, data_seed=53, noise_scale=0.2, num_samples=3)
        config = OptimizerConfig(alpha=1e-2, total_steps=12, base_seed=54, nu=4, v_kind=SamplerKind.HAAR_SCALED)
        x = ParamSet.zeros(shapes)
        mom = MomentumState.zeros(shapes, config.beta) if algo == "lozo-m" else None
        state = LozoState()
        periods = 3
        for _ in range(periods * config.nu):
            lozo_step(x, state, oracle, config, mom)
        assert calls["n"] == len(shapes) * periods

    @pytest.mark.parametrize("kind", list(SamplerKind))
    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_every_pass_hands_dgemm_the_cached_v_in_fortran_order(self, algo, kind, monkeypatch):
        # V is drawn in the layout dgemm reads, so no pass copies it
        seen = []
        real = estimators.dgemm

        def recording(*args):
            seen.append(args[1])
            return real(*args)

        monkeypatch.setattr(estimators, "dgemm", recording)
        oracle, config, x, mom = self._setup(algo, kind)
        state = LozoState()
        for _ in range(7):  # crosses the boundary at t = 5
            seen.clear()
            lozo_step(x, state, oracle, config, mom)
            assert len(seen) == 3 * len(self.shapes)
            for i, v in enumerate(seen):
                assert v.flags.f_contiguous and np.shares_memory(v, state.v_cache.vs[i % len(self.shapes)])

    def test_u_seed_prefixes_are_one_list_across_boundaries(self, monkeypatch):
        derived = []

        def recording(*words):
            derived.append(words)
            return derive_seed(*words)

        oracle, config, x, _ = self._setup("lozo", SamplerKind.HAAR_SCALED)
        state = LozoState()
        lozo_step(x, state, oracle, config)
        keys = optimizers._keys(config.base_seed, STREAM_U, len(x))
        monkeypatch.setattr(optimizers, "derive_seed", recording)
        for _ in range(11):  # boundaries at t = 5 and 10
            lozo_step(x, state, oracle, config)
        assert state.v_cache.period == 2
        # the boundaries derive V's seeds, and no STREAM_U prefix
        assert [w[1] for w in derived] == [STREAM_V] * 2 * len(x)
        assert optimizers._keys(config.base_seed, STREAM_U, len(x)) is keys
        assert keys == tuple(derive_seed(config.base_seed, STREAM_U, i) for i in range(len(x)))

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_a_cached_period_keys_on_x_shapes_itself(self, algo):
        # the key held a list copy of x.shapes; the tuple cannot change under it
        oracle, config, x, mom = self._setup(algo, SamplerKind.STANDARD_NORMAL)
        state = LozoState()
        for _ in range(2):
            lozo_step(x, state, oracle, config, mom)
            assert state.v_cache.key == (config.base_seed, config.v_kind, x.shapes)
            assert state.v_cache.key[2] is x.shapes

    def test_period_holds_only_what_a_step_reads(self):
        # no Gram matrices and no seed prefixes: run's est_norm forms V^T V from the cached V at each record,
        # and a step reuses vs only under the key they were drawn under
        assert optimizers.Period._fields == ("period", "key", "vs")

    @pytest.mark.parametrize("t", [1, 4], ids=["same-period", "boundary"])
    @pytest.mark.parametrize(
        "change", [{"base_seed": 2}, {"v_kind": SamplerKind.HAAR_SCALED}], ids=["base-seed", "sampler"]
    )
    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_a_period_drawn_under_another_config_is_drawn_afresh(self, algo, change, t):
        # base seed 2's U was drawn against base seed 1's cached V, with no error; at the boundary t = 4,
        # lozo-m's projection read the other config's period 0 as its old V
        oracle, config, x, mom = self._setup(algo, SamplerKind.STANDARD_NORMAL, nu=4)
        first = replace(config, base_seed=1)
        second = replace(first, **change)
        state = LozoState(t=t - 1)
        lozo_step(x, state, oracle, first, mom)
        fresh_x, fresh_state = x.copy(), LozoState(t=t)
        fresh_mom = MomentumState([f.copy() for f in mom.n_factors], mom.beta) if mom else None
        lozo_step(x, state, oracle, second, mom)
        lozo_step(fresh_x, fresh_state, oracle, second, fresh_mom)
        v = sample_v(derive_seed(second.base_seed, STREAM_V, 0, t // 4), 5, 2, second.v_kind)
        assert state.v_cache.vs[0].tobytes() == v.tobytes()
        assert x.layers[0].tobytes() == fresh_x.layers[0].tobytes()
        for f, g in zip(mom.n_factors if mom else [], fresh_mom.n_factors if mom else []):
            assert f.tobytes() == g.tobytes()

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_a_period_drawn_for_other_layer_shapes_is_drawn_afresh(self, algo):
        # on a ParamSet whose layer 1 is 4 x 7, layer 1's cached 5 x 2 V made dgemm raise an unnamed
        # ValueError after the +eps pass had moved layer 0, with t unchanged
        first, second = [LayerShape(6, 5, 2), LayerShape(4, 5, 2)], [LayerShape(6, 5, 2), LayerShape(4, 7, 2)]
        config = OptimizerConfig(alpha=2e-2, total_steps=2, base_seed=51, nu=4)
        mom = MomentumState.zeros(first, config.beta) if algo == "lozo-m" else None
        state = LozoState()
        lozo_step(ParamSet.zeros(first), state, make_quadratic(first, data_seed=50, num_samples=3), config, mom)
        oracle = make_quadratic(second, data_seed=50, noise_scale=0.2, num_samples=3)
        x = ParamSet([sample_gaussian(derive_seed(52, i), s.m, s.n) for i, s in enumerate(second)], second)
        fresh_x, fresh_state = x.copy(), LozoState(t=1)
        fresh_mom = MomentumState([f.copy() for f in mom.n_factors], mom.beta) if mom else None
        lozo_step(x, state, oracle, config, mom)
        lozo_step(fresh_x, fresh_state, oracle, config, fresh_mom)
        assert state.t == fresh_state.t == 2
        for a, b in zip(x.layers + state.v_cache.vs, fresh_x.layers + fresh_state.v_cache.vs):
            assert a.tobytes() == b.tobytes()
        for f, g in zip(mom.n_factors if mom else [], fresh_mom.n_factors if mom else []):
            assert f.tobytes() == g.tobytes()

    def test_vanilla_draws_v_every_step(self, monkeypatch):
        calls = {"n": 0}

        def counting(*args):
            calls["n"] += 1
            return sample_v(*args)

        monkeypatch.setattr(optimizers, "sample_v", counting)
        oracle, config, x, _ = self._setup("lozo", SamplerKind.HAAR_SCALED)
        for t in range(6):
            vanilla_lge_step(x, oracle, config, t)
        assert calls["n"] == len(self.shapes) * 6


class TestSeedPrefixMemo:
    """U's and Z's per-layer seed prefixes come from one memo, keyed by base seed, stream and layer count."""

    shapes = [LayerShape(4, 3, 2), LayerShape(2, 4, 1)]
    seeds = (6, 2**64 - 1)  # each base seed runs a lozo and a zo-sgd config, so only the stream tells them apart

    def _step_alternately(self, monkeypatch):
        """Step a lozo and a zo-sgd config per base seed in turn, at t = 0, 1, nu and 2**40; return each U or Z."""
        probed = []

        def recording(x, operands, scale):
            probed.append([ut.T.copy() for _, ut, _ in operands])
            return add_low_rank(x, operands, scale)

        monkeypatch.setattr(optimizers, "add_low_rank", recording)
        oracle = make_quadratic(self.shapes, data_seed=3, noise_scale=0.2, num_samples=3)
        x = ParamSet([sample_gaussian(4 + i, s.m, s.n) for i, s in enumerate(self.shapes)], self.shapes)
        states = {seed: LozoState() for seed in self.seeds}
        draws = []
        for t in (0, 1, 3, 2**40):
            for seed in self.seeds:
                config = OptimizerConfig(alpha=1e-3, total_steps=1, base_seed=seed, nu=3)
                probed.clear()
                states[seed].t = t
                lozo_step(x, states[seed], oracle, config)
                draws.append(("lozo", seed, t, probed[0]))  # the +eps probe's U_l
                _, zs = zo_sgd_step(x, oracle, config, t)
                draws.append(("zo-sgd", seed, t, zs))
        return draws

    def test_each_step_draws_its_own_streams_seeds(self, monkeypatch):
        for algo, seed, t, dirs in self._step_alternately(monkeypatch):
            stream = STREAM_U if algo == "lozo" else STREAM_Z
            assert len(dirs) == len(self.shapes)
            for i, (d, s) in enumerate(zip(dirs, self.shapes)):
                expected = sample_gaussian(derive_seed(seed, stream, i, t), s.m, s.r if algo == "lozo" else s.n)
                assert d.tobytes() == expected.tobytes(), f"{algo}, base seed {seed}, layer {i}, t {t}"

    def test_draws_are_byte_equal_after_the_memo_is_flushed(self, monkeypatch):
        first = self._step_alternately(monkeypatch)
        for seed in range(100, 165):  # 65 distinct keys evict every entry of the 64-entry memo
            optimizers._keys(seed, STREAM_U, 1)
        misses = optimizers._keys.cache_info().misses
        again = self._step_alternately(monkeypatch)
        assert optimizers._keys.cache_info().misses == misses + 2 * len(self.seeds)  # each prefix derived afresh, once
        assert [(a, s, t, [d.tobytes() for d in ds]) for a, s, t, ds in again] == [
            (a, s, t, [d.tobytes() for d in ds]) for a, s, t, ds in first
        ]


class TestFoldedStep:
    """A step is +eps, -2eps and one pass that restores and updates at once."""

    @pytest.mark.parametrize("step", [lozo_step, zo_sgd_step], ids=lambda f: f.__name__)
    def test_step_allocates_no_cells(self, step):
        # a local that a comprehension in the step reads would become a cell, allocated on every call
        assert step.__code__.co_cellvars == ()

    shapes = [LayerShape(6, 5, 2), LayerShape(4, 6, 3)]

    def _setup(self, algo, kind=SamplerKind.STANDARD_NORMAL):
        oracle = make_quadratic(self.shapes, data_seed=80, noise_scale=0.2, num_samples=3)
        config = OptimizerConfig(alpha=2e-2, total_steps=17, base_seed=81, nu=5, v_kind=kind)
        x = ParamSet([sample_gaussian(derive_seed(82, i), s.m, s.n) for i, s in enumerate(self.shapes)], self.shapes)
        mom = MomentumState.zeros(self.shapes, config.beta) if algo == "lozo-m" else None
        return oracle, config, x, mom

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_est_norm_uses_this_periods_v(self, algo):
        # est_norm does not feed x, so only this catches a stale cached V^T V; normal V differ per period
        oracle, config, x0, mom = self._setup(algo)
        # replay run's steps for each step's c and momentum; boundaries at 0, 5, 10 and 15
        expected = {}
        x, state = x0.copy(), LozoState()
        for t in range(config.total_steps):
            c, _ = lozo_step(x, state, oracle, config, mom)
            sq = 0.0
            for i, s in enumerate(self.shapes):
                u = sample_gaussian(derive_seed(config.base_seed, STREAM_U, i, t), s.m, s.r)
                v = sample_v(derive_seed(config.base_seed, STREAM_V, i, t // config.nu), s.n, s.r, config.v_kind)
                left = mom.n_factors[i] if mom else u
                sq += (frobenius_norm(left @ v.T) / s.r) ** 2
            gain = 1.0 if mom else c
            expected[t + 1] = abs(gain) * np.sqrt(sq)
        last = config.total_steps - 1
        for eval_every in (1, 3):
            records = run(oracle, x0.copy(), config, algo, eval_every=eval_every)
            assert [r.step for r in records] == [t + 1 for t in range(last + 1) if t % eval_every == 0 or t == last]
            for r in records:
                assert r.est_norm == pytest.approx(expected[r.step], rel=1e-12, abs=0.0), f"step {r.step}"

    def test_zo_sgd_est_norm_is_the_records_own_z(self):
        # zo_sgd_step hands its Z back and run sums ||Z||^2 at a record: the value is |c| ||Z||_F of that
        # record's step, with Z regenerated from its seed and summed in the same order
        oracle, config, x0, _ = self._setup("zo-sgd")
        last = config.total_steps - 1
        for eval_every in (1, 3):
            records = run(oracle, x0.copy(), config, "zo-sgd", eval_every=eval_every)
            assert [r.step for r in records] == [t + 1 for t in range(last + 1) if t % eval_every == 0 or t == last]
            for r in records:
                sq = 0.0
                for i, s in enumerate(self.shapes):
                    z = sample_gaussian(derive_seed(config.base_seed, STREAM_Z, i, r.step - 1), s.m, s.n)
                    sq += float(np.einsum("ij,ij->", z, z))
                assert r.est_norm == r.fd_scalar_abs * np.sqrt(sq), f"step {r.step}"

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_est_norm_is_computed_only_at_records(self, algo, monkeypatch):
        calls = {"n": 0}
        real = optimizers._low_rank_norm

        def counting(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(optimizers, "_low_rank_norm", counting)
        oracle, config, x, mom = self._setup(algo)
        state = LozoState()
        for _ in range(config.total_steps):
            c, _ = lozo_step(x, state, oracle, config, mom)
            assert isinstance(c, float)
        assert calls["n"] == 0
        records = run(oracle, x, config, algo, eval_every=3)
        assert len(records) == 7  # t = 0, 3, ..., 15 and the last step, t = 16
        assert calls["n"] == len(records)

    @pytest.mark.parametrize("algo", ["lozo", "lozo-m"])
    def test_a_record_redraws_nothing(self, algo, monkeypatch):
        # a record reads the factors its step returned, so with a record at every step across the
        # boundaries at t = 5 and 10, U is drawn once per layer per step and V once per layer per period
        calls = {"sample_gaussian": 0, "sample_v": 0}

        def counting(name):
            real = getattr(optimizers, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(optimizers, name, counting(name))
        oracle, config, x, _ = self._setup(algo)
        records = run(oracle, x, replace(config, total_steps=12), algo, eval_every=1)
        assert len(records) == 12
        assert calls == {"sample_gaussian": len(self.shapes) * 12, "sample_v": len(self.shapes) * 3}

    @staticmethod
    def _step(algo, x, state, oracle, config, mom):
        """One step of algo at state.t; a step that succeeds advances state.t."""
        if algo == "zo-sgd":
            c, _ = zo_sgd_step(x, oracle, config, state.t)
            state.t += 1
            return c
        return lozo_step(x, state, oracle, config, mom)[0]

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_layer_swapped_by_the_oracle_changes_no_byte(self, algo):
        # evaluate rebinds layer 0 to a Fortran-ordered copy, which add_low_rank rejects;
        # every pass still lands on the arrays x held when the probe began
        oracle, config, x, mom = self._setup(algo)

        def evaluate(p, xi):
            p.layers[0] = np.asfortranarray(p.layers[0])
            return oracle.evaluate(p, xi)

        swapping = LossOracle("swapping", oracle.num_samples, evaluate)
        y, layers = x.copy(), x.layers[:]
        mom_y = MomentumState.zeros(self.shapes, config.beta) if mom else None
        state_x, state_y = LozoState(), LozoState()
        for _ in range(7):  # crosses the boundary at t = 5
            c_x = self._step(algo, x, state_x, swapping, config, mom)
            assert c_x == self._step(algo, y, state_y, oracle, config, mom_y)
        assert all(a is b for a, b in zip(x.layers, layers))
        for a, b in zip(x.layers, y.layers):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("copy", [np.asfortranarray, np.copy], ids=["fortran-copy", "c-copy"])
    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_oracle_that_rebinds_a_layer_then_fails_leaves_the_callers_arrays(self, algo, copy):
        oracle, config, x, mom = self._setup(algo)
        calls = {"n": 0}

        def evaluate(p, xi):
            calls["n"] += 1
            p.layers[0] = copy(p.layers[0])
            return oracle.evaluate(p, xi) if calls["n"] == 1 else float("nan")

        rebinding = LossOracle("rebinding", oracle.num_samples, evaluate)
        before, layers = x.copy(), x.layers[:]
        with pytest.raises(StepError):
            self._step(algo, x, LozoState(), rebinding, config, mom)
        assert all(a is b for a, b in zip(x.layers, layers))
        for a, b in zip(x.layers, before.layers):
            assert frobenius_norm(a - b) <= 1e-12 * (1.0 + before.norm())

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_successful_step_makes_three_parameter_passes(self, algo, monkeypatch):
        passes = []

        def counted(name):
            real = getattr(optimizers, name)

            def add(*args):
                passes.append(name)
                return real(*args)

            return add

        for name in ("add_low_rank", "add_dense"):
            monkeypatch.setattr(optimizers, name, counted(name))
        oracle, config, x, mom = self._setup(algo)
        state = LozoState()
        steps = 7  # crosses the boundary at t = 5
        for _ in range(steps):
            self._step(algo, x, state, oracle, config, mom)
        assert passes == ["add_dense" if algo == "zo-sgd" else "add_low_rank"] * (3 * steps)
