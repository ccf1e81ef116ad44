"""Subspace oracle: inner/outer steps, equivalence, projection optimality."""

import numpy as np
import pytest

from lozo.checks import subspace_equivalence
from lozo.linalg import LayerShape, ParamSet, frobenius_norm, numeric_rank
from lozo.optimizers import LozoState, OptimizerConfig, lozo_step, project_momentum
from lozo.problems import LossOracle, make_quadratic
from lozo.sampling import (
    STREAM_U,
    STREAM_V,
    SamplerKind,
    derive_seed,
    sample_gaussian,
    sample_v,
)
from lozo.subspace import (
    SubspaceState,
    least_squares_projection,
    subspace_inner_step,
    subspace_outer_step,
)

from oracles import lstsq_projection


def linear_oracle(c):
    return LossOracle("linear", 1, lambda x, xi: float(np.vdot(c, x.layers[0])))


class TestInnerStep:
    def test_zero_step_size_keeps_b(self):
        shapes = [LayerShape(5, 4, 2)]
        oracle = make_quadratic(shapes, data_seed=1, num_samples=2)
        state = SubspaceState.fresh(ParamSet.zeros(shapes), alpha=0.0)
        v_mats = [sample_v(3, 4, 2, SamplerKind.STANDARD_NORMAL)]
        subspace_inner_step(state, v_mats, oracle, 1e-3, 0, [7])
        np.testing.assert_array_equal(state.b_factors[0], np.zeros((5, 2)))

    def test_linear_loss_gradient_identity(self):
        c = sample_gaussian(1, 5, 4)
        oracle = linear_oracle(c)
        shapes = [LayerShape(5, 4, 2)]
        state = SubspaceState.fresh(ParamSet.zeros(shapes), alpha=0.02)
        v_mats = [sample_v(5, 4, 2, SamplerKind.STANDARD_NORMAL)]
        u = sample_gaussian(9, 5, 2)
        scalar = subspace_inner_step(state, v_mats, oracle, 1e-3, 0, [9])
        expected_c = float(np.vdot(c, u @ v_mats[0].T))
        assert scalar == pytest.approx(expected_c, rel=1e-9)
        np.testing.assert_allclose(state.b_factors[0], -(0.02 / 2) * expected_c * u, rtol=1e-9)

    def test_single_step_matches_lozo_implicit_b(self):
        # with shared seeds, X_lozo after one step equals X_tilde + B V^T
        shapes = [LayerShape(6, 5, 2)]
        oracle = make_quadratic(shapes, data_seed=2, noise_scale=0.1, num_samples=3)
        x0 = ParamSet([0.4 * sample_gaussian(3, 6, 5)], shapes)
        config = OptimizerConfig(alpha=8e-3, total_steps=1, base_seed=4, nu=10)
        x_lozo = x0.copy()
        lozo_step(x_lozo, LozoState(), oracle, config)

        state = SubspaceState.fresh(x0.copy(), alpha=config.alpha)
        v_mats = [sample_v(derive_seed(4, STREAM_V, 0, 0), 5, 2, config.v_kind)]
        u_seeds = [derive_seed(4, STREAM_U, 0, 0)]
        subspace_inner_step(state, v_mats, oracle, config.epsilon, 0, u_seeds)
        implied = state.x_tilde.layers[0] + state.b_factors[0] @ v_mats[0].T
        assert np.max(np.abs(implied - x_lozo.layers[0])) <= 1e-12


class TestOuterStep:
    def test_zero_b_keeps_x(self):
        shapes = [LayerShape(4, 4, 2)]
        state = SubspaceState.fresh(ParamSet([sample_gaussian(5, 4, 4)], shapes), alpha=1e-2)
        before = state.x_tilde.copy()
        v_mats = [sample_v(6, 4, 2, SamplerKind.STANDARD_NORMAL)]
        subspace_outer_step(state, v_mats)
        np.testing.assert_array_equal(state.x_tilde.layers[0], before.layers[0])
        assert state.k == 1 and state.s == 0

    def test_outer_update_is_low_rank(self):
        shapes = [LayerShape(8, 7, 2)]
        state = SubspaceState.fresh(ParamSet.zeros(shapes), alpha=1e-2)
        state.b_factors[0] = sample_gaussian(7, 8, 2)
        v_mats = [sample_v(8, 7, 2, SamplerKind.STANDARD_NORMAL)]
        subspace_outer_step(state, v_mats)
        assert numeric_rank(state.x_tilde.layers[0], 1e-10) <= 2


class TestEquivalence:
    @pytest.mark.parametrize("kind", list(SamplerKind))
    def test_period_boundaries_agree_for_all_samplers(self, kind):
        res = subspace_equivalence(seed=41, v_kind=kind)
        assert res.passed, res.line()

    def test_interior_iterates_match_implied_b(self):
        # Y(k, s) = X_tilde + B V^T tracks the lazy optimizer inside a period
        shapes = [LayerShape(10, 10, 2)]
        oracle = make_quadratic(shapes, data_seed=42, noise_scale=0.1, num_samples=4)
        x0 = ParamSet([0.3 * sample_gaussian(43, 10, 10)], shapes)
        config = OptimizerConfig(alpha=5e-3, total_steps=1, base_seed=44, nu=8)
        x_lozo = x0.copy()
        lozo_state = LozoState()
        state = SubspaceState.fresh(x0.copy(), alpha=config.alpha)
        v_mats = [sample_v(derive_seed(44, STREAM_V, 0, 0), 10, 2, config.v_kind)]
        for s in range(8):
            lozo_step(x_lozo, lozo_state, oracle, config)
            subspace_inner_step(state, v_mats, oracle, config.epsilon, s % 4, [derive_seed(44, STREAM_U, 0, s)])
            implied = state.x_tilde.layers[0] + state.b_factors[0] @ v_mats[0].T
            assert np.max(np.abs(implied - x_lozo.layers[0])) <= 1e-10


class TestLeastSquaresProjection:
    def test_identity_resample(self):
        v = sample_v(51, 12, 3, SamplerKind.STANDARD_NORMAL)
        n_factor = sample_gaussian(52, 5, 3)
        np.testing.assert_allclose(least_squares_projection(n_factor, v, v), n_factor, atol=1e-12)

    def test_zero_momentum(self):
        v_old = sample_v(53, 8, 2, SamplerKind.HAAR_SCALED)
        v_new = sample_v(54, 8, 2, SamplerKind.HAAR_SCALED)
        out = least_squares_projection(np.zeros((4, 2)), v_old, v_new)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_haar_matches_closed_form(self):
        for seed in range(8):
            v_old = sample_v(derive_seed(55, seed, 0), 16, 3, SamplerKind.HAAR_SCALED)
            v_new = sample_v(derive_seed(55, seed, 1), 16, 3, SamplerKind.HAAR_SCALED)
            n_factor = sample_gaussian(derive_seed(55, seed, 2), 6, 3)
            closed = project_momentum(n_factor, v_old, v_new, 16)
            exact = least_squares_projection(n_factor, v_old, v_new)
            assert np.max(np.abs(closed - exact)) <= 1e-10

    def test_matches_brute_force_for_general_v(self):
        # no orthogonality: Gaussian V, compare against row-wise lstsq
        for seed in range(8):
            v_old = sample_v(derive_seed(56, seed, 0), 12, 3, SamplerKind.STANDARD_NORMAL)
            v_new = sample_v(derive_seed(56, seed, 1), 12, 3, SamplerKind.STANDARD_NORMAL)
            n_factor = sample_gaussian(derive_seed(56, seed, 2), 5, 3)
            mine = least_squares_projection(n_factor, v_old, v_new)
            brute = lstsq_projection(n_factor, v_old, v_new)
            assert np.max(np.abs(mine - brute)) <= 1e-9

    def test_rank_deficient_flagged_minimum_norm(self):
        v_old = sample_v(57, 6, 2, SamplerKind.STANDARD_NORMAL)
        col = sample_gaussian(58, 6, 1)
        v_new = np.hstack([col, col])  # exactly singular Gram matrix
        n_factor = sample_gaussian(59, 4, 2)
        with pytest.warns(RuntimeWarning, match="near-singular"):
            out = least_squares_projection(n_factor, v_old, v_new)
        assert np.all(np.isfinite(out))
        brute = lstsq_projection(n_factor, v_old, v_new)  # lstsq returns the min-norm solution
        np.testing.assert_allclose(out, brute, atol=1e-9)

    def test_residual_first_order_optimality(self):
        v_old = sample_v(60, 16, 3, SamplerKind.STANDARD_NORMAL)
        v_new = sample_v(61, 16, 3, SamplerKind.STANDARD_NORMAL)
        n_factor = sample_gaussian(62, 6, 3)
        star = least_squares_projection(n_factor, v_old, v_new)
        base = frobenius_norm(n_factor @ v_old.T - star @ v_new.T)
        rng = np.random.default_rng(63)
        for _ in range(100):
            delta = rng.standard_normal(star.shape)
            delta *= 1e-3 / frobenius_norm(delta)
            perturbed = frobenius_norm(n_factor @ v_old.T - (star + delta) @ v_new.T)
            assert perturbed > base


class TestCoordinateMinimizationSanity:
    def test_exact_1d_minimization_converges(self):
        # separable quadratic: minimizing exactly along random coordinates
        # drives every touched coordinate to its optimum
        rng = np.random.default_rng(64)
        weights = rng.uniform(0.5, 3.0, size=12)
        target = rng.standard_normal(12)
        x = np.zeros(12)
        for step in range(400):
            i = int(rng.integers(0, 12))
            x[i] = target[i]  # argmin_b of w_i (x_i + b - a_i)^2 lands exactly on a_i
        f = float(np.sum(weights * (x - target) ** 2))
        assert f <= 1e-20
