"""Reference subspace method used as an independent oracle in tests.

Alternates nu inner zeroth-order steps on a small factor B inside a fixed
row subspace V with an outer fold X <- X + B V^T. The inner estimator and
update arithmetic are written independently of the main optimizer module;
only the seed streams are shared, so trajectory comparisons between the two
are meaningful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .linalg import Matrix, ParamSet
from .optimizers import OptimizerConfig, sample_index
from .sampling import STREAM_U, STREAM_V, derive_seed, sample_gaussian, sample_v

GRAM_CONDITION_LIMIT = 1e12


@dataclass
class SubspaceState:
    """Outer iterate, per-layer inner factors B (reset each period), counters."""

    x_tilde: ParamSet
    b_factors: list[Matrix]
    alpha: float
    k: int = 0
    s: int = 0

    @classmethod
    def fresh(cls, x0: ParamSet, alpha: float) -> "SubspaceState":
        return cls(
            x_tilde=x0.copy(),
            b_factors=[np.zeros((sh.m, sh.r)) for sh in x0.shapes],
            alpha=alpha,
        )


def _shifted(state: SubspaceState, v_mats: list[Matrix], u_mats: list[Matrix], eps: float) -> ParamSet:
    """X_tilde + (B + eps U) V^T as a fresh parameter set."""
    layers = [
        xt + (b + eps * u) @ v.T
        for xt, b, u, v in zip(state.x_tilde.layers, state.b_factors, u_mats, v_mats)
    ]
    return ParamSet(layers, state.x_tilde.shapes)


def subspace_inner_step(
    state: SubspaceState,
    v_mats: list[Matrix],
    loss,
    epsilon: float,
    xi: int,
    u_seeds,
) -> float:
    """B <- B - gamma * c * U with gamma = alpha / r, one central difference.

    U is regenerated from the given seeds so the step consumes exactly the
    randomness the optimizer under test would.
    """
    u_mats = [
        sample_gaussian(seed, sh.m, sh.r) for seed, sh in zip(u_seeds, state.x_tilde.shapes)
    ]
    f_plus = loss.evaluate(_shifted(state, v_mats, u_mats, epsilon), xi)
    f_minus = loss.evaluate(_shifted(state, v_mats, u_mats, -epsilon), xi)
    if not np.isfinite(f_plus) or not np.isfinite(f_minus):
        raise RuntimeError(f"non-finite loss in subspace inner step: F+={f_plus}, F-={f_minus}")
    c = (f_plus - f_minus) / (2.0 * epsilon)
    for i, sh in enumerate(state.x_tilde.shapes):
        state.b_factors[i] = state.b_factors[i] - (state.alpha / sh.r) * c * u_mats[i]
    state.s += 1
    return c


def subspace_outer_step(state: SubspaceState, v_mats: list[Matrix]) -> None:
    """Fold the inner solution back: X_tilde += B V^T, reset B, advance period."""
    for xt, b, v in zip(state.x_tilde.layers, state.b_factors, v_mats):
        xt += b @ v.T
    state.b_factors = [np.zeros_like(b) for b in state.b_factors]
    state.k += 1
    state.s = 0


def run_subspace_method(loss, x0: ParamSet, config: OptimizerConfig, num_periods: int) -> list[ParamSet]:
    """Run the oracle for num_periods periods of nu inner steps each.

    Seed streams and the sample schedule match the main optimizer exactly:
    V is keyed by (layer, period), U by (layer, global step). Returns the
    outer iterates [X^(0), X^(1), ..., X^(num_periods)].
    """
    shapes = x0.shapes
    state = SubspaceState.fresh(ParamSet([a.copy() for a in x0.layers], shapes), config.alpha)
    snapshots = [state.x_tilde.copy()]
    for k in range(num_periods):
        v_mats = [
            sample_v(derive_seed(config.base_seed, STREAM_V, i, k), sh.n, sh.r, config.v_kind)
            for i, sh in enumerate(shapes)
        ]
        for s in range(config.nu):
            t = k * config.nu + s
            u_seeds = [derive_seed(config.base_seed, STREAM_U, i, t) for i in range(len(shapes))]
            subspace_inner_step(state, v_mats, loss, config.epsilon, sample_index(t, loss.num_samples), u_seeds)
        subspace_outer_step(state, v_mats)
        snapshots.append(state.x_tilde.copy())
    return snapshots


def least_squares_projection(n_factor: Matrix, v_old: Matrix, v_new: Matrix) -> Matrix:
    """argmin over N of ||N_old V_old^T - N V_new^T||_F by normal equations.

    Solves N (V_new^T V_new) = N_old (V_old^T V_new) with a direct Cholesky
    factorization of the r x r Gram matrix; falls back to the minimum-norm
    pseudo-inverse solution (with a warning) when the Gram matrix is
    numerically singular. No orthogonality of V is assumed.
    """
    rhs = n_factor @ (v_old.T @ v_new)
    gram = v_new.T @ v_new
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > GRAM_CONDITION_LIMIT:
        warnings.warn(
            f"V_new^T V_new is near-singular (cond={cond:.3e}); returning the minimum-norm solution",
            RuntimeWarning,
            stacklevel=2,
        )
        return rhs @ np.linalg.pinv(gram)
    return cho_solve(cho_factor(gram, lower=True), rhs.T).T
