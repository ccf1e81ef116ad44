"""ZO-SGD, the low-rank lazy-subspace optimizer, and its momentum variant.

All three optimizers run on the perturbation core of the estimators module.
A step regenerates its directions P from seeds and takes one central
difference (two loss evaluations), which on success leaves X at X - eps P.
One more pass with the same add_low_rank / add_dense helpers then adds
eps P back and applies the update at once, so a step makes three passes over
X: +eps, -2eps, and the folded restore and update. If an evaluation raises or
returns a non-finite loss, the central difference restores X, the step
raises StepError and commits nothing: its V cache, momentum factors and
counter stay as they were.

lozo_step is the one low-rank step body. The momentum variant only adds an
m x r factor per layer, projected onto the new subspace at each resample
boundary after a successful probe, and the plain low-rank recursion is a
lozo step at nu = 1 started from t. Every seed is a function of the step
counter t: U and Z are keyed by (layer, t), and V by (layer, t // nu), the
outer index of the subspace method. lozo_step draws U and builds the dgemm
operands of its three passes once, in one loop over the layers. V changes
only at a boundary, so each period's V matrices are drawn once and cached in
LozoState, in the Fortran order dgemm reads (project_momentum forms its
product from C-ordered copies, whose bytes do not depend on that choice);
that cache holds only V, with the base seed, sampler and layer shapes it was
drawn under (x.shapes itself, an immutable tuple), and a step reuses it
only under the same ones. U and Z are drawn every step from per-layer seed
prefixes that no step or period changes: one memo, _keys, derives them once
per base seed, stream and layer count. Each step returns c and what it
drew: zo_sgd_step its Z_l, lozo_step the left factors L_l of its direction
L_l V_l^T (lozo's own U_l, lozo-m's new N_l). run forms est_norm from them
only at a record, so no step does telemetry work and no record redraws.
The rank of layer l is x.shapes[l].r, nowhere else. Persistent optimizer
state is the counter t plus the momentum factors: the period cache is
derived state, rebuilt from t when absent or stale, and is not counted by
state_footprint. Trajectories are pure functions of (X0, config, base_seed,
loss).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .estimators import DEFAULT_EPSILON, EvaluationError, _central_difference, add_dense, add_low_rank
from .linalg import LayerShape, ParamSet, as_float, as_int, layer_shapes
from .sampling import (
    GAMMA,
    STREAM_U,
    STREAM_V,
    STREAM_Z,
    SamplerKind,
    Seed,
    as_seed,
    derive_seed,
    sample_gaussian,
    sample_v,
    splitmix64,
)

ALGORITHMS = ("zo-sgd", "lozo", "lozo-m")


class StepError(RuntimeError):
    """An optimizer step failed; the parameters were restored first."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class OptimizerConfig:
    alpha: float
    total_steps: int
    base_seed: Seed = 0
    epsilon: float = DEFAULT_EPSILON
    nu: int = 50
    beta: float = 0.9
    v_kind: SamplerKind = SamplerKind.STANDARD_NORMAL

    def __post_init__(self):
        for name in ("total_steps", "nu"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "base_seed", as_seed("base_seed", self.base_seed))
        for name in ("alpha", "epsilon", "beta"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        if not isinstance(self.v_kind, SamplerKind):
            raise TypeError(f"v_kind must be a SamplerKind, got {self.v_kind!r}")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.nu < 1:
            raise ValueError("nu must be at least 1")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("beta must lie in [0, 1)")
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")

    def effective_shapes(self, x: ParamSet) -> list[LayerShape]:
        """x.shapes, ranks included; perfbench/harness.py is the last caller until ROADMAP J, and K deletes it."""
        return list(x.shapes)


class Period(NamedTuple):
    """One period's V matrices, drawn once at its boundary, and what they were drawn under.

    Only what a step reads: a step reuses vs only for the same period and an
    equal key, and run's est_norm forms V_l^T V_l from vs at each record.
    U's seed prefixes, which no period changes, are in the _keys memo.
    """

    period: int
    key: tuple  # (base_seed, v_kind, x.shapes) that vs were drawn under
    vs: list[np.ndarray]  # V_l, n_l x r_l, in Fortran order


@dataclass
class LozoState:
    """Step counter of the lazy optimizer, and the current period's cache.

    t is the whole persistent state: the V seeds of layer l are
    derive_seed(base_seed, STREAM_V, l, t // nu), so LozoState(t=k) resumes a
    run at step k bit for bit. v_cache is derived state, a Period holding
    only V; a step rebuilds it from t when it holds another period, or V
    drawn under another base seed, sampler or set of layer shapes. U's seed
    prefixes are not state: _keys memoizes them.
    """

    t: int = 0
    v_cache: Optional[Period] = field(default=None, repr=False, compare=False)


@dataclass
class MomentumState:
    """Low-rank momentum factors N_l (m_l x r_l); never a full m x n matrix."""

    n_factors: list[np.ndarray]
    beta: float

    @classmethod
    def zeros(cls, shapes: Sequence[LayerShape], beta: float) -> "MomentumState":
        return cls([np.zeros((s.m, s.r)) for s in layer_shapes(shapes)], beta)


@dataclass(frozen=True)
class RunRecord:
    """One telemetry row of a run."""

    step: int
    loss: float
    fd_scalar_abs: float
    est_norm: float
    wall_ms: float


def sample_index(t: int, num_samples: int) -> int:
    """Deterministic round-robin schedule over the finite sample set."""
    return t % num_samples


@functools.lru_cache(maxsize=64)
def _keys(base_seed: Seed, stream: int, num_layers: int) -> tuple[Seed, ...]:
    """derive_seed(base_seed, stream, l) per layer; layer l's seed at step t is derive_seed(key, t).

    The seed prefixes of U (STREAM_U) and Z (STREAM_Z), which no step or period changes. Memoized, since a
    step keeps no state for them; the value is a pure function of its arguments.
    """
    return tuple(derive_seed(base_seed, stream, i) for i in range(num_layers))


def zo_sgd_step(x: ParamSet, loss, config: OptimizerConfig, t: int) -> tuple[float, list[np.ndarray]]:
    """MeZO-style step: RGE along a seeded full-size Gaussian Z, seed replay.

    Z is regenerated from (base_seed, layer, t); only seeds persist. After
    the probe, one pass with scale eps - alpha c restores X and moves it by
    -alpha c Z. Returns the finite-difference scalar c and the step's Z_l,
    from which run forms est_norm at a record; a caller that keeps no
    record drops them.
    """
    # plain loop, not a comprehension: a local a comprehension reads becomes a cell allocated on entry
    zs = []
    for key, a in zip(_keys(config.base_seed, STREAM_Z, len(x.layers)), x.layers):
        # Z_l's seed derive_seed(key, t), written as its one splitmix64 round
        zs.append(sample_gaussian(splitmix64(key + GAMMA + t), a.shape[0], a.shape[1]))
    try:  # sample index t % num_samples: sample_index's round-robin schedule
        c = _central_difference(loss, x, t % loss.num_samples, config.epsilon, add_dense, zs)
    except EvaluationError as e:
        raise StepError(f"zo-sgd step {t} aborted: {e}", step=t) from e
    add_dense(x, zs, config.epsilon - config.alpha * c)
    return c, zs


def _period(config: OptimizerConfig, x: ParamSet, period: int, cache: Optional[Period]) -> Period:
    """Period `period`'s V_l, keyed by (layer, period): cache if it was drawn for that period under config's base
    seed and sampler and x's layer shapes, else drawn afresh."""
    key = (config.base_seed, config.v_kind, x.shapes)
    if cache is not None and cache.period == period and cache.key == key:
        return cache
    vs = [
        sample_v(derive_seed(config.base_seed, STREAM_V, i, period), s.n, s.r, config.v_kind)
        for i, s in enumerate(x.shapes)
    ]
    return Period(period, key, vs)


def lozo_step(
    x: ParamSet, state: LozoState, loss, config: OptimizerConfig, mom: Optional[MomentumState] = None
) -> tuple[float, list[np.ndarray]]:
    """One lazy-subspace step: V rotates only when t mod nu == 0, U is drawn every step.

    Layer l moves by -(alpha c / r_l) U_l V_l^T, or with mom by
    -(alpha / r_l) N_l V_l^T where N_l = beta N_l + (1 - beta) c U_l. The
    update pass also adds back the eps U_l V_l^T the probe left out: lozo
    scales U_l V_l^T by eps - alpha c / r_l, lozo-m adds W_l V_l^T with
    W_l = eps U_l - (alpha / r_l) N_l built in U_l's buffer. At a resample
    boundary after t = 0, lozo-m first projects its momentum factors from
    the old subspace onto the new one; this happens only after the central
    difference succeeds, so a failed step does no momentum work. The
    period's V is built once, at its boundary, and kept in state.v_cache;
    a step rebuilds it, and the old V it projects from, when the cache does
    not hold them (see _period). A mom whose factors do not match x's
    shapes, or whose beta is not config.beta, is rejected by name before
    anything is drawn. U_l is keyed by (layer, t); one list of operands
    (V_l, U_l^T, X_l^T), U_l^T and X_l^T as views, serves all three passes.
    Returns c and lefts, per layer the left factor L_l of the step's
    direction L_l V_l^T, V_l in state.v_cache.vs: lozo's own U_l, which its
    passes read, or lozo-m's new N_l (mom.n_factors). run forms est_norm
    from them at a record; a caller that keeps no record drops them.
    """
    t, shapes, cache = state.t, x.shapes, state.v_cache
    if mom is not None:  # a MomentumState belongs to one ParamSet and one config: check it before anything moves
        if mom.beta != config.beta:
            raise ValueError(f"momentum beta {mom.beta!r} does not match config.beta {config.beta!r}")
        n = len(mom.n_factors)
        if n != len(shapes):
            raise ValueError(f"momentum has {n} factors for {len(shapes)} layers: layer {min(n, len(shapes))} is unmatched")
        for i, (nf, s) in enumerate(zip(mom.n_factors, shapes)):
            if getattr(nf, "shape", None) != (s.m, s.r):
                got = getattr(nf, "shape", type(nf).__name__)
                raise ValueError(f"momentum factor of layer {i} must be a ({s.m}, {s.r}) array, got {got}")
    cur = _period(config, x, t // config.nu, cache)
    # the operands are built in the draw loop: a second walk over the layers costs about a twentieth of a 32 x 32 step
    operands, us = [], []
    for key, s, v, a in zip(_keys(config.base_seed, STREAM_U, len(x.layers)), shapes, cur.vs, x.layers):
        # U_l's seed derive_seed(key, t), written as its one splitmix64 round
        u = sample_gaussian(splitmix64(key + GAMMA + t), s.m, s.r)
        us.append(u)
        operands.append((v, u.T, a.T))
    try:  # sample index t % num_samples: sample_index's round-robin schedule
        c = _central_difference(loss, x, t % loss.num_samples, config.epsilon, add_low_rank, operands)
    except EvaluationError as e:
        raise StepError(f"{'low-rank' if mom is None else 'lozo-m'} step {t} aborted: {e}", step=t) from e
    # plain loops, not comprehensions: a local a comprehension reads becomes a cell allocated on entry
    eps, alpha = config.epsilon, config.alpha
    if mom is None:
        scales = []
        for s in shapes:
            scales.append(eps - alpha * c / s.r)
        add_low_rank(x, operands, scales)
        lefts = us
    else:
        n_factors = mom.n_factors
        if t > 0 and t % config.nu == 0:
            old = _period(config, x, cur.period - 1, cache)
            n_factors = [project_momentum(nf, vo, vn, s.n) for nf, s, vo, vn in zip(n_factors, shapes, old.vs, cur.vs)]
        lefts = []
        for nf, (_, ut, _), s in zip(n_factors, operands, shapes):
            left = mom.beta * nf + (1.0 - mom.beta) * c * ut.T
            lefts.append(left)
            # W_l^T = eps U_l^T - (alpha / r_l) N_l^T, entry for entry W_l's arithmetic, in U_l's buffer
            ut *= eps
            ut -= (alpha / s.r) * left.T
        add_low_rank(x, operands, 1.0)
        mom.n_factors = lefts
    state.v_cache, state.t = cur, t + 1
    return c, lefts


def vanilla_lge_step(x: ParamSet, loss, config: OptimizerConfig, t: int) -> tuple[float, list[np.ndarray]]:
    """Plain low-rank recursion, both factors fresh every step: a lazy step at nu = 1 resumed from t."""
    return lozo_step(x, LozoState(t=t), loss, replace(config, nu=1))


def project_momentum(n_factor: np.ndarray, v_old: np.ndarray, v_new: np.ndarray, n: int) -> np.ndarray:
    """Map momentum onto a resampled row subspace: N (V_old^T V_new) / n.

    This is the least-squares projection when V_new^T V_new = n I. OpenBLAS
    picks the kernel of V_old^T V_new by the operands' layout, and its bytes
    depend on it, so it is formed from C-ordered copies of the two V's.
    """
    return n_factor @ (np.ascontiguousarray(v_old).T @ np.ascontiguousarray(v_new)) / n


def lozo_m_step(
    x: ParamSet, state: LozoState, mom: MomentumState, loss, config: OptimizerConfig
) -> tuple[float, list[np.ndarray]]:
    """lozo_step with mom; perfbench/harness.py is the last caller until ROADMAP J, and K deletes it."""
    return lozo_step(x, state, loss, config, mom)


def _low_rank_norm(
    gain: float, lefts: Sequence[np.ndarray], vs: Sequence[np.ndarray], shapes: Sequence[LayerShape]
) -> float:
    """Norm of a low-rank step, |gain| sqrt(sum_l ||L_l V_l^T||_F^2 / r_l^2), from L_l^T L_l and V_l^T V_l.

    lefts are lozo_step's, with gain c for lozo's U_l and 1 for lozo-m's N_l; vs is its cached period's V_l.
    """
    sq = 0.0
    for s, left, v in zip(shapes, lefts, vs):
        sq += (math.sqrt(max(float(np.einsum("ij,ij->", left.T @ left, v.T @ v)), 0.0)) / s.r) ** 2
    return abs(gain) * math.sqrt(sq)


def _z_norm(c: float, zs: Sequence[np.ndarray]) -> float:
    """Norm of the zo-sgd step just taken, |c| ||Z||_F, its squares summed layer by layer."""
    sq = 0.0
    for z in zs:
        sq += float(np.einsum("ij,ij->", z, z))
    return abs(c) * math.sqrt(sq)


def run(loss, x: ParamSet, config: OptimizerConfig, algo: str, eval_every: int = 1) -> list[RunRecord]:
    """Execute total_steps optimizer steps on x in place, recording telemetry.

    A record is appended every eval_every steps (and at the final step); its
    loss field is the oracle's evaluation metric, the exact finite-sample
    average where the problem defines one. est_norm is computed only for
    these records, after the step's timed wall_ms, from what the step
    returned: zo-sgd's Z, or the low-rank step's left factors against the
    cached period's V. Those are dropped before the record's eval_metric and
    before the next step.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of {ALGORITHMS}")
    eval_every = as_int("eval_every", eval_every)
    if eval_every < 1:
        raise ValueError("eval_every must be at least 1")
    state = LozoState()
    mom = MomentumState.zeros(x.shapes, config.beta) if algo == "lozo-m" else None
    records: list[RunRecord] = []
    for t in range(config.total_steps):
        t0 = time.perf_counter()
        if algo == "zo-sgd":
            c, drawn = zo_sgd_step(x, loss, config, t)
        else:
            c, drawn = lozo_step(x, state, loss, config, mom)
        wall_ms = (time.perf_counter() - t0) * 1e3
        if t % eval_every == 0 or t == config.total_steps - 1:
            if algo == "zo-sgd":
                est_norm = _z_norm(c, drawn)
            else:
                est_norm = _low_rank_norm(c if mom is None else 1.0, drawn, state.v_cache.vs, x.shapes)
            drawn = None  # not held through eval_metric
            records.append(
                RunRecord(step=t + 1, loss=loss.eval_metric(x), fd_scalar_abs=abs(c), est_norm=est_norm, wall_ms=wall_ms)
            )
        drawn = None  # nor into the next step
    return records


def state_footprint(algo: str, shapes: Sequence[LayerShape]) -> int:
    """Optimizer-state element count beyond the parameters and seeds."""
    if algo in ("zo-sgd", "lozo"):
        return 0
    if algo == "lozo-m":
        return sum(s.m * s.r for s in shapes)
    raise ValueError(f"unknown algorithm {algo!r}")
