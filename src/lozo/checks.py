"""Verification battery behind the CLI verify command: acceptance checks AC1-AC11.

Each check returns a CheckResult with the measured value and its threshold so
reports can show numbers, not just pass/fail. A check's defaults are its
acceptance sizes: `verify --level full` and the acceptance test suite call it
with no arguments. BATTERY lists the eleven checks once, in AC order, with
their smaller fast-level sizes, or None where the check is left out of the
fast level. AC1 and AC2 take each draw as one optimizers.lozo_step at alpha = 0
and nu = 1 and form its estimate (c / r_l) U_l V_l^T from the c and U_l that step
returns and the V_l it cached, so no draw is made twice; AC3 and AC5 drive lozo_step
too; AC10's RGE half forms c Z from one zo_sgd_step at alpha = 0; and the AC7
race runs through cli.compare_algorithms, the code path of `lozo-bench compare`,
which stops each run at its first hit.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import cli, estimators, optimizers, problems, subspace
from .linalg import LayerShape, ParamSet, frobenius_norm, numeric_rank
from .optimizers import LozoState, MomentumState, OptimizerConfig
from .sampling import SamplerKind, derive_seed, sample_gaussian, sample_v


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: measured={self.value:.6g} threshold={self.threshold:.6g}{extra}"


def _lozo_estimate(x: ParamSet, oracle, config: OptimizerConfig, t: int) -> list[np.ndarray]:
    """Take step t of config's lozo run on x, whose update pass at alpha = 0 only restores x.

    Returns the step's estimate (c / r_l) U_l V_l^T per layer, from the U_l the step returns and the V_l it cached."""
    state = LozoState(t=t)
    c, us = optimizers.lozo_step(x, state, oracle, config)
    return [(c / s.r) * (u @ v.T) for s, u, v in zip(x.shapes, us, state.v_cache.vs)]


def lge_unbiasedness(num_sketches: int = 100_000, shape: tuple[int, int] = (8, 6)) -> CheckResult:
    """Monte Carlo mean of the low-rank estimate vs the analytic gradient; draw i is lozo_step i of a nu = 1 run."""
    seed, rank = 2024, 2
    m, n = shape
    ls = LayerShape(m, n, rank)
    oracle = problems.make_quadratic(ls, data_seed=seed, noise_scale=0.0, num_samples=2)
    x = ParamSet([sample_gaussian(derive_seed(seed, 0xA), m, n)], [ls])
    truth = oracle.analytic_grad(x, 0).layers[0]
    config = OptimizerConfig(alpha=0.0, total_steps=num_sketches, base_seed=derive_seed(seed, 0xB), epsilon=1e-6, nu=1)
    acc = np.zeros((m, n))
    for i in range(num_sketches):
        acc += _lozo_estimate(x, oracle, config, i)[0]
    mean = (1.0 / num_sketches) * acc
    rel_err = frobenius_norm(mean - truth) / frobenius_norm(truth)
    threshold = max(0.05, 4.0 / math.sqrt(num_sketches))
    return CheckResult(
        "lge_unbiasedness",
        rel_err,
        threshold,
        rel_err <= threshold,
        f"{num_sketches} sketches on {m}x{n}, r={rank}",
    )


def _check_problems(seed: int) -> list:
    """Small instances of all four problem families, as (oracle, shapes) pairs."""
    quad = [LayerShape(8, 6, 2), LayerShape(5, 7, 3)]
    planted = [LayerShape(12, 10, 2)]
    logistic = [LayerShape(6, 8, 2)]
    mlp = [LayerShape(6, 5, 2), LayerShape(4, 6, 2)]
    return [
        (problems.make_quadratic(quad, seed, noise_scale=0.3, num_samples=4), quad),
        (problems.make_planted_low_rank(planted[0], 2, seed, noise_scale=1.0, num_batches=8), planted),
        (problems.make_logistic(logistic[0], seed, num_batches=4, batch_size=8), logistic),
        (problems.make_tiny_mlp(mlp, seed, num_batches=4, batch_size=8), mlp),
    ]


def _random_params_like(oracle_index: int, trial: int, seed: int, shapes) -> ParamSet:
    layers = [sample_gaussian(derive_seed(seed, oracle_index, trial, i), s.m, s.n) for i, s in enumerate(shapes)]
    return ParamSet(layers, shapes)


def lge_rank_bound(num_evals: int = 1000) -> CheckResult:
    """Every per-layer low-rank estimate, each lozo_step i of its own nu = 1 run, must have numeric rank <= its r."""
    seed, rel_tol = 77, 1e-10
    pool = _check_problems(seed)
    kinds = list(SamplerKind)
    violations = 0
    for i in range(num_evals):
        oi = i % len(pool)
        oracle, shapes = pool[oi]
        x = _random_params_like(oi, i, seed, shapes)
        kind = kinds[i % len(kinds)]
        config = OptimizerConfig(0.0, num_evals, derive_seed(seed, 0xC, i), epsilon=1e-5, nu=1, v_kind=kind)
        for g, s in zip(_lozo_estimate(x, oracle, config, i), shapes):
            if numeric_rank(g, rel_tol) > s.r:
                violations += 1
    return CheckResult(
        "lge_rank_bound", violations, 0, violations == 0, f"{num_evals} estimates, all problems and samplers"
    )


def lazy_accumulation_rank(nus: Sequence[int] = (10, 50), num_seeds: int = 5, periods: int = 4) -> CheckResult:
    """Within a period, accumulated updates must stay rank <= r per layer."""
    rel_tol = 1e-8
    shapes = [LayerShape(12, 10, 2), LayerShape(8, 9, 3)]
    violations = 0
    for nu in nus:
        for s in range(num_seeds):
            oracle = problems.make_quadratic(shapes, data_seed=100 + s, noise_scale=0.2, num_samples=6)
            x = _random_params_like(0, s, 55, shapes)
            config = OptimizerConfig(alpha=5e-3, total_steps=nu * periods, base_seed=derive_seed(9000, nu, s), nu=nu)
            snaps = lozo_snapshots(oracle, x, config, periods)
            for prev, cur in zip(snaps, snaps[1:]):
                for a, b, sh in zip(cur.layers, prev.layers, shapes):
                    if numeric_rank(a - b, rel_tol) > sh.r:
                        violations += 1
    return CheckResult(
        "lazy_accumulation_rank",
        violations,
        0,
        violations == 0,
        f"nu in {tuple(nus)}, {num_seeds} seeds, {periods} periods",
    )


def lozo_snapshots(loss, x: ParamSet, config: OptimizerConfig, num_periods: int) -> list[ParamSet]:
    """Run the lazy optimizer, returning iterates at every period boundary."""
    state = LozoState()
    snaps = [x.copy()]
    for t in range(num_periods * config.nu):
        optimizers.lozo_step(x, state, loss, config)
        if (t + 1) % config.nu == 0:
            snaps.append(x.copy())
    return snaps


def subspace_equivalence(seed: int = 31, v_kind: SamplerKind = SamplerKind.STANDARD_NORMAL) -> CheckResult:
    """Lazy optimizer vs the independent subspace oracle with shared seeds.

    With the oracle's inner step size alpha/r, the period-boundary iterates
    must agree to 1e-8 in max-abs.
    """
    nu, periods, size = 10, 5, 16
    shapes = [LayerShape(size, size, 2)]
    oracle = problems.make_quadratic(shapes, data_seed=seed, noise_scale=0.1, num_samples=5)
    x0 = ParamSet([0.5 * sample_gaussian(derive_seed(seed, 1), size, size)], shapes)
    config = OptimizerConfig(
        alpha=5e-3, total_steps=nu * periods, base_seed=derive_seed(seed, 2), nu=nu, v_kind=v_kind
    )
    lozo_iterates = lozo_snapshots(oracle, x0.copy(), config, periods)
    oracle_iterates = subspace.run_subspace_method(oracle, x0, config, periods)
    worst = 0.0
    for a, b in zip(lozo_iterates, oracle_iterates):
        for la, lb in zip(a.layers, b.layers):
            worst = max(worst, float(np.max(np.abs(la - lb))))
    return CheckResult(
        "lozo_subspace_equivalence", worst, 1e-8, worst <= 1e-8, f"{size}x{size}, nu={nu}, {periods} periods"
    )


def momentum_projection_agreement(trials: int = 100) -> CheckResult:
    """Closed-form projection vs the normal-equations oracle, exact samplers."""
    seed = 404
    worst = 0.0
    kinds = [SamplerKind.HAAR_SCALED, SamplerKind.RANDOM_COORDINATE]
    for i in range(trials):
        gen = np.random.Generator(np.random.Philox(key=derive_seed(seed, i)))
        n = int(gen.integers(4, 65))
        r = int(gen.integers(1, min(8, n) + 1))
        m = int(gen.integers(2, 33))
        kind = kinds[i % 2]
        v_old = sample_v(derive_seed(seed, i, 1), n, r, kind)
        v_new = sample_v(derive_seed(seed, i, 2), n, r, kind)
        nf = gen.standard_normal((m, r))
        closed = optimizers.project_momentum(nf, v_old, v_new, n)
        exact = subspace.least_squares_projection(nf, v_old, v_new)
        worst = max(worst, float(np.max(np.abs(closed - exact))))
    return CheckResult(
        "momentum_projection", worst, 1e-10, worst <= 1e-10, f"{trials} trials, n<=64 r<=8, exact samplers"
    )


def perturb_restore_drift(num_calls: int = 10_000) -> CheckResult:
    """After each probe of a lozo step, X must return to within 1e-12 * (1 + ||X||).

    Each call is one optimizer step with alpha = 0. The step's last pass adds
    back the eps U V^T its probe left out, folded with an update of
    -(alpha c / r) U V^T; at alpha = 0 that pass is the restore alone, so X
    holds what the +eps / -2eps / +eps round trip left.
    """
    seed = 515
    pool = _check_problems(seed)
    worst = 0.0
    for i in range(num_calls):
        oi = i % len(pool)
        oracle, shapes = pool[oi]
        x = _random_params_like(oi, i, seed, shapes)
        before = x.copy()
        norm_before = before.norm()
        config = OptimizerConfig(alpha=0.0, total_steps=1, base_seed=derive_seed(seed, 0xD, i), epsilon=1e-3, nu=1)
        optimizers.lozo_step(x, LozoState(t=i), oracle, config)
        drift = float(
            np.sqrt(sum(float(np.vdot(a - b, a - b)) for a, b in zip(x.layers, before.layers)))
        )
        worst = max(worst, drift / (1.0 + norm_before))
    return CheckResult(
        "perturb_restore_drift", worst, 1e-12, worst <= 1e-12, f"{num_calls} lozo steps at alpha 0"
    )


def footprint_ratio() -> CheckResult:
    """The momentum run allocates, as state_footprint counts it, must be sum(m r) / sum(m n) of a full one."""
    shapes = [LayerShape(2048, 2048, 2)]
    low = sum(f.size for f in MomentumState.zeros(shapes, beta=0.9).n_factors)
    full = sum(s.m * s.n for s in shapes)
    ratio = low / full
    ok = low == sum(s.m * s.r for s in shapes) == optimizers.state_footprint("lozo-m", shapes)
    ok = ok and abs(ratio - 2 / 2048) < 1e-18
    return CheckResult("state_footprint_ratio", ratio, 2 / 2048, ok, "2048x2048, r=2")


def nu1_matches_vanilla(steps: int = 200) -> CheckResult:
    """nu = 1 lazy trajectory must be bit-identical to the plain recursion.

    The reference, vanilla_lge_step, is the same step rebuilt from t on every
    call, with no period cache carried between steps; so this shows that the
    cache is invisible at nu = 1.
    """
    seed = 616
    shapes = [LayerShape(6, 5, 2)]
    oracle = problems.make_quadratic(shapes, data_seed=seed, noise_scale=0.2, num_samples=3)
    x_lazy = _random_params_like(0, 0, seed, shapes)
    x_vanilla = x_lazy.copy()
    config = OptimizerConfig(alpha=1e-2, total_steps=steps, base_seed=derive_seed(seed, 1), nu=1)
    state = LozoState()
    worst = 0.0
    for t in range(steps):
        optimizers.lozo_step(x_lazy, state, oracle, config)
        optimizers.vanilla_lge_step(x_vanilla, oracle, config, t)
        for a, b in zip(x_lazy.layers, x_vanilla.layers):
            worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("nu1_matches_vanilla", worst, 0.0, worst == 0.0, f"{steps} steps, bit-exact")


def _linear_oracle(c_mats: list[np.ndarray]) -> problems.LossOracle:
    """f(X) = sum_l <C_l, X_l>; exact playground for estimator identities."""

    def eval_fn(x: ParamSet, xi: int) -> float:
        return sum(float(np.vdot(c, a)) for c, a in zip(c_mats, x.layers))

    return problems.LossOracle("linear", 1, eval_fn)


def cge_rge_exactness() -> CheckResult:
    """CGE must match analytic gradients on quadratics to 1e-9 relative error
    for every epsilon <= 1e-2; RGE, c Z from a zo_sgd_step at alpha = 0 on a
    linear loss at X = 0, must equal <C, Z> Z for the step's own Z to 8 ulps."""
    seed = 717
    shapes = [LayerShape(6, 4, 2)]
    oracle = problems.make_quadratic(shapes, data_seed=seed, noise_scale=0.0, num_samples=2)
    x = _random_params_like(0, 0, seed, shapes)
    truth = oracle.analytic_grad(x, 0)
    worst_rel = 0.0
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        est = estimators.cge(oracle, x, eps, 0)
        num = np.sqrt(sum(float(np.vdot(a - b, a - b)) for a, b in zip(est.layers, truth.layers)))
        den = np.sqrt(sum(float(np.vdot(b, b)) for b in truth.layers))
        worst_rel = max(worst_rel, float(num / den))
    cge_ok = worst_rel <= 1e-9

    c_mat = sample_gaussian(derive_seed(seed, 5), 5, 7)
    lin = _linear_oracle([c_mat])
    worst_ulps = 0.0
    for i, eps in enumerate((1.0, 1e-3, 1e-8)):
        x0 = ParamSet.zeros([LayerShape(5, 7, 2)])
        config = OptimizerConfig(alpha=0.0, total_steps=1, base_seed=derive_seed(seed, 6, i), epsilon=eps)
        c, (z,) = optimizers.zo_sgd_step(x0, lin, config, 0)
        expected = float(np.vdot(c_mat, z)) * z
        diff = np.abs(c * z - expected)
        ulps = float(np.max(diff / np.maximum(np.spacing(np.abs(expected)), np.finfo(float).tiny)))
        worst_ulps = max(worst_ulps, ulps)
    rge_ok = worst_ulps <= 8.0
    value = max(worst_rel / 1e-9, worst_ulps / 8.0)
    return CheckResult(
        "cge_rge_exactness",
        value,
        1.0,
        cge_ok and rge_ok,
        f"cge rel={worst_rel:.2e} (tol 1e-9), rge ulps={worst_ulps:.2f} (tol 8)",
    )


def run_determinism(steps: int = 120) -> CheckResult:
    """Two run_experiment calls with one config write the same bytes, as they do under any BLAS thread count."""
    seed = 818
    with tempfile.TemporaryDirectory() as td:
        spec = problems.ProblemSpec(
            kind="quadratic", shapes=(LayerShape(6, 5, 2),), data_seed=seed, noise_scale=0.2, num_samples=4
        )
        blobs = []
        for tag in ("a", "b"):
            out = Path(td) / tag
            cfg = cli.ExperimentConfig(
                problem=spec,
                algo="lozo",
                optimizer=OptimizerConfig(alpha=1e-2, total_steps=steps, base_seed=derive_seed(seed, 1), nu=10),
                eval_every=5,
                output_path=str(out),
            )
            cli.run_experiment(cfg)
            blobs.append((out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()))
        same = blobs[0] == blobs[1]
    return CheckResult("run_determinism", 0.0 if same else 1.0, 0.0, same, f"{steps} steps, CSV and JSON bytes")


def lozo_vs_rge() -> CheckResult:
    """Desk-scale convergence race on the planted low-rank problem, over seeds 0-9.

    Per seed, both algorithms run a 3-point learning-rate grid through
    cli.compare_algorithms, each value read in its own native convention (for
    the low-rank optimizer the nominal rate is alpha/r, matching the
    convention of the published tuning grids). A win means the lazy low-rank
    optimizer reached a trailing-10 mean loss of 1.2x the optimum using
    strictly fewer loss evaluations within 10,000 steps; 7 wins of 10 pass.
    """
    num_seeds, total_steps = 10, 10_000
    grid, rank = (2.8e-4, 8.4e-4, 2.5e-3), 2
    races = (("lozo", rank, SamplerKind.HAAR_SCALED), ("zo-sgd", 1, SamplerKind.STANDARD_NORMAL))
    wins, rows = 0, []
    for s in range(num_seeds):
        spec = problems.ProblemSpec(
            "planted", (LayerShape(32, 32, rank),), data_seed=s, noise_scale=1.4, num_samples=128, true_rank=2
        )
        configs = [
            cli.ExperimentConfig(
                spec,
                OptimizerConfig(alpha=scale * lr, total_steps=total_steps, base_seed=derive_seed(0xAC7, s), nu=50,
                                v_kind=v_kind),
                algo,
                eval_every=10,
            )
            for algo, scale, v_kind in races
            for lr in grid
        ]
        table = cli.compare_algorithms(configs, 1.2 * problems.make_problem(spec).optimal_loss)
        best = {a: min([e for b, e, _ in table if b == a and e != "not reached"], default=math.inf) for a, *_ in races}
        wins += best["lozo"] < best["zo-sgd"]
        rows.append(f"seed {s}: lozo={best['lozo']:.0f} zo-sgd={best['zo-sgd']:.0f}")
    return CheckResult("lozo_beats_rge", wins, 7, wins >= 7, f"{num_seeds} seeds; " + "; ".join(rows))


# The verify battery: (check, fast-level kwargs). None leaves the check out of
# the fast level; the full level and the acceptance suite call every check with
# its defaults.
BATTERY = (
    (lge_unbiasedness, dict(num_sketches=50_000, shape=(6, 4))),
    (lge_rank_bound, dict(num_evals=200)),
    (lazy_accumulation_rank, dict(nus=(5, 10), num_seeds=2, periods=3)),
    (subspace_equivalence, {}),
    (perturb_restore_drift, dict(num_calls=2000)),
    (momentum_projection_agreement, dict(trials=30)),
    (lozo_vs_rge, None),
    (footprint_ratio, {}),
    (nu1_matches_vanilla, dict(steps=100)),
    (cge_rge_exactness, {}),
    (run_determinism, dict(steps=60)),
)
