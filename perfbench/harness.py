"""Workloads and measurement passes of the lozo benchmark.

A workload fixes its problem instances, shapes and optimizer settings. The
workload seed draws the optimizer's probe streams of the timed pass, the
memory pass and the output checks. Each workload also runs a race to a
target loss on fixed instances with fixed streams (the AC7 instances on
race-planted-32), so its evaluation counts are exact constants that guard the
trajectory.

Passes, in order: set-up (repeated, median), warm-up, race rounds
alternating with slices of the timed pass (steps and loss evaluations
interleaved, algorithm order rotated every round), memory pass
(tracemalloc), output checks.

On a machine shared with other tenants the speed of the whole machine can
change for seconds to minutes at a time, and a run's median step lands in
whichever state held for most of it. steps_per_s is therefore taken from the
fastest timed step, which only needs one quiet moment. step_over_2eval is the
median over steps of a step's time over twice that of the evaluation timed
right after it, so both see the same state. Time to target times each
telemetry interval of a race at the fastest interval of its kind seen in any
round (see best_race_seconds).
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Optional

import numpy as np

from lozo import cli, estimators, optimizers
from lozo.linalg import LayerShape, ParamSet
from lozo.optimizers import LozoState, MomentumState, OptimizerConfig, StepError
from lozo.problems import LossOracle, ProblemSpec, make_planted_low_rank, make_quadratic, make_tiny_mlp
from lozo.sampling import SamplerKind, derive_seed, make_sketch, sample_gaussian

from tracing import Tracer, duration_ns, self_ns

ALGOS = ("lozo", "lozo-m", "zo-sgd")
TRAILING = 10
SETUP_PER_ROUND = 2  # extra builds after each race round, timed for setup_s
MEM_STEPS = 2
CHECK_STEPS = 3
STREAM_BENCH = 0xBE


class TargetReached(Exception):
    """Raised from eval_metric to end a race at its first hit."""


@dataclass
class Race:
    """One race instance: run from x0 until the trailing mean reaches target."""

    oracle: LossOracle
    x0: ParamSet
    target: float
    base_seed: int


@dataclass
class Instance:
    """What set-up builds: the timed-pass problem, its start point, the races."""

    oracle: LossOracle
    x0: ParamSet
    races: list[Race]


@dataclass(frozen=True)
class Workload:
    name: str
    nu: int
    alpha: dict
    build: Callable[[], Instance]
    race_eval_every: int
    race_cap: int
    race_rounds: int
    chunk: int  # steps per algorithm per timed chunk
    warmup: int  # throwaway steps per algorithm before timing
    tiny: bool


def _planted(n: int, seed: int, batches: int) -> LossOracle:
    # with n=32 and 128 batches this is checks.ac7_problem(seed)
    return make_planted_low_rank(LayerShape(n, n, 2), 2, data_seed=seed, noise_scale=1.4, num_batches=batches)


def race_planted(tiny: bool) -> Workload:
    """AC7's race: three fixed planted instances, each from zero with AC7's own streams."""
    n, batches = (8, 16) if tiny else (32, 128)

    def build() -> Instance:
        probs = [_planted(n, s, batches) for s in range(3)]
        zeros = ParamSet.zeros([LayerShape(n, n, 2)])
        races = [Race(p, zeros, 1.2 * p.optimal_loss, derive_seed(0xAC7, s)) for s, p in enumerate(probs)]
        return Instance(probs[0], zeros, races)

    return Workload(
        name="race-planted-32",
        nu=50,
        alpha={"lozo": 2 * 2.5e-3, "lozo-m": 2 * 2.5e-3, "zo-sgd": 2.5e-3},
        build=build,
        race_eval_every=10,
        race_cap=10_000,
        race_rounds=3,
        chunk=50,
        warmup=300,
        tiny=tiny,
    )


def quad_1024(tiny: bool) -> Workload:
    """Noisy quadratic from zero; its race asks for a 2e-5 relative decrease of the loss."""
    n = 32 if tiny else 1024

    def build() -> Instance:
        shapes = [LayerShape(n, n, 4)]
        oracle = make_quadratic(shapes, data_seed=1024, noise_scale=0.1, num_samples=8)
        zeros = ParamSet.zeros(shapes)
        target = (1.0 - 2e-5) * oracle.eval_metric(zeros)
        return Instance(oracle, zeros, [Race(oracle, zeros, target, derive_seed(0x9A, 0))])

    return Workload(
        name="quad-1024",
        nu=50,
        alpha={"lozo": 1e-6, "lozo-m": 1e-6, "zo-sgd": 1e-6},
        build=build,
        race_eval_every=1,
        race_cap=400,
        race_rounds=4,
        chunk=50 if tiny else 8,
        warmup=4,
        tiny=tiny,
    )


def mlp_nu1(tiny: bool) -> Workload:
    """Two-layer tanh MLP from a scaled Gaussian start; its race asks for 0.5% off the start loss."""
    d, out, batch = (32, 4, 16) if tiny else (256, 16, 256)

    def build() -> Instance:
        shapes = [LayerShape(d, d, 4), LayerShape(out, d, 4)]
        oracle = make_tiny_mlp(shapes, data_seed=256, num_batches=8, batch_size=batch)
        layers = [sample_gaussian(derive_seed(0xD1, i), s.m, s.n) / math.sqrt(s.n) for i, s in enumerate(shapes)]
        x0 = ParamSet(layers, shapes)
        target = 0.995 * oracle.eval_metric(x0)
        return Instance(oracle, x0, [Race(oracle, x0, target, derive_seed(0xD1, 9))])

    return Workload(
        name="mlp-nu1",
        nu=1,
        # at nu=1 the projection discards the momentum every step, so lozo-m gets alpha / (1 - beta)
        alpha={"lozo": 1e-4, "lozo-m": 1e-3, "zo-sgd": 1e-4},
        build=build,
        race_eval_every=1,
        race_cap=1000,
        race_rounds=9,
        chunk=20,
        warmup=40,
        tiny=tiny,
    )


WORKLOADS = {w(False).name: w for w in (race_planted, quad_1024, mlp_nu1)}


def config(wl: Workload, algo: str, base_seed: int, total_steps: int = 0) -> OptimizerConfig:
    kind = SamplerKind.STANDARD_NORMAL if algo == "zo-sgd" else SamplerKind.HAAR_SCALED
    return OptimizerConfig(
        alpha=wl.alpha[algo], total_steps=total_steps, base_seed=base_seed, nu=wl.nu, beta=0.9, v_kind=kind
    )


class BenchOracle(LossOracle):
    """Input-side oracle: counts evaluate calls and timestamps eval_metric for races."""

    def __init__(self, base: LossOracle):
        super().__init__(
            base.name,
            base.num_samples,
            base.evaluate,
            expected_fn=base.expected_loss if base.has_expected_loss else None,
            optimal_loss=base.optimal_loss,
        )
        self.evals = 0
        self.race: Optional[RaceLog] = None

    def evaluate(self, x: ParamSet, xi: int) -> float:
        self.evals += 1
        return super().evaluate(x, xi)

    def eval_metric(self, x: ParamSet) -> float:
        value = super().eval_metric(x)
        if self.race is not None:
            self.race.record(value, self.evals)
        return value


class RaceLog:
    """Telemetry of one race; stops it at the first trailing-mean hit."""

    def __init__(self, target: float, eval_every: int):
        self.target = target
        self.eval_every = eval_every
        self.values: list[float] = []
        self.stamps: list[float] = []  # perf_counter at the start and at each eval_metric call
        self.hit_evals: Optional[int] = None
        self.problems: list[str] = []

    def record(self, value: float, evals: int) -> None:
        self.stamps.append(time.perf_counter())
        steps = len(self.values) * self.eval_every + 1
        self.values.append(value)
        if not math.isfinite(value):
            self.problems.append(f"non-finite loss {value} after {steps} steps")
        if evals != 2 * steps:
            self.problems.append(f"{evals} evaluate calls after {steps} steps")
        if len(self.values) >= TRAILING and sum(self.values[-TRAILING:]) / TRAILING <= self.target:
            self.hit_evals = evals
            raise TargetReached


class Runner:
    """One algorithm's trajectory, advanced one public step call at a time."""

    def __init__(self, algo: str, oracle: LossOracle, x: ParamSet, cfg: OptimizerConfig):
        self.algo, self.oracle, self.x, self.cfg = algo, oracle, x, cfg
        self.state = LozoState()
        self.mom = MomentumState.zeros(cfg.effective_shapes(x), cfg.beta) if algo == "lozo-m" else None
        self.t = 0

    def step(self) -> None:
        if self.algo == "zo-sgd":
            optimizers.zo_sgd_step(self.x, self.oracle, self.cfg, self.t)
        elif self.algo == "lozo":
            optimizers.lozo_step(self.x, self.state, self.oracle, self.cfg)
        else:
            optimizers.lozo_m_step(self.x, self.state, self.mom, self.oracle, self.cfg)
        self.t += 1


@dataclass
class Outcome:
    """Metrics of one workload run plus its operation accounting."""

    metrics: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def tail(xs) -> tuple[str, float]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it (else p50)."""
    ordered = sorted(xs)
    n = len(ordered)
    label, value = "p50", median(ordered)
    for permille in (900, 990, 999):
        rank = -(-permille * n // 1000)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            label, value = f"p{permille / 10:g}", ordered[rank - 1]
    return label, value


def _stream_seed(seed: int) -> int:
    return derive_seed(seed, STREAM_BENCH)


def setup(wl: Workload, repeats: int) -> tuple[Instance, list[float]]:
    """Problem construction plus parameter allocation, built `repeats` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        inst = wl.build()
        times.append(time.perf_counter() - t0)
    return inst, times


def warm_up(wl: Workload, inst: Instance, seed: int, out: Outcome) -> None:
    """Throwaway steps of every algorithm, so first-call costs stay out of the timings."""
    for algo in ALGOS:
        runner = Runner(algo, inst.oracle, inst.x0.copy(), config(wl, algo, derive_seed(_stream_seed(seed), 0x77)))
        for _ in range(wl.warmup):
            try:
                runner.step()
                out.op(True)
            except StepError as e:
                out.op(False, f"warm-up {algo}: {e}")
        inst.oracle.eval_metric(runner.x)


def _race_one(wl: Workload, rc: Race, algo: str, out: Outcome, tracer: Optional[Tracer]) -> Optional[tuple[list, int]]:
    """Wall seconds between consecutive telemetry calls up to the first hit
    (the first interval starts with optimizers.run), and the evaluate calls
    made by then."""
    oracle = BenchOracle(rc.oracle)
    log = RaceLog(rc.target, wl.race_eval_every)
    oracle.race = log
    if tracer is not None:
        tracer.patch(oracle, "eval_metric", "problems.eval_metric")
        tracer.patch(optimizers, "run", "optimizers.run")
    cfg = config(wl, algo, rc.base_seed, wl.race_cap)
    log.stamps.append(time.perf_counter())
    try:
        optimizers.run(oracle, rc.x0.copy(), cfg, algo, eval_every=wl.race_eval_every)
    except TargetReached:
        pass
    except StepError as e:
        log.problems.append(str(e))
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    if log.hit_evals is None:
        log.problems.append(f"target {rc.target:.6g} not reached in {wl.race_cap} steps")
    out.op(not log.problems, f"race {algo}: {'; '.join(log.problems)}")
    return None if log.hit_evals is None else (list(np.diff(log.stamps)), log.hit_evals)


def race_round(wl: Workload, inst: Instance, out: Outcome, rnd: int, tracer: Optional[Tracer] = None) -> dict:
    """One race over every instance; per algorithm the telemetry intervals of
    each instance and the evaluations to target summed over instances.

    The algorithm order rotates with the instance and the round number.
    """
    total = {a: [[], 0] for a in ALGOS}
    for i, rc in enumerate(inst.races):
        k = (i + rnd) % len(ALGOS)
        for algo in ALGOS[k:] + ALGOS[:k]:
            hit = _race_one(wl, rc, algo, out, tracer)
            if hit is not None:
                total[algo][0].append(hit[0])
                total[algo][1] += hit[1]
    return total


def _interval_kinds(wl: Workload, n: int) -> list[str]:
    """Kind of each of a race's first n telemetry intervals.

    The first holds the run's own set-up; interval k > 0 holds steps
    (k-1)*every+1 .. k*every, which do the same work unless one of them
    resamples V (t mod nu == 0).
    """
    e, nu = wl.race_eval_every, wl.nu
    return ["first"] + ["boundary" if k * e // nu > (k - 1) * e // nu else "inner" for k in range(1, n)]


def best_race_seconds(wl: Workload, rounds: list[list[list[float]]]) -> float:
    """Wall seconds to target, summed over instances, with interference taken out.

    rounds[r][i] holds instance i's telemetry intervals in round r. Each
    interval is timed at the fastest interval of its kind in any round or
    instance: a neighbour's load only ever adds time, and a race is too
    short for its own median to escape a slow spell of the machine.
    """
    fastest: dict[str, float] = {}
    for per_instance in rounds:
        for intervals in per_instance:
            for kind, d in zip(_interval_kinds(wl, len(intervals)), intervals):
                fastest[kind] = min(d, fastest.get(kind, d))
    return sum(fastest[kind] for intervals in rounds[0] for kind in _interval_kinds(wl, len(intervals)))


def _patch_step_layers(tracer: Tracer, oracle: BenchOracle) -> None:
    tracer.patch(optimizers, "sample_v", "sampling.sample_v")
    tracer.patch(optimizers, "sample_gaussian", "sampling.sample_gaussian")
    tracer.patch(optimizers, "project_momentum", "optimizers.project_momentum")
    tracer.patch(oracle, "evaluate", "problems.evaluate")


class TimedPass:
    """Steps and loss evaluations interleaved, per-algorithm nanosecond lists.

    Each round runs a chunk of steps per algorithm, in an order that rotates
    every round; every step is followed by one timed evaluate on the same
    parameters. With a tracer, each algorithm runs one untraced and one traced
    chunk of whole resample periods per round, so call counts over the traced
    steps are exact per-period counts.
    """

    def __init__(self, wl: Workload, inst: Instance, seed: int, out: Outcome, tracer: Optional[Tracer] = None):
        self.inst, self.out, self.tracer = inst, out, tracer
        self.runners = {
            a: Runner(a, BenchOracle(inst.oracle), inst.x0.copy(), config(wl, a, _stream_seed(seed))) for a in ALGOS
        }
        self.steps = {a: [] for a in ALGOS}
        self.evals = {a: [] for a in ALGOS}
        self.traced = {a: [] for a in ALGOS}
        self.chunk = wl.chunk if tracer is None else wl.nu * math.ceil(wl.chunk / wl.nu)
        self.rounds = 0

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            k = self.rounds % len(ALGOS)
            for algo in ALGOS[k:] + ALGOS[:k]:
                self._chunk(algo, self.steps[algo], False)
                if self.tracer is not None:
                    self._chunk(algo, self.traced[algo], True)
            self.rounds += 1
            if time.perf_counter() >= deadline:
                return

    def _chunk(self, algo: str, sink: list, trace: bool) -> None:
        runner, raw, out, tracer = self.runners[algo], self.inst.oracle, self.out, self.tracer
        clock = time.perf_counter_ns
        before, done = runner.oracle.evals, 0
        if trace:
            _patch_step_layers(tracer, runner.oracle)
        try:
            for _ in range(self.chunk):
                t = runner.t
                if trace:
                    idx = tracer.begin("optimizers.step", f"{algo}:{t}")
                t0 = clock()
                try:
                    runner.step()
                except StepError as e:
                    out.op(False, f"timed step {algo} t={t}: {e}")
                    continue
                finally:
                    t1 = clock()
                    if trace:
                        tracer.end(idx)
                raw.evaluate(runner.x, t % raw.num_samples)
                t2 = clock()
                sink.append(t1 - t0)
                self.evals[algo].append(t2 - t1)
                out.op(True)
                done += 1
        finally:
            if trace:
                tracer.unpatch_all()
        if runner.oracle.evals - before != 2 * done:
            out.op(False, f"{algo}: {runner.oracle.evals - before} evaluate calls in {done} steps")

    def check_losses(self) -> None:
        """Every trajectory ends finite and below its initial loss."""
        raw = self.inst.oracle
        f0 = raw.eval_metric(self.inst.x0)
        for algo, runner in self.runners.items():
            f = raw.eval_metric(runner.x)
            self.out.op(math.isfinite(f) and f < f0, f"{algo}: final loss {f} not below initial {f0} after {runner.t} steps")


def mem_pass(wl: Workload, inst: Instance, seed: int, out: Outcome) -> dict:
    """Peak bytes (MiB) allocated within a step beyond those live before it."""
    peaks = {}
    for algo in ALGOS:
        runner = Runner(algo, inst.oracle, inst.x0.copy(), config(wl, algo, _stream_seed(seed)))
        peak = 0
        tracemalloc.start()
        try:
            for _ in range(MEM_STEPS):
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                runner.step()
                peak = max(peak, tracemalloc.get_traced_memory()[1] - live)
            out.op(True)
        except StepError as e:
            out.op(False, f"memory pass {algo}: {e}")
        finally:
            tracemalloc.stop()
        peaks[algo] = peak / 2**20
    return peaks


def _replay(wl: Workload, inst: Instance, algo: str, seed: int) -> list[bytes]:
    runner = Runner(algo, inst.oracle, inst.x0.copy(), config(wl, algo, _stream_seed(seed)))
    for _ in range(CHECK_STEPS):
        runner.step()
    return [a.tobytes() for a in runner.x.layers]


def check_outputs(wl: Workload, inst: Instance, seed: int, out: Outcome) -> None:
    """Rerun determinism for every algorithm; where nu == 1, lozo against the plain recursion (AC9)."""
    for algo in ALGOS:
        try:
            same = _replay(wl, inst, algo, seed) == _replay(wl, inst, algo, seed)
            out.op(same, f"{algo}: rerun of {CHECK_STEPS} steps not bit-identical")
        except StepError as e:
            out.op(False, f"rerun {algo}: {e}")
    if wl.nu != 1:
        return
    cfg = config(wl, "lozo", _stream_seed(seed))
    lazy = Runner("lozo", inst.oracle, inst.x0.copy(), cfg)
    plain = inst.x0.copy()
    try:
        same = True
        for t in range(CHECK_STEPS):
            lazy.step()
            optimizers.vanilla_lge_step(plain, inst.oracle, cfg, t)
            same &= all(np.array_equal(a, b) for a, b in zip(lazy.x.layers, plain.layers))
        out.op(same, f"lozo at nu=1 differs from vanilla_lge_step within {CHECK_STEPS} steps")
    except StepError as e:
        out.op(False, f"nu=1 check: {e}")


def end_to_end(wl: Workload, seed: int, seconds: float) -> Outcome:
    """The end-to-end metrics.

    Race rounds, slices of the timed pass and the repeated set-up builds
    alternate, so each of them samples the whole run.
    """
    out = Outcome()
    inst, setup_times = setup(wl, 1)
    warm_up(wl, inst, seed, out)
    timed = TimedPass(wl, inst, seed, out)
    rounds = []
    for rnd in range(wl.race_rounds):
        rounds.append(race_round(wl, inst, out, rnd))
        timed.run(seconds / wl.race_rounds)
        setup_times += setup(wl, SETUP_PER_ROUND)[1]
    timed.check_losses()
    mem = mem_pass(wl, inst, seed, out)
    check_outputs(wl, inst, seed, out)
    for a in ALGOS:
        evals = {r[a][1] for r in rounds}
        out.op(len(evals) == 1, f"race {a}: evaluations to target differ across rounds: {sorted(evals)}")
        out.put(f"steps_per_s.{a}", 1e9 / min(timed.steps[a]), "1/s")
        ratios = [s / (2.0 * e) for s, e in zip(timed.steps[a], timed.evals[a])]
        out.put(f"step_over_2eval.{a}", median(ratios), "ratio")
        out.put(f"time_to_target_s.{a}", best_race_seconds(wl, [r[a][0] for r in rounds]), "s")
        out.put(f"evals_to_target.{a}", max(evals), "count")
        out.put(f"step_mem_mb.{a}", mem[a], "MiB")
        out.notes.append(f"{a}: {len(timed.steps[a])} timed steps, steps_per_s from the fastest; race intervals pooled over {wl.race_rounds} rounds of {len(inst.races)} instance(s)")
    out.put("setup_s", median(setup_times), "s")
    out.notes.append(f"setup: median of {len(setup_times)} builds")
    return out


def _lge_scalar_self(wl: Workload, inst: Instance, seed: int, tracer: Tracer, budget_s: float = 0.5) -> float:
    oracle = BenchOracle(inst.oracle)
    x = inst.x0.copy()
    shapes = x.shapes
    first = len(tracer.spans)
    tracer.patch(estimators, "lge_scalar", "estimators.lge_scalar")
    tracer.patch(oracle, "evaluate", "problems.evaluate")
    try:
        deadline = time.perf_counter() + budget_s
        i = 0
        while i < 5 or (time.perf_counter() < deadline and i < 500):
            sketch = make_sketch(_stream_seed(seed), shapes, SamplerKind.HAAR_SCALED, step=i, period=i // wl.nu)
            estimators.lge_scalar(oracle, x, sketch, 1e-3, i % oracle.num_samples)
            i += 1
    finally:
        tracer.unpatch_all()
    kids = tracer.children()
    spans = tracer.spans
    return median(
        self_ns(tracer, kids, j, ("problems.evaluate",))
        for j in range(first, len(spans))
        if spans[j][0] == "estimators.lge_scalar"
    )


def _cli_path(wl: Workload, tracer: Tracer, out_dir: Path, tag: str) -> tuple[float, float]:
    """Median run_experiment seconds and its part outside optimizers.run, for one race config."""
    n, batches, steps = (8, 16, 50) if wl.tiny else (32, 128, 300)
    exp = cli.ExperimentConfig(
        problem=ProblemSpec("planted", (LayerShape(n, n, 2),), data_seed=0, noise_scale=1.4, num_samples=batches, true_rank=2),
        algo="lozo",
        optimizer=OptimizerConfig(
            alpha=5e-3, total_steps=steps, base_seed=derive_seed(0xAC7, 0), nu=50, v_kind=SamplerKind.HAAR_SCALED
        ),
        eval_every=10,
        output_path=str(out_dir / f"cli-{tag}"),
    )
    first = len(tracer.spans)
    tracer.patch(cli, "run_experiment", "cli.run_experiment")
    tracer.patch(optimizers, "run", "optimizers.run")
    try:
        for _ in range(3):
            cli.run_experiment(exp)
    finally:
        tracer.unpatch_all()
    kids = tracer.children()
    spans = tracer.spans
    top = [j for j in range(first, len(spans)) if spans[j][0] == "cli.run_experiment"]
    total = median(duration_ns(spans[j]) for j in top) / 1e9
    output = median(self_ns(tracer, kids, j, ("optimizers.run",)) for j in top) / 1e9
    return total, output


def per_layer(wl: Workload, seed: int, seconds: float, out_dir: Path) -> tuple[Outcome, Tracer]:
    out = Outcome()
    tracer = Tracer()
    inst, _ = setup(wl, 1)
    warm_up(wl, inst, seed, out)
    first_race = len(tracer.spans)
    race_round(wl, inst, out, 0, tracer)
    race_spans = range(first_race, len(tracer.spans))
    first_step = len(tracer.spans)
    timed = TimedPass(wl, inst, seed, out, tracer)
    timed.run(seconds)
    timed.check_losses()
    untraced, traced = timed.steps, timed.traced
    check_outputs(wl, inst, seed, out)
    spans = tracer.spans
    kids = tracer.children()

    # race telemetry
    runs = [j for j in race_spans if spans[j][0] == "optimizers.run" and spans[j][3] < 0]
    metric_spans = [j for j in race_spans if spans[j][0] == "problems.eval_metric"]
    out.put("problems.eval_metric.us", median(duration_ns(spans[j]) for j in metric_spans) / 1e3, "us")
    out.put(
        "problems.eval_metric.share",
        sum(duration_ns(spans[j]) for j in metric_spans) / sum(duration_ns(spans[j]) for j in runs),
        "ratio",
    )

    # optimizer steps and their children
    by_algo = {a: [] for a in ALGOS}
    for j in range(first_step, len(spans)):
        if spans[j][0] == "optimizers.step":
            algo, t = spans[j][4].split(":")
            by_algo[algo].append((j, int(t)))
    sampling = ("sampling.sample_v", "sampling.sample_gaussian")
    child_us = {name: [] for name in (*sampling, "problems.evaluate", "optimizers.project_momentum")}
    for a in ALGOS:
        steps = by_algo[a]
        calls = {name: 0 for name in child_us}
        shares, selfs, boundary, inner = [], [], [], []
        for j, t in steps:
            dur = duration_ns(spans[j])
            sampled = 0
            for c in kids.get(j, ()):
                name = spans[c][0]
                calls[name] += 1
                if name in sampling:
                    sampled += duration_ns(spans[c])
                if a == "lozo" or name not in sampling:
                    child_us[name].append(duration_ns(spans[c]) / 1e3)
            shares.append(sampled / dur)
            selfs.append(self_ns(tracer, kids, j))
            (inner if t % wl.nu else boundary).append(dur)
        n = len(steps)
        if a != "zo-sgd":
            out.put(f"sampling.sample_v.calls_per_step.{a}", calls["sampling.sample_v"] / n, "count")
            out.put(f"optimizers.boundary_step.us.{a}", median(boundary) / 1e3, "us")
            # at nu=1 every step is a boundary, so there is no inner step to time
            out.put(f"optimizers.inner_step.us.{a}", median(inner or boundary) / 1e3, "us")
        out.put(f"sampling.sample_gaussian.calls_per_step.{a}", calls["sampling.sample_gaussian"] / n, "count")
        out.put(f"sampling.share.{a}", median(shares), "ratio")
        out.put(f"problems.evaluate.calls_per_step.{a}", calls["problems.evaluate"] / n, "count")
        label, tail_ns = tail(untraced[a])
        out.put(f"optimizers.step.p50_us.{a}", median(untraced[a]) / 1e3, "us")
        out.put(f"optimizers.step.tail_us.{a}", tail_ns / 1e3, "us")
        out.put(f"optimizers.step_self.us.{a}", median(selfs) / 1e3, "us")
        out.put(f"trace.overhead_us.{a}", (median(traced[a]) - median(untraced[a])) / 1e3, "us")
        if a == "lozo-m":
            out.put("optimizers.project_momentum.calls_per_step", calls["optimizers.project_momentum"] / n, "count")
        out.notes.append(
            f"{a}: tail is {label} of {len(untraced[a])} untraced steps; {n} traced steps, "
            f"{len(boundary)} at a resample boundary" + ("" if inner else ", so inner_step is boundary_step")
        )
    for name in (*sampling, "problems.evaluate", "optimizers.project_momentum"):
        out.put(f"{name}.us", median(child_us[name]), "us")
    out.notes.append("sampling.*.us: per call within lozo steps")

    out.put("estimators.lge_scalar.self_us", _lge_scalar_self(wl, inst, seed, tracer) / 1e3, "us")
    run_s, output_s = _cli_path(wl, tracer, out_dir, f"{wl.name}-{seed}")
    out.put("cli.run_experiment.s", run_s, "s")
    out.put("cli.output_s", output_s, "s")
    return out, tracer
