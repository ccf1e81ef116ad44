"""Benchmark CLI: run experiments, verify properties, compare algorithms.

Subcommands:
    run      execute one configured experiment, writing a CSV of per-step
             records and a JSON summary (atomically, LF line endings)
    verify   run the property-check battery at fast or full level
    compare  run several configs on one problem and tabulate evaluations
             needed to reach a target loss: each run stops at that hit, its
             stop_loss column is the loss at its last record, and a
             divergence after the hit is not seen (no AC7 run diverges)

Exit codes: 0 success, 1 check or step failure or a diverged run (stopped at
its first bad optimizers.iter_run record), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import checks, optimizers
from .estimators import EvaluationError
from .linalg import LayerShape, ParamSet, as_float, as_int
from .optimizers import OptimizerConfig, StepError, state_footprint
from .problems import PROBLEM_KINDS, ProblemSpec, make_problem
from .sampling import SamplerKind


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class DivergenceError(RuntimeError):
    """A run diverged (seen at its first bad record, as it is made) or stalled (seen once the run stopped)."""

    def __init__(self, message: str, step: int):
        super().__init__(f"run diverged at step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. Its fields, with those of ProblemSpec and OptimizerConfig,
    are the config file format: to_dict and from_dict read and write them all."""

    problem: ProblemSpec
    optimizer: OptimizerConfig
    algo: str = "lozo"
    eval_every: int = 1
    output_path: str = ""

    def __post_init__(self):
        for name, cls in (("problem", ProblemSpec), ("optimizer", OptimizerConfig)):
            if not isinstance(getattr(self, name), cls):
                raise TypeError(f"{name} must be of type {cls.__name__}, got {getattr(self, name)!r}")
        if self.algo not in optimizers.ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algo!r}; expected one of {optimizers.ALGORITHMS}")
        object.__setattr__(self, "eval_every", as_int("eval_every", self.eval_every))
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if not isinstance(self.output_path, str):
            raise TypeError(f"output_path must be a string, got {self.output_path!r}")

    def to_dict(self) -> dict:
        return _to_json(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of to_dict; keys left out take the field defaults, unknown keys are rejected."""
        if not isinstance(d, dict):
            raise ConfigError("an experiment config must be a JSON object")
        return _read(cls, d, "config")


def _read(cls, d: dict, where: str):
    """Build dataclass cls from JSON object d, one field at a time.

    A field whose type is a dataclass reads a nested section, {} when d has
    none; a field with no default is required; every other value is decoded
    by _from_json, and the dataclass checks it.
    """
    _reject_unknown(d, {f.name for f in fields(cls)}, where)
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        hint = hints[f.name]
        if is_dataclass(hint):
            kwargs[f.name] = _read(hint, _section(d, f.name), f.name)
        elif f.name in d:
            kwargs[f.name] = _from_json(hint, d[f.name], f.name)
        elif f.default is MISSING:
            raise ConfigError(f"missing required {where} key: {f.name}")
    return cls(**kwargs)


def _from_json(hint, value, key: str):
    """Decode the JSON value of key for field type hint: the shapes are a list
    of [m, n, r] rows and the sampler one of its names; any other value is
    passed on as it is, for its dataclass to check.
    """
    if hint is SamplerKind:
        try:
            return SamplerKind(value)
        except ValueError as e:
            raise ConfigError(f"unknown sampler {value!r}; expected one of {[k.value for k in SamplerKind]}") from e
    if hint == tuple[LayerShape, ...]:
        if not (isinstance(value, list) and all(isinstance(row, list) and len(row) == 3 for row in value)):
            raise ConfigError(f"{key} must be a list of [m, n, r] integer rows, got {json.dumps(value)}")
        return tuple(LayerShape(*row) for row in value)
    return value


def _to_json(value):
    """The JSON form of a config dataclass or field value; _read is its inverse."""
    if isinstance(value, SamplerKind):
        return value.value
    if isinstance(value, (tuple, list)):  # the layer shapes
        return [[s.m, s.n, s.r] for s in value]
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return value


@contextmanager
def _usage_errors():
    """Report a ValueError or TypeError raised while validating user input as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def _json_object(path: str) -> dict:
    """Read a file that must hold one JSON object.

    A missing file or anything but one JSON object is a ConfigError naming
    path; any other failure to read it raises OSError.
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError as e:
        raise ConfigError(f"config file not found: {path}") from e
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path} at line {e.lineno}: {e.msg}") from e
    if not isinstance(blob, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return blob


def _reject_unknown(d: dict, allowed: set[str], where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where} section")


def _section(d: dict, name: str) -> dict:
    """Section name of config d; a missing section reads as {}."""
    section = d.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} is not a JSON object")
    return section


_DEFAULT_RANK = ProblemSpec().shapes[0].r  # the r of --shape layers when --rank is absent


def _parse_shape(text: str) -> tuple[int, int]:
    try:
        m, n = text.lower().split("x")
        return int(m), int(n)
    except ValueError as e:
        raise ConfigError(f"malformed --shape value {text!r}; expected MxN") from e


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are ConfigErrors, so a bad flag is a usage error like any other."""

    def error(self, message: str):
        raise ConfigError(message)


def _experiment_parser() -> _Parser:
    """The run flags: every dest but --config's, --shape's and --rank's is the config key its flag sets."""
    p = _Parser(prog="lozo-bench run", add_help=False)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--problem", dest="problem.kind", metavar="PROBLEM.KIND", choices=PROBLEM_KINDS,
                   help="one of %(choices)s")
    p.add_argument("--shape", action="append", help="layer shape MxN, repeatable")
    p.add_argument("--data-seed", dest="problem.data_seed", type=int)
    p.add_argument("--noise", dest="problem.noise_scale", type=float, help="problem noise scale")
    p.add_argument("--num-samples", dest="problem.num_samples", type=int)
    p.add_argument("--true-rank", dest="problem.true_rank", type=int, help="planted gradient rank")
    p.add_argument("--algo", metavar="ALGO", choices=optimizers.ALGORITHMS, help="one of %(choices)s")
    p.add_argument("--rank", type=int, help="perturbation rank r of every layer")
    p.add_argument("--nu", dest="optimizer.nu", type=int, help="subspace resample interval")
    p.add_argument("--eps", dest="optimizer.epsilon", type=float, help="perturbation scale epsilon")
    p.add_argument("--lr", dest="optimizer.alpha", type=float, help="step size alpha (a low-rank step divides it by r)")
    p.add_argument("--beta", dest="optimizer.beta", type=float, help="momentum coefficient")
    p.add_argument("--steps", dest="optimizer.total_steps", type=int)
    p.add_argument("--seed", dest="optimizer.base_seed", type=int, help="base seed (64-bit)")
    p.add_argument("--sampler", dest="optimizer.v_kind", metavar="OPTIMIZER.V_KIND",
                   choices=[k.value for k in SamplerKind], help="one of %(choices)s")
    p.add_argument("--eval-every", type=int)
    p.add_argument("--out", dest="output_path", help="output stem; writes <out>.csv and <out>.json")
    return p


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flags, optionally layered over a JSON file.

    Flags override file values. A bad flag, unknown JSON keys and invariant
    violations (nu < 1, a nonpositive or non-finite epsilon, ...) are
    rejected with a named ConfigError.
    """
    return _config_from_args(_experiment_parser().parse_args(argv))


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    d = _json_object(args.config) if args.config is not None else {}
    top_level = {f.name for f in fields(ExperimentConfig)}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or not (section or key in top_level):
            continue
        if section:
            d[section] = {**_section(d, section), key: value}
        else:
            d[key] = value
    if args.shape is not None:
        shapes = [[m, n, min(_DEFAULT_RANK, m, n)] for m, n in (_parse_shape(s) for s in args.shape)]
        d["problem"] = {**_section(d, "problem"), "shapes": shapes}

    with _usage_errors():
        config = ExperimentConfig.from_dict(d)
        if args.rank is not None:  # every layer, from flags, the config file or the default shape alike
            shapes = tuple(replace(s, r=args.rank) for s in config.problem.shapes)
            config = replace(config, problem=replace(config.problem, shapes=shapes))
    return config


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _execute(config: ExperimentConfig, oracle, target_loss: Optional[float] = None) -> tuple[list, float, bool]:
    """Run the optimizer on oracle from zeros; (records, starting loss, whether target_loss was reached).

    A record whose loss is non-finite or above 1e6 * max(1, starting loss) raises DivergenceError before any
    further step. With a target_loss the run stops at its first record whose trailing-10 mean loss meets it.
    Then a stall raises: the last record's F+ - F- is exactly 0.0 above the start, reported where the zeros began.
    """
    x = ParamSet.zeros(config.problem.shapes)
    initial = oracle.eval_metric(x)
    records, reached = [], False
    for rec in optimizers.iter_run(oracle, x, config.optimizer, config.algo, eval_every=config.eval_every):
        if not math.isfinite(rec.loss):
            raise DivergenceError(f"non-finite loss {rec.loss!r}", rec.step)
        if rec.loss > 1e6 * max(1.0, initial):
            raise DivergenceError(f"loss {rec.loss!r} is above 1e6 * max(1, starting loss {initial!r})", rec.step)
        records.append(rec)
        if target_loss is not None and len(records) >= 10:
            reached = float(np.mean([r.loss for r in records[-10:]])) <= target_loss
            if reached:
                break
    if records and records[-1].fd_scalar_abs == 0.0 and records[-1].loss > initial:
        k = len(records) - 1
        while k > 0 and records[k - 1].fd_scalar_abs == 0.0:
            k -= 1
        raise DivergenceError(
            f"F+ - F- is 0.0 from here on, at loss {records[-1].loss!r} above the starting loss {initial!r}",
            records[k].step,
        )
    return records, initial, reached


def run_experiment(config: ExperimentConfig, timing: str = "deterministic") -> dict:
    """Run one experiment and write <out>.csv and <out>.json.

    With timing="deterministic" (the default) the wall_ms column is written as
    0.0 so byte-identical reruns stay byte-identical; timing="live" writes the
    measured per-step times and sacrifices that guarantee. A setting the
    problem family rejects raises ConfigError before any step runs; a
    diverged or stalled run raises DivergenceError. Either writes nothing.
    """
    if timing not in ("deterministic", "live"):
        raise ConfigError(f"unknown timing mode {timing!r}")
    with _usage_errors():
        oracle = make_problem(config.problem)
    records, initial, _ = _execute(config, oracle)

    lines = ["step,loss,fd_scalar_abs,est_norm,wall_ms"]
    for rec in records:
        wall = rec.wall_ms if timing == "live" else 0.0
        lines.append(f"{rec.step},{rec.loss!r},{rec.fd_scalar_abs!r},{rec.est_norm!r},{wall!r}")
    csv_text = "\n".join(lines) + "\n"

    losses = [rec.loss for rec in records]
    summary = {
        "final_loss": losses[-1] if losses else initial,
        "best_loss": min(losses) if losses else initial,
        "total_evals": 2 * config.optimizer.total_steps,
        "footprint_elements": state_footprint(config.algo, config.problem.shapes),
        "seed": config.optimizer.base_seed,
    }
    if config.output_path:
        stem = Path(config.output_path)
        _atomic_write(stem.with_suffix(".csv"), csv_text)
        _atomic_write(stem.with_suffix(".json"), json.dumps(summary, sort_keys=True, allow_nan=False) + "\n")
    return summary


def _load_compare_file(path: str) -> tuple[list[ExperimentConfig], object]:
    """The configs of a compare file, and its target loss as read; compare_algorithms checks that.

    A missing file, malformed JSON, a missing key or an invalid config
    raises ConfigError; a file that exists but cannot be read raises OSError.
    """
    blob = _json_object(path)
    _reject_unknown(blob, {"target_loss", "configs"}, "compare file")
    for key in ("target_loss", "configs"):
        if key not in blob:
            raise ConfigError(f"missing required key {key!r} in compare file")
    if not isinstance(blob["configs"], list):
        raise ConfigError("configs in compare file must be a list of experiment configs")
    with _usage_errors():
        return [ExperimentConfig.from_dict(c) for c in blob["configs"]], blob["target_loss"]


def compare_algorithms(configs: Sequence[ExperimentConfig], target_loss: float) -> list[tuple[str, object, float]]:
    """Run each config on the shared problem; tabulate evaluations to target.

    Rows are (algo, evals_to_target or "not reached", stop_loss). Each run stops at its hit, its first record
    whose trailing-10 mean loss meets target_loss; evals_to_target counts two evaluations per step up to it, and
    stop_loss is the loss at the run's last record. All configs must describe the same problem (the layers' ranks
    may differ: no problem family reads them), built once and shared. A diverged or stalled run raises
    DivergenceError, as in run_experiment, on the records it made. A target_loss that is not a finite number
    raises ConfigError before any run.
    """
    with _usage_errors():
        target_loss = as_float("target_loss", target_loss)
    if not configs:
        raise ConfigError("compare needs at least one config")

    def problem_of(cfg: ExperimentConfig) -> dict:
        return {**_to_json(cfg.problem), "shapes": [(s.m, s.n) for s in cfg.problem.shapes]}

    first = problem_of(configs[0])
    for cfg in configs[1:]:
        if problem_of(cfg) != first:
            raise ConfigError("compare requires all configs to share the same problem")
    with _usage_errors():
        oracle = make_problem(configs[0].problem)
    table: list[tuple[str, object, float]] = []
    for cfg in configs:
        records, initial, reached = _execute(cfg, oracle, target_loss)
        stop_loss = records[-1].loss if records else initial
        table.append((cfg.algo, 2 * records[-1].step if reached else "not reached", stop_loss))
    return table


def verify_suite(level: str = "fast") -> tuple[list[checks.CheckResult], bool]:
    """Run the property-check battery; prints one line per check."""
    if level not in ("fast", "full"):
        raise ConfigError(f"unknown verify level {level!r}; expected fast or full")
    started = time.perf_counter()
    results = []
    for check, fast in checks.BATTERY:
        kwargs = fast if level == "fast" else {}
        if kwargs is None:
            continue
        res = check(**kwargs)
        print(res.line())
        results.append(res)
    elapsed = time.perf_counter() - started
    all_passed = all(r.passed for r in results)
    print(f"{'OK' if all_passed else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks in {elapsed:.1f} s")
    return results, all_passed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(prog="lozo-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment", add_help=True, parents=[_experiment_parser()])
    run_p.add_argument("--timing", choices=["deterministic", "live"], default="deterministic")

    verify_p = sub.add_parser("verify", help="run the property-check battery")
    verify_p.add_argument("--level", choices=["fast", "full"], default="fast")

    compare_p = sub.add_parser("compare", help="compare algorithms on one problem")
    compare_p.add_argument("--config", required=True, help='JSON file: {"target_loss": x, "configs": [...]}')
    compare_p.add_argument("--out", default=None, help="optional CSV output path for the table")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config = _config_from_args(args)
            summary = run_experiment(config, timing=args.timing)
            print(json.dumps(summary, sort_keys=True))
            return 0
        if args.command == "verify":
            _, ok = verify_suite(args.level)
            return 0 if ok else 1
        if args.command == "compare":
            configs, target_loss = _load_compare_file(args.config)
            table = compare_algorithms(configs, target_loss)
            lines = ["algo,evals_to_target,stop_loss"]
            for algo, e2t, stop in table:
                print(f"{algo:10s} evals_to_target={e2t} stop_loss={stop:.6g}")
                lines.append(f"{algo},{e2t},{stop!r}")
            if args.out:
                _atomic_write(Path(args.out), "\n".join(lines) + "\n")
            return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (StepError, EvaluationError, DivergenceError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
