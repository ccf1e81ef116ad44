"""CLI contracts: config parsing, artifact files, exit codes, comparison."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lozo import checks, optimizers
from lozo.cli import (
    ConfigError,
    DivergenceError,
    ExperimentConfig,
    _execute,
    _experiment_parser,
    _load_compare_file,
    compare_algorithms,
    main,
    parse_config,
    run_experiment,
)
from lozo.linalg import LayerShape, ParamSet
from lozo.optimizers import OptimizerConfig
from lozo.problems import PROBLEM_KINDS, LossOracle, ProblemSpec, make_problem
from lozo.sampling import SamplerKind


def small_config(tmp_path, algo="lozo", steps=30, out="exp"):
    return ExperimentConfig(
        problem=ProblemSpec(kind="quadratic", shapes=(LayerShape(5, 4, 2),), data_seed=3,
                            noise_scale=0.2, num_samples=4),
        algo=algo,
        optimizer=OptimizerConfig(alpha=1e-2, total_steps=steps, base_seed=9, nu=5),
        eval_every=3,
        output_path=str(tmp_path / out),
    )


# the run flags that set one config key each: a section.key dest or a top-level ExperimentConfig field
CONFIG_KEY_FLAGS = [
    a for a in _experiment_parser()._actions if "." in a.dest or a.dest in {f.name for f in fields(ExperimentConfig)}
]


def run_python(*args):
    """A fresh interpreter run with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def write_config(tmp_path, blob):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestParseConfig:
    def test_flag_echo(self):
        cfg = parse_config(
            ["--algo", "lozo", "--rank", "2", "--nu", "50", "--eps", "1e-3",
             "--lr", "1e-3", "--steps", "1000", "--seed", "42"]
        )
        assert cfg.algo == "lozo"
        assert [s.r for s in cfg.problem.shapes] == [2]
        assert cfg.optimizer.nu == 50
        assert cfg.optimizer.epsilon == 1e-3
        assert cfg.optimizer.alpha == 1e-3
        assert cfg.optimizer.total_steps == 1000
        assert cfg.optimizer.base_seed == 42

    def test_problem_flag_takes_exactly_the_kinds_make_problem_builds(self):
        (choices,) = [a.choices for a in _experiment_parser()._actions if a.dest == "problem.kind"]
        assert tuple(choices) == PROBLEM_KINDS
        for kind in PROBLEM_KINDS:
            shapes = ["--shape", "4x3"] + (["--shape", "2x4"] if kind == "mlp" else [])
            cfg = parse_config(["--problem", kind, *shapes, "--lr", "1e-3", "--steps", "1"])
            assert make_problem(cfg.problem).num_samples > 0
        with pytest.raises(ValueError, match=re.escape(f"expected one of {PROBLEM_KINDS}")):
            make_problem(ProblemSpec("nope", (LayerShape(4, 3, 2),), data_seed=0))

    def test_only_config_shape_and_rank_flags_set_no_config_key(self):
        flags = {a.option_strings[0] for a in _experiment_parser()._actions}
        assert flags - {a.option_strings[0] for a in CONFIG_KEY_FLAGS} == {"--config", "--shape", "--rank"}

    @pytest.mark.parametrize("action", CONFIG_KEY_FLAGS, ids=lambda a: a.option_strings[0])
    def test_flag_sets_exactly_its_config_key(self, action):
        base = ["--lr", "1e-3", "--steps", "2"]
        expected = parse_config(base).to_dict()
        section, _, key = action.dest.rpartition(".")
        for text in action.choices or [{int: "7", float: "0.25", None: "o"}[action.type]]:
            (expected[section] if section else expected)[key] = action.type(text) if action.type else text
            assert parse_config([*base, action.option_strings[0], text]).to_dict() == expected

    def test_lr_convention_is_an_unknown_flag(self, capsys):
        with pytest.raises(ConfigError, match="unrecognized arguments: --lr-convention"):
            parse_config(["--lr", "1e-3", "--steps", "10", "--lr-convention", "subspace"])
        assert main(["run", "--lr", "1e-3", "--steps", "10", "--lr-convention", "subspace"]) == 2
        assert "unrecognized arguments: --lr-convention" in capsys.readouterr().err

    def test_nu_zero_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["--lr", "1e-3", "--steps", "10", "--nu", "0", "--seed", "1"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError, match="unrecognized arguments"):
            parse_config(["--lr", "1e-3", "--steps", "10", "--warp-speed", "9"])

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="missing required optimizer key: total_steps"):
            parse_config(["--lr", "1e-3"])

    def test_round_trip(self, tmp_path):
        original = ExperimentConfig(
            problem=ProblemSpec(kind="planted", shapes=(LayerShape(8, 8, 2),), data_seed=7,
                                noise_scale=1.4, num_samples=16, true_rank=2),
            algo="lozo-m",
            optimizer=OptimizerConfig(alpha=2e-3, epsilon=1e-4, nu=25, beta=0.7,
                                      total_steps=55, base_seed=99, v_kind=SamplerKind.HAAR_SCALED),
            eval_every=5,
            output_path="somewhere/out",
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(original.to_dict()))
        parsed = parse_config(["--config", str(path)])
        assert parsed == original

    @pytest.mark.parametrize("noise", [None, 0.0], ids=["unset", "zero"])
    def test_noise_scale_round_trips(self, tmp_path, noise):
        problem = ProblemSpec("planted", (LayerShape(8, 8, 2),), noise_scale=noise)
        original = replace(small_config(tmp_path), problem=problem)
        text = json.dumps(original.to_dict())
        assert f'"noise_scale": {json.dumps(noise)}' in text  # null, or 0.0
        parsed = ExperimentConfig.from_dict(json.loads(text))
        assert parsed == original
        assert type(parsed.problem.noise_scale) is type(noise)

    def test_unknown_json_key_named(self, tmp_path):
        cfg = small_config(tmp_path)
        blob = cfg.to_dict()
        blob["optimizer"]["learning_rate_decay"] = 0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match="learning_rate_decay"):
            parse_config(["--config", str(path)])

    def test_optimizer_ranks_key_rejected(self, tmp_path):
        blob = small_config(tmp_path).to_dict()
        blob["optimizer"]["ranks"] = [2]
        path = write_config(tmp_path, blob)
        with pytest.raises(ConfigError, match="unknown key 'ranks' in optimizer section"):
            parse_config(["--config", path])

    def test_rank_flag_sets_every_file_layer(self, tmp_path):
        blob = small_config(tmp_path).to_dict()
        blob["problem"]["shapes"] = [[5, 4, 2], [6, 7, 1]]
        path = write_config(tmp_path, blob)
        parsed = parse_config(["--config", path, "--rank", "3"])
        assert [(s.m, s.n, s.r) for s in parsed.problem.shapes] == [(5, 4, 3), (6, 7, 3)]

    def test_absent_keys_take_dataclass_defaults(self, tmp_path):
        path = write_config(tmp_path, {
            "problem": {"kind": "quadratic", "shapes": [[5, 4, 2]], "data_seed": 1},
            "optimizer": {"alpha": 1e-2, "total_steps": 3, "base_seed": 0},
        })
        parsed = parse_config(["--config", path])
        assert parsed.problem == ProblemSpec(kind="quadratic", shapes=(LayerShape(5, 4, 2),), data_seed=1)
        assert (parsed.eval_every, parsed.output_path) == (1, "")
        assert parsed.optimizer == OptimizerConfig(alpha=1e-2, total_steps=3, base_seed=0)

    def test_unknown_top_level_and_problem_keys_named(self, tmp_path):
        for section, key in ((None, "seed_of_seeds"), ("problem", "width")):
            blob = small_config(tmp_path).to_dict()
            (blob if section is None else blob[section])[key] = 1
            path = write_config(tmp_path, blob)
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                parse_config(["--config", path])

    def test_empty_shapes_rejected(self, tmp_path):
        blob = small_config(tmp_path).to_dict()
        blob["problem"]["shapes"] = []
        path = write_config(tmp_path, blob)
        with pytest.raises(ConfigError, match="at least one layer"):
            parse_config(["--config", path])

    def test_non_object_config_file_rejected(self, tmp_path):
        path = write_config(tmp_path, [])
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(["--config", path])

    def test_missing_optimizer_key_named(self):
        blob = {"problem": {"kind": "quadratic", "data_seed": 0}, "optimizer": {"alpha": 1e-2, "base_seed": 0}}
        with pytest.raises(ConfigError, match="missing required optimizer key: total_steps"):
            ExperimentConfig.from_dict(blob)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "3", None], ids=["float", "integral-float", "bool", "str", "none"])
    def test_eval_every_must_be_an_integer(self, tmp_path, value):
        cfg = small_config(tmp_path)
        with pytest.raises(TypeError, match="eval_every must be an integer"):
            ExperimentConfig(cfg.problem, cfg.optimizer, eval_every=value)

    def test_flags_override_file(self, tmp_path):
        cfg = small_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        parsed = parse_config(["--config", str(path), "--nu", "17"])
        assert parsed.optimizer.nu == 17
        assert parsed.optimizer.alpha == cfg.optimizer.alpha


# the config file a user may write first: every other key takes its default
ABSENT_KEYS_CONFIG = {"optimizer": {"alpha": 1e-3, "total_steps": 20}}


def write_compare_file(tmp_path, configs, target_loss=1.0):
    path = tmp_path / "cmp.json"
    path.write_text(json.dumps({"target_loss": target_loss, "configs": configs}))
    return str(path)


class TestOneConfigReader:
    """from_dict, run --config and compare read an experiment config the same way."""

    def test_absent_keys_read_alike_by_run_and_compare(self, tmp_path):
        run_cfg = parse_config(["--config", write_config(tmp_path, ABSENT_KEYS_CONFIG)])
        configs, _ = _load_compare_file(write_compare_file(tmp_path, [ABSENT_KEYS_CONFIG]))
        assert configs == [run_cfg] == [ExperimentConfig.from_dict(ABSENT_KEYS_CONFIG)]
        assert run_cfg.problem == ProblemSpec(kind="quadratic", shapes=(LayerShape(16, 16, 2),), data_seed=0)
        assert run_cfg.optimizer == OptimizerConfig(alpha=1e-3, total_steps=20, base_seed=0)

    def test_compare_runs_a_config_with_absent_keys(self, tmp_path, capsys):
        code = main(["compare", "--config", write_compare_file(tmp_path, [ABSENT_KEYS_CONFIG], target_loss=1e9)])
        assert code == 0
        assert capsys.readouterr().out.startswith("lozo ")

    @pytest.mark.parametrize("sampler", list(SamplerKind))
    @pytest.mark.parametrize("kind, shapes", [
        ("quadratic", (LayerShape(5, 4, 2), LayerShape(3, 6, 3))),
        ("planted", (LayerShape(8, 8, 2),)),
        ("logistic", (LayerShape(6, 8, 1),)),
        ("mlp", (LayerShape(6, 5, 2), LayerShape(4, 6, 2))),
    ])
    def test_to_dict_from_dict_round_trip(self, kind, shapes, sampler):
        cfg = ExperimentConfig(
            problem=ProblemSpec(kind=kind, shapes=shapes, data_seed=5, noise_scale=0.3, num_samples=6, true_rank=1),
            algo="zo-sgd",
            optimizer=OptimizerConfig(alpha=1e-3, total_steps=7, base_seed=2**63 + 5, epsilon=1e-4, nu=3,
                                      beta=0.5, v_kind=sampler),
            eval_every=2,
            output_path="o",
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("optimizer", "learning_rate_decay", 0.5, "unknown key 'learning_rate_decay' in optimizer section"),
            pytest.param("optimizer", "alpha", None, "missing required optimizer key: alpha",
                         id="optimizer-alpha-None-alpha"),
            ("optimizer", "nu", 0, "nu must be at least 1"),
            ("optimizer", "alpha", float("nan"), "alpha must be finite"),
            ("optimizer", "epsilon", float("inf"), "epsilon must be finite"),
            ("optimizer", "v_kind", "bogus", "unknown sampler 'bogus'"),
            (None, "algo", "sgd", "unknown algorithm 'sgd'"),
            ("problem", "shapes", [], "at least one layer"),
            ("problem", "shapes", [[4, 4, 9]], "rank must satisfy"),
            (None, "problem", 5, "config section 'problem' is not a JSON object"),
            (None, "optimizer", [1], "config section 'optimizer' is not a JSON object"),
            ("optimizer", "total_steps", 3.9, "total_steps must be an integer, got 3.9"),
            ("optimizer", "nu", 1.5, "nu must be an integer, got 1.5"),
            ("optimizer", "total_steps", True, "total_steps must be an integer, got True"),
            ("problem", "data_seed", 1.9, "data_seed must be an integer, got 1.9"),
            ("optimizer", "base_seed", "7", "base_seed must be an integer, got '7'"),
            ("optimizer", "alpha", "1e-3", "alpha must be a number, got '1e-3'"),
            ("optimizer", "beta", False, "beta must be a number, got False"),
            ("problem", "noise_scale", 10**400, "noise_scale is out of floating-point range"),
            ("problem", "noise_scale", float("inf"), "noise_scale must be finite"),
            ("problem", "kind", 5, "unknown problem kind 5"),
            (None, "output_path", 5, "output_path must be a string, got 5"),
            (None, "algo", 5, "unknown algorithm 5"),
            ("problem", "kind", ["quadratic"], "unknown problem kind"),
            ("optimizer", "v_kind", ["normal"], "unknown sampler"),
            ("problem", "shapes", [[8.5, 8, 2]], "m must be an integer"),
            ("problem", "shapes", [[8, 8]], "shapes must be a list of"),
            ("problem", "shapes", [[8, 8, True]], "r must be an integer"),
            ("problem", "shapes", "8x8", "shapes must be a list of"),
        ],
    )
    def test_run_and_compare_reject_alike(self, tmp_path, section, key, value, message):
        blob = small_config(tmp_path).to_dict()
        target = blob if section is None else blob[section]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(["--config", write_config(tmp_path, blob)])
        with pytest.raises(ConfigError, match=message):
            _load_compare_file(write_compare_file(tmp_path, [blob]))

    def test_unknown_kind_rejected_on_reading(self):
        with pytest.raises(ValueError, match="unknown problem kind 'nope'"):
            ExperimentConfig.from_dict({"problem": {"kind": "nope"}, **ABSENT_KEYS_CONFIG})


_OPTIMIZER_KEYS = {"alpha": 1e-3, "total_steps": 1}


class TestFieldChecksOnTheDataclasses:
    """A Python caller meets the check a config file meets, and the error names the field."""

    @pytest.mark.parametrize("cls, kwargs, error, field", [
        (OptimizerConfig, {**_OPTIMIZER_KEYS, "alpha": True}, TypeError, "alpha"),
        (OptimizerConfig, {**_OPTIMIZER_KEYS, "beta": False}, TypeError, "beta"),
        (OptimizerConfig, {**_OPTIMIZER_KEYS, "v_kind": "haar"}, TypeError, "v_kind"),
        (ProblemSpec, {"noise_scale": True}, TypeError, "noise_scale"),
        (ProblemSpec, {"noise_scale": float("inf")}, ValueError, "noise_scale"),
        (ProblemSpec, {"kind": 5}, ValueError, "kind"),
        (ExperimentConfig, {"problem": ProblemSpec(), "optimizer": OptimizerConfig(**_OPTIMIZER_KEYS),
                            "output_path": 5}, TypeError, "output_path"),
        (ExperimentConfig, {"problem": {"kind": "quadratic"}, "optimizer": OptimizerConfig(**_OPTIMIZER_KEYS)},
         TypeError, "problem must be of type ProblemSpec"),
        (ExperimentConfig, {"problem": ProblemSpec(), "optimizer": _OPTIMIZER_KEYS},
         TypeError, "optimizer must be of type OptimizerConfig"),
    ], ids=["alpha-True", "beta-False", "v_kind-str", "noise_scale-True", "noise_scale-inf", "kind-5", "output_path-5",
            "problem-dict", "optimizer-dict"])
    def test_python_caller_is_checked(self, cls, kwargs, error, field):
        with pytest.raises(error, match=field):
            cls(**kwargs)

    def test_float_fields_are_stored_as_python_floats(self):
        cfg = OptimizerConfig(alpha=np.float32(0.5), total_steps=1, epsilon=1, beta=np.float64(0.25))
        assert (cfg.alpha, cfg.epsilon, cfg.beta) == (0.5, 1.0, 0.25)
        assert all(type(v) is float for v in (cfg.alpha, cfg.epsilon, cfg.beta, ProblemSpec(noise_scale=2).noise_scale))


class TestRunExperiment:
    def test_zero_steps(self, tmp_path):
        cfg = small_config(tmp_path, steps=0)
        summary = run_experiment(cfg)
        csv = Path(cfg.output_path + ".csv").read_text()
        assert csv == "step,loss,fd_scalar_abs,est_norm,wall_ms\n"
        assert summary["total_evals"] == 0

    def test_diverged_run_raises_named_error(self, tmp_path):
        cfg = parse_config(["--problem", "quadratic", "--shape", "8x8", "--lr", "1e6", "--steps", "6",
                            "--out", str(tmp_path / "stall")])
        with pytest.raises(DivergenceError) as err:
            run_experiment(cfg)
        assert err.value.step == 1
        assert list(tmp_path.iterdir()) == []

    def test_total_evals_contract(self, tmp_path):
        cfg = small_config(tmp_path, steps=1000)
        summary = run_experiment(cfg)
        assert summary["total_evals"] == 2000

    def test_byte_identical_rerun(self, tmp_path):
        cfg_a = small_config(tmp_path, out="a")
        cfg_b = small_config(tmp_path, out="b")
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert Path(str(tmp_path / "a.csv")).read_bytes() == Path(str(tmp_path / "b.csv")).read_bytes()
        assert Path(str(tmp_path / "a.json")).read_bytes() == Path(str(tmp_path / "b.json")).read_bytes()

    def test_csv_schema(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        lines = Path(cfg.output_path + ".csv").read_text().splitlines()
        assert lines[0] == "step,loss,fd_scalar_abs,est_norm,wall_ms"
        steps = [int(row.split(",")[0]) for row in lines[1:]]
        assert steps == sorted(set(steps))
        assert all(len(row.split(",")) == 5 for row in lines[1:])
        # deterministic timing writes zeros; live timing is opt-in
        assert all(row.rsplit(",", 1)[1] == "0.0" for row in lines[1:])

    def test_live_timing_changes_only_the_wall_ms_column(self, tmp_path, capsys):
        config = write_config(tmp_path, small_config(tmp_path).to_dict())
        stems = {timing: tmp_path / timing for timing in ("deterministic", "live")}
        for timing, stem in stems.items():
            assert main(["run", "--config", config, "--out", str(stem), "--timing", timing]) == 0
        det, live = ([row.rsplit(",", 1) for row in stem.with_suffix(".csv").read_text().splitlines()]
                     for stem in stems.values())
        assert [head for head, _ in live] == [head for head, _ in det]
        assert len(live) > 2 and all(float(wall) > 0.0 for _, wall in live[1:])
        det_json, live_json = (stem.with_suffix(".json").read_bytes() for stem in stems.values())
        assert live_json == det_json

    def test_no_temp_files_left(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        leftovers = [p for p in tmp_path.iterdir() if ".csv." in p.name or ".json." in p.name]
        assert leftovers == []

    def test_summary_fields(self, tmp_path):
        cfg = small_config(tmp_path, algo="lozo-m")
        summary = run_experiment(cfg)
        assert set(summary) == {"final_loss", "best_loss", "total_evals", "footprint_elements", "seed"}
        assert summary["footprint_elements"] == 5 * 2
        assert summary["seed"] == 9
        assert summary["best_loss"] <= summary["final_loss"] + 1e-12


def records(*rows):
    """RunRecords at steps 1, 2, ... from (loss, fd_scalar_abs) rows."""
    return [optimizers.RunRecord(k, loss, fd, 0.0, 0.0) for k, (loss, fd) in enumerate(rows, 1)]


class TestCheckDivergence:
    """_execute's verdicts on a run whose iter_run yields records(*rows) and whose starting loss is initial.

    The non-finite and growth verdicts come at the first bad record, which is
    the last one iter_run is asked for; the stall verdict comes once the run
    stops.
    """

    @pytest.fixture
    def execute(self, monkeypatch, tmp_path):
        """execute(rows, initial) returns _execute's result on that run; execute.yielded lists the records it took."""
        yielded = []

        def execute(rows, initial):
            def iter_run(*args, **kwargs):
                for rec in records(*rows):
                    yielded.append(rec)
                    yield rec

            monkeypatch.setattr(optimizers, "iter_run", iter_run)
            return _execute(small_config(tmp_path), SimpleNamespace(eval_metric=lambda x: initial))

        execute.yielded = yielded
        return execute

    def test_stall_above_the_start_reports_its_first_zero_record(self, execute):
        with pytest.raises(DivergenceError, match="^run diverged at step 2: F\\+ - F- is 0.0 from here on") as err:
            execute(((5.0, 1.0), (7.0, 0.0), (7.0, 0.0)), 0.0)
        assert err.value.step == 2
        assert len(execute.yielded) == 3  # the stall verdict waits for the run to stop

    @pytest.mark.parametrize("rows, initial", [
        (((0.0, 0.0), (0.0, 0.0)), 0.0),  # F+ - F- is 0.0 from step 1 at the start: a saddle (ROADMAP M's open half)
        (((0.5, 0.0), (0.5, 0.0)), 0.5),
        (((7.0, 0.0), (6.0, 1e-3)), 0.0),  # zero records that end nonzero
    ], ids=["saddle-at-0", "saddle-at-0.5", "ends-nonzero"])
    def test_no_verdict(self, execute, rows, initial):
        assert execute(rows, initial) == (records(*rows), initial, False)

    @pytest.mark.parametrize("initial, bound", [(0.0, 1e6), (0.5, 1e6), (42.0, 4.2e7)])
    def test_growth_bound_is_1e6_times_max_1_and_the_start(self, execute, initial, bound):
        execute(((bound, 1.0),), initial)
        with pytest.raises(DivergenceError, match="is above 1e6") as err:
            execute(((1.0, 1.0), (np.nextafter(bound, math.inf), 1.0)), initial)
        assert err.value.step == 2

    def test_first_offending_record_is_reported(self, execute):
        with pytest.raises(DivergenceError, match="^run diverged at step 1: non-finite loss nan$"):
            execute(((math.nan, 1.0), (1e300, 1.0)), 1.0)
        with pytest.raises(DivergenceError, match="^run diverged at step 1: loss 1e\\+300 is above"):
            execute(((1e300, 1.0), (math.inf, 1.0)), 1.0)
        assert [r.step for r in execute.yielded] == [1, 1]  # no record past the first bad one was asked for

    def test_diverged_run_stops_at_its_first_bad_record(self, tmp_path, evaluate_calls):
        cfg = parse_config(["--problem", "quadratic", "--shape", "8x8", "--lr", "1e6", "--steps", "600",
                            "--out", str(tmp_path / "diverged")])
        with pytest.raises(DivergenceError, match="^run diverged at step 1: loss 374721270024004.44 is above"):
            run_experiment(cfg)
        assert len(evaluate_calls) == 2  # one step, not 600
        assert list(tmp_path.iterdir()) == []


class TestCompareAlgorithms:
    def test_single_config_one_row(self, tmp_path):
        table = compare_algorithms([small_config(tmp_path)], target_loss=0.0)
        assert len(table) == 1
        algo, e2t, final = table[0]
        assert algo == "lozo" and e2t == "not reached" and final > 0.0

    def test_identical_configs_identical_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        table = compare_algorithms([cfg, cfg], target_loss=1e9)
        assert table[0] == table[1]
        assert table[0][1] != "not reached"  # huge target reached immediately

    def test_configs_differing_only_in_rank_accepted(self, tmp_path):
        a = small_config(tmp_path)
        b = ExperimentConfig(
            problem=ProblemSpec(kind="quadratic", shapes=(LayerShape(5, 4, 1),), data_seed=3,
                                noise_scale=0.2, num_samples=4),
            algo="lozo-m",
            optimizer=a.optimizer,
            eval_every=3,
            output_path="",
        )
        table = compare_algorithms([a, b], target_loss=1e9)
        assert [row[0] for row in table] == ["lozo", "lozo-m"]
        assert table[0][2] != table[1][2]  # rank 2 and rank 1 take different paths

    @pytest.mark.parametrize("target", ["1.5", True, float("nan")])
    def test_target_loss_checked_before_any_run(self, tmp_path, monkeypatch, target):
        monkeypatch.setattr("lozo.cli._execute", lambda *args: pytest.fail("a run started"))
        with pytest.raises(ConfigError, match="target_loss"):
            compare_algorithms([small_config(tmp_path, steps=2)], target)

    @pytest.mark.parametrize("algo", ["zo-sgd", "lozo", "lozo-m"])
    def test_a_reached_run_stops_at_its_hit(self, tmp_path, evaluate_calls, algo):
        cfg = small_config(tmp_path, algo=algo)  # 30 steps, a record every third
        [(_, e2t, stop)] = compare_algorithms([cfg], target_loss=1e9)
        # the 10th record, step 28, is the first with a trailing-10 mean
        assert e2t == 2 * 28 and len(evaluate_calls) == e2t
        full = optimizers.run(make_problem(cfg.problem), ParamSet.zeros(cfg.problem.shapes), cfg.optimizer, algo, 3)
        assert stop == full[9].loss  # the loss at the last record, the run's stop
        evaluate_calls.clear()
        [(_, e2t, stop)] = compare_algorithms([cfg], target_loss=0.0)
        assert e2t == "not reached" and len(evaluate_calls) == 2 * 30 and stop == full[-1].loss

    def test_mismatched_problems_rejected(self, tmp_path):
        a = small_config(tmp_path)
        b = ExperimentConfig(
            problem=ProblemSpec(kind="quadratic", shapes=(LayerShape(5, 4, 2),), data_seed=4,
                                noise_scale=0.2, num_samples=4),
            algo="zo-sgd",
            optimizer=a.optimizer,
            eval_every=3,
            output_path="",
        )
        with pytest.raises(ConfigError, match="same problem"):
            compare_algorithms([a, b], target_loss=0.1)


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        code = main(["run", "--problem", "quadratic", "--shape", "4x4", "--algo", "lozo",
                     "--lr", "1e-2", "--steps", "5", "--seed", "1",
                     "--out", str(tmp_path / "cli_run")])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip())["total_evals"] == 10

    def test_stalled_run_is_a_failure(self, tmp_path, capsys):
        # the first record's loss, 3.7e14, is past the growth bound of 1e6 times the starting loss, 42.9
        code = main(["run", "--problem", "quadratic", "--shape", "8x8", "--lr", "1e6", "--steps", "6",
                     "--out", str(tmp_path / "stall")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run diverged at step 1: loss 374721270024004.")
        assert "is above 1e6 * max(1, starting loss 42.88134135182195)" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_growth_past_the_bound_is_a_failure(self, tmp_path, capsys):
        # its F+ - F- never cancels to exactly 0.0, so only the growth bound catches it
        code = main(["run", "--problem", "quadratic", "--shape", "8x8", "--lr", "1e8", "--steps", "2",
                     "--out", str(tmp_path / "grown")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run diverged at step 1: loss ")
        assert "is above 1e6 * max(1, starting loss 42.88134135182195)" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_loss_is_a_failure(self, tmp_path, capsys):
        code = main(["run", "--problem", "quadratic", "--shape", "8x8", "--lr", "1e160", "--steps", "1",
                     "--out", str(tmp_path / "inf")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: run diverged at step 1: non-finite loss inf")
        assert list(tmp_path.iterdir()) == []

    def test_run_without_lr_names_the_missing_key(self, capsys):
        assert main(["run", "--steps", "3"]) == 2
        assert capsys.readouterr().err == "error: missing required optimizer key: alpha\n"

    def test_rank_above_shape_is_a_usage_error(self, capsys):
        code = main(["run", "--shape", "4x4", "--rank", "8", "--lr", "1e-3", "--steps", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: rank must satisfy")

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "nan"], ["--eps", "inf"], ["--lr", "nan"], ["--lr", "inf"]],
        ids=["eps-nan", "eps-inf", "lr-nan", "lr-inf"],
    )
    def test_non_finite_setting_is_a_usage_error(self, tmp_path, capsys, flags):
        code = main(["run", "--shape", "4x4", "--lr", "1e-3", "--steps", "3", *flags,
                     "--out", str(tmp_path / "never")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "must be finite" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, config, message",
        [
            (["--eval-every", "0"], {"eval_every": 0}, "eval_every must be at least 1"),
            (["--problem", "mlp", "--shape", "4x4"], {"problem": {"kind": "mlp", "shapes": [[4, 4, 2]]}},
             "the mlp problem takes at least 2 layer shapes, got 1"),
            (["--problem", "planted", "--shape", "4x4", "--true-rank", "9"],
             {"problem": {"kind": "planted", "shapes": [[4, 4, 2]], "true_rank": 9}}, "true_rank must be in"),
            (["--problem", "logistic", "--shape", "4x4", "--shape", "3x3"],
             {"problem": {"kind": "logistic", "shapes": [[4, 4, 2], [3, 3, 2]]}},
             "the logistic problem takes 1 layer shape, got 2"),
            (["--num-samples", "-1"], {"problem": {"num_samples": -1}}, "num_samples must be nonnegative, got -1"),
            (["--problem", "planted", "--shape", "4x4", "--noise", "-1"],
             {"problem": {"kind": "planted", "shapes": [[4, 4, 2]], "noise_scale": -1.0}},
             "noise_scale must be nonnegative"),
            (None, {"problem": {"kind": "nope"}}, "unknown problem kind 'nope'"),
        ],
        ids=["eval-every-0", "mlp-one-layer", "true-rank-above-shape", "logistic-two-layers",
             "negative-num-samples", "negative-planted-noise", "unknown-kind"],
    )
    def test_setting_the_problem_rejects_is_a_usage_error(self, tmp_path, capsys, flags, config, message):
        # flags=None: --problem's choices stop an unknown kind, so run reads it from a config file
        out = tmp_path / "out"
        source = flags if flags is not None else ["--config", write_config(tmp_path, config)]
        run_code = main(["run", "--lr", "1e-3", "--steps", "2", *source, "--out", str(out / "run")])
        cmp = write_compare_file(tmp_path, [{**config, "optimizer": {"alpha": 1e-3, "total_steps": 2}}])
        compare_code = main(["compare", "--config", cmp, "--out", str(out / "table.csv")])
        assert (run_code, compare_code) == (2, 2)
        captured = capsys.readouterr()
        errors = captured.err.splitlines()
        assert len(errors) == 2 and all(line.startswith("error: ") and message in line for line in errors)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, section, key, value",
        [
            ("--seed", "optimizer", "base_seed", 2**64),
            ("--seed", "optimizer", "base_seed", -1),
            ("--data-seed", "problem", "data_seed", 2**64),
            ("--data-seed", "problem", "data_seed", -1),
        ],
        ids=["seed-2**64", "seed-minus-1", "data-seed-2**64", "data-seed-minus-1"],
    )
    def test_seed_outside_64_bits_is_a_usage_error(self, tmp_path, capsys, flag, section, key, value):
        # each ran as the in-range seed that shares its low 64 bits: 2**64 as 0 and -1 as 2**64 - 1
        out = tmp_path / "out"
        run_code = main(["run", "--lr", "1e-3", "--steps", "2", flag, str(value), "--out", str(out / "run")])
        config = {"problem": dict(self._PROBLEM), "optimizer": dict(self._OPTIMIZER)}
        config[section][key] = value
        compare_code = main(["compare", "--config", write_compare_file(tmp_path, [config]),
                             "--out", str(out / "table.csv")])
        assert (run_code, compare_code) == (2, 2)
        captured = capsys.readouterr()
        assert captured.err == f"error: {key} must lie in [0, 2**64), got {value}\n" * 2
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--data-seed"])
    def test_largest_seed_runs_as_itself(self, tmp_path, flag):
        top = 2**64 - 1
        for seed in (top, 0):
            out = str(tmp_path / str(seed))
            assert main(["run", "--lr", "1e-2", "--steps", "20", flag, str(seed), "--out", out]) == 0
        assert (tmp_path / f"{top}.csv").read_bytes() != (tmp_path / "0.csv").read_bytes()
        if flag == "--seed":
            assert json.loads((tmp_path / f"{top}.json").read_text())["seed"] == top

    def test_24_layer_mlp_runs(self, tmp_path, capsys):
        shapes = ["--shape", "64x64"] * 24
        out = tmp_path / "deep"
        assert main(["run", "--problem", "mlp", *shapes, "--lr", "1e-3", "--steps", "2", "--out", str(out)]) == 0
        assert len(out.with_suffix(".csv").read_text().splitlines()) == 3
        assert json.loads(out.with_suffix(".json").read_text())["total_evals"] == 4

    KIND_SHAPES = {"quadratic": ["4x4"], "planted": ["4x4"], "logistic": ["4x4"], "mlp": ["6x5", "4x6"]}

    def _run_kind(self, kind, out, *flags):
        shapes = [arg for shape in self.KIND_SHAPES[kind] for arg in ("--shape", shape)]
        return main(["run", "--problem", kind, *shapes, "--lr", "1e-3", "--steps", "2", *flags, "--out", str(out)])

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_negative_num_samples_is_named(self, tmp_path, capsys, kind):
        # planted, logistic and mlp said only "negative dimensions are not allowed"
        assert self._run_kind(kind, tmp_path / "never", "--num-samples", "-3") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: num_samples must be nonnegative, got -3\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_num_samples_0_is_the_family_default(self, tmp_path, kind):
        assert self._run_kind(kind, tmp_path / "zero", "--num-samples", "0") == 0
        assert self._run_kind(kind, tmp_path / "unset") == 0
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"zero{suffix}").read_bytes() == (tmp_path / f"unset{suffix}").read_bytes()

    def test_noise_0_is_not_the_planted_default(self, tmp_path):
        # planted's --noise 0 wrote --noise 1's bytes, while its config recorded 0
        for name, flags in [("zero", ["--noise", "0"]), ("one", ["--noise", "1"]), ("unset", [])]:
            assert self._run_kind("planted", tmp_path / name, *flags) == 0
        csv = {name: (tmp_path / f"{name}.csv").read_bytes() for name in ("zero", "one", "unset")}
        assert csv["zero"] != csv["unset"]
        assert csv["one"] == csv["unset"]

    def test_diverged_compare_is_a_failure(self, tmp_path, capsys):
        stall = {"problem": {"kind": "quadratic", "shapes": [[8, 8, 2]], "data_seed": 0},
                 "optimizer": {"alpha": 1e6, "total_steps": 6, "base_seed": 0}}
        path = write_config(tmp_path, {"target_loss": 0.1, "configs": [stall]})
        code = main(["compare", "--config", path, "--out", str(tmp_path / "table.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: run diverged at step 1: ")
        assert captured.out == ""
        assert not (tmp_path / "table.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--lr", "x"], "argument --lr: invalid float value: 'x'"),
            (["run", "--bogus"], "unrecognized arguments: --bogus"),
            (["run", "--problem", "nope"], "argument --problem: invalid choice: 'nope'"),
            ([], "the following arguments are required: command"),
            (["verify", "--level", "x"], "argument --level: invalid choice: 'x'"),
        ],
        ids=["bad-number", "unknown-flag", "bad-choice", "no-command", "bad-verify-level"],
    )
    def test_flag_error_is_a_usage_error(self, capsys, argv, message):
        assert main(argv) == 2  # returned, not raised as SystemExit
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lozo-bench run")

    def test_console_flag_error_is_one_line(self):
        proc = run_python("-m", "lozo.cli", "run", "--lr", "x")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: argument --lr: invalid float value: 'x'\n"  # no usage block, no traceback

    @pytest.mark.parametrize("value", ['"1.5"', "true", '"abc"', "1e999"], ids=["str", "bool", "not-a-number", "inf"])
    def test_target_loss_must_be_a_finite_number(self, tmp_path, capsys, value):
        config = json.dumps({"problem": self._PROBLEM, "optimizer": self._OPTIMIZER})
        path = tmp_path / "cmp.json"
        path.write_text(f'{{"target_loss": {value}, "configs": [{config}]}}')
        assert main(["compare", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: target_loss ") and captured.out == ""

    def test_usage_error(self, capsys):
        code = main(["run", "--lr", "1e-3"])  # missing --steps
        assert code == 2
        assert "steps" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        blob = {"target_loss": 1e9, "configs": [cfg.to_dict(), {**cfg.to_dict(), "algo": "zo-sgd"}]}
        path = tmp_path / "cmp.json"
        path.write_text(json.dumps(blob))
        out_csv = tmp_path / "table.csv"
        code = main(["compare", "--config", str(path), "--out", str(out_csv)])
        assert code == 0
        assert out_csv.read_text().splitlines()[0] == "algo,evals_to_target,stop_loss"

    def test_readme_ac7_compare_file_finds_seed0_counts(self, tmp_path, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        path = tmp_path / "ac7_seed0.json"
        path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert main(["compare", "--config", str(path)]) == 0
        best: dict = {}
        for line in capsys.readouterr().out.splitlines():
            algo, e2t, *_ = line.split()
            count = e2t.removeprefix("evals_to_target=")
            if count.isdigit():
                best[algo] = min(best.get(algo, math.inf), int(count))
        assert best == {"lozo": 2502, "zo-sgd": 3722}  # AC7's seed-0 counts

    def test_readme_run_example_writes_both_files(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        command = readme.split("```\nlozo-bench run ", 1)[1].split("\n\n", 1)[0]
        argv = ["run", *shlex.split(command.replace("\\\n", " "))]
        out = tmp_path / "planted_lozo"
        argv[argv.index("--out") + 1] = str(out)
        assert main(argv) == 0
        assert out.with_suffix(".csv").is_file() and out.with_suffix(".json").is_file()

    def test_compare_missing_file_is_failure(self, tmp_path, capsys):
        code = main(["compare", "--config", str(tmp_path / "nope.json")])
        assert code == 2  # a usage error, as for run --config
        assert capsys.readouterr().err.startswith("error: config file not found: ")

    _OPTIMIZER = {"alpha": 1e-2, "total_steps": 3, "base_seed": 0}
    _PROBLEM = {"kind": "quadratic", "shapes": [[5, 4, 2]], "data_seed": 0}

    @pytest.mark.parametrize(
        "text, message",
        [
            (json.dumps({"target_loss": 1.0}), "missing required key 'configs' in compare file"),
            (json.dumps({"configs": [{"problem": _PROBLEM, "optimizer": _OPTIMIZER}]}),
             "missing required key 'target_loss' in compare file"),
            (json.dumps({"target_loss": 1.0, "configs": [{"problem": _PROBLEM}]}),
             "missing required optimizer key: alpha"),
            ('{"target_loss": 1.0, "configs": [', "malformed JSON in "),
            (json.dumps([1.0]), "must hold a JSON object"),
        ],
        ids=["no-configs", "no-target-loss", "no-optimizer-section", "malformed-json", "not-an-object"],
    )
    def test_malformed_compare_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "cmp.json"
        path.write_text(text)
        code = main(["compare", "--config", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""


class TestVerifySuite:
    @pytest.mark.parametrize("module", ["lozo.checks", "lozo.cli"])
    def test_module_imports_alone(self, module):
        # checks and cli import each other at the top; a fresh interpreter that imports either first must resolve it
        proc = run_python("-c", f"import {module}")
        assert proc.returncode == 0, proc.stderr

    def test_fast_level_passes_within_budget(self):
        import time

        from lozo.cli import verify_suite

        t0 = time.perf_counter()
        results, ok = verify_suite("fast")
        elapsed = time.perf_counter() - t0
        assert ok
        assert elapsed <= 120.0
        assert len(results) == 10  # every check but AC7, which runs at the full level only

    def test_unknown_level_rejected(self):
        from lozo.cli import verify_suite

        with pytest.raises(ConfigError):
            verify_suite("medium")

    @pytest.mark.parametrize("check, size, draws", [
        (checks.lge_unbiasedness, {"num_sketches": 40}, 40),
        (checks.lge_rank_bound, {"num_evals": 12}, 12),
    ])
    def test_estimator_checks_take_each_draw_from_its_step(self, monkeypatch, check, size, draws):
        # AC1 and AC2 measure the optimizer step itself: one lozo_step per draw, whose own U_l the estimate
        # reads, so the only Gaussian draws are those steps' U_l, one per layer
        steps, drawn_in, active = [], [], []
        sample_gaussian, lozo_step = optimizers.sample_gaussian, optimizers.lozo_step

        def counted(*args):
            drawn_in.append(active[-1] if active else None)  # None: drawn outside every lozo_step
            return sample_gaussian(*args)

        def counted_step(x, state, *args):
            steps.append((state.t, len(x)))
            active.append(state.t)
            try:
                return lozo_step(x, state, *args)
            finally:
                active.pop()

        monkeypatch.setattr(optimizers, "sample_gaussian", counted)
        monkeypatch.setattr(optimizers, "lozo_step", counted_step)
        check(**size)
        assert [t for t, _ in steps] == list(range(draws))
        assert drawn_in == [t for t, layers in steps for _ in range(layers)]

    def test_estimator_check_values_are_pinned(self):
        # AC1 and AC2 at small sizes, exactly: a change to the draws or the arithmetic of lozo_step moves them
        assert checks.lge_unbiasedness(num_sketches=2000, shape=(6, 4)).value == 0.13110417790500992
        assert checks.lge_rank_bound(num_evals=200).value == 0


class TestMutationSensitivity:
    def test_corrupted_rank_scaling_fails_unbiasedness(self, monkeypatch):
        # U drawn at twice its scale, in the step and in its factors, makes the estimate 4 (c / r) U V^T
        sample_gaussian = optimizers.sample_gaussian
        monkeypatch.setattr(optimizers, "sample_gaussian", lambda *args: 2.0 * sample_gaussian(*args))
        res = checks.lge_unbiasedness(num_sketches=4000, shape=(6, 4))
        assert not res.passed

    def test_dropped_update_one_over_r_fails_subspace_equivalence(self, monkeypatch):
        # AC1 runs at alpha = 0, so the 1/r of lozo's update is AC4's to catch
        add_low_rank = optimizers.add_low_rank
        eps = optimizers.DEFAULT_EPSILON

        def update_without_one_over_r(x, operands, scale):
            if isinstance(scale, list):  # lozo's update pass, eps - alpha c / r_l per layer
                scale = [eps - s.r * (eps - v) for s, v in zip(x.shapes, scale)]
            add_low_rank(x, operands, scale)

        monkeypatch.setattr(optimizers, "add_low_rank", update_without_one_over_r)
        res = checks.subspace_equivalence()
        assert not res.passed

    def test_clean_scaling_passes(self):
        res = checks.lge_unbiasedness(num_sketches=20_000, shape=(6, 4))
        assert res.passed
