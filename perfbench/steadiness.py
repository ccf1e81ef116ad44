"""Run-to-run steadiness of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/steadiness.py --label A --seeds 501-510
    python3 perfbench/steadiness.py --label B --seeds 601-610 --workload quad-1024

Runs `run.py --trace 0` once per seed for each workload (all of
BENCHMARK.json's by default) with its run_seconds, and prints, per end-to-end
metric, the median of the runs and their spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the median.
The set is stored under its label in perfbench/baseline.json with the machine
it ran on. When the file already holds another set, each median is also
compared with that set's. Exits 1 when a run fails its checks, a spread other
than setup_s exceeds its metric's bound, or a median is worse than the other
set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
HELD_OUT_SEEDS = "9001-9010"  # for later claims; never used while tuning


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["returncode"] = proc.returncode
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric: dict, new: float, old: float) -> float:
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--label", required=True, help="name of this set in baseline.json")
    p.add_argument("--seeds", required=True, help="first-last, e.g. 501-510")
    p.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    args = p.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from run import machine

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {"sets": {}}
    others = [label for label in baseline["sets"] if label != args.label]
    this = baseline["sets"].setdefault(args.label, {"workloads": {}})
    this["seeds"] = args.seeds
    problems = []
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            r = run(name, seed, spec["run_seconds"])
            print(f"{name} seed {seed}: exit {r['returncode']}, {r['failed']}/{r['attempted']} failed", flush=True)
            if r["returncode"] != 0 or not r["correct"]:
                problems.append(f"{name} seed {seed} failed its checks")
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary = {k: {"median": statistics.median(v), "spread": spread(v), "values": v} for k, v in values.items()}
        this["workloads"][name] = summary
        for k, m in metrics.items():
            s = summary[k]
            line = f"  {name:16s} {k:26s} median={s['median']:<12.6g} spread={s['spread']:.3f} bound={m['bound']}"
            if k != "setup_s" and s["spread"] > m["bound"]:
                problems.append(f"{name} {k}: spread {s['spread']:.3f} over bound {m['bound']}")
            if others and name in baseline["sets"][others[0]]["workloads"]:
                w = worse_by(m, s["median"], baseline["sets"][others[0]]["workloads"][name][k]["median"])
                line += f" worse-than-{others[0]}={w:+.3f}"
                if w > m["bound"]:
                    problems.append(f"{name} {k}: median {w:+.3f} worse than set {others[0]}")
            print(line, flush=True)

    baseline.update(
        machine=machine(),
        command=spec["command"],
        run_seconds=spec["run_seconds"],
        held_out_seeds=HELD_OUT_SEEDS,
        claim=None,
        why={w["name"]: w["why"] for w in spec["workloads"]},
    )
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
