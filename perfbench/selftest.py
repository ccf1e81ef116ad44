"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json and both trace modes, runs the benchmark
twice with one seed at tiny shapes. Checks that each run passes its output
checks, prints exactly the metrics BENCHMARK.json names with their units,
and that the exact counts (evals_to_target, *.calls_per_step, step_mem_mb)
repeat bit for bit across the two runs. Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT = ("evals_to_target.", ".calls_per_step", "step_mem_mb.")


def invoke(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec: dict) -> list[str]:
    failures = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{wl['name']} trace={trace}"
            runs = [invoke(wl["name"], trace) for _ in range(2)]
            for r in runs:
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    failures.append(f"{where}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = runs[0]["metrics"]
            for name, unit in expected.items():
                if name not in printed:
                    failures.append(f"{where}: {name} not printed")
                elif printed[name]["unit"] != unit:
                    failures.append(f"{where}: {name} in {printed[name]['unit']}, expected {unit}")
            failures += [f"{where}: {name} printed but not named" for name in printed if name not in expected]
            for name in printed:
                if any(tag in name for tag in EXACT):
                    a, b = (r["metrics"][name]["value"] for r in runs)
                    if a != b:
                        failures.append(f"{where}: {name} differs across runs: {a!r} vs {b!r}")
    return failures


def main() -> int:
    failures = check(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
