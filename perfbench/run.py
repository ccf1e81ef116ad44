"""The lozo benchmark: one workload (or all three) per invocation.

    python3 perfbench/run.py --workload race-planted-32 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics with no tracing; --trace 1 gives
the per-layer metrics from spans recorded around the calls into lozo and
writes the spans to perfbench/out/. Human-readable lines go first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every output check passed.
Run from a source checkout: the benchmark imports lozo from ./src and exits
with code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
BLAS_THREADS = "1"
MAX_ERRORS_SHOWN = 20


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def run_one(harness, name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    wl = harness.WORKLOADS[name](tiny)
    if not trace:
        return harness.end_to_end(wl, seed, seconds)
    out, tracer = harness.per_layer(wl, seed, seconds, OUT_DIR)
    path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    tracer.write(path)
    out.notes.append(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="race-planted-32, quad-1024, mlp-nu1 or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny shapes, for the benchmark's self-test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "lozo" / "__init__.py").is_file():
        print(f"error: no lozo sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    # Pin BLAS to one thread (at most nproc) before numpy loads, so neighbours
    # on a shared machine perturb every algorithm alike.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of {list(harness.WORKLOADS)} or all", file=sys.stderr)
        return 2

    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = run_one(harness, name, args.seed, args.seconds, bool(args.trace), args.tiny)
        print(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for note in out.notes:
            print(f"  # {note}")
        for metric, m in out.metrics.items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for err in out.errors[:MAX_ERRORS_SHOWN]:
            print(f"  FAILED: {err}")
        print(f"  {out.attempted - out.failed}/{out.attempted} operations passed")
        prefix = f"{name}/" if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in out.metrics.items()})
        result["attempted"] += out.attempted
        result["failed"] += out.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
