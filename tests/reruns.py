"""Short runs whose whole-array sums OpenBLAS's ddot would split across threads.

Each run is one line: its name and the SHA-256 of its output bytes. A
run_experiment line hashes the CSV and JSON it writes, on 256 x 256
quadratic, planted and logistic problems and on an 8 x 8 planted problem
with 6000 batches. An optimizers.run line hashes the records (step, loss,
|c|, est_norm) and final layers of a 16-128-128-4 tanh MLP from a seeded
N(0, 1) / sqrt(n) start, or of a 256 x 256 quadratic from its optimum.
Every problem runs zo-sgd, lozo and lozo-m.
tests/test_digest.py requires the same lines under one and under two BLAS
threads.

Run as: PYTHONPATH=src python tests/reruns.py
"""

from __future__ import annotations

import hashlib
import math
import struct
import tempfile
from pathlib import Path
from typing import Iterator

from lozo.cli import ExperimentConfig, run_experiment
from lozo.linalg import LayerShape, ParamSet
from lozo.optimizers import ALGORITHMS, OptimizerConfig, run
from lozo.problems import ProblemSpec, make_quadratic, make_tiny_mlp
from lozo.sampling import derive_seed, sample_gaussian

STEPS = 4
BIG = (LayerShape(256, 256, 2),)


def lines() -> Iterator[str]:
    specs = [
        (ProblemSpec("quadratic", BIG, data_seed=1, noise_scale=0.1, num_samples=2), 1e-3),
        # rank 128: est_norm sums a 128 x 128 Gram product
        (ProblemSpec("planted", (LayerShape(256, 256, 128),), data_seed=2, num_samples=4), 1e-3),
        # 6000 batches of 2 pairs: the population loss sums 12,000 pair residuals
        (ProblemSpec("planted", (LayerShape(8, 8, 2),), data_seed=2, num_samples=6000), 1e-3),
        # at data seed 4, OpenBLAS's two-thread ddot moves the mean pattern's norm, and so its entries
        (ProblemSpec("logistic", BIG, data_seed=4, num_samples=2), 1e-1),
    ]
    with tempfile.TemporaryDirectory() as td:
        for spec, alpha in specs:
            for algo in ALGORITHMS:
                stem = Path(td) / f"{spec.kind}-{spec.shapes[0].m}-r{spec.shapes[0].r}-{algo}"
                run_experiment(ExperimentConfig(spec, OptimizerConfig(alpha, STEPS, base_seed=5, nu=2), algo,
                                                output_path=str(stem)))
                data = stem.with_suffix(".csv").read_bytes() + stem.with_suffix(".json").read_bytes()
                yield f"{stem.name} {hashlib.sha256(data).hexdigest()}"
    shapes = [LayerShape(128, 16, 2), LayerShape(128, 128, 2), LayerShape(4, 128, 2)]
    mlp_start = [sample_gaussian(derive_seed(6, i), s.m, s.n) / math.sqrt(s.n) for i, s in enumerate(shapes)]
    quadratic = make_quadratic(BIG, data_seed=8, noise_scale=1.0, num_samples=2)
    # from the quadratic's optimum, where its loss is the noise term <G, X>
    starts = [("mlp", make_tiny_mlp(shapes, data_seed=4, num_batches=2), mlp_start, shapes),
              ("quadratic-at-optimum", quadratic, quadratic.targets, BIG)]
    for name, oracle, start, layer_shapes in starts:
        for algo in ALGORITHMS:
            x = ParamSet([a.copy() for a in start], layer_shapes)
            out = bytearray()
            for r in run(oracle, x, OptimizerConfig(1e-2, STEPS, base_seed=7, nu=2), algo):
                out += struct.pack("<qddd", r.step, r.loss, r.fd_scalar_abs, r.est_norm)
            for a in x.layers:
                out += a.tobytes()
            yield f"{name}-{algo} {hashlib.sha256(out).hexdigest()}"

if __name__ == "__main__":
    for line in lines():
        print(line)
