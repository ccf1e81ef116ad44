"""One SHA-256 over a fixed set of trajectories and draws: the bit-identity check for performance changes.

A change that claims to keep every byte must print the same digest as its
parent. tests/test_digest.py pins one digest and checks it under one and
under two BLAS threads; a change that alters any trajectory or draw updates
the pinned value and says so in CHANGES.md. The digest covers the records
(step, loss, |c|, est_norm; not the wall time) and final layers of
optimizers.run for zo-sgd, lozo and lozo-m under each V sampler, on four
problems:

- a two-layer tanh MLP at nu = 1, every step a resample boundary;
- a two-layer quadratic at nu = 7 with beta = 0.5;
- the planted 32 x 32 problem at nu = 5, with its generated data;
- a 256 x 256 quadratic at nu = 10.

It also covers sample_v draws of every sampler at each of their layer
shapes, and the CLI's output bytes:

- the CSV and JSON that cli.run_experiment writes for every algorithm on
  README's planted 32 x 32 example, parsed from its flags by cli.parse_config
  and shortened to 400 steps, a 6x5 / 4x6 MLP at nu = 1 and a two-layer
  quadratic at nu = 7 with beta = 0.5;
- the rows of cli.compare_algorithms on AC7's seed-0 planted race, one
  config per algorithm, as `lozo-bench compare --out` writes them.

parts() maps each part (a problem block, a run_experiment output or the
compare rows) to the SHA-256 of the bytes the digest takes from it, so a
change that moves the digest can name the parts that moved.

Run as: PYTHONPATH=src python tests/digest.py
Parts:  PYTHONPATH=src:tests python -c "import digest; [print(*p) for p in digest.parts().items()]"
"""

from __future__ import annotations

import hashlib
import math
import struct
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from lozo.cli import ExperimentConfig, compare_algorithms, parse_config, run_experiment
from lozo.linalg import LayerShape, ParamSet
from lozo.optimizers import ALGORITHMS, OptimizerConfig, run
from lozo.problems import ProblemSpec, make_planted_low_rank, make_problem, make_quadratic, make_tiny_mlp
from lozo.sampling import SamplerKind, derive_seed, sample_gaussian, sample_v

STEPS = 60


def _problems():
    """(name, oracle, layer shapes, nu, alpha, beta, generated data arrays) per problem."""
    mlp = [LayerShape(32, 32, 4), LayerShape(4, 32, 4)]
    quad = [LayerShape(9, 7, 3), LayerShape(5, 8, 3)]
    planted = [LayerShape(32, 32, 2)]
    big = [LayerShape(256, 256, 4)]
    planted_oracle = make_planted_low_rank(planted[0], 2, data_seed=3, noise_scale=1.4, num_batches=32)
    return [
        ("mlp", make_tiny_mlp(mlp, data_seed=256, num_batches=8, batch_size=16), mlp, 1, 1e-3, 0.9, []),
        ("quadratic", make_quadratic(quad, data_seed=7, noise_scale=0.2, num_samples=4), quad, 7, 2e-3, 0.5, []),
        ("planted", planted_oracle, planted, 5, 5e-3, 0.9, [planted_oracle.planted, *planted_oracle.pair_data]),
        ("quadratic-256", make_quadratic(big, data_seed=256, noise_scale=0.1, num_samples=4), big, 10, 1e-5, 0.9, []),
    ]


def _start(shapes, key: int) -> ParamSet:
    """A Gaussian start scaled by 1 / sqrt(n) per layer."""
    return ParamSet(
        [sample_gaussian(derive_seed(key, i), s.m, s.n) / math.sqrt(s.n) for i, s in enumerate(shapes)], shapes
    )


# README's `lozo-bench run` example without --out, so a flag that sets the wrong config key changes the digest
README_RUN = (
    "--problem planted --shape 32x32 --true-rank 2 --data-seed 0 --algo lozo --rank 2 --nu 50 --eps 1e-3 "
    "--lr 1e-3 --steps 2000 --seed 42 --eval-every 10"
).split()


def _experiments() -> list[tuple[str, ExperimentConfig]]:
    """(name, config) per run_experiment call: every algorithm on three problems."""
    mlp = ProblemSpec("mlp", (LayerShape(6, 5, 2), LayerShape(4, 6, 2)), data_seed=0)
    quad = ProblemSpec("quadratic", (LayerShape(9, 7, 3), LayerShape(5, 8, 3)), data_seed=7, noise_scale=0.2)
    settings = [
        ("mlp", mlp, OptimizerConfig(alpha=1e-2, total_steps=100, base_seed=3, nu=1), 1),
        ("quadratic", quad, OptimizerConfig(alpha=2e-3, total_steps=100, base_seed=5, nu=7, beta=0.5), 5),
    ]
    planted = [(f"planted-{algo}", parse_config([*README_RUN, "--steps", "400", "--algo", algo])) for algo in ALGORITHMS]
    return planted + [
        (f"{name}-{algo}", ExperimentConfig(spec, opt, algo, eval_every))
        for name, spec, opt, eval_every in settings
        for algo in ALGORITHMS
    ]


def _race() -> tuple[list[ExperimentConfig], float]:
    """AC7's seed-0 planted race, one config per algorithm at its best grid rate, and its target."""
    spec = ProblemSpec("planted", (LayerShape(32, 32, 2),), data_seed=0, noise_scale=1.4, num_samples=128, true_rank=2)
    configs = [
        ExperimentConfig(
            spec,
            OptimizerConfig(alpha=alpha, total_steps=2000, base_seed=derive_seed(0xAC7, 0), nu=50, v_kind=kind),
            algo,
            eval_every=10,
        )
        for algo, alpha, kind in (
            ("lozo", 5e-3, SamplerKind.HAAR_SCALED),
            ("lozo-m", 5e-3, SamplerKind.HAAR_SCALED),
            ("zo-sgd", 2.5e-3, SamplerKind.STANDARD_NORMAL),
        )
    ]
    return configs, 1.2 * make_problem(spec).optimal_loss


def _array_bytes(a: np.ndarray) -> bytes:
    """a's rank, shape and float64 values, in C order."""
    head = struct.pack("<q", a.ndim) + struct.pack(f"<{a.ndim}q", *a.shape)
    return head + np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _parts() -> Iterator[tuple[str, bytes]]:
    """(name, bytes) of each covered part, in the order digest() hashes them."""
    for p, (name, oracle, shapes, nu, alpha, beta, data) in enumerate(_problems()):
        out = bytearray(name.encode())
        for a in data:
            out += _array_bytes(a)
        for kind in SamplerKind:
            for i, s in enumerate(shapes):
                for k in range(8):
                    out += _array_bytes(sample_v(derive_seed(0xD16, p, i, k), s.n, s.r, kind))
            for algo in ALGORITHMS:
                config = OptimizerConfig(
                    alpha=alpha, total_steps=STEPS, base_seed=derive_seed(0xD16, p), nu=nu, beta=beta, v_kind=kind
                )
                x = _start(shapes, derive_seed(0xD16, p, 0x57))
                for r in run(oracle, x, config, algo):
                    out += struct.pack("<qddd", r.step, r.loss, r.fd_scalar_abs, r.est_norm)
                for a in x.layers:
                    out += _array_bytes(a)
        yield f"problem:{name}", bytes(out)
    with tempfile.TemporaryDirectory() as td:
        for name, config in _experiments():
            stem = Path(td) / name
            run_experiment(replace(config, output_path=str(stem)))
            outputs = stem.with_suffix(".csv").read_bytes() + stem.with_suffix(".json").read_bytes()
            yield f"cli:{name}", name.encode() + outputs
    rows = compare_algorithms(*_race())
    yield "compare", b"".join(f"{algo},{e2t},{stop!r}\n".encode() for algo, e2t, stop in rows)


def parts() -> dict[str, str]:
    """Part name -> the hex SHA-256 of exactly the bytes digest() hashes for that part.

    The names are problem:<name> for the four problem blocks, cli:<name> for
    the nine run_experiment outputs and compare for the compare rows. Two
    runs' maps name the parts that moved between them.
    """
    return {name: hashlib.sha256(data).hexdigest() for name, data in _parts()}


def digest() -> str:
    """The hex SHA-256 of every covered trajectory, problem datum, V draw and CLI output."""
    h = hashlib.sha256()
    for _, data in _parts():
        h.update(data)
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
