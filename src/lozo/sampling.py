"""Deterministic seeded sampling of perturbation factors.

Seed replay: instead of storing the tall-skinny factors U and V, the
matrices are regenerated on demand from 64-bit seeds. Every stream is a pure
function of (base seed, stream tag, layer index, step or period index), so an
optimizer needs to keep no seeds at all, only its step counter (it also keeps
the current period's V, sum over layers of n_l r_l elements, as a cache
derived from that counter). The key is produced by a splitmix64-style hash
and fed to numpy's Philox counter-based bit generator; normals come from
Generator.standard_normal (ziggurat). Identical keys give bit-identical
matrices within a build.

Draws reuse one Philox bit generator per thread instead of constructing one
per draw: before each draw its state is reset to counter 0, key [seed, 0] and
an empty buffer, which is exactly the state of a fresh Philox(key=seed), so
the stream is the same while the per-draw constructor cost (it seeds an
unused SeedSequence from OS entropy) is paid once per thread. The reset
state holds its counter, key and buffer as lists of plain Python ints, which
the state setter reads without the numpy-scalar conversions that uint64
arrays would cost, and each draw rewrites only the key's first word.

sample_v returns V in Fortran order, the layout BLAS reads without a copy:
a period's V is drawn once and enters a dgemm on every pass of every step of
the period. The layout changes no value, so the streams are the same.
"""

from __future__ import annotations

import enum
import math
import threading
from typing import Sequence

import numpy as np

from .linalg import LayerShape, Matrix, as_int, thin_qr

Seed = int

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # splitmix64 increment

# stream tags keep the per-purpose substreams disjoint
STREAM_U = 0x11
STREAM_V = 0x22
STREAM_Z = 0x33
STREAM_DATA = 0x44


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; a fixed 64-bit mixing permutation."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def as_seed(name: str, value) -> Seed:
    """value as a Python int in [0, 2**64), the seeds derive_seed tells apart.

    as_int checks the type; a value outside the range raises ValueError naming
    the field, since derive_seed would mask it onto the seed in range that
    shares its low 64 bits.
    """
    seed = as_int(name, value)
    if not (0 <= seed <= _MASK64):
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    return seed


def derive_seed(base: Seed, *words: int) -> Seed:
    """Hash (base, words...) into one 64-bit stream key."""
    h = base & _MASK64
    for w in words:
        h = splitmix64((h + GAMMA + (w & _MASK64)) & _MASK64)
    return h


_thread = threading.local()


def _generator(seed: Seed) -> np.random.Generator:
    """This thread's generator, reset to the stream of a fresh Philox(key=seed)."""
    gen = getattr(_thread, "generator", None)
    if gen is None:
        gen = _thread.generator = np.random.Generator(np.random.Philox(key=0))
        # the state of a fresh Philox: counter 0, key [seed, 0], empty buffer, in plain ints
        _thread.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    state = _thread.state
    state["state"]["key"][0] = seed & _MASK64
    gen.bit_generator.state = state
    return gen


class SamplerKind(enum.Enum):
    """Distribution family for the row-space factor V."""

    STANDARD_NORMAL = "normal"
    HAAR_SCALED = "haar"
    RANDOM_COORDINATE = "coordinate"


def sample_gaussian(seed: Seed, rows: int, cols: int) -> Matrix:
    """I.i.d. standard normal matrix, deterministic per (seed, rows, cols)."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    return _generator(seed).standard_normal((rows, cols))


def sample_v(seed: Seed, n: int, r: int, kind: SamplerKind) -> Matrix:
    """Draw the n x r factor V.

    STANDARD_NORMAL: i.i.d. N(0, 1) entries.
    HAAR_SCALED: sqrt(n) * Q with Q the Q-factor of a Gaussian draw, signs
        fixed so R's diagonal is nonnegative; V^T V = n I to rounding. Q and
        diag(R) come from linalg.thin_qr (LAPACK dgeqrf and dorgqr, equal to
        np.linalg.qr's bytes on the installed builds), and one multiply by
        +-sqrt(n) per column applies the sign fix and the scale in Q's own
        Fortran order.
    RANDOM_COORDINATE: columns sqrt(n) * e_j with r distinct uniformly drawn
        indices; V^T V = n I exactly.

    Every kind returns V in Fortran order, the layout in which
    estimators.add_low_rank hands it to dgemm, so no pass copies it. The
    values are those of a C-order draw: the normal kind copies its draw into
    Fortran order once, and the Haar kind keeps the order of LAPACK's Q.
    Unless 1 <= r <= n, it raises ValueError naming both before any draw.
    """
    if not 1 <= r <= n:
        raise ValueError(f"V's dimensions must satisfy 1 <= r <= n, got n={n}, r={r}")
    gen = _generator(seed)
    if kind is SamplerKind.STANDARD_NORMAL:
        return np.asfortranarray(gen.standard_normal((n, r)))
    if kind is SamplerKind.HAAR_SCALED:
        q, d = thin_qr(gen.standard_normal((n, r)))
        s = math.sqrt(n)
        return np.multiply(q, np.where(d >= 0.0, s, -s))
    if kind is SamplerKind.RANDOM_COORDINATE:
        idx = gen.choice(n, size=r, replace=False)
        v = np.zeros((n, r), order="F")
        v[idx, np.arange(r)] = np.sqrt(n)
        return v
    raise ValueError(f"unknown sampler kind {kind!r}")


def make_sketch(
    base_seed: Seed, shapes: Sequence[LayerShape], v_kind: SamplerKind, step: int, period: int
) -> list[tuple[Matrix, Matrix]]:
    """One step's (U_l, V_l), U keyed by (layer, step) and V by (layer, period).

    Byte for byte the U_l a lozo step returns and the V_l it caches; perfbench/harness.py is the last caller until
    ROADMAP item J, and item K deletes it.
    """
    return [
        (
            sample_gaussian(derive_seed(base_seed, STREAM_U, i, step), s.m, s.r),
            sample_v(derive_seed(base_seed, STREAM_V, i, period), s.n, s.r, v_kind),
        )
        for i, s in enumerate(shapes)
    ]
