"""The perturbation core of every optimizer step, lge_scalar, and the coordinate-wise estimator cge.

One perturbation core serves every optimizer step and lge_scalar:
add_low_rank adds scale_l * U_l V_l^T to each layer, add_dense adds
scale * Z_l, and _central_difference drives either one through the
+eps / -2eps phases. add_low_rank takes each layer's dgemm operands
(V_l, U_l^T, X_l^T), which low_rank_operands, or optimizers.lozo_step in
its draw loop, builds once for all the passes of a probe. Each layer takes
one in-place BLAS dgemm (beta = 1, written through the layer's transpose) on
views of the arrays themselves: U as its F-contiguous transpose, and V as
sampling.sample_v returns it, in Fortran order. So no perturb, restore or
update pass builds an m x n temporary or a copy of U or V. The result
equals the numpy expression X += s * (U @ V.T) bit for bit on the shapes
the acceptance checks and the benchmark's small workloads use (32 x 32,
256 x 256, 16 x 256 and the tests' small shapes); on larger layers, such
as 512 x 512 or 1024 x 1024, OpenBLAS takes another kernel and the two
differ by a few ulps. Reruns stay byte-identical either way. add_dense walks
large layers in fixed row blocks through one reused buffer, with the same
multiply-then-add per entry.

The success/failure contract of _central_difference: when both losses are
finite it returns c and leaves X at X - eps P, so that the caller's next pass
over X adds eps P back together with its own update (an optimizer step folds
the restore into its update; lge_scalar adds eps P back alone).
When an evaluation raises or a loss is not finite, X is restored before the
error propagates, accepting a few ulps of floating-point drift rather than
checkpointing it. Every pass acts on the layer arrays X held on entry, which
_central_difference puts back before each pass and on return, so an oracle
that rebinds a layer of X inside evaluate changes neither the result nor
the arrays the caller holds, and a probe's operands, views of those arrays,
stay valid for all its passes. lge_scalar takes one step's (U_l, V_l) per
layer; the acceptance checks form their estimates from what the steps return,
c with the U_l or Z_l the step drew, and redraw nothing.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.blas import dgemm

from .linalg import Matrix, ParamSet

DEFAULT_EPSILON = 1e-3
CGE_DIMENSION_CAP = 100_000
DENSE_BLOCK = 65536  # entries per add_dense block: the 512 KiB buffer stays in cache between its write and read
_F64 = np.dtype(np.float64)


class EvaluationError(RuntimeError):
    """Loss oracle produced a non-finite value; parameters were restored."""

    def __init__(self, message: str, layer: int | None = None, entry: tuple[int, int] | None = None):
        super().__init__(message)
        self.layer = layer
        self.entry = entry


def low_rank_operands(x: ParamSet, factors: Sequence[tuple[Matrix, Matrix]]) -> list[tuple[Matrix, Matrix, Matrix]]:
    """Per layer, the dgemm operands of X_l += s U_l V_l^T: V_l, and U_l^T and X_l^T as F-contiguous views.

    One list serves every pass of a probe and of the update after it, since
    each pass acts on the layer arrays x held when the probe began (see
    _central_difference). A V_l in C order, unlike sample_v's, gives the
    same bytes through a copy on every pass.
    """
    return [(v, u.T, a.T) for a, (u, v) in zip(x.layers, factors)]


def add_low_rank(
    x: ParamSet, operands: Sequence[tuple[Matrix, Matrix, Matrix]], scale: float | Sequence[float]
) -> None:
    """X_l += scale_l * U_l V_l^T in place; scale is one float or one per layer.

    operands are low_rank_operands(x, factors), built on the layers x holds
    now. Each layer takes one positional dgemm, X_l^T = scale_l * V_l U_l^T
    + X_l^T, on those views as they are, so the wrapper parses no keywords,
    copies none of U_l, V_l and X_l, and builds no m x n temporary. Every
    pass checks every layer, since it keeps no record of the arrays it has
    seen, and an oracle may still change a layer's flags in place between
    passes (say, make it read-only): a layer that BLAS could only update
    through a copy, one that is not a writeable, aligned, C-contiguous
    float64 array, raises ValueError before any layer is touched.
    """
    for a in x.layers:
        if not a.flags.carray or a.dtype != _F64:
            raise ValueError(
                f"layer {[id(b) for b in x.layers].index(id(a))} must be a writeable C-contiguous float64 array"
                " in aligned memory to be updated in place"
            )
    # positional: dgemm(alpha, a, b, beta, c, trans_a, trans_b, overwrite_c). One loop per form of scale:
    # zipping the operands with a repeat() of one float costs half a 32 x 32 layer's dgemm call.
    if isinstance(scale, (list, tuple)):
        for (v, ut, at), s in zip(operands, scale):
            dgemm(s, v, ut, 1.0, at, 0, 0, 1)
    else:
        for v, ut, at in operands:
            dgemm(scale, v, ut, 1.0, at, 0, 0, 1)


def add_dense(x: ParamSet, directions: Sequence[Matrix], scale: float) -> None:
    """X_l += scale * Z_l in place.

    A layer of more than DENSE_BLOCK entries is walked in row blocks through
    one buffer reused across its blocks, instead of one full-size
    scale * Z_l temporary. Each entry is still rounded as scale * z, then as
    a + (scale * z), so the bytes equal those of X_l += scale * Z_l. Smaller
    layers take that expression directly, where a block loop would cost more
    than it saves.
    """
    for a, z in zip(x.layers, directions):
        if a.size <= DENSE_BLOCK:
            a += scale * z
            continue
        m, n = a.shape
        rows = max(1, DENSE_BLOCK // n)
        buf = np.empty((rows, n))
        for lo in range(0, m, rows):
            b = buf[: min(rows, m - lo)]
            np.multiply(z[lo : lo + rows], scale, out=b)
            a[lo : lo + rows] += b


def _central_difference(
    loss, x: ParamSet, xi: int, epsilon: float, add: Callable[[ParamSet, Sequence, float], None], directions: Sequence
) -> float:
    """Evaluate c = (F(X + eps P) - F(X - eps P)) / 2 eps via in-place phases.

    `add(x, directions, scale)` adds scale * P to x: add_low_rank for
    per-layer low-rank operands, add_dense for per-layer matrices. On success x
    is left at X - eps P and c is returned: the caller adds eps P back, alone
    or folded into its update, in its next pass. When an evaluation raises,
    or a loss is not finite (EvaluationError), x is restored before the error
    propagates. An epsilon that is not positive and finite raises ValueError
    before x is touched. Each pass, and the restore, acts on the layer arrays
    x held on entry: an oracle that rebinds a layer of x inside evaluate has
    the originals put back before the next pass, and on return.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    layers = x.layers[:]
    add(x, directions, epsilon)
    offset, finite = 1.0, False
    try:
        f_plus = float(loss.evaluate(x, xi))
        x.layers[:] = layers
        add(x, directions, -2.0 * epsilon)
        offset = -1.0
        f_minus = float(loss.evaluate(x, xi))
        finite = math.isfinite(f_plus) and math.isfinite(f_minus)
    finally:
        x.layers[:] = layers
        if not finite:
            add(x, directions, -offset * epsilon)
    if not finite:
        raise EvaluationError(f"non-finite loss in central difference: F+={f_plus}, F-={f_minus}")
    return (f_plus - f_minus) / (2.0 * epsilon)


def lge_scalar(loss, x: ParamSet, factors: Sequence[tuple[Matrix, Matrix]], epsilon: float, xi: int) -> float:
    """Finite-difference scalar c for the low-rank perturbation {U_l V_l^T}; X is restored.

    factors holds one (U_l, V_l) per layer, U_l m_l x r_l and V_l n_l x r_l,
    such as the U_l a lozo step returns with the V_l in its state.v_cache;
    any other count or shape raises ValueError before X is touched. The
    three phases add the same factors, so the round-trip drift stays within
    a few ulps per entry.
    """
    if len(factors) != len(x):
        raise ValueError(f"factors must hold one (U, V) pair per layer: got {len(factors)} for {len(x)} layers")
    for i, (s, (u, v)) in enumerate(zip(x.shapes, factors)):
        if np.shape(u) != (s.m, s.r) or np.shape(v) != (s.n, s.r):
            raise ValueError(f"layer {i} factors are {np.shape(u)}, {np.shape(v)}; expected {(s.m, s.r)}, {(s.n, s.r)}")
    operands = low_rank_operands(x, factors)
    c = _central_difference(loss, x, xi, epsilon, add_low_rank, operands)
    add_low_rank(x, operands, epsilon)
    return c


def cge(loss, x: ParamSet, epsilon: float, xi: int) -> ParamSet:
    """Coordinate-wise central differences; exactly 2d loss evaluations.

    Refuses to run above CGE_DIMENSION_CAP coordinates to avoid accidental
    2d blowups. Entries are saved and restored exactly around each probe.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    d = x.num_elements()
    if d > CGE_DIMENSION_CAP:
        raise ValueError(f"CGE over {d} coordinates exceeds the cap of {CGE_DIMENSION_CAP}")
    grads = [np.zeros_like(a) for a in x.layers]
    for li, a in enumerate(x.layers):
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                orig = a[i, j]
                a[i, j] = orig + epsilon
                f_plus = float(loss.evaluate(x, xi))
                a[i, j] = orig - epsilon
                f_minus = float(loss.evaluate(x, xi))
                a[i, j] = orig
                if not np.isfinite(f_plus) or not np.isfinite(f_minus):
                    raise EvaluationError(
                        f"non-finite loss at layer {li}, entry ({i}, {j}): F+={f_plus}, F-={f_minus}",
                        layer=li,
                        entry=(i, j),
                    )
                grads[li][i, j] = (f_plus - f_minus) / (2.0 * epsilon)
    return ParamSet(grads, x.shapes)
