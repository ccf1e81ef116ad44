"""Dense matrix primitives and per-layer parameter sets.

Matrices are plain 2-D float64 numpy arrays (C order). A ParamSet bundles
the per-layer weight matrices together with their shapes and perturbation
ranks; it is the optimization variable everything else operates on. A
sequence of layer shapes has one form, the tuple of LayerShape that
layer_shapes checks once and returns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgeqrf_lwork, dorgqr

Matrix = np.ndarray


def as_int(name: str, value) -> int:
    """value as a Python int; a bool or a non-integer raises TypeError naming the field.

    A numpy integer is converted: the seed arithmetic masks Python ints to 64
    bits, and a numpy int64 operand would overflow it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_float(name: str, value) -> float:
    """value as a finite Python float; a bool or a non-number raises TypeError naming the field.

    A number past the float range, or an infinite or NaN one, raises ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as e:
        raise ValueError(f"{name} is out of floating-point range") from e
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class LayerShape:
    """Dimensions (m, n) of one weight matrix and its perturbation rank r, stored as Python ints."""

    m: int
    n: int
    r: int

    def __post_init__(self):
        for name in ("m", "n", "r"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix dimensions must be positive, got {self.m}x{self.n}")
        if self.r < 1 or self.r > min(self.m, self.n):
            raise ValueError(f"rank must satisfy 1 <= r <= min(m, n), got r={self.r} for {self.m}x{self.n}")


def layer_shapes(shapes) -> tuple[LayerShape, ...]:
    """shapes as a tuple, the same object when it is one; anything but a sequence of LayerShape values raises
    TypeError naming shapes."""
    try:
        shapes = tuple(shapes)
    except TypeError:
        raise TypeError(f"shapes must be a sequence of LayerShape, got {shapes!r}") from None
    for s in shapes:
        if not isinstance(s, LayerShape):
            raise TypeError(f"shapes must hold LayerShape values, got {s!r}")
    return shapes


def as_matrix(a) -> Matrix:
    """Coerce to an aligned C-contiguous 2-D float64 array, validating shape and finiteness.

    A C-contiguous float64 array is kept as is unless its data is misaligned
    (say, np.frombuffer at an odd offset); such an array is copied, since
    BLAS would update it only through a copy and estimators.add_low_rank
    rejects it.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if not out.flags.aligned:
        out = out.copy()
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError("matrix contains non-finite entries")
    return out


class ParamSet:
    """Ordered collection of per-layer matrices with their shapes.

    The layers list is mutable on purpose: estimators and optimizers update
    parameters in place. shapes is the tuple layer_shapes returns, checked
    before any layer is read, shared by copies and read-only once set.
    Construction validates that every layer matches its declared shape.
    """

    __slots__ = ("layers", "shapes")

    def __init__(self, layers: Sequence, shapes: Sequence[LayerShape]):
        shapes = layer_shapes(shapes)
        layers = [as_matrix(a) for a in layers]
        if len(layers) != len(shapes):
            raise ValueError(f"{len(layers)} layers but {len(shapes)} shapes")
        for i, (a, s) in enumerate(zip(layers, shapes)):
            if a.shape != (s.m, s.n):
                raise ValueError(f"layer {i} has shape {a.shape}, expected ({s.m}, {s.n})")
        self.layers = layers
        self.shapes = shapes

    def __setattr__(self, name: str, value) -> None:
        if name == "shapes" and hasattr(self, "shapes"):
            raise AttributeError("ParamSet.shapes is read-only; build a new ParamSet for other shapes")
        object.__setattr__(self, name, value)

    @classmethod
    def zeros(cls, shapes: Sequence[LayerShape]) -> "ParamSet":
        shapes = layer_shapes(shapes)
        return cls([np.zeros((s.m, s.n)) for s in shapes], shapes)

    def copy(self) -> "ParamSet":
        return ParamSet([a.copy() for a in self.layers], self.shapes)

    def norm(self) -> float:
        """Global norm sqrt(sum of squared Frobenius norms over layers)."""
        return float(np.sqrt(sum(float(np.vdot(a, a)) for a in self.layers)))

    def num_elements(self) -> int:
        return sum(s.m * s.n for s in self.shapes)

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:
        dims = ", ".join(f"{s.m}x{s.n}(r={s.r})" for s in self.shapes)
        return f"ParamSet[{dims}]"


def thin_qr(a: Matrix) -> tuple[Matrix, np.ndarray]:
    """Q (m x k, Fortran order) and the diagonal of R of the reduced QR of an m x k float64 matrix, m >= k.

    LAPACK dgeqrf, then dorgqr in dgeqrf's output buffer, called directly,
    each with dgeqrf's optimal workspace: the routines and workspace rule of
    np.linalg.qr, without its wrapper's cost. On the installed numpy and scipy
    builds Q and diag(R) equal its Q and np.diag(R) byte for byte (the tests
    check it); the two link separate LAPACK builds, so that is checked, not
    guaranteed.
    """
    m, k = a.shape
    if k > m:
        raise ValueError(f"thin_qr needs a tall or square matrix, got {m}x{k}")
    lwork = int(dgeqrf_lwork(m, k)[0])
    qr, tau, _, _ = dgeqrf(a, lwork)
    d = qr.diagonal().copy()
    q, _, _ = dorgqr(qr, tau, lwork, 1)
    return q, d


def frobenius_norm(a: Matrix) -> float:
    a = np.asarray(a, dtype=np.float64)
    return float(np.sqrt(np.vdot(a, a).real))


def singular_values(a: Matrix) -> np.ndarray:
    """All singular values, descending."""
    a = np.asarray(a, dtype=np.float64)
    return np.linalg.svd(a, compute_uv=False)


def numeric_rank(a: Matrix, rel_tol: float) -> int:
    """Number of singular values above rel_tol times the largest one.

    The zero matrix has rank 0 by convention.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    sv = singular_values(a)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))


def top_singular_values(a: Matrix, k: int) -> list[float]:
    """k largest singular values, descending."""
    a = np.asarray(a, dtype=np.float64)
    if not (1 <= k <= min(a.shape)):
        raise ValueError(f"k={k} out of range for a {a.shape[0]}x{a.shape[1]} matrix")
    return [float(s) for s in singular_values(a)[:k]]
