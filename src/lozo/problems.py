"""Desk-scale test losses with analytic gradients.

Each oracle evaluates F(X; xi) over a fixed finite sample set, so the
population loss is an exact finite average. Where an analytic gradient or the
exact optimum is available it is exposed, which is what lets the estimator and
convergence checks compare against ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import estimators
from .linalg import LayerShape, ParamSet, as_float, as_int, layer_shapes, thin_qr, top_singular_values
from .sampling import STREAM_DATA, as_seed, derive_seed, sample_gaussian


def _count(value) -> int:
    """A sample count: an integer of 1 or more, named num_samples whatever the builder calls it."""
    count = as_int("num_samples", value)
    if count < 1:
        raise ValueError("num_samples must be positive")
    return count


def _noise(value) -> float:
    noise_scale = as_float("noise_scale", value)
    if noise_scale < 0.0:
        raise ValueError(f"noise_scale must be nonnegative, got {noise_scale!r}")
    return noise_scale


def _batch_size(value) -> int:
    batch_size = as_int("batch_size", value)
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    return batch_size


class LossOracle:
    """Scalar loss F(X; xi) over a finite sample set.

    analytic_grad is optional; a problem without it (the tiny MLP) falls
    back to finite differences in tests and diagnostics. expected_fn is
    optional too: without it the population loss is the exact mean of eval_fn
    over the sample set.
    """

    has_expected_loss = True  # every oracle has a population loss; perfbench reads this

    def __init__(
        self,
        name: str,
        num_samples: int,
        eval_fn: Callable[[ParamSet, int], float],
        grad_fn: Optional[Callable[[ParamSet, int], ParamSet]] = None,
        expected_fn: Optional[Callable[[ParamSet], float]] = None,
        optimal_loss: Optional[float] = None,
    ):
        self.name = name
        self.num_samples = _count(num_samples)
        self._eval_fn = eval_fn
        self._grad_fn = grad_fn
        self._expected_fn = expected_fn
        self.optimal_loss = optimal_loss

    def _index(self, xi) -> int:
        """xi as a sample index: an integer in [0, num_samples), a numpy integer converted; else a named error."""
        if type(xi) is not int:
            xi = as_int("sample index", xi)
        if not (0 <= xi < self.num_samples):
            raise ValueError(f"sample index {xi} out of range [0, {self.num_samples})")
        return xi

    def evaluate(self, x: ParamSet, xi: int) -> float:
        if type(xi) is not int or not (0 <= xi < self.num_samples):  # the common path makes no call
            xi = self._index(xi)
        return float(self._eval_fn(x, xi))

    @property
    def has_analytic_grad(self) -> bool:
        return self._grad_fn is not None

    def analytic_grad(self, x: ParamSet, xi: int) -> ParamSet:
        if self._grad_fn is None:
            raise ValueError(f"problem {self.name!r} has no analytic gradient")
        return self._grad_fn(x, self._index(xi))

    def expected_loss(self, x: ParamSet) -> float:
        """The population loss: expected_fn's value, or the exact mean of eval_fn over the sample set.

        The mean calls eval_fn, not evaluate, so a subclass counting evaluate calls counts none here.
        """
        if self._expected_fn is not None:
            return float(self._expected_fn(x))
        return float(sum(self._eval_fn(x, xi) for xi in range(self.num_samples)) / self.num_samples)

    def eval_metric(self, x: ParamSet) -> float:
        """Evaluation-time loss: the population loss, expected_loss.

        One call's cost is the family's: the quadratic forms X - A once per
        layer, about one evaluate; the planted family makes one matmul over
        all its pairs; the logistic and MLP families evaluate every sample,
        so a call costs num_samples evaluations.
        """
        return self.expected_loss(x)


@dataclass(frozen=True)
class ProblemSpec:
    """Description of a test problem; the CLI reads and writes its fields as JSON.

    kind is one of PROBLEM_KINDS, and shapes, any sequence of LayerShape, is
    stored as the tuple linalg.layer_shapes returns. make_problem passes its
    builder the fields the spec sets, so a field left unset takes the
    builder's default: num_samples 0 and noise_scale None are unset. Every kind reads data_seed, which must
    lie in [0, 2**64), and num_samples, which must not be negative.
    "quadratic" takes one or more layers; "planted" and "logistic" take one;
    "mlp" takes two or more layers that compose (each layer's n is the
    previous layer's m). Only "planted" reads true_rank.
    A set noise_scale must be finite and nonnegative for every kind;
    "logistic" ignores it. No kind reads the layer ranks.
    """

    kind: str = "quadratic"
    shapes: tuple[LayerShape, ...] = (LayerShape(16, 16, 2),)
    data_seed: int = 0
    noise_scale: Optional[float] = None  # None means the problem family default
    num_samples: int = 0  # 0 means the problem family default
    true_rank: int = 2

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        for name in ("num_samples", "true_rank"):
            object.__setattr__(self, name, as_int(name, getattr(self, name)))
        object.__setattr__(self, "data_seed", as_seed("data_seed", self.data_seed))
        if self.noise_scale is not None:
            object.__setattr__(self, "noise_scale", _noise(self.noise_scale))
        object.__setattr__(self, "shapes", layer_shapes(self.shapes))
        if not self.shapes:
            raise ValueError("a problem needs at least one layer shape")
        if self.num_samples < 0:
            raise ValueError(f"num_samples must be nonnegative, got {self.num_samples}")


def _normalize_shapes(shape) -> tuple[LayerShape, ...]:
    """A builder's shape argument, one LayerShape or a sequence of them, as a checked tuple."""
    return (shape,) if isinstance(shape, LayerShape) else layer_shapes(shape)


def _one_layer(shape, family: str) -> LayerShape:
    shapes = _normalize_shapes(shape)
    if len(shapes) != 1:
        raise ValueError(f"the {family} problem takes 1 layer shape, got {len(shapes)}")
    return shapes[0]


def make_quadratic(shape, data_seed: int, noise_scale: float = 0.0, num_samples: int = 8) -> LossOracle:
    """F(X; xi) = 1/2 ||X - A||_F^2 + <G_xi, X> with mean-centered noise G_xi.

    The noise matrices sum to zero over the sample set, so the expected loss
    is exactly 1/2 ||X - A||^2, minimized at X = A with value 0.
    """
    data_seed, noise_scale, num_samples = as_seed("data_seed", data_seed), _noise(noise_scale), _count(num_samples)
    shapes = _normalize_shapes(shape)
    if not shapes:
        raise ValueError("the quadratic problem takes at least 1 layer shape, got 0")
    targets = [sample_gaussian(derive_seed(data_seed, STREAM_DATA, li), s.m, s.n) for li, s in enumerate(shapes)]
    noise = [
        [
            noise_scale * sample_gaussian(derive_seed(data_seed, STREAM_DATA, 1 + xi, li), s.m, s.n)
            for li, s in enumerate(shapes)
        ]
        for xi in range(num_samples)
    ]
    for li in range(len(shapes)):
        mean = sum(noise[xi][li] for xi in range(num_samples)) / num_samples
        for xi in range(num_samples):
            noise[xi][li] = noise[xi][li] - mean

    def eval_fn(x: ParamSet, xi: int) -> float:
        total = 0.0
        for a, t, g in zip(x.layers, targets, noise[xi]):
            diff = a - t
            total += 0.5 * float(np.einsum("ij,ij->", diff, diff)) + float(np.einsum("ij,ij->", g, a))
        return total

    def grad_fn(x: ParamSet, xi: int) -> ParamSet:
        return ParamSet([a - t + g for a, t, g in zip(x.layers, targets, noise[xi])], x.shapes)

    def expected_fn(x: ParamSet) -> float:
        total = 0.0
        for a, t in zip(x.layers, targets):
            diff = a - t  # one m x n temporary per layer, as in eval_fn
            total += 0.5 * float(np.einsum("ij,ij->", diff, diff))
        return total

    oracle = LossOracle("quadratic", num_samples, eval_fn, grad_fn, expected_fn, optimal_loss=0.0)
    oracle.targets = targets
    return oracle


def make_planted_low_rank(
    shape,
    true_rank: int,
    data_seed: int,
    noise_scale: float = 1.0,
    num_batches: int = 128,
) -> LossOracle:
    """Bilinear regression whose gradient is a sum of true_rank outer products.

    Each batch holds true_rank antithetic pairs (a, b, y0 + d) and
    (a, b, y0 - d) with shared unit feature vectors, the a's orthonormal and
    the b's an orthonormal basis of one fixed true_rank-dimensional row
    subspace. The pair structure makes the noise mean-zero and the planted
    parameters the exact minimizer of every batch loss, so the optimum value
    is known in closed form while every per-batch gradient stays rank
    <= true_rank.
    """
    data_seed, noise_scale, num_batches = as_seed("data_seed", data_seed), _noise(noise_scale), _count(num_batches)
    s = _one_layer(shape, "planted")
    m, n, p = s.m, s.n, as_int("true_rank", true_rank)
    if not (1 <= p <= min(m, n)):
        raise ValueError(f"true_rank must be in [1, min(m, n)], got {p}")
    root = derive_seed(data_seed, STREAM_DATA, 0xB1)
    w, _ = thin_qr(sample_gaussian(derive_seed(root, 0), n, p))
    x_star = sample_gaussian(derive_seed(root, 1), m, n)
    a_vecs = np.empty((num_batches, p, m))
    b_vecs = np.empty((num_batches, p, n))
    for bi in range(num_batches):
        qa, _ = thin_qr(sample_gaussian(derive_seed(root, 2, bi), m, p))
        qb, _ = thin_qr(sample_gaussian(derive_seed(root, 3, bi), p, p))
        a_vecs[bi] = qa.T
        b_vecs[bi] = (w @ qb).T
    unif = sample_gaussian(derive_seed(root, 4), num_batches, p)
    offsets = noise_scale * (1.0 + 0.5 * np.tanh(unif))  # in noise_scale * (0.5, 1.5)
    # batch bi's offset energy sum_k d_k^2, formed once: equal bit for bit to np.sum(offsets[bi] * offsets[bi])
    offsets_sq = (offsets * offsets).sum(axis=1)
    y_base = np.einsum("spm,mn,spn->sp", a_vecs, x_star, b_vecs)
    f_star = float(np.mean(offsets_sq))

    a_flat = a_vecs.reshape(num_batches * p, m)
    b_flat = b_vecs.reshape(num_batches * p, n)
    y_flat = y_base.reshape(-1)
    offsets_sq_total = float(np.sum(offsets * offsets))

    def _residual_means(xm: np.ndarray, bi: int) -> np.ndarray:
        return ((a_vecs[bi] @ xm) * b_vecs[bi]).sum(axis=1) - y_base[bi]

    def eval_fn(x: ParamSet, xi: int) -> float:
        v = _residual_means(x.layers[0], xi)
        # pair residuals (v - d), (v + d): 1/2 sum of squares = v^2 + d^2
        return float(np.sum(v * v) + offsets_sq[xi])

    def grad_fn(x: ParamSet, xi: int) -> ParamSet:
        v = _residual_means(x.layers[0], xi)
        g = (a_vecs[xi] * (2.0 * v)[:, None]).T @ b_vecs[xi]
        return ParamSet([g], x.shapes)

    def expected_fn(x: ParamSet) -> float:
        v = ((a_flat @ x.layers[0]) * b_flat).sum(axis=1) - y_flat
        return (float(np.einsum("i,i->", v, v)) + offsets_sq_total) / num_batches

    oracle = LossOracle("planted_low_rank", num_batches, eval_fn, grad_fn, expected_fn, optimal_loss=f_star)
    oracle.planted = x_star
    oracle.pair_data = (a_vecs, b_vecs, y_base, offsets)
    return oracle


def make_logistic(
    shape,
    data_seed: int,
    num_batches: int = 16,
    batch_size: int = 16,
) -> LossOracle:
    """Binary cross-entropy on a synthetic Gaussian mixture of matrix features.

    Features are Phi = y * M + 0.8 * G / sqrt(m n) with a fixed unit-norm
    mean pattern M and standard Gaussian G; the score of a weight matrix X on
    a feature is the Frobenius inner product <X, Phi>. Each batch is exactly
    class-balanced.
    """
    data_seed, num_batches = as_seed("data_seed", data_seed), _count(num_batches)
    s = _one_layer(shape, "logistic")
    batch_size = _batch_size(batch_size)
    if batch_size % 2 != 0:
        raise ValueError("batch_size must be even so batches are class-balanced")
    root = derive_seed(data_seed, STREAM_DATA, 0xC1)
    mean = sample_gaussian(derive_seed(root, 0), s.m, s.n)
    mean /= np.sqrt(float(np.einsum("ij,ij->", mean, mean)))
    labels = np.tile(np.array([1.0, -1.0]), batch_size // 2)
    feats = np.empty((num_batches, batch_size, s.m, s.n))
    for bi in range(num_batches):
        g = sample_gaussian(derive_seed(root, 1, bi), batch_size * s.m, s.n).reshape(batch_size, s.m, s.n)
        feats[bi] = labels[:, None, None] * mean + 0.8 * g / np.sqrt(s.m * s.n)

    def _scores(xm: np.ndarray, bi: int) -> np.ndarray:
        return np.tensordot(feats[bi], xm, axes=([1, 2], [0, 1]))

    def eval_fn(x: ParamSet, xi: int) -> float:
        t = labels * _scores(x.layers[0], xi)
        return float(np.mean(np.logaddexp(0.0, -t)))

    def grad_fn(x: ParamSet, xi: int) -> ParamSet:
        t = labels * _scores(x.layers[0], xi)
        coef = -labels / (1.0 + np.exp(t))  # -y * sigmoid(-y z)
        g = np.tensordot(coef, feats[xi], axes=(0, 0)) / batch_size
        return ParamSet([g], x.shapes)

    return LossOracle("logistic", num_batches, eval_fn, grad_fn)


def make_tiny_mlp(
    shapes,
    data_seed: int,
    num_batches: int = 8,
    batch_size: int = 16,
    noise_scale: float = 0.05,
) -> LossOracle:
    """A tanh network of two or more layers with a linear squared-error head, forward pass only.

    Layer l is an m_l x n_l matrix W_l that maps h to h W_l^T, so each
    layer's n equals the previous layer's m; tanh follows every layer but the
    last. Targets come from a random teacher network of the same
    architecture plus noise_scale times Gaussian noise; no analytic gradient
    is provided, so gradient checks on this problem use central differences.

    Every draw comes from root = derive_seed(data_seed, STREAM_DATA, 0xD1).
    Teacher layer l is N(0, 1) / sqrt(n_l), drawn from derive_seed(root, l)
    for l = 0 and 1 and from derive_seed(root, 4, l) for l >= 2. Batch bi's
    inputs come from derive_seed(root, 2, bi) and its target noise from
    derive_seed(root, 3, bi).
    """
    data_seed, noise_scale, num_batches = as_seed("data_seed", data_seed), _noise(noise_scale), _count(num_batches)
    batch_size = _batch_size(batch_size)
    shapes = _normalize_shapes(shapes)
    if len(shapes) < 2:
        raise ValueError(f"the mlp problem takes at least 2 layer shapes, got {len(shapes)}")
    for prev, s in zip(shapes, shapes[1:]):
        if s.n != prev.m:
            raise ValueError(f"layer shapes do not compose: {prev.m}x{prev.n} then {s.m}x{s.n}")
    d_in, d_out = shapes[0].n, shapes[-1].m
    root = derive_seed(data_seed, STREAM_DATA, 0xD1)
    teacher = [
        sample_gaussian(derive_seed(root, li) if li < 2 else derive_seed(root, 4, li), s.m, s.n) / np.sqrt(s.n)
        for li, s in enumerate(shapes)
    ]

    def forward(h: np.ndarray, ws: list[np.ndarray]) -> np.ndarray:
        # tanh overwrites the activation the matmul just allocated, and rebinding h frees the one before,
        # so an evaluation holds at most two adjacent activations; a while loop allocates no iterator
        i = 0
        while i < len(ws) - 1:
            h = h @ ws[i].T
            np.tanh(h, out=h)
            i += 1
        return h @ ws[-1].T

    xs = np.empty((num_batches, batch_size, d_in))
    ys = np.empty((num_batches, batch_size, d_out))
    for bi in range(num_batches):
        xs[bi] = sample_gaussian(derive_seed(root, 2, bi), batch_size, d_in)
        noise = noise_scale * sample_gaussian(derive_seed(root, 3, bi), batch_size, d_out)
        ys[bi] = forward(xs[bi], teacher) + noise

    def eval_fn(x: ParamSet, xi: int) -> float:
        # the residual and its square overwrite the head's output, which no one else holds
        resid = forward(xs[xi], x.layers)
        resid -= ys[xi]
        resid *= resid
        return 0.5 * float(np.mean(np.sum(resid, axis=1)))

    return LossOracle("tiny_mlp", num_batches, eval_fn)


def gradient_rank_profile(oracle: LossOracle, x: ParamSet, xi: int, k: int) -> list[list[float]]:
    """Top-k singular values of the true gradient, one list per layer.

    Uses the analytic gradient when available, otherwise coordinate-wise
    central differences with a small step.
    """
    if oracle.has_analytic_grad:
        grad = oracle.analytic_grad(x, xi)
    else:
        grad = estimators.cge(oracle, x, 1e-6, xi)
    return [top_singular_values(g, min(k, min(g.shape))) for g in grad.layers]


def _set(spec: ProblemSpec, count: str, noise: bool = True) -> dict:
    """The fields spec sets, as keywords of a builder that calls num_samples count."""
    kwargs = {count: spec.num_samples} if spec.num_samples else {}
    if noise and spec.noise_scale is not None:
        kwargs["noise_scale"] = spec.noise_scale
    return kwargs


# kind -> the builder of its oracle from a ProblemSpec; a field the spec leaves unset takes the builder's default
_BUILDERS: dict[str, Callable[[ProblemSpec], LossOracle]] = {
    "quadratic": lambda spec: make_quadratic(spec.shapes, spec.data_seed, **_set(spec, "num_samples")),
    "planted": lambda spec: make_planted_low_rank(spec.shapes, spec.true_rank, spec.data_seed, **_set(spec, "num_batches")),
    "logistic": lambda spec: make_logistic(spec.shapes, spec.data_seed, **_set(spec, "num_batches", noise=False)),
    "mlp": lambda spec: make_tiny_mlp(spec.shapes, spec.data_seed, **_set(spec, "num_batches")),
}
PROBLEM_KINDS = tuple(_BUILDERS)


def make_problem(spec: ProblemSpec) -> LossOracle:
    """Instantiate the oracle described by a ProblemSpec."""
    return _BUILDERS[spec.kind](spec)
