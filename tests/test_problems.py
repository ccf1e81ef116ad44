"""Loss oracle contracts: analytic gradients, planted structure, determinism."""

import re
import tracemalloc

import numpy as np
import pytest

from lozo import problems
from lozo.linalg import LayerShape, ParamSet, frobenius_norm, numeric_rank
from lozo.optimizers import OptimizerConfig, run
from lozo.problems import (
    PROBLEM_KINDS,
    ProblemSpec,
    gradient_rank_profile,
    make_logistic,
    make_planted_low_rank,
    make_quadratic,
    make_problem,
    make_tiny_mlp,
)
from lozo.sampling import STREAM_DATA, derive_seed, sample_gaussian

from oracles import finite_difference_grad


@pytest.fixture
def no_draw(monkeypatch):
    """Make any data draw fail, so a builder's argument check must come first."""

    def fail(*args):
        raise AssertionError("data drawn before the arguments were checked")

    monkeypatch.setattr(problems, "sample_gaussian", fail)


def rel_grad_error(analytic, fd):
    num = np.sqrt(sum(float(np.vdot(a - b, a - b)) for a, b in zip(analytic, fd)))
    den = np.sqrt(sum(float(np.vdot(b, b)) for b in fd))
    return num / max(den, 1e-30)


class TestQuadratic:
    shapes = [LayerShape(5, 4, 2)]

    def test_minimizer(self):
        oracle = make_quadratic(self.shapes, data_seed=1, noise_scale=0.0, num_samples=3)
        x = ParamSet([oracle.targets[0].copy()], self.shapes)
        assert oracle.evaluate(x, 0) == pytest.approx(0.0, abs=1e-12)
        assert frobenius_norm(oracle.analytic_grad(x, 0).layers[0]) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_identity(self):
        oracle = make_quadratic(self.shapes, data_seed=1, noise_scale=0.0, num_samples=3)
        delta = sample_gaussian(5, 5, 4)
        x = ParamSet([oracle.targets[0] + delta], self.shapes)
        np.testing.assert_allclose(oracle.analytic_grad(x, 0).layers[0], delta, rtol=1e-12)

    def test_noise_is_mean_centered(self):
        oracle = make_quadratic(self.shapes, data_seed=2, noise_scale=0.7, num_samples=5)
        x = ParamSet([sample_gaussian(9, 5, 4)], self.shapes)
        mean_grad = sum(oracle.analytic_grad(x, xi).layers[0] for xi in range(5)) / 5
        np.testing.assert_allclose(mean_grad, x.layers[0] - oracle.targets[0], atol=1e-12)


class TestQuadraticEvalMetric:
    def test_peak_is_one_layer_temporary(self):
        # the population loss forms X - A once per layer: two at once measured 2.0 x the layer
        shape = LayerShape(256, 256, 2)
        oracle = make_quadratic([shape], data_seed=3, noise_scale=0.5, num_samples=4)
        x = ParamSet([sample_gaussian(4, shape.m, shape.n)], [shape])
        layer_bytes = shape.m * shape.n * 8
        tracemalloc.start()
        try:
            oracle.eval_metric(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * layer_bytes, f"peak {peak} B is {peak / layer_bytes:.2f} x the layer"

    def test_value_is_the_two_difference_sum_bit_for_bit(self):
        shapes = [LayerShape(33, 17, 2), LayerShape(8, 40, 3)]
        oracle = make_quadratic(shapes, data_seed=5, noise_scale=0.3, num_samples=3)
        x = ParamSet([sample_gaussian(6 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        reference = sum(0.5 * float(np.einsum("ij,ij->", a - t, a - t)) for a, t in zip(x.layers, oracle.targets))
        assert oracle.eval_metric(x) == reference
        assert oracle.expected_loss(x) == reference


class TestSampleCount:
    BUILDERS = {
        "quadratic": lambda count=2, seed=1: make_quadratic([LayerShape(4, 3, 1)], seed, num_samples=count),
        "planted": lambda count=2, seed=1: make_planted_low_rank(LayerShape(4, 3, 1), 1, seed, num_batches=count),
        "logistic": lambda count=2, seed=1: make_logistic(LayerShape(4, 3, 1), seed, num_batches=count),
        "mlp": lambda count=2, seed=1: make_tiny_mlp([LayerShape(4, 3, 1), LayerShape(2, 4, 1)], seed, num_batches=count),
    }

    @pytest.mark.parametrize("count", [0, -3])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_builder_rejects_a_count_below_one_before_drawing(self, no_draw, kind, count):
        # at count 0 the quadratic divided by zero and the planted family failed in its QR
        with pytest.raises(ValueError, match="^num_samples must be positive$"):
            self.BUILDERS[kind](count)

    @pytest.mark.parametrize("count", [True, 2.5])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_builder_names_a_non_integer_count_before_drawing(self, no_draw, kind, count):
        # True built an oracle whose num_samples was True, and 2.5 died unnamed in range()
        with pytest.raises(TypeError, match="^num_samples must be an integer, got "):
            self.BUILDERS[kind](count)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_builder_rejects_a_data_seed_outside_64_bits_before_drawing(self, no_draw, kind, seed):
        # the seed hash masks to 64 bits, so 2**64 built seed 0's problem
        with pytest.raises(ValueError, match=rf"^data_seed must lie in \[0, 2\*\*64\), got {seed}$"):
            self.BUILDERS[kind](seed=seed)

    @pytest.mark.parametrize("seed", [True, 1.5])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_builder_names_a_non_integer_data_seed_before_drawing(self, no_draw, kind, seed):
        # True ran as seed 1, and 1.5 died unnamed in the seed hash
        with pytest.raises(TypeError, match="^data_seed must be an integer, got "):
            self.BUILDERS[kind](seed=seed)

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_builder_takes_numpy_seed_and_count_as_python_ints(self, kind):
        shapes = [LayerShape(4, 3, 1), LayerShape(2, 4, 1)] if kind == "mlp" else [LayerShape(4, 3, 1)]
        x = ParamSet([sample_gaussian(5 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        numpy_built = self.BUILDERS[kind](np.int64(2), np.uint64(2**64 - 1))
        plain = self.BUILDERS[kind](2, 2**64 - 1)
        assert type(numpy_built.num_samples) is int
        assert [numpy_built.evaluate(x, xi) for xi in range(2)] == [plain.evaluate(x, xi) for xi in range(2)]

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_spec_rejects_a_negative_count_by_name(self, kind):
        with pytest.raises(ValueError, match="^num_samples must be nonnegative, got -3$"):
            ProblemSpec(kind, num_samples=-3)

    @pytest.mark.parametrize("kind, default", [("quadratic", 8), ("planted", 128), ("logistic", 16), ("mlp", 8)])
    def test_spec_count_0_is_the_family_default(self, kind, default):
        shapes = (LayerShape(6, 5, 2), LayerShape(3, 6, 2)) if kind == "mlp" else (LayerShape(6, 5, 2),)
        assert make_problem(ProblemSpec(kind, shapes, num_samples=0)).num_samples == default


class TestBatchSize:
    BUILDERS = {
        "logistic": lambda size: make_logistic(LayerShape(4, 3, 1), 1, num_batches=2, batch_size=size),
        "mlp": lambda size: make_tiny_mlp([LayerShape(4, 3, 1), LayerShape(2, 4, 1)], 1, num_batches=2, batch_size=size),
    }

    @pytest.mark.parametrize("size", [0, -2])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_below_one_is_named_before_drawing(self, no_draw, kind, size):
        # 0 failed in sample_gaussian and -2 in numpy, neither naming the field
        with pytest.raises(ValueError, match=f"^batch_size must be positive, got {size}$"):
            self.BUILDERS[kind](size)

    @pytest.mark.parametrize("size", [2.5, True, "4"])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_non_integer_is_named_before_drawing(self, no_draw, kind, size):
        # 2.5 raised an unnamed TypeError for the mlp and the evenness message for the logistic problem
        with pytest.raises(TypeError, match="^batch_size must be an integer, got "):
            self.BUILDERS[kind](size)

    def test_odd_logistic_batch_keeps_its_message(self, no_draw):
        with pytest.raises(ValueError, match="^batch_size must be even so batches are class-balanced$"):
            self.BUILDERS["logistic"](3)

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_numpy_integer_is_accepted(self, kind):
        x = ParamSet.zeros([LayerShape(4, 3, 1)] if kind == "logistic" else [LayerShape(4, 3, 1), LayerShape(2, 4, 1)])
        assert self.BUILDERS[kind](np.int64(4)).evaluate(x, 0) == self.BUILDERS[kind](4).evaluate(x, 0)


class TestNoiseScaleAndTrueRank:
    BUILDERS = {
        "quadratic": lambda **kw: make_quadratic([LayerShape(4, 3, 1)], 1, num_samples=2, **kw),
        "planted": lambda rank=1, **kw: make_planted_low_rank(LayerShape(4, 3, 1), rank, 1, num_batches=2, **kw),
        "mlp": lambda **kw: make_tiny_mlp([LayerShape(4, 3, 1), LayerShape(2, 4, 1)], 1, num_batches=2, **kw),
    }

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_negative_noise_is_named_before_drawing(self, no_draw, kind):
        with pytest.raises(ValueError, match="^noise_scale must be nonnegative, got -0.5$"):
            self.BUILDERS[kind](noise_scale=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_non_finite_noise_is_named_before_drawing(self, no_draw, kind, value):
        # nan built an mlp oracle whose every evaluate returned nan
        with pytest.raises(ValueError, match="^noise_scale must be finite, got "):
            self.BUILDERS[kind](noise_scale=value)

    @pytest.mark.parametrize("value", [True, "0.1", None])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_non_number_noise_is_named_before_drawing(self, no_draw, kind, value):
        with pytest.raises(TypeError, match="^noise_scale must be a number, got "):
            self.BUILDERS[kind](noise_scale=value)

    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_non_integer_true_rank_is_named_before_drawing(self, no_draw, value):
        # 2.5 raised numpy's unnamed TypeError
        with pytest.raises(TypeError, match="^true_rank must be an integer, got "):
            self.BUILDERS["planted"](rank=value)

    def test_out_of_range_true_rank_keeps_its_message(self, no_draw):
        with pytest.raises(ValueError, match=r"^true_rank must be in \[1, min\(m, n\)\], got 4$"):
            self.BUILDERS["planted"](rank=4)

    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_numpy_numbers_are_accepted(self, kind):
        shapes = [LayerShape(4, 3, 1), LayerShape(2, 4, 1)] if kind == "mlp" else [LayerShape(4, 3, 1)]
        x = ParamSet([sample_gaussian(3 + i, s.m, s.n) for i, s in enumerate(shapes)], shapes)
        rank = {"rank": np.int64(1)} if kind == "planted" else {}
        numpy_built = self.BUILDERS[kind](noise_scale=np.float32(0.25), **rank)
        assert numpy_built.evaluate(x, 1) == self.BUILDERS[kind](noise_scale=0.25).evaluate(x, 1)


class TestMakeProblemDefaults:
    SHAPES = {"mlp": (LayerShape(6, 5, 2), LayerShape(3, 6, 2))}
    # each builder called with only the shapes and the seed; planted's true_rank has no builder default,
    # so it gets ProblemSpec's 2
    BUILDERS = {
        "quadratic": lambda shapes, seed: make_quadratic(shapes, seed),
        "planted": lambda shapes, seed: make_planted_low_rank(shapes, 2, seed),
        "logistic": lambda shapes, seed: make_logistic(shapes, seed),
        "mlp": lambda shapes, seed: make_tiny_mlp(shapes, seed),
    }

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_an_unset_field_takes_the_builder_default(self, kind):
        # --problem mlp without --noise took 0.0, where make_tiny_mlp takes 0.05
        shapes = self.SHAPES.get(kind, (LayerShape(6, 5, 2),))
        spec_built = make_problem(ProblemSpec(kind, shapes, data_seed=21))
        built = self.BUILDERS[kind](shapes, 21)
        x = ParamSet([sample_gaussian(22 + i, s.m, s.n) for i, s in enumerate(shapes)], list(shapes))
        assert spec_built.num_samples == built.num_samples
        assert [spec_built.evaluate(x, xi) for xi in range(built.num_samples)] == [
            built.evaluate(x, xi) for xi in range(built.num_samples)
        ]
        assert spec_built.eval_metric(x) == built.eval_metric(x)

    def test_planted_noise_0_is_kept(self):
        # make_problem turned a planted noise_scale of 0 into 1.0
        shapes = [LayerShape(6, 5, 2)]
        oracle = make_problem(ProblemSpec("planted", tuple(shapes), noise_scale=0.0))
        assert oracle.optimal_loss == 0.0
        assert oracle.expected_loss(ParamSet([oracle.planted.copy()], shapes)) == pytest.approx(0.0, abs=1e-20)


class TestOracleContract:
    class Counting(problems.LossOracle):
        """Counts its evaluate calls, as perfbench's BenchOracle does."""

        evals = 0

        def evaluate(self, x, xi):
            self.evals += 1
            return super().evaluate(x, xi)

    def test_mean_is_exact_without_expected_fn(self):
        # eval_metric returned sample 0's loss, and expected_loss raised
        oracle = problems.LossOracle("three", 3, lambda x, xi: (1.0, 2.0, 6.0)[xi])
        x = ParamSet.zeros([LayerShape(2, 2, 1)])
        assert oracle.has_expected_loss
        assert oracle.expected_loss(x) == oracle.eval_metric(x) == 3.0

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_eval_metric_counts_no_evaluate_call(self, kind):
        # perfbench's races count evaluate calls, and a counted eval_metric would move their evals_to_target
        shapes = (LayerShape(6, 5, 2), LayerShape(3, 6, 2)) if kind == "mlp" else (LayerShape(6, 5, 2),)
        base = make_problem(ProblemSpec(kind, shapes, data_seed=23, num_samples=4))
        x = ParamSet([sample_gaussian(24 + i, s.m, s.n) for i, s in enumerate(shapes)], list(shapes))
        wrapped = self.Counting(base.name, 4, base.evaluate, expected_fn=base.expected_loss)  # BenchOracle's form
        bare = self.Counting("bare", 4, base.evaluate)
        assert wrapped.eval_metric(x) == base.eval_metric(x)
        assert bare.eval_metric(x) == sum(base.evaluate(x, xi) for xi in range(4)) / 4
        assert wrapped.evals == bare.evals == 0


class TestSampleIndex:
    SHAPES = {"mlp": (LayerShape(6, 5, 2), LayerShape(3, 6, 2))}

    @classmethod
    def _oracle_and_point(cls, kind):
        shapes = cls.SHAPES.get(kind, (LayerShape(6, 5, 2),))
        oracle = make_problem(ProblemSpec(kind, shapes, data_seed=25, num_samples=3))
        return oracle, ParamSet([sample_gaussian(26 + i, s.m, s.n) for i, s in enumerate(shapes)], list(shapes))

    @pytest.mark.parametrize("xi", [True, 1.5, "1", None])
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_a_non_integer_index_is_named(self, kind, xi):
        # True evaluated sample 1, and 1.5 died in the family's own indexing without naming the index
        oracle, x = self._oracle_and_point(kind)
        with pytest.raises(TypeError, match="^sample index must be an integer, got "):
            oracle.evaluate(x, xi)

    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_numpy_integers_evaluate_their_sample(self, kind):
        oracle, x = self._oracle_and_point(kind)
        for xi in range(3):
            assert oracle.evaluate(x, np.int64(xi)) == oracle.evaluate(x, np.uint8(xi)) == oracle.evaluate(x, xi)

    @pytest.mark.parametrize("xi", [-1, 3, np.int64(3)])
    @pytest.mark.parametrize("kind", PROBLEM_KINDS)
    def test_out_of_range_keeps_its_message(self, kind, xi):
        oracle, x = self._oracle_and_point(kind)
        with pytest.raises(ValueError, match=rf"^sample index {xi} out of range \[0, 3\)$"):
            oracle.evaluate(x, xi)

    @pytest.mark.parametrize("kind", ["quadratic", "planted", "logistic"])
    def test_analytic_grad_checks_its_index_as_evaluate_does(self, kind):
        # True returned sample 1's gradient, -1 sample 2's, and 5 raised an unnamed IndexError
        oracle, x = self._oracle_and_point(kind)
        with pytest.raises(TypeError, match="^sample index must be an integer, got True$"):
            oracle.analytic_grad(x, True)
        for xi in (-1, 5):
            with pytest.raises(ValueError, match=rf"^sample index {xi} out of range \[0, 3\)$"):
                oracle.analytic_grad(x, xi)
        for xi in range(3):
            for a, b in zip(oracle.analytic_grad(x, np.int64(xi)).layers, oracle.analytic_grad(x, xi).layers):
                assert a.tobytes() == b.tobytes()


class TestPlantedLowRank:
    @pytest.mark.parametrize("rank", [1, 2, 3, 9])  # 9 offsets a batch take numpy's unrolled pairwise sum
    def test_evaluate_equals_the_per_call_offset_sum_bit_for_bit(self, rank):
        # each batch's offset energy is summed once at build; the per-call np.sum it replaced is the reference
        shape = LayerShape(12, 10, 2)
        oracle = make_planted_low_rank(shape, rank, 43, noise_scale=1.3, num_batches=24)
        a_vecs, b_vecs, y_base, offsets = oracle.pair_data
        x = ParamSet([sample_gaussian(44, 12, 10)], [shape])
        for bi in range(24):
            v = ((a_vecs[bi] @ x.layers[0]) * b_vecs[bi]).sum(axis=1) - y_base[bi]
            assert oracle.evaluate(x, bi) == float(np.sum(v * v) + np.sum(offsets[bi] * offsets[bi])), f"batch {bi}"
        assert oracle.optimal_loss == float(np.mean(np.sum(offsets * offsets, axis=1)))

    def test_zero_residuals_zero_gradient(self):
        oracle = make_planted_low_rank(LayerShape(10, 8, 2), 2, data_seed=3, num_batches=6)
        x = ParamSet([oracle.planted.copy()], [LayerShape(10, 8, 2)])
        for xi in range(6):
            assert frobenius_norm(oracle.analytic_grad(x, xi).layers[0]) < 1e-10

    def test_rank_one_with_single_pair(self):
        oracle = make_planted_low_rank(LayerShape(10, 8, 3), 1, data_seed=4, num_batches=4)
        x = ParamSet([sample_gaussian(11, 10, 8)], [LayerShape(10, 8, 3)])
        g = oracle.analytic_grad(x, 0).layers[0]
        assert numeric_rank(g, 1e-10) == 1

    def test_rank_bound_along_trajectory(self):
        shape = LayerShape(32, 32, 3)
        oracle = make_planted_low_rank(shape, 3, data_seed=5, num_batches=8)
        x = ParamSet.zeros([shape])
        config = OptimizerConfig(alpha=1e-3, total_steps=40, base_seed=6, nu=10)
        run(oracle, x, config, "lozo", eval_every=40)
        for xi in range(8):
            g = oracle.analytic_grad(x, xi).layers[0]
            assert numeric_rank(g, 1e-10) <= 3

    def test_optimal_loss_matches_lstsq_oracle(self):
        shape = LayerShape(12, 10, 2)
        oracle = make_planted_low_rank(shape, 2, data_seed=7, num_batches=40)
        a_vecs, b_vecs, y_base, offsets = oracle.pair_data
        s, p, m = a_vecs.shape
        n = b_vecs.shape[2]
        # expand the antithetic pairs into explicit triples and solve directly
        rows, ys = [], []
        for bi in range(s):
            for j in range(p):
                dyad = np.outer(a_vecs[bi, j], b_vecs[bi, j]).ravel()
                rows.extend([dyad, dyad])
                ys.extend([y_base[bi, j] + offsets[bi, j], y_base[bi, j] - offsets[bi, j]])
        design = np.array(rows)
        yv = np.array(ys)
        sol, *_ = np.linalg.lstsq(design, yv, rcond=None)
        resid = design @ sol - yv
        f_star = 0.5 * float(np.dot(resid, resid)) / s
        assert oracle.optimal_loss == pytest.approx(f_star, rel=1e-9)
        # the planted matrix is a stationary point of the expected loss
        x_star = ParamSet([oracle.planted.copy()], [shape])
        assert oracle.expected_loss(x_star) == pytest.approx(oracle.optimal_loss, rel=1e-12)

    @pytest.mark.parametrize(
        "shape, rank, batches",
        [(LayerShape(32, 32, 2), 2, 128), (LayerShape(12, 20, 3), 3, 16), (LayerShape(9, 5, 5), 5, 8)],
        ids=["race-32", "12x20-p3", "9x5-p5"],
    )
    def test_data_bytes_match_a_numpy_qr_build(self, shape, rank, batches, monkeypatch):
        def numpy_qr(a):
            q, r = np.linalg.qr(a)
            return q, np.diag(r).copy()

        fast = make_planted_low_rank(shape, rank, 41, noise_scale=1.4, num_batches=batches)
        monkeypatch.setattr(problems, "thin_qr", numpy_qr)
        ref = make_planted_low_rank(shape, rank, 41, noise_scale=1.4, num_batches=batches)
        assert fast.planted.tobytes() == ref.planted.tobytes()
        for a, b in zip(fast.pair_data, ref.pair_data, strict=True):
            assert a.tobytes() == b.tobytes()
        assert fast.optimal_loss == ref.optimal_loss


class TestLogistic:
    def test_zero_weights_max_entropy(self):
        oracle = make_logistic(LayerShape(5, 6, 2), data_seed=8, num_batches=3, batch_size=8)
        x = ParamSet.zeros([LayerShape(5, 6, 2)])
        assert oracle.evaluate(x, 1) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_check(self):
        oracle = make_logistic(LayerShape(4, 5, 2), data_seed=9, num_batches=2, batch_size=6)
        x = ParamSet([0.3 * sample_gaussian(13, 4, 5)], [LayerShape(4, 5, 2)])
        fd = finite_difference_grad(oracle, x, 0)
        analytic = oracle.analytic_grad(x, 0).layers
        assert rel_grad_error(analytic, fd) <= 1e-5

    def test_separable_data_low_loss(self):
        shape = LayerShape(5, 6, 2)
        oracle = make_logistic(shape, data_seed=10, num_batches=2, batch_size=8)
        # features are y * M + noise, and a large multiple of M separates these 16
        mean = oracle.analytic_grad(ParamSet.zeros([shape]), 0)  # gradient at 0 is -mean-ish direction
        w = ParamSet([-60.0 * mean.layers[0] / frobenius_norm(mean.layers[0])], [shape])
        assert oracle.expected_loss(w) <= 1e-3


def reference_mlp_losses(shapes, data_seed, num_batches, batch_size, noise_scale, layers):
    """Per-batch losses of make_tiny_mlp's documented network, rebuilt with a plain loop from its streams."""
    root = derive_seed(data_seed, STREAM_DATA, 0xD1)
    keys = [derive_seed(root, 0), derive_seed(root, 1)] + [derive_seed(root, 4, li) for li in range(2, len(shapes))]
    teacher = [sample_gaussian(k, s.m, s.n) / np.sqrt(s.n) for k, s in zip(keys, shapes)]

    def net(ws, h):
        for li, w in enumerate(ws):
            h = h @ w.T
            if li < len(ws) - 1:
                h = np.tanh(h)
        return h

    losses = []
    for bi in range(num_batches):
        inputs = sample_gaussian(derive_seed(root, 2, bi), batch_size, shapes[0].n)
        noise = sample_gaussian(derive_seed(root, 3, bi), batch_size, shapes[-1].m)
        targets = net(teacher, inputs) + noise_scale * noise
        resid = net(layers, inputs) - targets
        losses.append(0.5 * np.mean(np.sum(resid**2, axis=1)))
    return losses


class TestTinyMLP:
    shapes = [LayerShape(6, 5, 2), LayerShape(3, 6, 2)]
    DEEP = {
        2: shapes,
        3: [LayerShape(6, 5, 2), LayerShape(4, 6, 2), LayerShape(3, 4, 2)],
        4: [LayerShape(6, 5, 2), LayerShape(7, 6, 2), LayerShape(5, 7, 2), LayerShape(3, 5, 2)],
    }

    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("start", ["gaussian", "zeros"])
    @pytest.mark.parametrize("batch_size", [4, 256])
    def test_value_matches_a_plain_loop(self, depth, start, batch_size):
        # zero weights predict 0, so the loss there is half the targets' mean squared norm; each batch's
        # value is exact, the metric only close, since the oracle divides the batch sum and not np.mean
        shapes = self.DEEP[depth]
        oracle = make_tiny_mlp(shapes, data_seed=11, num_batches=3, batch_size=batch_size)
        layers = [
            0.5 * sample_gaussian(50 + li, s.m, s.n) if start == "gaussian" else np.zeros((s.m, s.n))
            for li, s in enumerate(shapes)
        ]
        expected = reference_mlp_losses(shapes, 11, 3, batch_size, 0.05, layers)
        x = ParamSet(layers, shapes)
        assert [oracle.evaluate(x, bi) for bi in range(3)] == expected
        assert oracle.eval_metric(x) == pytest.approx(np.mean(expected), rel=1e-12)
        assert min(expected) > 0.0

    @pytest.mark.parametrize(
        "widths",
        [(256, 256, 16), (64, 128, 256, 16)],
        ids=["mlp-nu1", "depth-3"],
    )
    @pytest.mark.parametrize("call", ["evaluate", "eval_metric"])
    def test_peak_is_two_adjacent_activations(self, widths, call):
        # tanh and the residual run in place, so an evaluation holds layer l-1's activation and layer l's
        # at most; the input is stored batch data, not allocated. A forward pass that keeps a
        # pre-activation beside its tanh peaks at 1,048,768 B on both nets, past either bound.
        batch = 256
        shapes = [LayerShape(m, n, 4) for n, m in zip(widths, widths[1:])]
        oracle = make_tiny_mlp(shapes, data_seed=256, num_batches=2, batch_size=batch)
        x = ParamSet([sample_gaussian(60 + li, s.m, s.n) / np.sqrt(s.n) for li, s in enumerate(shapes)], shapes)
        acts = (0,) + widths[1:]
        bound = batch * 8 * max(a + b for a, b in zip(acts, acts[1:])) + 4096
        fn = (lambda: oracle.evaluate(x, 1)) if call == "evaluate" else (lambda: oracle.eval_metric(x))
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak} B is past {bound} B"

    def test_one_layer_is_rejected(self):
        with pytest.raises(ValueError, match="the mlp problem takes at least 2 layer shapes, got 1"):
            make_tiny_mlp([LayerShape(4, 4, 2)], data_seed=1)

    def test_shapes_that_do_not_compose_are_named(self):
        shapes = [LayerShape(8, 6, 2), LayerShape(8, 8, 2), LayerShape(3, 5, 2)]
        with pytest.raises(ValueError, match="layer shapes do not compose: 8x8 then 3x5"):
            make_tiny_mlp(shapes, data_seed=1)

    def test_lozo_lowers_a_four_layer_loss(self):
        shapes = self.DEEP[4]
        oracle = make_tiny_mlp(shapes, data_seed=40, num_batches=4, batch_size=8, noise_scale=0.02)
        layers = [sample_gaussian(derive_seed(41, li), s.m, s.n) / np.sqrt(s.n) for li, s in enumerate(shapes)]
        x = ParamSet(layers, shapes)
        start = oracle.eval_metric(x)
        config = OptimizerConfig(alpha=1e-2, total_steps=400, base_seed=41, nu=20)
        records = run(oracle, x, config, "lozo", eval_every=50)
        assert records[-1].loss < 0.5 * start

    def test_hidden_unit_permutation_invariance(self):
        oracle = make_tiny_mlp(self.shapes, data_seed=12, num_batches=2, batch_size=4)
        w1 = sample_gaussian(3, 6, 5)
        w2 = sample_gaussian(4, 3, 6)
        perm = np.random.default_rng(5).permutation(6)
        x = ParamSet([w1, w2], self.shapes)
        x_perm = ParamSet([w1[perm, :], w2[:, perm]], self.shapes)
        assert oracle.evaluate(x, 1) == pytest.approx(oracle.evaluate(x_perm, 1), rel=1e-12)

    def test_lozo_decreases_loss(self):
        oracle = make_tiny_mlp(self.shapes, data_seed=13, num_batches=4, batch_size=8, noise_scale=0.02)
        x = ParamSet([0.5 * sample_gaussian(7, 6, 5), 0.5 * sample_gaussian(8, 3, 6)], self.shapes)
        config = OptimizerConfig(alpha=5e-3, total_steps=600, base_seed=14, nu=20)
        records = run(oracle, x, config, "lozo", eval_every=1)
        losses = [r.loss for r in records]
        blocks = [np.mean(losses[i : i + 100]) for i in range(0, 600, 100)]
        assert all(b2 < b1 for b1, b2 in zip(blocks, blocks[1:]))


class TestGradientRankProfile:
    def test_planted_spectrum_collapses(self):
        shape = LayerShape(16, 16, 3)
        oracle = make_planted_low_rank(shape, 3, data_seed=15, num_batches=4)
        x = ParamSet([sample_gaussian(16, 16, 16)], [shape])
        sv = gradient_rank_profile(oracle, x, 0, 6)[0]
        assert sv[3] <= 1e-10 * sv[0]

    def test_quadratic_spectrum_full(self):
        shape = LayerShape(8, 8, 2)
        oracle = make_quadratic(shape, data_seed=16, noise_scale=0.0, num_samples=2)
        x = ParamSet([oracle.targets[0] + sample_gaussian(17, 8, 8)], [shape])
        sv = gradient_rank_profile(oracle, x, 0, 8)[0]
        assert sv[-1] > 1e-3 * sv[0]  # no rank collapse for a dense displacement

    def test_zero_gradient(self):
        shape = LayerShape(6, 6, 2)
        oracle = make_quadratic(shape, data_seed=18, noise_scale=0.0, num_samples=2)
        x = ParamSet([oracle.targets[0].copy()], [shape])
        sv = gradient_rank_profile(oracle, x, 0, 3)[0]
        assert max(sv) == 0.0

    def test_finite_difference_fallback(self):
        shapes = [LayerShape(4, 3, 2), LayerShape(2, 4, 2)]
        oracle = make_tiny_mlp(shapes, data_seed=19, num_batches=2, batch_size=4)
        x = ParamSet([0.3 * sample_gaussian(20, 4, 3), 0.3 * sample_gaussian(21, 2, 4)], shapes)
        profile = gradient_rank_profile(oracle, x, 0, 2)
        assert len(profile) == 2 and all(len(sv) == 2 for sv in profile)


class TestOracleInvariants:
    def test_every_analytic_gradient_passes_fd_check(self):
        cases = [
            (make_quadratic([LayerShape(4, 3, 2)], 30, noise_scale=0.4, num_samples=3), [LayerShape(4, 3, 2)]),
            (make_planted_low_rank(LayerShape(6, 5, 2), 2, 31, num_batches=4), [LayerShape(6, 5, 2)]),
            (make_logistic(LayerShape(4, 4, 2), 32, num_batches=2, batch_size=6), [LayerShape(4, 4, 2)]),
        ]
        for oracle, shapes in cases:
            for trial in range(20):
                layers = [0.5 * sample_gaussian(1000 + trial * 7 + i, s.m, s.n) for i, s in enumerate(shapes)]
                x = ParamSet(layers, shapes)
                xi = trial % oracle.num_samples
                fd = finite_difference_grad(oracle, x, xi)
                analytic = oracle.analytic_grad(x, xi).layers
                assert rel_grad_error(analytic, fd) <= 1e-5, oracle.name

    def test_determinism(self):
        oracle_a = make_planted_low_rank(LayerShape(8, 8, 2), 2, data_seed=33, num_batches=4)
        oracle_b = make_planted_low_rank(LayerShape(8, 8, 2), 2, data_seed=33, num_batches=4)
        x = ParamSet([sample_gaussian(34, 8, 8)], [LayerShape(8, 8, 2)])
        for xi in range(4):
            assert oracle_a.evaluate(x, xi) == oracle_b.evaluate(x, xi)

    def test_sample_index_validated(self):
        oracle = make_quadratic([LayerShape(3, 3, 1)], 35, num_samples=2)
        with pytest.raises(ValueError):
            oracle.evaluate(ParamSet.zeros([LayerShape(3, 3, 1)]), 2)


class TestProblemSpecValidation:
    shapes = (LayerShape(6, 5, 2),)

    @pytest.mark.parametrize("key", ["data_seed", "num_samples", "true_rank"])
    @pytest.mark.parametrize(
        "value", [1.5, 2.0, True, "3", None], ids=["float", "integral-float", "bool", "str", "none"]
    )
    def test_integer_fields_reject_other_types(self, key, value):
        # data_seed=1.5 and num_samples=1.5 died in the seed hash or in range(), data_seed=True ran as seed 1
        fields = {"data_seed": 1, key: value}
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            ProblemSpec("quadratic", self.shapes, **fields)

    @pytest.mark.parametrize("kind", ["quadratic", "planted"])
    def test_numpy_integers_build_the_python_int_problem(self, kind):
        plain = ProblemSpec(kind, self.shapes, data_seed=2**63 + 3, num_samples=4, true_rank=2)
        numpy = ProblemSpec(
            kind, self.shapes, data_seed=np.uint64(2**63 + 3), num_samples=np.int64(4), true_rank=np.int32(2)
        )
        assert numpy == plain
        assert all(type(getattr(numpy, k)) is int for k in ("data_seed", "num_samples", "true_rank"))
        x = ParamSet([sample_gaussian(36, 6, 5)], list(self.shapes))
        a, b = make_problem(numpy), make_problem(plain)
        assert [a.evaluate(x, xi) for xi in range(4)] == [b.evaluate(x, xi) for xi in range(4)]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, -(2**64)])
    def test_data_seed_outside_64_bits_is_rejected(self, seed):
        # the seed hash masks to 64 bits, so -1 built 2**64 - 1's problem and 2**64 built seed 0's
        with pytest.raises(ValueError, match=rf"data_seed must lie in \[0, 2\*\*64\), got {seed}"):
            ProblemSpec("quadratic", self.shapes, data_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_data_seed_range_ends_are_kept(self, seed):
        assert ProblemSpec("quadratic", self.shapes, data_seed=seed).data_seed == int(seed)

    def test_numpy_int64_data_seed_builds(self):
        # np.int64 overflowed the 64-bit mask of the seed hash
        spec = ProblemSpec("quadratic", self.shapes, data_seed=np.int64(3))
        assert type(spec.data_seed) is int
        x = ParamSet([sample_gaussian(37, 6, 5)], list(self.shapes))
        plain = ProblemSpec("quadratic", self.shapes, data_seed=3)
        assert make_problem(spec).evaluate(x, 0) == make_problem(plain).evaluate(x, 0)

    @pytest.mark.parametrize(
        "shapes", [((4, 4, 2),), (LayerShape(4, 4, 2), [4, 4, 2]), ("4x4",)], ids=["tuple", "list", "str"]
    )
    def test_shapes_that_are_not_layer_shapes_are_named(self, shapes):
        # a tuple of tuples built, and make_problem died with "'tuple' object has no attribute 'm'"
        with pytest.raises(TypeError, match="^shapes must hold LayerShape values"):
            ProblemSpec("quadratic", shapes)

    def test_a_lone_layer_shape_is_named(self):
        with pytest.raises(TypeError, match="^shapes must be a sequence of LayerShape"):
            ProblemSpec("quadratic", LayerShape(4, 4, 2))

    def test_a_list_of_shapes_is_stored_as_a_hashable_tuple(self):
        # a list built a frozen spec that hash() rejected
        spec = ProblemSpec("quadratic", list(self.shapes), data_seed=1)
        assert spec.shapes == self.shapes and type(spec.shapes) is tuple
        assert spec == ProblemSpec("quadratic", self.shapes, data_seed=1)
        assert hash(spec) == hash(ProblemSpec("quadratic", self.shapes, data_seed=1))

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: make_quadratic([(4, 4, 2)], 0), "(4, 4, 2)"),
            (lambda: make_planted_low_rank((4, 4, 2), 1, 0), "4"),
            (lambda: make_logistic([[4, 4, 2]], 0), "[4, 4, 2]"),
            (lambda: make_tiny_mlp([(4, 3, 1), (2, 4, 1)], 0), "(4, 3, 1)"),
        ],
        ids=["quadratic", "planted", "logistic", "mlp"],
    )
    def test_a_builder_names_shapes_that_are_not_layer_shapes(self, no_draw, build, bad):
        # the quadratic and the MLP died with "'tuple' object has no attribute 'm'", and the planted
        # problem took (4, 4, 2) for three layer shapes; each now says what ProblemSpec says, before any draw
        with pytest.raises(TypeError, match=rf"^shapes must hold LayerShape values, got {re.escape(bad)}$"):
            build()

    def test_quadratic_with_no_layer_is_rejected(self, no_draw):
        # it built an oracle with no layers whose loss was 0.0 everywhere
        with pytest.raises(ValueError, match="^the quadratic problem takes at least 1 layer shape, got 0$"):
            make_quadratic([], 0)
