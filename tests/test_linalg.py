"""Matrix primitives against hand values and an independent Jacobi SVD."""

import numpy as np
import pytest

from lozo import linalg
from lozo.linalg import (
    LayerShape,
    ParamSet,
    as_float,
    frobenius_norm,
    numeric_rank,
    thin_qr,
    top_singular_values,
)

from oracles import gram_rank, jacobi_singular_values, misaligned


class TestFrobeniusNorm:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((5, 3))
            b = rng.standard_normal((5, 3))
            assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12


class TestOuterProductScaled:
    """The rank of s * (U @ V.T), the outer product behind every low-rank estimate."""

    def test_rank_bound_property(self):
        rng = np.random.default_rng(2)
        for r in (1, 2, 3):
            u = rng.standard_normal((6, r))
            v = rng.standard_normal((5, r))
            assert numeric_rank(0.7 * (u @ v.T), 1e-10) <= r


class TestNumericRank:
    def test_rank_one_outer(self):
        rng = np.random.default_rng(3)
        a = np.outer(rng.standard_normal(6), rng.standard_normal(4))
        assert numeric_rank(a, 1e-10) == 1

    def test_identity_full_rank(self):
        for k in (1, 3, 7):
            assert numeric_rank(np.eye(k), 1e-10) == k

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 4)), 1e-10) == 0

    def test_three_random_rank_one_terms(self):
        rng = np.random.default_rng(4)
        a = sum(np.outer(rng.standard_normal(8), rng.standard_normal(6)) for _ in range(3))
        assert numeric_rank(a, 1e-10) == 3
        assert gram_rank(a) == 3  # independent Gram-eigenvalue route agrees

    def test_rel_tol_validated(self):
        with pytest.raises(ValueError):
            numeric_rank(np.eye(2), 0.0)


class TestTopSingularValues:
    def test_diagonal(self):
        np.testing.assert_allclose(top_singular_values(np.diag([3.0, 2.0, 1.0]), 2), [3.0, 2.0], atol=1e-10)

    def test_zero_matrix(self):
        assert top_singular_values(np.zeros((3, 3)), 1) == [0.0]

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5))
        got = np.array(top_singular_values(a, 5))
        want = jacobi_singular_values(a)
        assert np.max(np.abs(got - want)) <= 1e-10 * want[0]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_singular_values(np.ones((3, 2)), 3)

    def test_energy_identity(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((4, 6))
        sv = top_singular_values(a, 4)
        total = frobenius_norm(a) ** 2
        assert sum(s * s for s in sv) == pytest.approx(total, rel=1e-12)
        assert sum(s * s for s in top_singular_values(a, 2)) <= total + 1e-12


class TestThinQR:
    @pytest.mark.parametrize(
        "shape",
        [(32, 2), (256, 4), (16, 4), (1024, 4), (4096, 8), (9, 1), (4, 4), (8, 8)]
        + [(500, 64), (300, 128), (300, 129), (200, 200)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_matches_numpy_qr_bytes(self, shape):
        # the last four have more columns than LAPACK's block size (32), the last two
        # more than its unblocked crossover (128)
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for _ in range(4 if shape[1] > 32 else 20):
            a = rng.standard_normal(shape)
            kept = a.copy()
            q, d = thin_qr(a)
            ref_q, ref_r = np.linalg.qr(a)
            assert q.shape == shape and d.shape == (shape[1],)
            assert np.ascontiguousarray(q).tobytes() == ref_q.tobytes()
            assert d.tobytes() == np.diag(ref_r).tobytes()
            assert a.tobytes() == kept.tobytes()

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="tall or square"):
            thin_qr(np.ones((2, 3)))


class TestLayerShape:
    @pytest.mark.parametrize("field", ["m", "n", "r"])
    @pytest.mark.parametrize(
        "value", [1.5, 2.0, True, "2", None], ids=["float", "integral-float", "bool", "str", "none"]
    )
    def test_integer_fields_reject_other_types(self, field, value):
        # a float m died unnamed inside sample_gaussian, a float r built a problem without complaint
        dims = {"m": 6, "n": 5, "r": 2, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            LayerShape(**dims)

    def test_numpy_integers_are_stored_as_python_ints(self):
        s = LayerShape(np.int64(6), np.uint8(5), np.int32(2))
        assert s == LayerShape(6, 5, 2) and hash(s) == hash(LayerShape(6, 5, 2))
        assert all(type(getattr(s, k)) is int for k in ("m", "n", "r"))

    def test_range_checks_follow_the_type_checks(self):
        with pytest.raises(ValueError, match="positive"):
            LayerShape(np.int64(0), 5, 1)
        with pytest.raises(ValueError, match="rank"):
            LayerShape(6, 5, np.int64(6))


class TestAsFloat:
    @pytest.mark.parametrize("value", [3, 0.25, np.float32(0.5), np.int64(-2)])
    def test_numbers_become_python_floats(self, value):
        out = as_float("x", value)
        assert type(out) is float and out == float(value)

    @pytest.mark.parametrize("value", [True, "1.5", None, [1.0]], ids=["bool", "str", "none", "list"])
    def test_non_numbers_raise_type_error_naming_the_field(self, value):
        with pytest.raises(TypeError, match="alpha must be a number"):
            as_float("alpha", value)

    @pytest.mark.parametrize("value, message", [
        (10**400, "beta is out of floating-point range"),
        (float("inf"), "beta must be finite"),
        (float("nan"), "beta must be finite"),
    ], ids=["past-range", "inf", "nan"])
    def test_values_no_finite_float_holds_raise_value_error(self, value, message):
        with pytest.raises(ValueError, match=message):
            as_float("beta", value)


class TestParamSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParamSet([np.zeros((2, 3))], [LayerShape(3, 2, 1)])

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            LayerShape(2, 3, 4)
        with pytest.raises(ValueError):
            LayerShape(2, 3, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ParamSet([np.array([[np.nan, 0.0]])], [LayerShape(1, 2, 1)])

    def test_global_norm(self):
        x = ParamSet([np.full((2, 2), 2.0), np.full((1, 2), 1.0)], [LayerShape(2, 2, 1), LayerShape(1, 2, 1)])
        assert x.norm() == pytest.approx(np.sqrt(16.0 + 2.0), rel=1e-12)

    def test_misaligned_layer_is_stored_as_an_aligned_copy(self):
        buffer = misaligned(np.arange(6.0).reshape(2, 3))
        x = ParamSet([buffer], [LayerShape(2, 3, 1)])
        assert x.layers[0].flags.carray and not np.shares_memory(x.layers[0], buffer)
        np.testing.assert_array_equal(x.layers[0], buffer)

    def test_aligned_contiguous_layer_is_kept_without_a_copy(self):
        a = np.arange(6.0).reshape(2, 3)
        assert ParamSet([a], [LayerShape(2, 3, 1)]).layers[0] is a

    def test_copy_is_independent(self):
        x = ParamSet.zeros([LayerShape(2, 2, 1)])
        y = x.copy()
        y.layers[0][0, 0] = 5.0
        assert x.layers[0][0, 0] == 0.0

    @pytest.fixture
    def no_alloc(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a layer was read or allocated before the shapes were checked")

        monkeypatch.setattr(linalg, "as_matrix", refuse)
        monkeypatch.setattr(np, "zeros", refuse)

    @pytest.mark.parametrize(
        "shapes, match",
        [
            ([(2, 2, 1)], r"must hold LayerShape values, got \(2, 2, 1\)$"),
            (LayerShape(2, 2, 1), r"must be a sequence of LayerShape, got LayerShape\(m=2, n=2, r=1\)$"),
        ],
        ids=["tuple", "lone"],
    )
    @pytest.mark.parametrize(
        "build", [lambda shapes: ParamSet([np.ones((2, 2))], shapes), ParamSet.zeros], ids=["init", "zeros"]
    )
    def test_shapes_that_are_not_layer_shapes_are_named_first(self, no_alloc, build, shapes, match):
        # a tuple died with "'tuple' object has no attribute 'm'", the constructor after it had read every
        # layer, and a lone LayerShape with "'LayerShape' object is not iterable"
        with pytest.raises(TypeError, match="^shapes " + match):
            build(shapes)

    def test_shapes_are_one_tuple_shared_by_copies(self):
        shapes = [LayerShape(2, 2, 1), LayerShape(3, 2, 1)]
        x = ParamSet.zeros(s for s in shapes)
        assert type(x.shapes) is tuple and x.shapes == tuple(shapes)
        assert x.copy().shapes is x.shapes
        assert ParamSet(x.layers, x.shapes).shapes is x.shapes

    @pytest.mark.parametrize("value", [[(6, 5, 2)], (LayerShape(6, 5, 1),), "same"],
                             ids=["tuples", "other-rank", "same"])
    def test_shapes_are_read_only_after_construction(self, value):
        # x.shapes = [(6, 5, 2)] used to be accepted, and the next lozo_step died in optimizers._period
        shapes = (LayerShape(6, 5, 2),)
        x = ParamSet.zeros(shapes)
        with pytest.raises(AttributeError, match="^ParamSet.shapes is read-only"):
            x.shapes = x.shapes if value == "same" else value
        assert x.shapes is shapes and x.copy().shapes is shapes
        x.layers = [np.ones((6, 5))]  # the layers stay writable
        assert x.layers[0].sum() == 30.0
