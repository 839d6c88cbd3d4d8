import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from haseparator.errors import LabelError, ShapeError
from haseparator.tensor import as_labels, as_matrix, normalize

# The rank-3 operations of the dense separator oracle live in the tests.
from helpers import as_tensor3, batched_contract, broadcast_weights, gather_target_columns

finite_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)


class TestConversions:
    def test_as_matrix_from_nested_list(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64 and m.shape == (2, 2)

    def test_as_matrix_rejects_1d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_as_matrix_rejects_empty_dim(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 3)))

    def test_as_tensor3_rejects_2d(self):
        with pytest.raises(ShapeError):
            as_tensor3(np.zeros((2, 2)))

    def test_as_labels_accepts_integral_floats(self):
        assert as_labels([0.0, 2.0], 3).tolist() == [0, 2]

    def test_as_labels_rejects_fractional(self):
        with pytest.raises(LabelError):
            as_labels([0.5], 2)

    def test_as_labels_rejects_out_of_range(self):
        with pytest.raises(LabelError):
            as_labels([0, 3], 3)
        with pytest.raises(LabelError):
            as_labels([-1], 3)


class TestNormalization:
    def test_columns_three_four_five(self):
        out = normalize(np.array([[3.0], [4.0]]), 0)[0]
        np.testing.assert_allclose(out[:, 0], [0.6, 0.8], rtol=0, atol=1e-15)

    def test_zero_column_convention(self):
        out = normalize(np.array([[0.0, 1.0], [0.0, 0.0]]), 0)[0]
        assert out[:, 0].tolist() == [0.0, 0.0]
        assert out[:, 1].tolist() == [1.0, 0.0]

    def test_axis_column_exact(self):
        out = normalize(np.array([[5.0], [0.0], [0.0]]), 0)[0]
        assert out[:, 0].tolist() == [1.0, 0.0, 0.0]

    def test_rows_unit_diagonal(self):
        out = normalize(np.array([[1.0, 1.0]]), 1)[0]
        np.testing.assert_allclose(out[0], [0.70710678, 0.70710678], atol=1e-8)

    def test_zero_row_convention(self):
        out = normalize(np.zeros((1, 3)), 1)[0]
        assert out.tolist() == [[0.0, 0.0, 0.0]]

    def test_row_sign_preserved(self):
        out = normalize(np.array([[-2.0, 0.0]]), 1)[0]
        assert out[0].tolist() == [-1.0, 0.0]

    def test_input_not_modified(self):
        m = np.array([[3.0, 4.0]])
        normalize(m, 1)
        assert m.tolist() == [[3.0, 4.0]]

    @given(finite_matrices)
    @settings(max_examples=80, deadline=None)
    def test_rows_unit_or_zero(self, m):
        norms = np.linalg.norm(normalize(m, 1)[0], axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))

    @given(finite_matrices)
    @settings(max_examples=80, deadline=None)
    def test_columns_unit_or_zero(self, m):
        norms = np.linalg.norm(normalize(m, 0)[0], axis=0)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))

    @pytest.mark.parametrize("axis", [-1, -2], ids=["rows", "columns"])
    @pytest.mark.parametrize("shape", [(8, 6), (3, 8, 6)], ids=["2d", "stacked"])
    def test_rescales_only_vectors_whose_norm_overflows(self, axis, shape):
        # Every other row (axis -1) or column (axis -2) is scaled by 2**1000,
        # so its squared norm overflows. It keeps its direction and an inf
        # norm; the other vectors keep the bits of the unscaled matrix's.
        m = np.random.default_rng(5).normal(size=shape)
        across = -3 - axis  # the axis that indexes the vectors
        evens, odds = range(0, shape[across], 2), range(1, shape[across], 2)
        scale = np.ones(shape[across])
        scale[evens] = 2.0**1000
        scale = scale.reshape((-1, 1) if axis == -1 else (1, -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                unit, norms = normalize(m * scale, axis)
        want = normalize(m, axis)[0]
        assert np.isinf(np.take(norms, evens, axis=across)).all()
        assert np.isfinite(np.take(norms, odds, axis=across)).all()
        assert np.take(unit, odds, axis=across).tobytes() == np.take(want, odds, axis=across).tobytes()
        np.testing.assert_allclose(np.take(unit, evens, axis=across),
                                   np.take(want, evens, axis=across), rtol=0, atol=1e-15)


class TestBatchedContract:
    def test_basis_selection(self):
        e = np.array([[1.0, 0.0]])
        h = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert batched_contract(e, h).tolist() == [[1.0, 0.0]]

    def test_zero_tensor(self):
        out = batched_contract(np.ones((2, 3)), np.zeros((2, 3, 4)))
        assert not out.any()

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            b, n, c = rng.integers(1, 9, size=3)
            e = rng.normal(size=(b, n))
            h = rng.normal(size=(b, n, c))
            expected = np.zeros((b, c))
            for i in range(b):
                for j in range(c):
                    for k in range(n):
                        expected[i, j] += e[i, k] * h[i, k, j]
            got = batched_contract(e, h)
            assert relative_max_diff(got, expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            batched_contract(np.ones((2, 3)), np.ones((2, 4, 5)))


def relative_max_diff(a, b):
    scale = max(np.max(np.abs(b)), 1e-30)
    return np.max(np.abs(a - b)) / scale


class TestBroadcastGather:
    def test_broadcast_single(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = broadcast_weights(w, 1)
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(out[0], w)

    def test_broadcast_slices_identical(self):
        w = np.arange(4.0).reshape(2, 2)
        out = broadcast_weights(w, 3)
        for i in range(3):
            np.testing.assert_array_equal(out[i], w)

    def test_broadcast_random_indices(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 5))
        out = broadcast_weights(w, 6)
        for _ in range(20):
            i, k, j = rng.integers(0, (6, 4, 5))
            assert out[i, k, j] == w[k, j]

    def test_broadcast_is_a_copy(self):
        w = np.ones((2, 2))
        out = broadcast_weights(w, 2)
        out[0, 0, 0] = 9.0
        assert w[0, 0] == 1.0

    def test_gather_identity(self):
        out = gather_target_columns(np.eye(2), [0], replicate_to=2)
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(out[0, :, 0], [1.0, 0.0])
        np.testing.assert_array_equal(out[0, :, 1], [1.0, 0.0])

    def test_gather_repeated_label(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = gather_target_columns(w, [1, 1])
        assert out.shape == (2, 2, 1)
        np.testing.assert_array_equal(out[0, :, 0], w[:, 1])
        np.testing.assert_array_equal(out[1, :, 0], w[:, 1])

    def test_gather_matches_column_lookup(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=6)
        out = gather_target_columns(w, labels, replicate_to=3)
        for i, label in enumerate(labels):
            for j in range(3):
                np.testing.assert_array_equal(out[i, :, j], w[:, label])

    def test_gather_label_out_of_range(self):
        with pytest.raises(LabelError):
            gather_target_columns(np.eye(2), [2])
