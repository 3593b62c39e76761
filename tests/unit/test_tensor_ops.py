"""Unit tests for the tensor op vocabulary."""

import numpy as np
import pytest

from repro import tensor as T
from repro.errors import DTypeError, TensorRuntimeError
from repro.tensor import ops


def test_tensor_creation_and_properties():
    t = ops.tensor([1.0, 2.0, 3.0])
    assert t.shape == (3,)
    assert t.dtype is T.float64
    assert t.device.is_cpu
    assert t.size == 3
    assert len(t) == 3
    np.testing.assert_array_equal(t.numpy(), [1.0, 2.0, 3.0])


def test_tensor_with_explicit_dtype():
    t = ops.tensor([1, 2, 3], dtype="int32")
    assert t.dtype is T.int32


def test_item_requires_single_element():
    assert ops.tensor(5).item() == 5
    with pytest.raises(TensorRuntimeError):
        ops.tensor([1, 2]).item()


def test_elementwise_arithmetic_and_broadcasting():
    a = ops.tensor([1.0, 2.0, 3.0])
    np.testing.assert_allclose((a + 1).numpy(), [2, 3, 4])
    np.testing.assert_allclose((2 * a).numpy(), [2, 4, 6])
    np.testing.assert_allclose((a - a).numpy(), [0, 0, 0])
    np.testing.assert_allclose((a / 2).numpy(), [0.5, 1.0, 1.5])
    np.testing.assert_allclose((-a).numpy(), [-1, -2, -3])
    np.testing.assert_allclose(ops.pow(a, 2).numpy(), [1, 4, 9])


def test_comparisons_and_logical():
    a = ops.tensor([1, 2, 3])
    b = ops.tensor([3, 2, 1])
    np.testing.assert_array_equal((a < b).numpy(), [True, False, False])
    np.testing.assert_array_equal((a == b).numpy(), [False, True, False])
    np.testing.assert_array_equal((a >= b).numpy(), [False, True, True])
    np.testing.assert_array_equal(
        ops.logical_and(a > 1, b > 1).numpy(), [False, True, False])
    np.testing.assert_array_equal(ops.logical_not(a > 2).numpy(), [True, True, False])


def test_where_and_isin():
    cond = ops.tensor([True, False, True])
    np.testing.assert_array_equal(ops.where(cond, 1, 0).numpy(), [1, 0, 1])
    values = ops.tensor([1, 5, 7, 5])
    np.testing.assert_array_equal(
        ops.isin(values, ops.tensor([5, 9])).numpy(), [False, True, False, True])


def test_reductions_with_axis_and_keepdims():
    m = ops.tensor(np.arange(6.0).reshape(2, 3))
    assert ops.sum_(m).item() == 15.0
    np.testing.assert_array_equal(ops.sum_(m, axis=0).numpy(), [3, 5, 7])
    np.testing.assert_array_equal(ops.max_(m, axis=1).numpy(), [2, 5])
    assert ops.mean(m).item() == 2.5
    assert ops.sum_(m, axis=1, keepdims=True).shape == (2, 1)
    assert ops.any_(m > 4).item()
    assert not ops.all_(m > 0).item()


def test_sorting():
    a = ops.tensor([3, 1, 2])
    np.testing.assert_array_equal(ops.argsort(a).numpy(), [1, 2, 0])
    np.testing.assert_array_equal(ops.sort(a).numpy(), [1, 2, 3])


def test_lexsort_last_key_is_primary():
    primary = ops.tensor([1, 0, 1, 0])
    secondary = ops.tensor([9, 8, 7, 6])
    order = ops.lexsort([secondary, primary])
    np.testing.assert_array_equal(order.numpy(), [3, 1, 2, 0])


def test_unique_returns_values_inverse_counts():
    values, inverse, counts = ops.unique(ops.tensor([3, 1, 3, 2, 1]))
    np.testing.assert_array_equal(values.numpy(), [1, 2, 3])
    np.testing.assert_array_equal(counts.numpy(), [2, 1, 2])
    np.testing.assert_array_equal(values.numpy()[inverse.numpy()], [3, 1, 3, 2, 1])


def test_gather_scatter_and_masks():
    a = ops.tensor([10, 20, 30, 40])
    np.testing.assert_array_equal(ops.take(a, ops.tensor([3, 0])).numpy(), [40, 10])
    np.testing.assert_array_equal(
        ops.boolean_mask(a, ops.tensor([True, False, True, False])).numpy(), [10, 30])
    np.testing.assert_array_equal(ops.nonzero(a > 25).numpy(), [2, 3])
    out = ops.scatter_add(ops.tensor([0, 1, 0]), ops.tensor([1.0, 2.0, 3.0]), size=3)
    np.testing.assert_allclose(out.numpy(), [4.0, 2.0, 0.0])
    np.testing.assert_array_equal(
        ops.scatter_min(ops.tensor([0, 0, 1]), ops.tensor([5, 2, 7]), size=2).numpy(),
        [2, 7])
    np.testing.assert_array_equal(
        ops.scatter_max(ops.tensor([0, 0, 1]), ops.tensor([5, 2, 7]), size=2).numpy(),
        [5, 7])
    np.testing.assert_array_equal(
        ops.bincount(ops.tensor([0, 2, 2]), minlength=4).numpy(), [1, 0, 2, 0])


def test_float_scatter_add_over_no_rows_stays_float():
    """``np.bincount`` answers an empty index in int64; a float sum over zero
    rows must not change dtype with the binding."""
    out = ops.scatter_add(ops.tensor(np.zeros(0, dtype=np.int64)),
                          ops.tensor(np.zeros(0)), size=2)
    assert out.numpy().dtype == np.float64
    np.testing.assert_array_equal(out.numpy(), [0.0, 0.0])


def test_repeat_and_cumsum():
    np.testing.assert_array_equal(
        ops.repeat(ops.tensor([1, 2, 3]), ops.tensor([2, 0, 1])).numpy(), [1, 1, 3])
    np.testing.assert_array_equal(ops.cumsum(ops.tensor([1, 2, 3])).numpy(), [1, 3, 6])


def test_shape_manipulation():
    a = ops.arange(6)
    assert ops.reshape(a, (2, 3)).shape == (2, 3)
    assert ops.concat([a, a]).shape == (12,)
    assert ops.stack([a, a], axis=1).shape == (6, 2)
    assert ops.narrow(a, 0, 2, 3).tolist() == [2, 3, 4]
    padded = ops.pad2d(ops.tensor([[1, 2]]), 4)
    np.testing.assert_array_equal(padded.numpy(), [[1, 2, 0, 0]])
    truncated = ops.pad2d(ops.tensor([[1, 2, 3]]), 2)
    np.testing.assert_array_equal(truncated.numpy(), [[1, 2]])


def test_find_earliest_position_at_or_after_start():
    codes = ops.tensor(np.array([[1, 2, 1, 2], [2, 1, 2, 0], [3, 3, 0, 0]],
                                dtype=np.int32))
    assert ops.find(codes, 0, [1, 2]).tolist() == [0, 1, -1]
    assert ops.find(codes, ops.tensor([1, 2, 0]), [1, 2]).tolist() == [2, -1, -1]
    assert ops.find(codes, 0, [1, 2]).dtype.name == "int64"
    # A needle wider than the tensor matches nowhere; an empty one is an error.
    assert ops.find(codes, 0, [1, 2, 1, 2, 1]).tolist() == [-1, -1, -1]
    with pytest.raises(TensorRuntimeError):
        ops.find(codes, 0, [])


def test_matmul_softmax_onehot():
    a = ops.tensor(np.ones((2, 3)))
    b = ops.tensor(np.ones((3, 4)))
    assert ops.matmul(a, b).shape == (2, 4)
    probs = ops.softmax(ops.tensor([[1.0, 1.0]]))
    np.testing.assert_allclose(probs.numpy(), [[0.5, 0.5]])
    np.testing.assert_array_equal(
        ops.one_hot(ops.tensor([0, 2]), 3).numpy(), [[1, 0, 0], [0, 0, 1]])


def test_cast_and_clip():
    a = ops.tensor([1.7, -2.2])
    assert ops.cast(a, "int64").tolist() == [1, -2]
    np.testing.assert_allclose(ops.clip(a, min_value=0.0).numpy(), [1.7, 0.0])
    with pytest.raises(DTypeError):
        ops.cast(a, "complex128")


def test_unknown_op_rejected():
    with pytest.raises(TensorRuntimeError):
        ops.execute_op("definitely_not_an_op", [])


def test_creation_ops():
    assert ops.zeros((2, 2)).tolist() == [[0, 0], [0, 0]]
    assert ops.ones(3, dtype="int64").tolist() == [1, 1, 1]
    assert ops.full(2, 7).tolist() == [7, 7]
    assert ops.arange(2, 8, 2).tolist() == [2, 4, 6]
