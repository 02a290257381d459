"""Tests for concrete tensors: creation, metadata, operators, interop."""

import numpy as np
import pytest

import repro
from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.tensor import Tensor, TensorSpec, convert_to_tensor


class TestCreation:
    def test_python_float_defaults_to_float32(self):
        assert repro.constant(1.5).dtype is dtypes.float32

    def test_python_int_defaults_to_int32(self):
        assert repro.constant(7).dtype is dtypes.int32

    def test_bool(self):
        t = repro.constant(True)
        assert t.dtype is dtypes.bool_
        assert bool(t) is True

    def test_numpy_dtype_preserved(self):
        t = repro.constant(np.arange(3, dtype=np.float64))
        assert t.dtype is dtypes.float64

    def test_nested_list(self):
        t = repro.constant([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape.as_list() == [2, 2]
        assert t.dtype is dtypes.float32

    def test_explicit_dtype(self):
        t = repro.constant([1, 2], dtype=repro.float64)
        assert t.dtype is dtypes.float64

    def test_resides_on_cpu_by_default(self):
        assert "CPU:0" in repro.constant(1.0).device

    def test_buffer_read_only(self):
        t = repro.constant([1.0, 2.0])
        with pytest.raises(ValueError):
            t.numpy()[0] = 5.0

    def test_convert_passthrough(self):
        t = repro.constant(1.0)
        assert convert_to_tensor(t) is t

    def test_convert_dtype_mismatch_raises(self):
        t = repro.constant(1.0)
        with pytest.raises(InvalidArgumentError):
            convert_to_tensor(t, dtype=repro.int32)


class TestMetadata:
    def test_shape(self):
        assert repro.constant(np.zeros((2, 3))).shape.as_list() == [2, 3]

    def test_ndim(self):
        assert repro.constant(np.zeros((2, 3))).ndim == 2

    def test_nbytes(self):
        assert repro.constant(np.zeros((4,), np.float32)).nbytes == 16

    def test_repr_contains_data(self):
        r = repr(repro.constant([1.0]))
        assert "shape=(1,)" in r and "float32" in r

    def test_constant_value(self):
        t = repro.constant([3])
        np.testing.assert_array_equal(t.constant_value, [3])


class TestPythonProtocol:
    def test_len(self):
        assert len(repro.constant([1, 2, 3])) == 3
        with pytest.raises(TypeError):
            len(repro.constant(1))

    def test_iter(self):
        parts = [float(x) for x in repro.constant([1.0, 2.0])]
        assert parts == [1.0, 2.0]

    def test_bool_of_nonscalar_raises(self):
        with pytest.raises(InvalidArgumentError):
            bool(repro.constant([1, 2]))

    def test_float_int_conversion(self):
        assert float(repro.constant(2.5)) == 2.5
        assert int(repro.constant(4)) == 4

    def test_index(self):
        arr = [10, 20, 30]
        assert arr[repro.constant(1)] == 20

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(repro.constant(1.0))

    def test_item(self):
        assert repro.constant(3.25).item() == 3.25


class TestOperators:
    def test_add_sub_mul_div(self):
        x = repro.constant([2.0, 4.0])
        np.testing.assert_allclose((x + 1.0).numpy(), [3.0, 5.0])
        np.testing.assert_allclose((x - 1.0).numpy(), [1.0, 3.0])
        np.testing.assert_allclose((x * 3.0).numpy(), [6.0, 12.0])
        np.testing.assert_allclose((x / 2.0).numpy(), [1.0, 2.0])

    def test_reflected_operators(self):
        x = repro.constant([2.0])
        np.testing.assert_allclose((1.0 + x).numpy(), [3.0])
        np.testing.assert_allclose((1.0 - x).numpy(), [-1.0])
        np.testing.assert_allclose((3.0 * x).numpy(), [6.0])
        np.testing.assert_allclose((8.0 / x).numpy(), [4.0])
        np.testing.assert_allclose((7.0 // x).numpy(), [3.0])
        np.testing.assert_allclose((7.0 % x).numpy(), [1.0])
        np.testing.assert_allclose((3.0 ** x).numpy(), [9.0])
        np.testing.assert_allclose(([[3.0]] @ repro.reshape(x, [1, 1])).numpy(), [[6.0]])

    def test_weak_int_literal_adopts_float_dtype(self):
        x = repro.constant([1.5])
        assert (x * 2).dtype is dtypes.float32

    def test_literal_cache_keeps_the_sign_of_zero(self):
        # Python literals become cached constant tensors; -0.0 == 0.0,
        # so only a bit-exact key keeps them apart.
        x = repro.constant([1.0, 2.0])
        assert np.signbit((x * -0.0).numpy()).all()
        assert not np.signbit((x * 0.0).numpy()).any()

    def test_pow_neg_abs(self):
        x = repro.constant([-2.0, 3.0])
        np.testing.assert_allclose((x ** 2.0).numpy(), [4.0, 9.0])
        np.testing.assert_allclose((-x).numpy(), [2.0, -3.0])
        np.testing.assert_allclose(abs(x).numpy(), [2.0, 3.0])

    def test_matmul_operator(self):
        a = repro.constant([[1.0, 0.0], [0.0, 2.0]])
        b = repro.constant([[3.0], [4.0]])
        np.testing.assert_allclose((a @ b).numpy(), [[3.0], [8.0]])

    def test_comparisons_elementwise(self):
        x = repro.constant([1.0, 5.0])
        np.testing.assert_array_equal((x > 2.0).numpy(), [False, True])
        np.testing.assert_array_equal((x <= 1.0).numpy(), [True, False])
        np.testing.assert_array_equal((x >= 5.0).numpy(), [False, True])
        np.testing.assert_array_equal((x == 5.0).numpy(), [False, True])
        np.testing.assert_array_equal((x != 5.0).numpy(), [True, False])
        np.testing.assert_array_equal(repro.not_equal(x, 5.0).numpy(), [True, False])

    def test_mismatched_dtypes_raise(self):
        with pytest.raises(InvalidArgumentError):
            repro.constant([1.0]) + repro.constant([1], dtype=repro.int32)

    def test_logical_ops(self):
        a = repro.constant([True, False])
        b = repro.constant([True, True])
        np.testing.assert_array_equal((a & b).numpy(), [True, False])
        np.testing.assert_array_equal((a | b).numpy(), [True, True])
        np.testing.assert_array_equal(repro.logical_or(a, ~b).numpy(), [True, False])
        np.testing.assert_array_equal((~a).numpy(), [False, True])

    def test_floordiv_mod(self):
        x = repro.constant([7, 9])
        np.testing.assert_array_equal((x // 2).numpy(), [3, 4])
        np.testing.assert_array_equal((x % 4).numpy(), [3, 1])


class TestIndexing:
    def test_int_index(self):
        x = repro.constant([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(x[1].numpy(), [3.0, 4.0])

    def test_slice(self):
        x = repro.constant([0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(x[1:3].numpy(), [1.0, 2.0])
        np.testing.assert_allclose(x[::-1].numpy(), [3.0, 2.0, 1.0, 0.0])

    def test_ellipsis_and_newaxis(self):
        x = repro.constant(np.arange(8.0).reshape(2, 2, 2))
        assert x[..., 0].shape.as_list() == [2, 2]
        assert x[:, None].shape.as_list() == [2, 1, 2, 2]

    def test_negative_index(self):
        x = repro.constant([1.0, 2.0, 3.0])
        assert float(x[-1]) == 3.0

    def test_tensor_index_gathers(self):
        x = repro.constant([10.0, 20.0, 30.0])
        idx = repro.constant([2, 0])
        np.testing.assert_allclose(x[idx].numpy(), [30.0, 10.0])


class TestNumpyInterop:
    def test_numpy_view(self):
        x = repro.constant([1.0, 2.0])
        np.testing.assert_allclose(np.asarray(x), [1.0, 2.0])

    def test_numpy_functions_accept_tensor(self):
        x = repro.constant([3.0, 4.0])
        assert float(np.linalg.norm(x)) == pytest.approx(5.0)

    def test_array_with_dtype(self):
        x = repro.constant([1.0])
        assert np.asarray(x, dtype=np.float64).dtype == np.float64


class TestTensorSpec:
    def test_from_tensor(self):
        spec = TensorSpec.from_tensor(repro.constant(np.zeros((2, 3))))
        assert spec.shape.as_list() == [2, 3]
        assert spec.dtype is dtypes.float64

    def test_compatibility(self):
        spec = TensorSpec([None, 3])
        assert spec.is_compatible_with(repro.constant(np.zeros((5, 3), np.float32)))
        assert not spec.is_compatible_with(repro.constant(np.zeros((5, 4), np.float32)))

    def test_hash_eq(self):
        assert TensorSpec([1], repro.int32) == TensorSpec([1], repro.int32)
        assert hash(TensorSpec([1])) == hash(TensorSpec([1]))
        assert TensorSpec([1]) != TensorSpec([2])
