"""Unit tests for the dtype system."""

import numpy as np
import pytest

from repro.framework import dtypes


class TestDTypeBasics:
    def test_float32_properties(self):
        assert dtypes.float32.name == "float32"
        assert dtypes.float32.is_floating
        assert dtypes.float32.is_differentiable
        assert not dtypes.float32.is_integer
        assert dtypes.float32.size == 4

    def test_int32_properties(self):
        assert dtypes.int32.is_integer
        assert not dtypes.int32.is_floating
        assert not dtypes.int32.is_differentiable
        assert dtypes.int32.size == 4

    def test_bool_properties(self):
        assert dtypes.bool_.is_bool
        assert not dtypes.bool_.is_differentiable
        assert dtypes.bool_.min is False
        assert dtypes.bool_.max is True

    def test_complex_differentiable(self):
        assert dtypes.complex64.is_complex
        assert dtypes.complex64.is_differentiable

    def test_min_max(self):
        assert dtypes.int8.min == -128
        assert dtypes.int8.max == 127
        assert dtypes.uint8.min == 0
        assert dtypes.float32.max > 1e38

    def test_equality_with_numpy(self):
        assert dtypes.float32 == np.float32
        assert dtypes.int64 == np.int64
        assert dtypes.float32 != np.float64

    def test_interning_and_hash(self):
        assert dtypes.as_dtype("float32") is dtypes.float32
        assert hash(dtypes.float32) == hash(dtypes.as_dtype(np.float32))

    @pytest.mark.parametrize("name", sorted(dtypes.DType._registry))
    def test_identity_hash_survives_pickle_and_deepcopy(self, name):
        """DTypes hash by identity, so every copy must be the interned one."""
        import copy
        import pickle

        dtype = dtypes.as_dtype(name)
        table = {dtype: name, (dtype, dtypes.float32): "pair"}
        for clone in (pickle.loads(pickle.dumps(dtype)), copy.deepcopy(dtype)):
            assert clone is dtype
            assert hash(clone) == hash(dtype)
            assert table[clone] == name
            assert table[(clone, dtypes.float32)] == "pair"
        assert copy.deepcopy(table) == table

    def test_repr(self):
        assert "float32" in repr(dtypes.float32)
        assert str(dtypes.int64) == "int64"


class TestAsDtype:
    def test_from_string(self):
        assert dtypes.as_dtype("int32") is dtypes.int32

    def test_from_python_types(self):
        assert dtypes.as_dtype(float) is dtypes.float32
        assert dtypes.as_dtype(int) is dtypes.int32
        assert dtypes.as_dtype(bool) is dtypes.bool_
        assert dtypes.as_dtype(complex) is dtypes.complex64

    def test_from_numpy_dtype(self):
        assert dtypes.as_dtype(np.dtype("float64")) is dtypes.float64
        assert dtypes.as_dtype(np.uint8) is dtypes.uint8

    def test_passthrough(self):
        assert dtypes.as_dtype(dtypes.float16) is dtypes.float16

    def test_invalid_raises(self):
        with pytest.raises(TypeError):
            dtypes.as_dtype("not_a_dtype")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            dtypes.DType("float32", np.float32)


class TestResultType:
    def test_same_dtype(self):
        assert dtypes.result_type(dtypes.float32, dtypes.float32) is dtypes.float32

    def test_mixed_raises(self):
        with pytest.raises(TypeError):
            dtypes.result_type(dtypes.float32, dtypes.float64)


class TestHandleDtypes:
    def test_resource_not_differentiable(self):
        assert not dtypes.resource.is_differentiable
        assert not dtypes.resource.is_floating

    def test_object_arrays_never_map_to_handles(self):
        with pytest.raises(TypeError):
            dtypes.as_dtype(np.dtype(object))
