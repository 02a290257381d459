"""Variable semantics: unique storage, reads/writes, conversion."""

import numpy as np
import pytest

import repro
from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError


class TestCreation:
    def test_from_python_value(self):
        v = repro.Variable(3.0)
        assert v.dtype is repro.float32
        assert v.shape.rank == 0
        assert float(v) == 3.0

    def test_from_array(self):
        v = repro.Variable(np.arange(4, dtype=np.float64))
        assert v.dtype is repro.float64
        assert v.shape.as_list() == [4]

    def test_from_callable_initializer(self):
        v = repro.Variable(lambda: repro.ones([2, 2]))
        np.testing.assert_array_equal(v.numpy(), np.ones((2, 2)))

    def test_trainable_flag(self):
        assert repro.Variable(1.0).trainable
        assert not repro.Variable(1.0, trainable=False).trainable

    def test_unique_storage(self):
        a = repro.Variable([1.0])
        b = repro.Variable([1.0])
        a.assign([5.0])
        assert b.numpy()[0] == 1.0

    def test_handle_is_resource(self):
        v = repro.Variable(1.0)
        assert v.handle.dtype is dtypes.resource
        assert v.handle.resource_value() is v

    def test_device_scope_placement(self):
        with repro.device("/gpu:0"):
            v = repro.Variable(1.0)
        assert "GPU:0" in v.device


class TestReadsWrites:
    def test_read_value_snapshot(self):
        v = repro.Variable([1.0, 2.0])
        snap = v.read_value()
        v.assign([9.0, 9.0])
        np.testing.assert_array_equal(snap.numpy(), [1.0, 2.0])

    def test_assign_add_sub(self):
        v = repro.Variable(10.0)
        v.assign_add(5.0)
        assert float(v) == 15.0
        v.assign_sub(3.0)
        assert float(v) == 12.0

    def test_assign_returns_self_eagerly(self):
        v = repro.Variable(1.0)
        assert v.assign(2.0) is v

    def test_assign_accepts_tensor(self):
        v = repro.Variable([0.0])
        v.assign(repro.constant([7.0]))
        assert v.numpy()[0] == 7.0

    def test_assign_dtype_mismatch_raises(self):
        v = repro.Variable(1.0)
        with pytest.raises(InvalidArgumentError):
            v.assign(repro.constant(1, dtype=repro.int32))


class TestConversion:
    def test_ops_accept_variables(self):
        v = repro.Variable([1.0, 2.0])
        np.testing.assert_allclose(repro.reduce_sum(v).numpy(), 3.0)

    def test_arithmetic_sugar(self):
        v = repro.Variable(4.0)
        assert float(v + 1.0) == 5.0
        assert float(1.0 + v) == 5.0
        assert float(v - 1.0) == 3.0
        assert float(1.0 - v) == -3.0
        assert float(v * 2.0) == 8.0
        assert float(2.0 * v) == 8.0
        assert float(v / 2.0) == 2.0
        assert float(2.0 / v) == 0.5
        assert float(-v) == -4.0
        assert float(v ** 2.0) == 16.0

    def test_matmul_sugar(self):
        v = repro.Variable(np.eye(2, dtype=np.float32))
        x = repro.constant([[1.0], [2.0]])
        np.testing.assert_allclose((v @ x).numpy(), [[1.0], [2.0]])
        np.testing.assert_allclose(([[1.0, 2.0]] @ v).numpy(), [[1.0, 2.0]])

    def test_indexing(self):
        v = repro.Variable([1.0, 2.0, 3.0])
        assert float(v[1]) == 2.0

    def test_convert_to_tensor_reads(self):
        v = repro.Variable(2.5)
        t = repro.convert_to_tensor(v)
        assert isinstance(t, repro.Tensor)
        assert float(t) == 2.5


class TestGradientsThroughVariables:
    def test_gradient_wrt_variable(self):
        v = repro.Variable([1.0, 2.0])
        with repro.GradientTape() as tape:
            y = repro.reduce_sum(v * v)
        np.testing.assert_allclose(tape.gradient(y, v).numpy(), [2.0, 4.0])

    def test_assign_breaks_gradient(self):
        v = repro.Variable(1.0)
        with repro.GradientTape() as tape:
            y = v * 2.0
            v.assign(5.0)  # write after read must not affect the gradient
        assert float(tape.gradient(y, v)) == 2.0

    def test_multiple_reads_accumulate(self):
        v = repro.Variable(3.0)
        with repro.GradientTape() as tape:
            y = v * 1.0 + v * 2.0
        assert float(tape.gradient(y, v)) == 3.0
