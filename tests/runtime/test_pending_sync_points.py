"""The sync-point matrix of lazy eager mode's pending values.

Lazy eager returns :class:`~repro.tensor.LazyTensor` objects from
``execute`` and promises an observation contract: every way Python can
look at a value — ``numpy()``, ``item()``, ``bool()``, ``len()``, a
cross-device copy, ``py_func`` — is a synchronization point that (a)
produces exactly the value sync mode would, and (b) delivers a deferred
kernel error with the originating op's name attached, original type
preserved, exactly once.
"""

import numpy as np
import pytest

import repro
from repro.ops.script_ops import py_func
from repro.tensor import LazyTensor


@pytest.fixture
def pending_mode():
    with repro.execution_mode("lazy"):
        yield


def _pending_vec():
    """A pending [3, 5, 7] produced by recorded pure ops."""
    x = repro.constant([1.0, 2.0, 3.0])
    y = x * 2.0 + 1.0
    assert isinstance(y, LazyTensor)
    return y


def _pending_error():
    """A pending tensor whose kernel fails (out-of-range gather)."""
    x = repro.constant([1.0, 2.0, 3.0])
    return repro.gather(x, repro.constant([7], dtype=repro.int32))


class TestValueMatrix:
    def test_numpy(self, pending_mode):
        np.testing.assert_allclose(_pending_vec().numpy(), [3.0, 5.0, 7.0])

    def test_item(self, pending_mode):
        total = repro.reduce_sum(_pending_vec())
        assert total.item() == pytest.approx(15.0)

    def test_bool(self, pending_mode):
        flag = repro.reduce_sum(_pending_vec()) > 10.0
        assert bool(flag) is True

    def test_len(self, pending_mode):
        assert len(_pending_vec()) == 3

    def test_float_and_int(self, pending_mode):
        total = repro.reduce_sum(_pending_vec())
        assert float(total) == pytest.approx(15.0)
        assert int(total) == 15

    def test_cross_device_copy(self, pending_mode):
        moved = _pending_vec().gpu()
        assert "GPU" in moved.device
        np.testing.assert_allclose(moved.numpy(), [3.0, 5.0, 7.0])

    def test_py_func_sees_materialized_inputs(self, pending_mode):
        seen = []

        def probe(arr):
            seen.append(np.array(arr))
            return arr + 1.0

        out = py_func(probe, [_pending_vec()], repro.float32)
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0, 8.0])
        np.testing.assert_allclose(seen[0], [3.0, 5.0, 7.0])

    def test_tape_gradient(self, pending_mode):
        x = repro.constant([1.0, 2.0, 3.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            loss = repro.reduce_sum(x * x)
        np.testing.assert_allclose(tape.gradient(loss, x).numpy(), [2.0, 4.0, 6.0])


class TestErrorMatrix:
    def test_numpy_delivers_labelled_error(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError, match="Gather") as ei:
            bad.numpy()
        assert getattr(ei.value, "_repro_async_op", None) == "Gather"

    def test_item_delivers(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError):
            bad.item()

    def test_bool_delivers(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError):
            bool(bad)

    def test_cross_device_copy_delivers(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError, match="Gather"):
            bad.gpu()

    def test_py_func_delivers(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError):
            py_func(lambda a: a, [bad], repro.float32).numpy()

    def test_delivery_is_exactly_once(self, pending_mode):
        bad = _pending_error()
        with pytest.raises(IndexError):
            bad.numpy()
        repro.sync()  # already delivered: the barrier stays clean
        np.testing.assert_allclose((_pending_vec()).numpy(), [3.0, 5.0, 7.0])
