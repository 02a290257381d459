"""Variable state operations.

Variables (paper §4.3) are Python objects owning unique storage.  At
the op layer they are manipulated through opaque *resource* handles —
0-d ``resource`` tensors wrapping the variable object — so that reads
and writes are ordinary operations that can appear both in imperative
execution and inside traced graphs ("staged read, write, save, and
restore operations may interact with variables").

The duck type required of a handle's payload is small: ``_storage``
(the NumPy buffer), ``dtype``, ``shape``, and ``device`` attributes.
:class:`repro.core.variables.Variable` provides it.
"""

from __future__ import annotations

import numpy as np

from repro.framework.tensor_shape import TensorShape
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.ops.common import contiguous
from repro.runtime.executor import execute
from repro.tensor import TensorSpec, convert_to_tensor, unwrap_handle

__all__ = ["assign_moving_average"]


def _handle_const_infer(inputs, attrs):
    return [TensorSpec(TensorShape([]), attrs["dtype"])]


# A graph-resident reference to an eager resource/variant handle.  Lets
# classic (v1) graphs mention variables: the handle is an attr, not a
# serializable constant, mirroring how TF1 graphs named their variables.
register_op("HandleConst", infer_fn=_handle_const_infer)


@register_kernel("HandleConst")
def _handle_const_kernel(inputs, attrs, device):
    return [attrs["handle"]]


register_gradient("HandleConst")(lambda op, grad: [])


def _read_infer(inputs, attrs):
    return [TensorSpec(TensorShape(attrs["shape"]), attrs["dtype"])]


register_op("ReadVariableOp", infer_fn=_read_infer, is_stateful=True)


@register_kernel("ReadVariableOp")
def _read_variable_kernel(inputs, attrs, device):
    (handle,) = inputs
    var = unwrap_handle(handle)
    # Return a snapshot: later assignments must not mutate the read value.
    return var._storage


@register_gradient("ReadVariableOp")
def _read_variable_grad(op, grad):
    # The gradient with respect to the *handle* is the gradient of the
    # read value; the tape machinery routes it to the watched variable.
    return [grad]


def _assign_infer(inputs, attrs):
    return []


def _store(var, new) -> None:
    buf = contiguous(new)
    if buf is var._storage or not buf.flags.owndata:
        buf = buf.copy()
    buf.flags.writeable = False
    var._storage = buf


def _make_assign_kernel(combine):
    def kernel(inputs, attrs, device):
        handle, value = inputs
        var = unwrap_handle(handle)
        _store(var, combine(var._storage, value))
        return []

    return kernel


register_op(
    "AssignVariableOp",
    infer_fn=_assign_infer,
    is_stateful=True,
    has_side_effects=True,
)
register_kernel("AssignVariableOp")(_make_assign_kernel(lambda old, new: new.copy()))
register_gradient("AssignVariableOp")(lambda op, *grads: [None, None])

register_op(
    "AssignAddVariableOp",
    infer_fn=_assign_infer,
    is_stateful=True,
    has_side_effects=True,
)
register_kernel("AssignAddVariableOp")(_make_assign_kernel(lambda old, new: old + new))
register_gradient("AssignAddVariableOp")(lambda op, *grads: [None, None])

register_op(
    "AssignSubVariableOp",
    infer_fn=_assign_infer,
    is_stateful=True,
    has_side_effects=True,
)
register_kernel("AssignSubVariableOp")(_make_assign_kernel(lambda old, new: old - new))
register_gradient("AssignSubVariableOp")(lambda op, *grads: [None, None])


# One write for a moving average: ``old + (value - old) * (1 - momentum)``,
# in the variable's dtype -- the float arithmetic of the read, ``Sub``,
# ``Mul`` and ``AssignAddVariableOp`` it replaces, bit for bit.  It has
# no outputs, so no tape records it (batch norm's moving statistics are
# read by no loss).
register_op(
    "AssignMovingAverage",
    infer_fn=_assign_infer,
    is_stateful=True,
    has_side_effects=True,
)


@register_kernel("AssignMovingAverage")
def _assign_moving_average_kernel(inputs, attrs, device):
    handle, value = inputs
    var = unwrap_handle(handle)
    old = var._storage
    rate = np.asarray(1.0 - attrs["momentum"], dtype=old.dtype)
    _store(var, old + (value - old) * rate)
    return []


register_gradient("AssignMovingAverage")(lambda op, *grads: [None, None])


def assign_moving_average(variable, value, momentum: float) -> None:
    """Move ``variable`` toward ``value``: ``v += (value - v) * (1 - momentum)``."""
    value = convert_to_tensor(value, dtype=variable.dtype)
    execute("AssignMovingAverage", [variable.handle, value], {"momentum": float(momentum)})
