"""Tensor lists: dynamically-sized sequences of tensors.

Tensor lists travel through the system as opaque ``variant`` tensors
holding an immutable Python tuple (push/pop return *new* handles, so
staged dataflow stays functional).  They back the stack-based gradient
of staged ``while_loop`` (see ``repro.ops.control_flow``): an augmented
forward loop pushes each iteration's values; the backward loop pops
them in reverse.
"""

from __future__ import annotations

import numpy as np

from repro.framework import dtypes
from repro.framework.tensor_shape import TensorShape
from repro.framework.errors import OutOfRangeError
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.tensor import Tensor, TensorSpec, convert_to_tensor, unwrap_handle

__all__ = [
    "empty_tensor_list",
    "tensor_list_push_back",
    "tensor_list_pop_back",
    "tensor_list_stack",
    "tensor_list_from_tensor",
    "tensor_list_length",
]


def _variant_spec(inputs=None, attrs=None):
    return TensorSpec(TensorShape([]), dtypes.variant)


register_op(
    "EmptyTensorList",
    infer_fn=lambda inputs, attrs: [_variant_spec()],
    is_stateful=True,
)


@register_kernel("EmptyTensorList")
def _empty_list_kernel(inputs, attrs, device):
    return [Tensor((), dtype=dtypes.variant, device=device)]


register_gradient("EmptyTensorList")(lambda op, grad: [])

register_op(
    "TensorListPushBack",
    infer_fn=lambda inputs, attrs: [_variant_spec()],
    is_stateful=True,
)


@register_kernel("TensorListPushBack")
def _push_back_kernel(inputs, attrs, device):
    handle, value = inputs
    items = unwrap_handle(handle)
    return [Tensor(items + (np.asarray(value),), dtype=dtypes.variant, device=device)]


@register_gradient("TensorListPushBack")
def _push_back_grad(op, grad_list):
    # grad of (list, value) given grad list: pop the last element.  The
    # grad list can be empty (no gradient reached any element); handle
    # that with a data-dependent branch so the rule also works inside
    # staged backward graphs, where emptiness is a runtime property.
    if grad_list is None:
        return [None, None]
    from repro.tensor import Tensor

    value = op.inputs[1]
    if isinstance(grad_list, Tensor):  # eager: resolve emptiness now
        if len(grad_list.resource_value()) == 0:
            return [None, None]
        rest, last = tensor_list_pop_back(grad_list, element_dtype=value.dtype)
        return [rest, last]
    if value.dtype in (dtypes.variant, dtypes.resource):
        rest, last = tensor_list_pop_back(grad_list, element_dtype=value.dtype)
        return [rest, last]
    from repro.ops import array_ops, control_flow, math_ops

    def pop_branch():
        return tensor_list_pop_back(grad_list, element_dtype=value.dtype)

    def empty_branch():
        return grad_list, array_ops.zeros_like(value)

    rest, last = control_flow.cond(
        math_ops.greater(tensor_list_length(grad_list), 0), pop_branch, empty_branch
    )
    return [rest, last]


def _pop_infer(inputs, attrs):
    return [
        _variant_spec(),
        TensorSpec(TensorShape(attrs.get("element_shape")), attrs["element_dtype"]),
    ]


register_op("TensorListPopBack", infer_fn=_pop_infer, is_stateful=True)


@register_kernel("TensorListPopBack")
def _pop_back_kernel(inputs, attrs, device):
    (handle,) = inputs
    items = unwrap_handle(handle)
    if not items:
        raise OutOfRangeError("Pop from an empty tensor list")
    element = items[-1]
    element_dtype = attrs["element_dtype"]
    if element_dtype in (dtypes.variant, dtypes.resource):
        # Handle-typed elements (nested lists, variable handles) must be
        # re-wrapped explicitly; their buffers are 0-d object arrays.
        element = Tensor._from_buffer(element, element_dtype, device)
    return [Tensor(items[:-1], dtype=dtypes.variant, device=device), element]


@register_gradient("TensorListPopBack")
def _pop_back_grad(op, grad_list, grad_value):
    if grad_list is None and grad_value is None:
        return [None]
    if grad_value is None:
        return [grad_list]
    base = grad_list if grad_list is not None else empty_tensor_list()
    return [tensor_list_push_back(base, grad_value)]


def _stack_infer(inputs, attrs):
    shape = attrs.get("element_shape")
    if shape is None:
        return [TensorSpec(TensorShape(None), attrs["element_dtype"])]
    return [TensorSpec(TensorShape((None,) + tuple(shape)), attrs["element_dtype"])]


register_op("TensorListStack", infer_fn=_stack_infer, is_stateful=True)


@register_kernel("TensorListStack")
def _list_stack_kernel(inputs, attrs, device):
    (handle,) = inputs
    items = unwrap_handle(handle)
    if not items:
        shape = attrs.get("element_shape") or ()
        return np.zeros((0,) + tuple(shape), dtype=attrs["element_dtype"].as_numpy_dtype)
    return np.stack(items, axis=0)


@register_gradient("TensorListStack")
def _list_stack_grad(op, grad):
    if grad is None:
        return [None]
    return [tensor_list_from_tensor(grad)]


register_op(
    "TensorListFromTensor",
    infer_fn=lambda inputs, attrs: [_variant_spec()],
    is_stateful=True,
)


@register_kernel("TensorListFromTensor")
def _list_from_tensor_kernel(inputs, attrs, device):
    (x,) = inputs
    return [
        Tensor(
            tuple(np.ascontiguousarray(x[i]) for i in range(x.shape[0])),
            dtype=dtypes.variant,
            device=device,
        )
    ]


@register_gradient("TensorListFromTensor")
def _list_from_tensor_grad(op, grad_list):
    if grad_list is None:
        return [None]
    x = op.inputs[0]
    shape = None
    if x.shape.rank is not None and x.shape[1:].is_fully_defined:
        shape = tuple(x.shape.as_list()[1:])
    return [tensor_list_stack(grad_list, x.dtype, element_shape=shape)]


register_op(
    "TensorListLength",
    infer_fn=lambda inputs, attrs: [TensorSpec(TensorShape([]), dtypes.int32)],
    is_stateful=True,
)


@register_kernel("TensorListLength")
def _list_length_kernel(inputs, attrs, device):
    (handle,) = inputs
    return np.asarray(len(unwrap_handle(handle)), dtype=np.int32)


def empty_tensor_list():
    """A new, empty tensor list handle."""
    from repro.runtime.executor import execute

    return execute("EmptyTensorList", [], {})


def tensor_list_push_back(handle, value):
    """Append ``value``; returns a new list handle."""
    from repro.runtime.executor import execute

    return execute("TensorListPushBack", [handle, convert_to_tensor(value)], {})


def tensor_list_pop_back(handle, element_dtype, element_shape=None):
    """Remove the last element; returns ``(new_handle, element)``."""
    from repro.runtime.executor import execute

    return execute(
        "TensorListPopBack",
        [handle],
        {
            "element_dtype": dtypes.as_dtype(element_dtype),
            "element_shape": element_shape,
        },
    )


def tensor_list_stack(handle, element_dtype, element_shape=None):
    """Stack all elements into one tensor along a new leading axis."""
    from repro.runtime.executor import execute

    return execute(
        "TensorListStack",
        [handle],
        {
            "element_dtype": dtypes.as_dtype(element_dtype),
            "element_shape": element_shape,
        },
    )


def tensor_list_from_tensor(x):
    """Build a list whose elements are the rows of ``x`` (axis 0)."""
    from repro.runtime.executor import execute

    return execute("TensorListFromTensor", [convert_to_tensor(x)], {})


def tensor_list_length(handle):
    """The number of elements as a scalar int32 tensor."""
    from repro.runtime.executor import execute

    return execute("TensorListLength", [handle], {})
