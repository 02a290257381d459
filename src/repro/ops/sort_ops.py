"""Sorting and selection operations: sort, argsort, top_k, cumprod."""

from __future__ import annotations

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.ops.common import unary_infer
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.runtime.executor import execute
from repro.tensor import TensorSpec, convert_to_tensor

__all__ = ["sort", "argsort", "top_k", "cumprod"]


def _convert(x):
    return convert_to_tensor(x)


# -- Sort ----------------------------------------------------------------------

register_op("Sort", infer_fn=unary_infer)


@register_kernel("Sort")
def _sort_kernel(inputs, attrs, device):
    (x,) = inputs
    out = np.sort(x, axis=attrs["axis"])
    if attrs["direction"] == "DESCENDING":
        out = np.flip(out, axis=attrs["axis"])
    return np.ascontiguousarray(out)


@register_gradient("Sort")
def _sort_grad(op, grad):
    """Route gradients back through the permutation that sorted x."""
    x = op.inputs[0]
    axis = op.attrs["axis"]
    order = argsort(x, axis=axis, direction=op.attrs["direction"])
    inverse = argsort(order, axis=axis)
    return [execute("TakeAlongAxis", [grad, inverse], {"axis": axis})]


register_op(
    "ArgSort",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(inputs[0].shape), dtypes.int64)
    ],
)


@register_kernel("ArgSort")
def _argsort_kernel(inputs, attrs, device):
    (x,) = inputs
    order = np.argsort(x, axis=attrs["axis"], kind="stable")
    if attrs["direction"] == "DESCENDING":
        order = np.flip(order, axis=attrs["axis"])
    return np.ascontiguousarray(order.astype(np.int64))


register_gradient("ArgSort")(lambda op, grad: [None])

register_op(
    "TakeAlongAxis",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(inputs[1].shape), inputs[0].dtype)
    ],
)


@register_kernel("TakeAlongAxis")
def _take_along_axis_kernel(inputs, attrs, device):
    x, indices = inputs
    return np.take_along_axis(x, indices, axis=attrs["axis"])


@register_gradient("TakeAlongAxis")
def _take_along_axis_grad(op, grad):
    x, indices = op.inputs
    if not x.shape.is_fully_defined:
        raise InvalidArgumentError("TakeAlongAxis gradient needs static shapes")
    return [
        execute(
            "PutAlongAxis",
            [grad, indices],
            {"axis": op.attrs["axis"], "dims": tuple(x.shape.as_list())},
        ),
        None,
    ]


register_op(
    "PutAlongAxis",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(attrs["dims"]), inputs[0].dtype)
    ],
)


@register_kernel("PutAlongAxis")
def _put_along_axis_kernel(inputs, attrs, device):
    grad, indices = inputs
    out = np.zeros(attrs["dims"], dtype=grad.dtype)
    axis = attrs["axis"] % out.ndim
    index_grids = list(np.indices(grad.shape))
    index_grids[axis] = indices
    np.add.at(out, tuple(index_grids), grad)
    return out


def sort(x, axis: int = -1, direction: str = "ASCENDING"):
    """Sort along an axis (differentiable: gradients follow the permutation)."""
    direction = direction.upper()
    if direction not in ("ASCENDING", "DESCENDING"):
        raise InvalidArgumentError(f"Bad direction {direction!r}")
    return execute(
        "Sort", [_convert(x)], {"axis": int(axis), "direction": direction}
    )


def argsort(x, axis: int = -1, direction: str = "ASCENDING"):
    """Indices that would sort ``x`` along ``axis`` (int64)."""
    direction = direction.upper()
    if direction not in ("ASCENDING", "DESCENDING"):
        raise InvalidArgumentError(f"Bad direction {direction!r}")
    return execute(
        "ArgSort", [_convert(x)], {"axis": int(axis), "direction": direction}
    )


# -- TopK ------------------------------------------------------------------------

def _top_k_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(inputs[0].shape)
    k = attrs["k"]
    if s.rank is None:
        return [
            TensorSpec(TensorShape(None), x.dtype),
            TensorSpec(TensorShape(None), dtypes.int64),
        ]
    dims = list(s.dims[:-1]) + [k]
    return [
        TensorSpec(TensorShape(dims), x.dtype),
        TensorSpec(TensorShape(dims), dtypes.int64),
    ]


register_op("TopKV2", infer_fn=_top_k_infer)


@register_kernel("TopKV2")
def _top_k_kernel(inputs, attrs, device):
    (x,) = inputs
    k = attrs["k"]
    if k > x.shape[-1]:
        raise InvalidArgumentError(
            f"top_k: k={k} exceeds the last dimension ({x.shape[-1]})"
        )
    part = np.argpartition(-x, k - 1, axis=-1)[..., :k]
    gathered = np.take_along_axis(x, part, axis=-1)
    order = np.argsort(-gathered, axis=-1, kind="stable")
    indices = np.take_along_axis(part, order, axis=-1)
    values = np.take_along_axis(gathered, order, axis=-1)
    return [np.ascontiguousarray(values), indices.astype(np.int64)]


@register_gradient("TopKV2")
def _top_k_grad(op, grad_values, grad_indices):
    x = op.inputs[0]
    indices = op.outputs[1]
    if grad_values is None:
        return [None]
    if not x.shape.is_fully_defined:
        raise InvalidArgumentError("top_k gradient needs a static input shape")
    return [
        execute(
            "PutAlongAxis",
            [grad_values, indices],
            {"axis": -1, "dims": tuple(x.shape.as_list())},
        )
    ]


def top_k(x, k: int = 1):
    """The ``k`` largest entries (and their indices) along the last axis."""
    return execute("TopKV2", [_convert(x)], {"k": int(k)})


# -- Cumprod ------------------------------------------------------------------------

register_op("Cumprod", infer_fn=unary_infer)


@register_kernel("Cumprod")
def _cumprod_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.cumprod(x, axis=attrs["axis"], dtype=x.dtype)


@register_gradient("Cumprod")
def _cumprod_grad(op, grad):
    # Standard trick (valid without zeros): reversed cumsum of grad*out, / x.
    from repro.ops import math_ops

    x = op.inputs[0]
    out = op.outputs[0]
    axis = op.attrs["axis"]
    summed = math_ops.cumsum(grad * out, axis=axis, reverse=True)
    return [summed / x]


def cumprod(x, axis: int = 0):
    """Cumulative product along an axis."""
    return execute("Cumprod", [_convert(x)], {"axis": int(axis)})
