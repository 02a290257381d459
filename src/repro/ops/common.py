"""Shared helpers for op definitions.

Shape-inference functions receive the op's *symbolic inputs* (anything
exposing ``dtype``, ``shape``, and ``constant_value``) plus the attr
dict, and return one :class:`~repro.tensor.TensorSpec` per output.
Constant values propagate through inference so that shape-manipulating
ops (``Reshape``, ``BroadcastTo``) stay statically known whenever their
shape operand is a graph constant — the same constant-propagation trick
TensorFlow's shape inference uses.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape, broadcast_shapes
from repro.tensor import TensorSpec

__all__ = [
    "contiguous",
    "inplace_kernel",
    "simple_kernel",
    "unary_infer",
    "elementwise_infer",
    "comparison_infer",
    "reduction_infer",
    "reduced_shape",
    "normalize_axes",
    "constant_or_none",
]


def contiguous(a: np.ndarray) -> np.ndarray:
    """C-contiguous copy that preserves 0-d shapes.

    ``np.ascontiguousarray`` promotes 0-d arrays to shape (1,), which
    would silently change an op's output rank.
    """
    out = np.ascontiguousarray(a)
    if out.shape != a.shape:
        out = out.reshape(a.shape)
    return out


def simple_kernel(fn: Callable) -> Callable:
    """Wrap a NumPy ufunc-like callable as a kernel.

    The wrapped callable receives the raw input arrays positionally;
    attrs and device are ignored.  Suitable for stateless elementwise
    kernels, which are the majority of the op set.
    """

    def kernel(inputs, attrs, device):
        return fn(*inputs)

    kernel.__name__ = f"kernel_{getattr(fn, '__name__', 'lambda')}"
    return kernel


def inplace_kernel(fn: Callable) -> Callable:
    """Wrap a NumPy ufunc (accepting ``out=``) as an in-place kernel.

    The executor's memory plan calls these with ``out`` set to a donated
    input buffer whose refcount reached zero, so the op overwrites a
    dying intermediate instead of allocating.  Only ufunc-backed
    elementwise ops may use this wrapper — the ufunc contract guarantees
    correct results when ``out`` aliases an input.
    """

    def kernel(inputs, attrs, device, out):
        return fn(*inputs, out=out)

    kernel.__name__ = f"inplace_{getattr(fn, '__name__', 'lambda')}"
    return kernel


def unary_infer(inputs, attrs) -> list[TensorSpec]:
    """Output has the same dtype and shape as the (single) input."""
    (x,) = inputs
    return [TensorSpec(x.shape, x.dtype)]


def elementwise_infer(inputs, attrs) -> list[TensorSpec]:
    """Broadcasting elementwise op: common broadcast shape, first dtype."""
    shape = inputs[0].shape
    for other in inputs[1:]:
        shape = broadcast_shapes(shape, other.shape)
    return [TensorSpec(shape, inputs[0].dtype)]


def comparison_infer(inputs, attrs) -> list[TensorSpec]:
    shape = broadcast_shapes(inputs[0].shape, inputs[1].shape)
    return [TensorSpec(shape, dtypes.bool_)]


def normalize_axes(axis, rank: Optional[int]) -> Optional[tuple[int, ...]]:
    """Canonicalize a reduction axis spec to a sorted tuple of non-negative ints."""
    if axis is None:
        return None
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    axes = tuple(int(a) for a in axis)
    if rank is not None:
        axes = tuple(a % rank for a in axes)
        if len(set(axes)) != len(axes):
            raise InvalidArgumentError(f"Duplicate reduction axes: {axis}")
    return tuple(sorted(axes))


def reduced_shape(shape: TensorShape, axis, keepdims: bool) -> TensorShape:
    if shape.rank is None:
        return TensorShape(None)
    axes = normalize_axes(axis, shape.rank)
    if axes is None:
        axes = tuple(range(shape.rank))
    dims = []
    for i, d in enumerate(shape.dims):  # type: ignore[union-attr]
        if i in axes:
            if keepdims:
                dims.append(1)
        else:
            dims.append(d)
    return TensorShape(dims)


def reduction_infer(inputs, attrs) -> list[TensorSpec]:
    (x,) = inputs
    out_dtype = attrs.get("output_dtype", x.dtype)
    return [
        TensorSpec(
            reduced_shape(TensorShape(x.shape), attrs.get("axis"), attrs.get("keepdims", False)),
            out_dtype,
        )
    ]


def constant_or_none(t) -> Optional[np.ndarray]:
    """The statically-known value of ``t``, or None."""
    value = getattr(t, "constant_value", None)
    if value is None:
        return None
    return np.asarray(value)
