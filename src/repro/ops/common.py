"""Shared helpers for op definitions.

Shape-inference functions receive the op's *symbolic inputs* (anything
exposing ``dtype``, ``shape``, and ``constant_value``) plus the attr
dict, and return one :class:`~repro.tensor.TensorSpec` per output.
Constant values propagate through inference so that shape-manipulating
ops (``Reshape``, ``BroadcastTo``) stay statically known whenever their
shape operand is a graph constant — the same constant-propagation trick
TensorFlow's shape inference uses.

The op *families* at the bottom (:func:`elementwise_unary`,
:func:`elementwise_binary`, :func:`comparison`, :func:`reduction`, and
their common base :func:`elementwise`) register everything a member op
is — definition with its traits, inference, NumPy kernel, optional
in-place kernel and gradient — so each member is one call in its op
module and its traits cannot drift from its definition.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape, broadcast_shapes
from repro.ops.registry import (
    ELEMENTWISE,
    REDUCTION,
    register_gradient,
    register_inplace_kernel,
    register_kernel,
    register_op,
)
from repro.runtime.executor import execute
from repro.tensor import TensorSpec

__all__ = [
    "contiguous",
    "kernel_result",
    "inplace_kernel",
    "simple_kernel",
    "unary_infer",
    "elementwise_infer",
    "comparison_infer",
    "reduction_infer",
    "reduced_shape",
    "normalize_axes",
    "constant_or_none",
    "sum_to_like",
    "elementwise",
    "elementwise_unary",
    "elementwise_binary",
    "comparison",
    "reduction",
    "reduce_kernel",
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


def kernel_result(values: list):
    """A kernel's return for an op whose output count varies with its
    attrs: one output bare, several as the list (the kernel contract of
    :func:`~repro.ops.registry.register_kernel`)."""
    return values[0] if len(values) == 1 else values


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


def reduction_infer(inputs, attrs, dtype=None) -> list[TensorSpec]:
    """Reduced shape over ``axis``/``keepdims``; the input dtype unless
    the op fixes one (``Any``/``All`` produce bool)."""
    (x,) = inputs
    return [
        TensorSpec(
            reduced_shape(TensorShape(x.shape), attrs.get("axis"), attrs.get("keepdims", False)),
            dtype or x.dtype,
        )
    ]


def constant_or_none(t) -> Optional[np.ndarray]:
    """The statically-known value of ``t``, or None."""
    value = getattr(t, "constant_value", None)
    if value is None:
        return None
    return np.asarray(value)


def sum_to_like(grad, x):
    """Reduce a broadcasting-op gradient back to the shape of ``x``."""
    from repro.ops import array_ops, math_ops

    gshape, xshape = grad.shape, x.shape
    if gshape.is_fully_defined and xshape.is_fully_defined:
        if gshape == xshape:
            return grad
        gdims, xdims = list(gshape.dims), list(xshape.dims)
        extra = len(gdims) - len(xdims)
        axes = list(range(extra)) + [
            i + extra for i, d in enumerate(xdims) if d == 1 and gdims[i + extra] != 1
        ]
        if axes:
            grad = math_ops.reduce_sum(grad, axis=tuple(axes), keepdims=False)
        return array_ops.reshape(grad, xdims)
    return execute("SumToShape", [grad, array_ops.shape(x)])


# ---------------------------------------------------------------------------
# Op families
# ---------------------------------------------------------------------------

def elementwise(
    name: str,
    kernel: Callable,
    infer: Callable,
    grad: Optional[Callable] = None,
    *,
    inplace: Optional[Callable] = None,
    traits: tuple = (),
    value_fn: Optional[Callable] = None,
) -> None:
    """Register an ``ELEMENTWISE`` op: the base of the families below,
    called directly by members whose kernel or inference is their own.

    ``grad`` is the reverse-mode rule (none registered when None);
    ``inplace`` an in-place kernel, which only an op whose kernel always
    returns a fresh buffer may have; ``traits`` are added to
    ``ELEMENTWISE``.
    """
    register_op(name, infer_fn=infer, value_fn=value_fn, traits=(ELEMENTWISE, *traits))
    register_kernel(name)(kernel)
    if inplace is not None:
        register_inplace_kernel(name)(inplace)
    if grad is not None:
        register_gradient(name)(grad)


def elementwise_unary(
    name: str,
    fn: Callable,
    grad: Optional[Callable] = None,
    *,
    inplace: bool = False,
    traits: tuple = (),
) -> None:
    """A unary op computed by the NumPy callable ``fn``.

    ``grad(op, grad) -> [input gradient]``.  ``inplace=True`` gives it an
    in-place kernel running ``fn`` with ``out=`` (ufuncs only).
    """
    elementwise(
        name,
        simple_kernel(fn),
        unary_infer,
        grad,
        inplace=inplace_kernel(fn) if inplace else None,
        traits=traits,
    )


def elementwise_binary(
    name: str, fn: Callable, grad: Optional[Callable] = None, *, inplace: bool = False
) -> None:
    """A broadcasting binary op computed by the NumPy callable ``fn``
    (``inplace=True`` as for :func:`elementwise_unary`).

    ``grad(op, grad)`` returns or yields the two partials; each is
    reduced to its input's shape (:func:`sum_to_like`) as it is
    produced, so a rule written as a generator stages its nodes in the
    order it yields them.
    """
    gradient = None
    if grad is not None:

        def gradient(op, g):
            return [sum_to_like(d, x) for d, x in zip(grad(op, g), op.inputs)]

    elementwise(
        name,
        simple_kernel(fn),
        elementwise_infer,
        gradient,
        inplace=inplace_kernel(fn) if inplace else None,
    )


def comparison(name: str, fn: Callable) -> None:
    """A broadcasting comparison: bool output, no gradient."""
    elementwise(name, simple_kernel(fn), comparison_infer)


def reduction(
    name: str, kernel: Callable, grad: Optional[Callable] = None, *, dtype=None
) -> None:
    """A ``REDUCTION`` over the ``axis``/``keepdims`` attrs of its one
    input; ``dtype`` fixes the output dtype (else the input's)."""
    infer = reduction_infer if dtype is None else functools.partial(reduction_infer, dtype=dtype)
    register_op(name, infer_fn=infer, traits=(REDUCTION,))
    register_kernel(name)(kernel)
    if grad is not None:
        register_gradient(name)(grad)


def reduce_kernel(fn: Callable) -> Callable:
    """Kernel applying a NumPy reduction ``fn(x, axis=, keepdims=)``."""

    def kernel(inputs, attrs, device):
        (x,) = inputs
        axis = attrs.get("axis")
        return fn(
            x, axis=None if axis is None else tuple(axis), keepdims=attrs.get("keepdims", False)
        )

    kernel.__name__ = f"kernel_{fn.__name__}"
    return kernel
