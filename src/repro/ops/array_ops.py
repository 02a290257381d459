"""Array manipulation operations: shape, slicing, joining, broadcasting.

Shape-reading ops (``Shape``, ``Size``, ``Rank``) register a
``value_fn`` so the graph builder can constant-fold them whenever the
input's static shape is fully known — the standard trick that keeps
dynamic-shape gradient code (which calls ``shape(x)``) fully static in
the common case of a trace over concrete shapes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError, UnimplementedError
from repro.framework.tensor_shape import TensorShape
from repro.ops import convert_operand  # defined before this module loads
from repro.ops.common import (
    constant_or_none,
    contiguous,
    elementwise,
    elementwise_unary,
    kernel_result,
    simple_kernel,
    sum_to_like,
)
from repro.ops.registry import (
    ALIASES_INPUT,
    register_gradient,
    register_kernel,
    register_op,
)
from repro.runtime.context import context, device as device_scope
from repro.runtime.executor import execute
from repro.tensor import Tensor, TensorBase, TensorSpec, convert_to_tensor

__all__ = [
    "constant",
    "identity",
    "stop_gradient",
    "shape",
    "size",
    "rank",
    "reshape",
    "transpose",
    "expand_dims",
    "squeeze",
    "concat",
    "split",
    "stack",
    "unstack",
    "gather",
    "pad",
    "tile",
    "fill",
    "zeros",
    "ones",
    "zeros_like",
    "ones_like",
    "eye",
    "diag",
    "diag_part",
    "range",
    "broadcast_to",
    "one_hot",
    "where",
    "slice_helper",
    "copy_to_device",
    "boolean_mask",
]

import builtins as _builtins

# This module defines a `range` op, so helpers use the builtin explicitly.
_builtin_range = _builtins.range


def _convert(x, dtype=None):
    return convert_to_tensor(x, dtype=dtype)


def _shape_vector(s) -> TensorBase:
    """Convert a static shape (list/tuple) or tensor to an int32 vector tensor."""
    if isinstance(s, TensorBase):
        return s
    if isinstance(s, TensorShape):
        s = s.as_list()
    return convert_to_tensor(np.asarray(s, dtype=np.int32))


# ---------------------------------------------------------------------------
# Constants / identity
# ---------------------------------------------------------------------------

def _const_infer(inputs, attrs):
    value = attrs["value"]
    return [TensorSpec(TensorShape(value.shape), dtypes.as_dtype(value.dtype))]


register_op(
    "Const",
    infer_fn=_const_infer,
    value_fn=lambda inputs, attrs: [attrs["value"]],
)


@register_kernel("Const")
def _const_kernel(inputs, attrs, device):
    return attrs["value"]


register_gradient("Const")(lambda op, grad: [])


def constant(value, dtype=None, shape=None) -> TensorBase:
    """Create a constant tensor.

    Eagerly, this is simply a device-resident tensor.  In a
    graph-building context it stages a ``Const`` node, which is how
    non-tensor Python state gets baked into traces (paper §4.1's
    ``add_noise`` example).
    """
    if isinstance(value, TensorBase) and not isinstance(value, Tensor):
        return value  # already symbolic
    if isinstance(value, Tensor):
        arr = value.numpy()
        if dtype is not None and value.dtype != dtypes.as_dtype(dtype):
            arr = arr.astype(dtypes.as_dtype(dtype).as_numpy_dtype)
    else:
        t = Tensor(value, dtype=dtype)
        arr = t.numpy()
    if shape is not None:
        arr = np.broadcast_to(arr, tuple(shape)).copy()
    graph = context.current_graph()
    if graph is None:
        device_name = context.current_device_name()
        device = context.get_device(device_name) if device_name else None
        return Tensor(arr, device=device)
    arr = contiguous(arr)
    if arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return execute("Const", [], {"value": arr})


# Identity and StopGradient hand back their input buffer itself.
elementwise_unary(
    "Identity", lambda x: x, lambda op, grad: [grad], traits=(ALIASES_INPUT,)
)


def identity(x):
    """Return a tensor with the same contents (a copy across devices)."""
    return execute("Identity", [_convert(x)])


def copy_to_device(x, device_name: str):
    """Copy a tensor to the named device (implements ``Tensor.gpu()``)."""
    with device_scope(device_name):
        return identity(x)


elementwise_unary(
    "StopGradient", lambda x: x, lambda op, grad: [None], traits=(ALIASES_INPUT,)
)


def stop_gradient(x):
    """Block gradient flow through ``x``."""
    return execute("StopGradient", [_convert(x)])


# ---------------------------------------------------------------------------
# Shape reading
# ---------------------------------------------------------------------------

def _shape_infer(inputs, attrs):
    (x,) = inputs
    r = TensorShape(x.shape).rank
    return [TensorSpec(TensorShape([r]), dtypes.int32)]


def _shape_value(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.is_fully_defined:
        return [np.asarray(s.as_list(), dtype=np.int32)]
    return [None]


register_op("Shape", infer_fn=_shape_infer, value_fn=_shape_value)
register_kernel("Shape")(simple_kernel(lambda x: np.asarray(x.shape, dtype=np.int32)))
register_gradient("Shape")(lambda op, grad: [None])


def shape(x):
    """The shape of ``x`` as an int32 vector tensor (dynamic shape)."""
    return execute("Shape", [_convert(x)])


def _size_value(inputs, attrs):
    (x,) = inputs
    n = TensorShape(x.shape).num_elements()
    return [np.asarray(n, dtype=np.int32) if n is not None else None]


register_op(
    "Size",
    infer_fn=lambda inputs, attrs: [TensorSpec(TensorShape([]), dtypes.int32)],
    value_fn=_size_value,
)
register_kernel("Size")(simple_kernel(lambda x: np.asarray(x.size, dtype=np.int32)))
register_gradient("Size")(lambda op, grad: [None])


def size(x):
    """The number of elements of ``x`` as a scalar int32 tensor."""
    return execute("Size", [_convert(x)])


def _rank_value(inputs, attrs):
    (x,) = inputs
    r = TensorShape(x.shape).rank
    return [np.asarray(r, dtype=np.int32) if r is not None else None]


register_op(
    "Rank",
    infer_fn=lambda inputs, attrs: [TensorSpec(TensorShape([]), dtypes.int32)],
    value_fn=_rank_value,
)
register_kernel("Rank")(simple_kernel(lambda x: np.asarray(x.ndim, dtype=np.int32)))
register_gradient("Rank")(lambda op, grad: [None])


def rank(x):
    """The rank of ``x`` as a scalar int32 tensor."""
    return execute("Rank", [_convert(x)])


# ---------------------------------------------------------------------------
# Reshape / transpose / dims
# ---------------------------------------------------------------------------

def _reshape_infer(inputs, attrs):
    x, shape_t = inputs
    target = constant_or_none(shape_t)
    if target is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    dims = [int(d) for d in target]
    if -1 in dims:
        n = TensorShape(x.shape).num_elements()
        if n is not None:
            known = 1
            for d in dims:
                if d != -1:
                    known *= d
            dims[dims.index(-1)] = n // known if known else 0
        else:
            dims[dims.index(-1)] = None  # type: ignore[call-overload]
    return [TensorSpec(TensorShape(dims), x.dtype)]


register_op("Reshape", infer_fn=_reshape_infer)


@register_kernel("Reshape")
def _reshape_kernel(inputs, attrs, device):
    x, target = inputs
    return x.reshape(tuple(int(d) for d in target))


@register_gradient("Reshape")
def _reshape_grad(op, grad):
    x = op.inputs[0]
    if x.shape.is_fully_defined:
        return [reshape(grad, x.shape.as_list()), None]
    return [reshape(grad, shape(x)), None]


def reshape(x, new_shape):
    """Reshape ``x``; ``new_shape`` may be a static list or an int tensor."""
    return execute("Reshape", [_convert(x), _shape_vector(new_shape)])


def _transpose_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    perm = attrs.get("perm")
    if perm is None:
        perm = tuple(reversed(_builtin_range(s.rank)))
    return [TensorSpec(TensorShape([s[p] for p in perm]), x.dtype)]


register_op("Transpose", infer_fn=_transpose_infer)


@register_kernel("Transpose")
def _transpose_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.transpose(x, attrs.get("perm"))


@register_gradient("Transpose")
def _transpose_grad(op, grad):
    perm = op.attrs.get("perm")
    if perm is None:
        return [transpose(grad)]
    inverse = list(np.argsort(perm))
    return [transpose(grad, inverse)]


def transpose(x, perm: Optional[Sequence[int]] = None):
    """Permute dimensions (reverses them when ``perm`` is None)."""
    attrs = {"perm": None if perm is None else tuple(int(p) for p in perm)}
    return execute("Transpose", [_convert(x)], attrs)


def _expand_dims_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    axis = attrs["axis"] % (s.rank + 1)
    dims = list(s.dims)
    dims.insert(axis, 1)
    return [TensorSpec(TensorShape(dims), x.dtype)]


register_op("ExpandDims", infer_fn=_expand_dims_infer)


@register_kernel("ExpandDims")
def _expand_dims_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.expand_dims(x, attrs["axis"])


@register_gradient("ExpandDims")
def _expand_dims_grad(op, grad):
    x = op.inputs[0]
    if x.shape.is_fully_defined:
        return [reshape(grad, x.shape.as_list())]
    return [reshape(grad, shape(x))]


def expand_dims(x, axis: int):
    """Insert a length-1 dimension at ``axis``."""
    return execute("ExpandDims", [_convert(x)], {"axis": int(axis)})


def _squeeze_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    axes = attrs.get("axis")
    if axes is None:
        dims = [d for d in s.dims if d != 1]
    else:
        axes = tuple(a % s.rank for a in axes)
        dims = [d for i, d in enumerate(s.dims) if i not in axes]
    return [TensorSpec(TensorShape(dims), x.dtype)]


register_op("Squeeze", infer_fn=_squeeze_infer)


@register_kernel("Squeeze")
def _squeeze_kernel(inputs, attrs, device):
    (x,) = inputs
    axes = attrs.get("axis")
    if axes is None:
        return np.squeeze(x)
    return np.squeeze(x, axis=tuple(a % x.ndim for a in axes)) if axes else x


@register_gradient("Squeeze")
def _squeeze_grad(op, grad):
    x = op.inputs[0]
    if x.shape.is_fully_defined:
        return [reshape(grad, x.shape.as_list())]
    return [reshape(grad, shape(x))]


def squeeze(x, axis=None):
    """Remove length-1 dimensions (all, or the given axes)."""
    if axis is not None and not isinstance(axis, (tuple, list)):
        axis = (axis,)
    attrs = {"axis": None if axis is None else tuple(int(a) for a in axis)}
    return execute("Squeeze", [_convert(x)], attrs)


# ---------------------------------------------------------------------------
# Joining / splitting
# ---------------------------------------------------------------------------

def _concat_infer(inputs, attrs):
    axis = attrs["axis"]
    shapes = [TensorShape(x.shape) for x in inputs]
    if any(s.rank is None for s in shapes):
        return [TensorSpec(TensorShape(None), inputs[0].dtype)]
    rank_ = shapes[0].rank
    axis = axis % rank_
    dims = list(shapes[0].dims)
    total = 0
    for s in shapes:
        d = s[axis]
        if d is None:
            total = None
            break
        total += d
    dims[axis] = total
    for i in _builtin_range(rank_):
        if i != axis:
            for s in shapes[1:]:
                if dims[i] is None:
                    dims[i] = s[i]
    return [TensorSpec(TensorShape(dims), inputs[0].dtype)]


register_op("Concat", infer_fn=_concat_infer)


@register_kernel("Concat")
def _concat_kernel(inputs, attrs, device):
    return np.concatenate(inputs, axis=attrs["axis"])


@register_gradient("Concat")
def _concat_grad(op, grad):
    axis = op.attrs["axis"]
    sizes = []
    for x in op.inputs:
        d = x.shape[axis if axis >= 0 else axis]
        if d is None:
            raise UnimplementedError(
                "Gradient of Concat with unknown concat-axis sizes"
            )
        sizes.append(d)
    return list(split(grad, sizes, axis=axis))


def concat(values: Sequence, axis: int):
    """Concatenate tensors along ``axis``."""
    values = [_convert(v) for v in values]
    if len(values) == 1:
        return values[0]
    return execute("Concat", values, {"axis": int(axis)})


def _split_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    axis = attrs["axis"]
    sizes = attrs["sizes"]
    specs = []
    for sz in sizes:
        if s.rank is None:
            specs.append(TensorSpec(TensorShape(None), x.dtype))
        else:
            dims = list(s.dims)
            dims[axis % s.rank] = sz
            specs.append(TensorSpec(TensorShape(dims), x.dtype))
    return specs


register_op("Split", infer_fn=_split_infer)


@register_kernel("Split")
def _split_kernel(inputs, attrs, device):
    (x,) = inputs
    sizes = attrs["sizes"]
    axis = attrs["axis"]
    if any(s is None for s in sizes):
        # Equal split of a symbolic dim: sizes resolve from the buffer.
        dim = x.shape[axis]
        if dim % len(sizes) != 0:
            raise InvalidArgumentError(
                f"Cannot split dimension {dim} into {len(sizes)} equal parts"
            )
        return kernel_result([contiguous(p) for p in np.split(x, len(sizes), axis=axis)])
    indices = np.cumsum(sizes[:-1])
    return kernel_result([contiguous(p) for p in np.split(x, indices, axis=axis)])


@register_gradient("Split")
def _split_grad(op, *grads):
    filled = []
    for g, out in zip(grads, op.outputs):
        if g is None:
            filled.append(zeros_like(out))
        else:
            filled.append(g)
    return [concat(filled, axis=op.attrs["axis"])]


def split(x, num_or_size_splits: Union[int, Sequence[int]], axis: int = 0):
    """Split ``x`` into pieces along ``axis``; returns a tuple of tensors."""
    x = _convert(x)
    dim = x.shape[axis]
    if isinstance(num_or_size_splits, int):
        if dim is None:
            # Equal split of an unknown dim stays symbolic: each piece's
            # size is derived from the actual buffer at run time.
            sizes = (None,) * num_or_size_splits
        elif dim % num_or_size_splits != 0:
            raise InvalidArgumentError(
                f"Cannot split dimension {dim} into {num_or_size_splits} equal parts"
            )
        else:
            sizes = tuple([dim // num_or_size_splits] * num_or_size_splits)
    else:
        sizes = tuple(int(s) for s in num_or_size_splits)
    out = execute("Split", [x], {"axis": int(axis), "sizes": sizes})
    return out if isinstance(out, tuple) else (out,)


def _stack_infer(inputs, attrs):
    axis = attrs["axis"]
    s = TensorShape(inputs[0].shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), inputs[0].dtype)]
    dims = list(s.dims)
    dims.insert(axis % (s.rank + 1), len(inputs))
    return [TensorSpec(TensorShape(dims), inputs[0].dtype)]


def _pack_value(inputs, attrs):
    values = [constant_or_none(t) for t in inputs]
    if any(v is None for v in values) or sum(v.size for v in values) > 1024:
        return [None]
    return [np.stack(values, axis=attrs["axis"])]


register_op("Pack", infer_fn=_stack_infer, value_fn=_pack_value)


@register_kernel("Pack")
def _pack_kernel(inputs, attrs, device):
    return np.stack(inputs, axis=attrs["axis"])


@register_gradient("Pack")
def _pack_grad(op, grad):
    return list(unstack(grad, num=len(op.inputs), axis=op.attrs["axis"]))


def stack(values: Sequence, axis: int = 0):
    """Stack tensors along a new axis."""
    values = [_convert(v) for v in values]
    return execute("Pack", values, {"axis": int(axis)})


def _unstack_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    num = attrs["num"]
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype) for _ in _builtin_range(num)]
    axis = attrs["axis"] % s.rank
    dims = [d for i, d in enumerate(s.dims) if i != axis]
    return [TensorSpec(TensorShape(dims), x.dtype) for _ in _builtin_range(num)]


register_op("Unpack", infer_fn=_unstack_infer)


@register_kernel("Unpack")
def _unpack_kernel(inputs, attrs, device):
    (x,) = inputs
    axis = attrs["axis"]
    return kernel_result(
        [contiguous(np.take(x, i, axis=axis)) for i in _builtin_range(attrs["num"])]
    )


@register_gradient("Unpack")
def _unpack_grad(op, *grads):
    filled = [
        g if g is not None else zeros_like(out) for g, out in zip(grads, op.outputs)
    ]
    return [stack(filled, axis=op.attrs["axis"])]


def unstack(x, num: Optional[int] = None, axis: int = 0):
    """Unpack ``x`` along ``axis`` into a tuple of tensors."""
    x = _convert(x)
    if num is None:
        num = x.shape[axis]
        if num is None:
            raise InvalidArgumentError("unstack requires a statically-known axis size")
    out = execute("Unpack", [x], {"axis": int(axis), "num": int(num)})
    return out if isinstance(out, tuple) else (out,)


# ---------------------------------------------------------------------------
# Gather
# ---------------------------------------------------------------------------

def _gather_infer(inputs, attrs):
    params, indices = inputs
    p = TensorShape(params.shape)
    i = TensorShape(indices.shape)
    if p.rank is None or i.rank is None:
        return [TensorSpec(TensorShape(None), params.dtype)]
    axis = attrs.get("axis", 0) % p.rank
    dims = list(p.dims[:axis]) + list(i.dims) + list(p.dims[axis + 1 :])
    return [TensorSpec(TensorShape(dims), params.dtype)]


register_op("Gather", infer_fn=_gather_infer)


@register_kernel("Gather")
def _gather_kernel(inputs, attrs, device):
    params, indices = inputs
    return np.take(params, indices, axis=attrs.get("axis", 0))


@register_gradient("Gather")
def _gather_grad(op, grad):
    params, indices = op.inputs
    if params.shape.is_fully_defined:
        shape_t = _shape_vector(params.shape.as_list())
    else:
        shape_t = shape(params)
    g = execute(
        "GatherGrad", [grad, indices, shape_t], {"axis": op.attrs.get("axis", 0)}
    )
    return [g, None]


register_op(
    "GatherGrad",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(
            TensorShape(
                tuple(int(d) for d in constant_or_none(inputs[2]))
                if constant_or_none(inputs[2]) is not None
                else None
            ),
            inputs[0].dtype,
        )
    ],
)


@register_kernel("GatherGrad")
def _gather_grad_kernel(inputs, attrs, device):
    grad, indices, target_shape = inputs
    axis = attrs.get("axis", 0)
    out_shape = tuple(int(d) for d in target_shape)
    out = np.zeros(out_shape, dtype=grad.dtype)
    moved_out = np.moveaxis(out, axis, 0)
    # grad has indices' dims in place of axis; move them to the front.
    idx_ndim = indices.ndim
    moved_grad = np.moveaxis(
        grad, tuple(_builtin_range(axis, axis + idx_ndim)), tuple(_builtin_range(idx_ndim))
    )
    np.add.at(moved_out, indices, moved_grad)
    return out


@register_gradient("GatherGrad")
def _gather_grad_grad(op, grad):
    # Scatter-add is linear; its derivative reads the scattered slots
    # back out — the matching Gather.  Needed for second-order gradients
    # through embedding-style lookups.
    indices = op.inputs[1]
    g = execute("Gather", [grad, indices], {"axis": op.attrs.get("axis", 0)})
    return [g, None, None]


def gather(params, indices, axis: int = 0):
    """Gather slices of ``params`` at ``indices`` along ``axis``."""
    return execute(
        "Gather",
        [_convert(params), _convert(indices)],
        {"axis": int(axis)},
    )


# ---------------------------------------------------------------------------
# Pad / tile / fill / broadcast
# ---------------------------------------------------------------------------

def _pad_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    dims = [
        None if d is None else d + lo + hi
        for d, (lo, hi) in zip(s.dims, attrs["paddings"])
    ]
    return [TensorSpec(TensorShape(dims), x.dtype)]


register_op("Pad", infer_fn=_pad_infer)


@register_kernel("Pad")
def _pad_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.pad(
        x, attrs["paddings"], mode="constant", constant_values=attrs.get("value", 0)
    )


@register_gradient("Pad")
def _pad_grad(op, grad):
    paddings = op.attrs["paddings"]
    key = tuple(
        ("slice", lo, None if hi == 0 else -hi, 1) for lo, hi in paddings
    )
    return [execute("StridedSlice", [grad], {"key": key})]


def pad(x, paddings, constant_value=0):
    """Zero-pad (or constant-pad) a tensor; ``paddings`` is [[lo, hi], ...]."""
    norm = tuple((int(lo), int(hi)) for lo, hi in paddings)
    return execute(
        "Pad", [_convert(x)], {"paddings": norm, "value": constant_value}
    )


def _tile_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    dims = [
        None if d is None else d * m for d, m in zip(s.dims, attrs["multiples"])
    ]
    return [TensorSpec(TensorShape(dims), x.dtype)]


register_op("Tile", infer_fn=_tile_infer)


@register_kernel("Tile")
def _tile_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.tile(x, attrs["multiples"])


@register_gradient("Tile")
def _tile_grad(op, grad):
    from repro.ops import math_ops

    x = op.inputs[0]
    multiples = op.attrs["multiples"]
    if not x.shape.is_fully_defined:
        raise UnimplementedError("Tile gradient requires a static input shape")
    dims = x.shape.as_list()
    interleaved = []
    for m, d in zip(multiples, dims):
        interleaved.extend([m, d])
    g = reshape(grad, interleaved)
    axes = tuple(_builtin_range(0, 2 * len(dims), 2))
    return [math_ops.reduce_sum(g, axis=axes)]


def tile(x, multiples: Sequence[int]):
    """Repeat ``x`` ``multiples[i]`` times along each axis."""
    return execute(
        "Tile", [_convert(x)], {"multiples": tuple(int(m) for m in multiples)}
    )


def _fill_infer(inputs, attrs):
    (shape_t,) = inputs
    target = constant_or_none(shape_t)
    if target is None:
        return [TensorSpec(TensorShape(None), attrs["dtype"])]
    return [TensorSpec(TensorShape(tuple(int(d) for d in target)), attrs["dtype"])]


register_op("Fill", infer_fn=_fill_infer)


@register_kernel("Fill")
def _fill_kernel(inputs, attrs, device):
    (shape_arr,) = inputs
    return np.full(
        tuple(int(d) for d in shape_arr),
        attrs["value"],
        dtype=attrs["dtype"].as_numpy_dtype,
    )


register_gradient("Fill")(lambda op, grad: [None])


def fill(dims, value, dtype=None):
    """A tensor of shape ``dims`` filled with a scalar ``value``."""
    if dtype is None:
        dtype = Tensor(value).dtype
    return execute(
        "Fill",
        [_shape_vector(dims)],
        {"value": value, "dtype": dtypes.as_dtype(dtype)},
    )


def _static_shape_tuple(shape_) -> tuple[int, ...]:
    if isinstance(shape_, (int, np.integer)):
        return (int(shape_),)
    if isinstance(shape_, TensorShape):
        return tuple(shape_.as_list())
    return tuple(int(d) for d in shape_)


def zeros(shape_, dtype=dtypes.float32):
    """A tensor of zeros; static shapes become constants."""
    if isinstance(shape_, TensorBase):
        return fill(shape_, 0, dtype=dtype)
    return constant(
        np.zeros(_static_shape_tuple(shape_), dtype=dtypes.as_dtype(dtype).as_numpy_dtype)
    )


def ones(shape_, dtype=dtypes.float32):
    """A tensor of ones; static shapes become constants."""
    if isinstance(shape_, TensorBase):
        return fill(shape_, 1, dtype=dtype)
    return constant(
        np.ones(_static_shape_tuple(shape_), dtype=dtypes.as_dtype(dtype).as_numpy_dtype)
    )


elementwise_unary("ZerosLike", np.zeros_like, lambda op, grad: [None])


def zeros_like(x):
    """A tensor of zeros with the shape and dtype of ``x``."""
    return execute("ZerosLike", [_convert(x)])


elementwise_unary("OnesLike", np.ones_like, lambda op, grad: [None])


def ones_like(x):
    """A tensor of ones with the shape and dtype of ``x``."""
    return execute("OnesLike", [_convert(x)])


def eye(n: int, m: Optional[int] = None, dtype=dtypes.float32):
    """The identity matrix as a constant tensor."""
    return constant(np.eye(n, m, dtype=dtypes.as_dtype(dtype).as_numpy_dtype))


def _diag_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    if s.rank != 1:
        raise InvalidArgumentError("diag expects a rank-1 tensor")
    return [TensorSpec(TensorShape([s[0], s[0]]), x.dtype)]


register_op("Diag", infer_fn=_diag_infer)
register_kernel("Diag")(simple_kernel(np.diag))
register_gradient("Diag")(lambda op, grad: [diag_part(grad)])


def diag(x):
    """A square matrix with ``x`` on its diagonal (paper Listing 8)."""
    return execute("Diag", [_convert(x)])


def _diag_part_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    return [TensorSpec(TensorShape([s[0]]), x.dtype)]


register_op("DiagPart", infer_fn=_diag_part_infer)
register_kernel("DiagPart")(simple_kernel(np.diag))
register_gradient("DiagPart")(lambda op, grad: [diag(grad)])


def diag_part(x):
    """The diagonal of a square matrix."""
    return execute("DiagPart", [_convert(x)])


def _range_infer(inputs, attrs):
    vals = [constant_or_none(t) for t in inputs]
    if all(v is not None for v in vals):
        start, limit, delta = (v.item() for v in vals)
        n = max(0, int(np.ceil((limit - start) / delta)))
        return [TensorSpec(TensorShape([n]), inputs[0].dtype)]
    return [TensorSpec(TensorShape([None]), inputs[0].dtype)]


register_op("Range", infer_fn=_range_infer)


@register_kernel("Range")
def _range_kernel(inputs, attrs, device):
    start, limit, delta = inputs
    return np.arange(start.item(), limit.item(), delta.item(), dtype=start.dtype)


def range(start, limit=None, delta=1, dtype=None):  # noqa: A001 - mirrors tf.range
    """Evenly spaced values (``tf.range`` semantics)."""
    if limit is None:
        start, limit = 0, start
    if dtype is None:
        dtype = dtypes.int32
        for v in (start, limit, delta):
            if isinstance(v, float) or (
                isinstance(v, TensorBase) and v.dtype.is_floating
            ):
                dtype = dtypes.float32
                break
    dtype = dtypes.as_dtype(dtype)
    return execute(
        "Range",
        [
            _convert(start, dtype=dtype) if not isinstance(start, TensorBase) else start,
            _convert(limit, dtype=dtype) if not isinstance(limit, TensorBase) else limit,
            _convert(delta, dtype=dtype) if not isinstance(delta, TensorBase) else delta,
        ],
    )


def _broadcast_to_infer(inputs, attrs):
    x, shape_t = inputs
    target = constant_or_none(shape_t)
    if target is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    return [TensorSpec(TensorShape(tuple(int(d) for d in target)), x.dtype)]


register_op("BroadcastTo", infer_fn=_broadcast_to_infer)


@register_kernel("BroadcastTo")
def _broadcast_to_kernel(inputs, attrs, device):
    x, target = inputs
    return np.broadcast_to(x, tuple(int(d) for d in target)).copy()


@register_gradient("BroadcastTo")
def _broadcast_to_grad(op, grad):
    x = op.inputs[0]
    if x.shape.is_fully_defined:
        shape_t = _shape_vector(x.shape.as_list())
    else:
        shape_t = shape(x)
    return [execute("SumToShape", [grad, shape_t]), None]


def broadcast_to(x, new_shape):
    """Broadcast ``x`` to a larger shape."""
    return execute("BroadcastTo", [_convert(x), _shape_vector(new_shape)])


def _one_hot_infer(inputs, attrs):
    (indices,) = inputs
    s = TensorShape(indices.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), attrs["dtype"])]
    return [TensorSpec(s.concatenate([attrs["depth"]]), attrs["dtype"])]


register_op("OneHot", infer_fn=_one_hot_infer)


@register_kernel("OneHot")
def _one_hot_kernel(inputs, attrs, device):
    (indices,) = inputs
    depth = attrs["depth"]
    on, off = attrs.get("on_value", 1), attrs.get("off_value", 0)
    np_dtype = attrs["dtype"].as_numpy_dtype
    out = np.full(indices.shape + (depth,), off, dtype=np_dtype)
    valid = (indices >= 0) & (indices < depth)
    flat = out.reshape(-1, depth)
    idx = indices.reshape(-1)
    rows = np.nonzero(valid.reshape(-1))[0]
    flat[rows, idx[rows]] = on
    return out


register_gradient("OneHot")(lambda op, grad: [None])


def one_hot(indices, depth: int, on_value=1, off_value=0, dtype=dtypes.float32):
    """One-hot encode integer ``indices`` into ``depth`` classes."""
    return execute(
        "OneHot",
        [_convert(indices)],
        {
            "depth": int(depth),
            "on_value": on_value,
            "off_value": off_value,
            "dtype": dtypes.as_dtype(dtype),
        },
    )


# ---------------------------------------------------------------------------
# Select / where
# ---------------------------------------------------------------------------

def _select_infer(inputs, attrs):
    from repro.framework.tensor_shape import broadcast_shapes

    cond, x, y = inputs
    s = broadcast_shapes(
        broadcast_shapes(TensorShape(cond.shape), TensorShape(x.shape)),
        TensorShape(y.shape),
    )
    return [TensorSpec(s, x.dtype)]


def _select_grad(op, grad):
    cond, x, y = op.inputs
    zero = zeros_like(grad)
    gx = where(cond, grad, zero)
    gy = where(cond, zero, grad)
    return [None, sum_to_like(gx, x), sum_to_like(gy, y)]


elementwise("Select", simple_kernel(np.where), _select_infer, _select_grad)


def where(condition, x=None, y=None):
    """Elementwise select: ``x`` where condition holds, else ``y``."""
    if x is None or y is None:
        raise UnimplementedError(
            "where() requires x and y; index-returning where is not implemented"
        )
    condition = _convert(condition)
    if isinstance(x, TensorBase):
        y = convert_operand(y, like=x)
    elif isinstance(y, TensorBase):
        x = convert_operand(x, like=y)
    else:
        x = _convert(x)
        y = convert_operand(y, like=x)
    return execute("Select", [condition, x, y])


def boolean_mask(x, mask):
    """Select the elements of ``x`` where ``mask`` is True (eager only)."""
    x, mask = _convert(x), _convert(mask)
    if not isinstance(x, Tensor):
        raise UnimplementedError("boolean_mask is not stageable (dynamic shape)")
    idx = np.nonzero(mask.numpy())[0]
    return gather(x, constant(idx.astype(np.int64)))


# ---------------------------------------------------------------------------
# Strided slicing (__getitem__)
# ---------------------------------------------------------------------------

def _apply_key(shape_dims, key):
    """Static shape inference for a normalized slice key."""
    dims = []
    in_axis = 0
    n = len(shape_dims)
    for entry in key:
        if entry == "newaxis":
            dims.append(1)
        elif entry[0] == "idx":
            in_axis += 1
        elif entry[0] == "slice":
            d = shape_dims[in_axis]
            if d is None:
                dims.append(None)
            else:
                start, stop, step = entry[1], entry[2], entry[3]
                dims.append(len(_builtin_range(*slice(start, stop, step).indices(d))))
            in_axis += 1
    dims.extend(shape_dims[in_axis:])
    return dims


def _strided_slice_infer(inputs, attrs):
    (x,) = inputs
    s = TensorShape(x.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    return [TensorSpec(TensorShape(_apply_key(list(s.dims), attrs["key"])), x.dtype)]


def _strided_slice_value(inputs, attrs):
    (x,) = inputs
    cv = constant_or_none(x)
    if cv is None or cv.size > 1024:
        return [None]
    return [np.asarray(cv[_key_to_numpy(attrs["key"])])]


register_op(
    "StridedSlice",
    infer_fn=_strided_slice_infer,
    value_fn=_strided_slice_value,
)


def _key_to_numpy(key):
    np_key = []
    for entry in key:
        if entry == "newaxis":
            np_key.append(None)
        elif entry[0] == "idx":
            np_key.append(entry[1])
        else:
            np_key.append(slice(entry[1], entry[2], entry[3]))
    return tuple(np_key)


@register_kernel("StridedSlice")
def _strided_slice_kernel(inputs, attrs, device):
    (x,) = inputs
    return contiguous(np.asarray(x[_key_to_numpy(attrs["key"])]))


@register_gradient("StridedSlice")
def _strided_slice_grad(op, grad):
    x = op.inputs[0]
    if x.shape.is_fully_defined:
        shape_t = _shape_vector(x.shape.as_list())
    else:
        shape_t = shape(x)
    return [execute("StridedSliceGrad", [grad, shape_t], {"key": op.attrs["key"]})]


register_op(
    "StridedSliceGrad",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(
            TensorShape(
                tuple(int(d) for d in constant_or_none(inputs[1]))
                if constant_or_none(inputs[1]) is not None
                else None
            ),
            inputs[0].dtype,
        )
    ],
)


@register_kernel("StridedSliceGrad")
def _strided_slice_grad_kernel(inputs, attrs, device):
    grad, target_shape = inputs
    out = np.zeros(tuple(int(d) for d in target_shape), dtype=grad.dtype)
    # Slice keys come from basic indexing, so the selected region is a
    # view with no duplicate elements and += accumulates correctly.
    out[_key_to_numpy(attrs["key"])] += grad
    return out


@register_gradient("StridedSliceGrad")
def _strided_slice_grad_grad(op, grad):
    # The scatter is linear: its derivative is reading the same slice
    # back out.  Needed for higher-order gradients through indexing
    # (e.g. hvp of a scan that iterates tensor rows).
    return [execute("StridedSlice", [grad], {"key": op.attrs["key"]}), None]


def slice_helper(x, key):
    """Implements ``tensor[key]`` for ints, slices, Ellipsis, and newaxis.

    Scalar integer tensors as indices fall back to ``gather``.
    """
    x = _convert(x)
    if not isinstance(key, tuple):
        key = (key,)

    # A single tensor index gathers along axis 0.
    if len(key) == 1 and isinstance(key[0], TensorBase):
        return gather(x, key[0])

    rank_ = x.shape.rank
    if rank_ is None:
        raise UnimplementedError("__getitem__ on tensors of unknown rank")

    # Expand Ellipsis.
    n_specified = sum(1 for k in key if k is not None and k is not Ellipsis)
    if Ellipsis in key:
        i = key.index(Ellipsis)
        fill_count = rank_ - n_specified
        key = key[:i] + (slice(None),) * fill_count + key[i + 1 :]

    normalized = []
    for k in key:
        if k is None:
            normalized.append("newaxis")
        elif isinstance(k, slice):
            normalized.append(
                (
                    "slice",
                    None if k.start is None else int(k.start),
                    None if k.stop is None else int(k.stop),
                    None if k.step is None else int(k.step),
                )
            )
        elif isinstance(k, (int, np.integer)):
            normalized.append(("idx", int(k)))
        elif isinstance(k, TensorBase):
            raise UnimplementedError(
                "Mixed tensor and static indices in __getitem__; use gather()"
            )
        else:
            raise InvalidArgumentError(f"Unsupported index: {k!r}")
    return execute("StridedSlice", [x], {"key": tuple(normalized)})
