"""Mathematical operations: elementwise arithmetic, matmul, reductions.

Each operation is registered once and served by a NumPy kernel shared
between the CPU and the simulated GPU.  Gradient rules are expressed as
compositions of the same primitive ops, so differentiating imperative
code, building a staged backward function, and taking higher-order
gradients all reuse one set of definitions (paper §4.2).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape, broadcast_shapes
from repro.ops.common import (
    comparison,
    constant_or_none,
    elementwise,
    elementwise_binary,
    elementwise_unary,
    normalize_axes,
    reduce_kernel,
    reduced_shape,
    reduction,
    simple_kernel,
    sum_to_like,
    unary_infer,
)
from repro.ops.registry import SHAPE_PURE, register_gradient, register_kernel, register_op
from repro.runtime.executor import execute
from repro.tensor import TensorBase, TensorSpec, convert_to_tensor

__all__ = [
    "add",
    "subtract",
    "multiply",
    "divide",
    "pow",
    "negative",
    "abs",
    "reciprocal",
    "exp",
    "log",
    "log1p",
    "sqrt",
    "rsqrt",
    "square",
    "squared_difference",
    "sign",
    "floor",
    "ceil",
    "round",
    "sin",
    "cos",
    "tanh",
    "sigmoid",
    "erf",
    "maximum",
    "minimum",
    "equal",
    "not_equal",
    "less",
    "less_equal",
    "greater",
    "greater_equal",
    "logical_and",
    "logical_or",
    "logical_not",
    "cast",
    "clip_by_value",
    "matmul",
    "add_n",
    "reduce_sum",
    "reduce_mean",
    "reduce_max",
    "reduce_min",
    "reduce_prod",
    "reduce_any",
    "reduce_all",
    "reduce_logsumexp",
    "argmax",
    "argmin",
    "cumsum",
    "tensordot",
    "einsum",
]


def _convert(x, dtype=None):
    return convert_to_tensor(x, dtype=dtype)


def _binary(op_name: str, x, y):
    from repro.ops import execute_binary

    return execute_binary(op_name, x, y)


# ---------------------------------------------------------------------------
# Broadcasting gradient reduction
# ---------------------------------------------------------------------------

register_op("SumToShape", infer_fn=lambda inputs, attrs: _sum_to_shape_infer(inputs, attrs))


def _sum_to_shape_infer(inputs, attrs):
    x, shape_t = inputs
    target = constant_or_none(shape_t)
    if target is not None:
        return [TensorSpec(TensorShape(tuple(int(d) for d in target)), x.dtype)]
    return [TensorSpec(TensorShape(None), x.dtype)]


@register_kernel("SumToShape")
def _sum_to_shape_kernel(inputs, attrs, device):
    x, shape = inputs
    target = tuple(int(d) for d in shape)
    extra = x.ndim - len(target)
    if extra > 0:
        x = x.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (dx, dt) in enumerate(zip(x.shape, target)) if dt == 1 and dx != 1
    )
    if axes:
        x = x.sum(axis=axes, keepdims=True)
    return x.reshape(target)


@register_gradient("SumToShape")
def _sum_to_shape_grad(op, grad):
    from repro.ops import array_ops

    x = op.inputs[0]
    return [array_ops.broadcast_to(grad, array_ops.shape(x)), None]


# ---------------------------------------------------------------------------
# Elementwise families
# ---------------------------------------------------------------------------
# One call per op: the family registers the op with its traits, inference,
# NumPy kernel, in-place kernel (``inplace=True`` for ufuncs, whose
# ``out=`` contract holds when ``out`` aliases an input) and gradient.  A
# binary rule returns both partials, or yields them when its staged node
# order should interleave with the broadcast reductions.


def _sub_grad(op, grad):
    yield grad
    yield negative(grad)


def _mul_grad(op, grad):
    x, y = op.inputs
    yield grad * y
    yield grad * x


def _realdiv_grad(op, grad):
    y = op.inputs[1]
    return grad / y, negative(grad * op.outputs[0] / y)


def _pow_grad(op, grad):
    x, y = op.inputs
    z = op.outputs[0]
    gx = grad * y * pow(x, y - _ones_like_scalar(y))
    # d/dy x**y = x**y * log(x); guard log at x <= 0 like TF does.
    safe_x = maximum(x, _zeros_like_scalar(x))
    log_x = where_nonpositive_zero(x, log(maximum(safe_x, _tiny_like(x))))
    return gx, grad * z * log_x


def _ones_like_scalar(t):
    return convert_to_tensor(1, dtype=t.dtype)


def _zeros_like_scalar(t):
    return convert_to_tensor(0, dtype=t.dtype)


def _tiny_like(t):
    return convert_to_tensor(np.finfo(t.dtype.as_numpy_dtype).tiny, dtype=t.dtype)


def where_nonpositive_zero(x, value):
    """``value`` where x > 0, else 0 (helper for the Pow gradient)."""
    from repro.ops import array_ops

    return array_ops.where(greater(x, _zeros_like_scalar(x)), value, _zeros_like_scalar(x))


def _sqdiff_grad(op, grad):
    x, y = op.inputs
    two = convert_to_tensor(2, dtype=x.dtype)
    gx = grad * two * (x - y)
    yield gx
    yield negative(gx)


def _split_by(mask, grad):
    """(grad where mask else 0, 0 where mask else grad): Maximum/Minimum."""
    from repro.ops import array_ops

    zero = _zeros_like_scalar(grad)
    return array_ops.where(mask, grad, zero), array_ops.where(mask, zero, grad)


elementwise_binary("Add", np.add, lambda op, grad: (grad, grad), inplace=True)
elementwise_binary("Sub", np.subtract, _sub_grad, inplace=True)
elementwise_binary("Mul", np.multiply, _mul_grad, inplace=True)
elementwise_binary("RealDiv", np.true_divide, _realdiv_grad, inplace=True)
elementwise_binary("FloorDiv", np.floor_divide)
elementwise_binary("Mod", np.mod)
elementwise_binary("Pow", np.power, _pow_grad, inplace=True)
elementwise_binary(
    "SquaredDifference", lambda x, y: np.square(x - y), _sqdiff_grad
)
elementwise_binary(
    "Maximum",
    np.maximum,
    lambda op, grad: _split_by(greater_equal(*op.inputs), grad),
    inplace=True,
)
elementwise_binary(
    "Minimum",
    np.minimum,
    lambda op, grad: _split_by(less_equal(*op.inputs), grad),
    inplace=True,
)
elementwise_binary("LogicalAnd", np.logical_and)
elementwise_binary("LogicalOr", np.logical_or)

comparison("Less", np.less)
comparison("LessEqual", np.less_equal)
comparison("Greater", np.greater)
comparison("GreaterEqual", np.greater_equal)
comparison("Equal", np.equal)
comparison("NotEqual", np.not_equal)


def _not_differentiable(op, grad):
    return [None]


def _rsqrt_inplace(inputs, attrs, device, out):
    np.sqrt(inputs[0], out=out)
    return np.true_divide(1.0, out, out=out)


elementwise_unary("Neg", np.negative, lambda op, grad: [negative(grad)], inplace=True)
elementwise_unary(
    "Abs", np.abs, lambda op, grad: [grad * sign(op.inputs[0])], inplace=True
)
elementwise_unary(
    "Reciprocal",
    np.reciprocal,
    lambda op, grad: [negative(grad * square(op.outputs[0]))],
)
elementwise_unary("Exp", np.exp, lambda op, grad: [grad * op.outputs[0]], inplace=True)
elementwise_unary("Log", np.log, lambda op, grad: [grad / op.inputs[0]], inplace=True)
elementwise_unary(
    "Log1p",
    np.log1p,
    lambda op, grad: [grad / (op.inputs[0] + _ones_like_scalar(op.inputs[0]))],
    inplace=True,
)
elementwise_unary(
    "Sqrt",
    np.sqrt,
    lambda op, grad: [
        grad * convert_to_tensor(0.5, dtype=grad.dtype) / op.outputs[0]
    ],
    inplace=True,
)
elementwise(
    "Rsqrt",
    simple_kernel(lambda x: 1.0 / np.sqrt(x)),
    unary_infer,
    lambda op, grad: [
        grad
        * convert_to_tensor(-0.5, dtype=grad.dtype)
        * op.outputs[0]
        * square(op.outputs[0])
    ],
    inplace=_rsqrt_inplace,
)
elementwise_unary(
    "Square",
    np.square,
    lambda op, grad: [
        grad * convert_to_tensor(2, dtype=grad.dtype) * op.inputs[0]
    ],
    inplace=True,
)
elementwise_unary("Sign", np.sign, _not_differentiable, inplace=True)
elementwise_unary("Floor", np.floor, _not_differentiable, inplace=True)
elementwise_unary("Ceil", np.ceil, _not_differentiable, inplace=True)
elementwise_unary("Round", np.round, _not_differentiable)
elementwise_unary(
    "Sin", np.sin, lambda op, grad: [grad * cos(op.inputs[0])], inplace=True
)
elementwise_unary(
    "Cos",
    np.cos,
    lambda op, grad: [negative(grad * sin(op.inputs[0]))],
    inplace=True,
)
elementwise_unary(
    "Tanh",
    np.tanh,
    lambda op, grad: [
        grad * (_ones_like_scalar(grad) - square(op.outputs[0]))
    ],
    inplace=True,
)
elementwise_unary("LogicalNot", np.logical_not)


def _sigmoid_kernel(inputs, attrs, device):
    (x,) = inputs
    # Numerically stable piecewise form.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


elementwise(
    "Sigmoid",
    _sigmoid_kernel,
    unary_infer,
    lambda op, grad: [
        grad * op.outputs[0] * (_ones_like_scalar(grad) - op.outputs[0])
    ],
)


def _erf_kernel(inputs, attrs, device):
    (x,) = inputs
    try:
        from scipy.special import erf as scipy_erf

        return scipy_erf(x).astype(x.dtype)
    except ImportError:  # pragma: no cover - scipy is a test dependency
        return np.vectorize(float)(x)


elementwise(
    "Erf",
    _erf_kernel,
    unary_infer,
    lambda op, grad: [
        grad
        * convert_to_tensor(2.0 / np.sqrt(np.pi), dtype=grad.dtype)
        * exp(negative(square(op.inputs[0])))
    ],
)


# ---------------------------------------------------------------------------
# Cast / clip
# ---------------------------------------------------------------------------

def _cast_infer(inputs, attrs):
    (x,) = inputs
    return [TensorSpec(x.shape, attrs["dtype"])]


def _cast_value(inputs, attrs):
    cv = constant_or_none(inputs[0])
    if cv is None or cv.size > 1024:
        return [None]
    return [cv.astype(attrs["dtype"].as_numpy_dtype)]


def _cast_kernel(inputs, attrs, device):
    (x,) = inputs
    return x.astype(attrs["dtype"].as_numpy_dtype)


def _cast_grad(op, grad):
    src = op.inputs[0].dtype
    if src.is_differentiable and grad.dtype.is_differentiable:
        return [cast(grad, src)]
    return [None]


elementwise("Cast", _cast_kernel, _cast_infer, _cast_grad, value_fn=_cast_value)


def _clip_grad(op, grad):
    from repro.ops import array_ops

    x, lo, hi = op.inputs
    inside = logical_and(greater_equal(x, lo), less_equal(x, hi))
    zero = _zeros_like_scalar(grad)
    return [array_ops.where(inside, grad, zero), None, None]


elementwise(
    "ClipByValue",
    simple_kernel(np.clip),
    lambda inputs, attrs: [TensorSpec(inputs[0].shape, inputs[0].dtype)],
    _clip_grad,
)


# ---------------------------------------------------------------------------
# MatMul
# ---------------------------------------------------------------------------

def _matmul_infer(inputs, attrs):
    a, b = inputs
    ta, tb = attrs.get("transpose_a", False), attrs.get("transpose_b", False)
    ashape, bshape = TensorShape(a.shape), TensorShape(b.shape)
    if ashape.rank is None or bshape.rank is None:
        return [TensorSpec(TensorShape(None), a.dtype)]
    if ashape.rank < 2 or bshape.rank < 2:
        raise InvalidArgumentError(
            f"MatMul requires rank >= 2 inputs, got {ashape} and {bshape}"
        )
    am, ak = ashape[-2], ashape[-1]
    if ta:
        am, ak = ak, am
    bk, bn = bshape[-2], bshape[-1]
    if tb:
        bk, bn = bn, bk
    if ak is not None and bk is not None and ak != bk:
        raise InvalidArgumentError(
            f"MatMul inner dimensions do not match: {ashape} x {bshape}"
        )
    batch = broadcast_shapes(ashape[:-2], bshape[:-2])
    return [TensorSpec(batch.concatenate([am, bn]), a.dtype)]


register_op("MatMul", infer_fn=_matmul_infer, traits=(SHAPE_PURE,))


@register_kernel("MatMul")
def _matmul_kernel(inputs, attrs, device):
    a, b = inputs
    if attrs.get("transpose_a", False):
        a = np.swapaxes(a, -1, -2)
    if attrs.get("transpose_b", False):
        b = np.swapaxes(b, -1, -2)
    return np.matmul(a, b)


@register_gradient("MatMul")
def _matmul_grad(op, grad):
    x, y = op.inputs
    ta = op.attrs.get("transpose_a", False)
    tb = op.attrs.get("transpose_b", False)
    if not ta and not tb:
        gx = matmul(grad, y, transpose_b=True)
        gy = matmul(x, grad, transpose_a=True)
    elif not ta and tb:
        gx = matmul(grad, y)
        gy = matmul(grad, x, transpose_a=True)
    elif ta and not tb:
        gx = matmul(y, grad, transpose_b=True)
        gy = matmul(x, grad)
    else:
        gx = matmul(y, grad, transpose_a=True, transpose_b=True)
        gy = matmul(grad, x, transpose_a=True, transpose_b=True)
    return [sum_to_like(gx, x), sum_to_like(gy, y)]


# ---------------------------------------------------------------------------
# AddN
# ---------------------------------------------------------------------------

register_op("AddN", infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, inputs[0].dtype)])


@register_kernel("AddN")
def _add_n_kernel(inputs, attrs, device):
    out = inputs[0]
    for x in inputs[1:]:
        out = out + x
    return out


register_gradient("AddN")(lambda op, grad: [grad] * len(op.inputs))


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _np_axis(attrs):
    axis = attrs.get("axis")
    return None if axis is None else tuple(axis)


def _sum_kernel(inputs, attrs, device):
    (x,) = inputs
    dtype = x.dtype if np.issubdtype(x.dtype, np.integer) else None
    return np.sum(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False), dtype=dtype)


def _grad_broadcast_to_input(op, grad):
    """Reshape a reduction gradient to keepdims form, then broadcast."""
    from repro.ops import array_ops

    x = op.inputs[0]
    xshape = x.shape
    if xshape.is_fully_defined:
        kshape = reduced_shape(xshape, op.attrs.get("axis"), keepdims=True)
        grad = array_ops.reshape(grad, kshape.as_list())
        return array_ops.broadcast_to(grad, xshape.as_list())
    shape_t = array_ops.shape(x)
    kept = execute(
        "ReductionKeepdimsShape",
        [shape_t],
        {"axis": op.attrs.get("axis")},
    )
    return array_ops.broadcast_to(array_ops.reshape(grad, kept), shape_t)


# Helper op for reduction gradients under unknown shapes: maps an input
# shape vector to the keepdims-reduced shape vector.
register_op(
    "ReductionKeepdimsShape",
    infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, dtypes.int32)],
)


@register_kernel("ReductionKeepdimsShape")
def _reduction_keepdims_shape_kernel(inputs, attrs, device):
    (shape,) = inputs
    axes = normalize_axes(attrs.get("axis"), len(shape))
    if axes is None:
        axes = tuple(range(len(shape)))
    out = shape.copy()
    out[list(axes)] = 1
    return out.astype(np.int32)


def _mean_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.mean(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False)).astype(
        x.dtype, copy=False
    )


def _mean_grad(op, grad):
    x = op.inputs[0]
    out = op.outputs[0]
    num_x = x.shape.num_elements()
    num_out = out.shape.num_elements()
    if num_x is not None and num_out is not None and num_out > 0:
        factor = convert_to_tensor(num_x // num_out, dtype=grad.dtype)
        scaled = grad / factor
    else:
        from repro.ops import array_ops

        size_x = cast(array_ops.size(x), grad.dtype)
        size_out = cast(array_ops.size(out), grad.dtype)
        scaled = grad * (size_out / size_x)
    return [_grad_broadcast_to_input(op, scaled)]


def _minmax_grad(op, grad):
    """Gradient for Max/Min: split grad evenly across tied extrema."""
    from repro.ops import array_ops

    x = op.inputs[0]
    out = op.outputs[0]
    kshape = reduced_shape(x.shape, op.attrs.get("axis"), keepdims=True)
    if x.shape.is_fully_defined:
        out_k = array_ops.reshape(out, kshape.as_list())
        grad_k = array_ops.reshape(grad, kshape.as_list())
    else:
        shape_t = array_ops.shape(x)
        kept = execute("ReductionKeepdimsShape", [shape_t], {"axis": op.attrs.get("axis")})
        out_k = array_ops.reshape(out, kept)
        grad_k = array_ops.reshape(grad, kept)
    mask = cast(equal(x, out_k), grad.dtype)
    num_ties = reduce_sum(mask, axis=op.attrs.get("axis"), keepdims=True)
    return [mask * grad_k / num_ties]


def _prod_kernel(inputs, attrs, device):
    (x,) = inputs
    dtype = x.dtype if np.issubdtype(x.dtype, np.integer) else None
    return np.prod(x, axis=_np_axis(attrs), keepdims=attrs.get("keepdims", False), dtype=dtype)


def _prod_grad(op, grad):
    # out / x trick; matches TF for inputs without zeros.
    x = op.inputs[0]
    out = op.outputs[0]
    broadcast = _grad_broadcast_to_input(op, grad)
    out_b = _grad_broadcast_to_input(op, out)
    return [broadcast * out_b / x]


reduction("Sum", _sum_kernel, lambda op, grad: [_grad_broadcast_to_input(op, grad)])
reduction("Mean", _mean_kernel, _mean_grad)
reduction("Max", reduce_kernel(np.max), _minmax_grad)
reduction("Min", reduce_kernel(np.min), _minmax_grad)
reduction("Prod", _prod_kernel, _prod_grad)
reduction("Any", reduce_kernel(np.any), dtype=dtypes.bool_)
reduction("All", reduce_kernel(np.all), dtype=dtypes.bool_)


def _arg_reduce_infer(inputs, attrs):
    (x,) = inputs
    shape = TensorShape(x.shape)
    if shape.rank is None:
        return [TensorSpec(TensorShape(None), dtypes.int64)]
    axis = attrs.get("axis", 0) % shape.rank
    dims = [d for i, d in enumerate(shape.dims) if i != axis]
    return [TensorSpec(TensorShape(dims), dtypes.int64)]


register_op("ArgMax", infer_fn=_arg_reduce_infer)


@register_kernel("ArgMax")
def _argmax_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.argmax(x, axis=attrs.get("axis", 0)).astype(np.int64)


register_op("ArgMin", infer_fn=_arg_reduce_infer)


@register_kernel("ArgMin")
def _argmin_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.argmin(x, axis=attrs.get("axis", 0)).astype(np.int64)


register_op("Cumsum", infer_fn=unary_infer)


@register_kernel("Cumsum")
def _cumsum_kernel(inputs, attrs, device):
    (x,) = inputs
    axis = attrs.get("axis", 0)
    out = np.cumsum(x, axis=axis, dtype=x.dtype)
    if attrs.get("reverse", False):
        out = np.flip(np.cumsum(np.flip(x, axis=axis), axis=axis, dtype=x.dtype), axis=axis)
    if attrs.get("exclusive", False):
        out = np.roll(out, 1 if not attrs.get("reverse", False) else -1, axis=axis)
        idx = [slice(None)] * x.ndim
        idx[axis] = -1 if attrs.get("reverse", False) else 0
        out = out.copy()
        out[tuple(idx)] = 0
    return out


@register_gradient("Cumsum")
def _cumsum_grad(op, grad):
    attrs = dict(op.attrs)
    attrs["reverse"] = not attrs.get("reverse", False)
    return [execute("Cumsum", [grad], attrs)]


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def add(x, y):
    """Elementwise ``x + y`` with NumPy broadcasting."""
    return _binary("Add", x, y)


def subtract(x, y):
    """Elementwise ``x - y`` with NumPy broadcasting."""
    return _binary("Sub", x, y)


def multiply(x, y):
    """Elementwise ``x * y`` with NumPy broadcasting."""
    return _binary("Mul", x, y)


def divide(x, y):
    """Elementwise true division."""
    return _binary("RealDiv", x, y)


def pow(x, y):  # noqa: A001 - mirrors tf.pow
    """Elementwise power."""
    return _binary("Pow", x, y)


def negative(x):
    """Elementwise negation."""
    return execute("Neg", [_convert(x)])


def abs(x):  # noqa: A001 - mirrors tf.abs
    """Elementwise absolute value."""
    return execute("Abs", [_convert(x)])


def reciprocal(x):
    """Elementwise ``1 / x``."""
    return execute("Reciprocal", [_convert(x)])


def exp(x):
    """Elementwise exponential."""
    return execute("Exp", [_convert(x)])


def log(x):
    """Elementwise natural logarithm."""
    return execute("Log", [_convert(x)])


def log1p(x):
    """Elementwise ``log(1 + x)``."""
    return execute("Log1p", [_convert(x)])


def sqrt(x):
    """Elementwise square root."""
    return execute("Sqrt", [_convert(x)])


def rsqrt(x):
    """Elementwise reciprocal square root."""
    return execute("Rsqrt", [_convert(x)])


def square(x):
    """Elementwise square."""
    return execute("Square", [_convert(x)])


def squared_difference(x, y):
    """Elementwise ``(x - y)**2``."""
    return _binary("SquaredDifference", x, y)


def sign(x):
    """Elementwise sign."""
    return execute("Sign", [_convert(x)])


def floor(x):
    """Elementwise floor."""
    return execute("Floor", [_convert(x)])


def ceil(x):
    """Elementwise ceiling."""
    return execute("Ceil", [_convert(x)])


def round(x):  # noqa: A001 - mirrors tf.round
    """Elementwise round-half-to-even."""
    return execute("Round", [_convert(x)])


def sin(x):
    """Elementwise sine."""
    return execute("Sin", [_convert(x)])


def cos(x):
    """Elementwise cosine."""
    return execute("Cos", [_convert(x)])


def tanh(x):
    """Elementwise hyperbolic tangent."""
    return execute("Tanh", [_convert(x)])


def sigmoid(x):
    """Elementwise logistic sigmoid (numerically stable)."""
    return execute("Sigmoid", [_convert(x)])


def erf(x):
    """Elementwise Gauss error function."""
    return execute("Erf", [_convert(x)])


def maximum(x, y):
    """Elementwise maximum."""
    return _binary("Maximum", x, y)


def minimum(x, y):
    """Elementwise minimum."""
    return _binary("Minimum", x, y)


def equal(x, y):
    """Elementwise equality, returning a bool tensor."""
    return _binary("Equal", x, y)


def not_equal(x, y):
    """Elementwise inequality, returning a bool tensor."""
    return _binary("NotEqual", x, y)


def less(x, y):
    """Elementwise ``x < y``."""
    return _binary("Less", x, y)


def less_equal(x, y):
    """Elementwise ``x <= y``."""
    return _binary("LessEqual", x, y)


def greater(x, y):
    """Elementwise ``x > y``."""
    return _binary("Greater", x, y)


def greater_equal(x, y):
    """Elementwise ``x >= y``."""
    return _binary("GreaterEqual", x, y)


def logical_and(x, y):
    """Elementwise boolean AND."""
    return _binary("LogicalAnd", x, y)


def logical_or(x, y):
    """Elementwise boolean OR."""
    return _binary("LogicalOr", x, y)


def logical_not(x):
    """Elementwise boolean NOT."""
    return execute("LogicalNot", [_convert(x)])


def cast(x, dtype):
    """Cast a tensor to a new dtype."""
    x = _convert(x)
    dtype = dtypes.as_dtype(dtype)
    if x.dtype == dtype:
        return x
    return execute("Cast", [x], {"dtype": dtype})


def clip_by_value(x, clip_value_min, clip_value_max):
    """Clamp values into ``[clip_value_min, clip_value_max]``."""
    x = _convert(x)
    from repro.ops import convert_operand

    lo = convert_operand(clip_value_min, like=x)
    hi = convert_operand(clip_value_max, like=x)
    return execute("ClipByValue", [x, lo, hi])


def matmul(a, b, transpose_a: bool = False, transpose_b: bool = False):
    """Matrix product (batched over leading dimensions, like ``np.matmul``)."""
    a, b = _convert(a), _convert(b)
    if a.dtype != b.dtype:
        raise InvalidArgumentError(
            f"matmul received mismatched dtypes {a.dtype} and {b.dtype}"
        )
    return execute(
        "MatMul", [a, b], {"transpose_a": transpose_a, "transpose_b": transpose_b}
    )


def add_n(tensors: Sequence):
    """Sum a list of same-shaped tensors."""
    tensors = [_convert(t) for t in tensors]
    if not tensors:
        raise InvalidArgumentError("add_n requires at least one tensor")
    if len(tensors) == 1:
        return tensors[0]
    return execute("AddN", tensors)


def _reduce(op_name: str, x, axis, keepdims: bool):
    x = _convert(x)
    axes = normalize_axes(axis, x.shape.rank)
    return execute(op_name, [x], {"axis": axes, "keepdims": bool(keepdims)})


def reduce_sum(x, axis=None, keepdims: bool = False):
    """Sum over the given axes (all axes if None)."""
    return _reduce("Sum", x, axis, keepdims)


def reduce_mean(x, axis=None, keepdims: bool = False):
    """Mean over the given axes (all axes if None)."""
    return _reduce("Mean", x, axis, keepdims)


def reduce_max(x, axis=None, keepdims: bool = False):
    """Maximum over the given axes (all axes if None)."""
    return _reduce("Max", x, axis, keepdims)


def reduce_min(x, axis=None, keepdims: bool = False):
    """Minimum over the given axes (all axes if None)."""
    return _reduce("Min", x, axis, keepdims)


def reduce_prod(x, axis=None, keepdims: bool = False):
    """Product over the given axes (all axes if None)."""
    return _reduce("Prod", x, axis, keepdims)


def reduce_any(x, axis=None, keepdims: bool = False):
    """Logical OR over the given axes of a bool tensor."""
    return _reduce("Any", x, axis, keepdims)


def reduce_all(x, axis=None, keepdims: bool = False):
    """Logical AND over the given axes of a bool tensor."""
    return _reduce("All", x, axis, keepdims)


def reduce_logsumexp(x, axis=None, keepdims: bool = False):
    """Numerically stable ``log(sum(exp(x)))`` (composite op)."""
    x = _convert(x)
    m = reduce_max(x, axis=axis, keepdims=True)
    from repro.ops import array_ops

    stopped = array_ops.stop_gradient(m)
    out = log(reduce_sum(exp(x - stopped), axis=axis, keepdims=True)) + stopped
    if not keepdims:
        axes = normalize_axes(axis, x.shape.rank)
        if axes is None:
            axes = tuple(range(x.shape.rank or 0))
        out = array_ops.squeeze(out, axis=axes)
    return out


def argmax(x, axis: int = 0):
    """Index of the maximum along ``axis`` (int64)."""
    return execute("ArgMax", [_convert(x)], {"axis": int(axis)})


def argmin(x, axis: int = 0):
    """Index of the minimum along ``axis`` (int64)."""
    return execute("ArgMin", [_convert(x)], {"axis": int(axis)})


def cumsum(x, axis: int = 0, exclusive: bool = False, reverse: bool = False):
    """Cumulative sum along an axis."""
    return execute(
        "Cumsum",
        [_convert(x)],
        {"axis": int(axis), "exclusive": bool(exclusive), "reverse": bool(reverse)},
    )


register_op("Einsum", infer_fn=lambda inputs, attrs: _einsum_infer(inputs, attrs))


def _einsum_infer(inputs, attrs):
    in_specs, out_spec = attrs["equation"].split("->")
    subs = in_specs.split(",")
    sizes: dict = {}
    for spec, t in zip(subs, inputs):
        shape = TensorShape(t.shape)
        if shape.rank is None:
            return [TensorSpec(TensorShape(None), inputs[0].dtype)]
        for label, dim in zip(spec, shape.dims):
            if label not in sizes or sizes[label] is None:
                sizes[label] = dim
    return [
        TensorSpec(
            TensorShape([sizes.get(label) for label in out_spec]),
            inputs[0].dtype,
        )
    ]


@register_kernel("Einsum")
def _einsum_kernel(inputs, attrs, device):
    return np.einsum(attrs["equation"], *inputs)


@register_gradient("Einsum")
def _einsum_grad(op, grad):
    """Gradient by subscript rotation: for z = einsum('ij,jk->ik', a, b),
    da = einsum('ik,jk->ij', grad, b) and db = einsum('ij,ik->jk', a, grad).

    Valid for equations without repeated labels inside one operand; the
    public ``einsum`` wrapper enforces that restriction.
    """
    in_specs, out_spec = op.attrs["equation"].split("->")
    subs = in_specs.split(",")
    grads = []
    for i, target in enumerate(subs):
        others = [(subs[j], op.inputs[j]) for j in range(len(subs)) if j != i]
        lhs = ",".join([out_spec] + [s for s, _ in others])
        equation = f"{lhs}->{target}"
        g = execute(
            "Einsum", [grad] + [t for _, t in others], {"equation": equation}
        )
        # Labels summed out in the forward (absent from output and other
        # operands) reappear by broadcasting.
        missing = [l for l in target if l not in out_spec and all(l not in s for s, _ in others)]
        if missing:
            raise InvalidArgumentError(
                f"einsum gradient cannot restore reduced label(s) {missing}; "
                "rewrite the contraction explicitly"
            )
        grads.append(g)
    return grads


def einsum(equation: str, *operands):
    """Einstein-summation contraction (explicit ``->`` form or inferred).

    Repeated labels within a single operand (trace-like patterns) are
    not supported; use ``repro.linalg.trace`` for those.
    """
    operands = [_convert(t) for t in operands]
    if "->" not in equation:
        in_specs = equation.replace(" ", "")
        labels = sorted(
            {l for l in in_specs.replace(",", "") if in_specs.count(l) == 1}
        )
        equation = f"{in_specs}->{''.join(labels)}"
    equation = equation.replace(" ", "")
    in_specs, _ = equation.split("->")
    for spec in in_specs.split(","):
        if len(set(spec)) != len(spec):
            raise InvalidArgumentError(
                "einsum with repeated labels inside one operand is not supported"
            )
    return execute("Einsum", list(operands), {"equation": equation})


def tensordot(a, b, axes):
    """Tensor contraction over the given axes (composite of reshape+matmul)."""
    from repro.ops import array_ops

    a, b = _convert(a), _convert(b)
    if isinstance(axes, int):
        a_axes = list(range(a.shape.rank - axes, a.shape.rank))
        b_axes = list(range(axes))
    else:
        a_axes, b_axes = [list(ax) if isinstance(ax, (list, tuple)) else [ax] for ax in axes]
    a_rank, b_rank = a.shape.rank, b.shape.rank
    a_axes = [ax % a_rank for ax in a_axes]
    b_axes = [ax % b_rank for ax in b_axes]
    a_free = [i for i in range(a_rank) if i not in a_axes]
    b_free = [i for i in range(b_rank) if i not in b_axes]
    a_perm = array_ops.transpose(a, a_free + a_axes)
    b_perm = array_ops.transpose(b, b_axes + b_free)
    a_dims = a.shape.as_list()
    b_dims = b.shape.as_list()
    m = int(np.prod([a_dims[i] for i in a_free])) if a_free else 1
    k = int(np.prod([a_dims[i] for i in a_axes])) if a_axes else 1
    n = int(np.prod([b_dims[i] for i in b_free])) if b_free else 1
    out = matmul(
        array_ops.reshape(a_perm, [m, k]), array_ops.reshape(b_perm, [k, n])
    )
    out_shape = [a_dims[i] for i in a_free] + [b_dims[i] for i in b_free]
    return array_ops.reshape(out, out_shape)
