"""Neural-network operations: activations, convolutions, pooling, losses.

Convolution and pooling kernels are implemented with the im2col
technique over NumPy stride tricks — the whole spatial window extraction
is a view, and the contraction is a single large matmul, keeping the
per-op Python overhead small relative to kernel time (the property the
paper's Figure 3 depends on).
"""

from __future__ import annotations

import builtins
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError, UnimplementedError
from repro.framework.tensor_shape import TensorShape
from repro.ops.common import elementwise, simple_kernel, unary_infer
from repro.ops.registry import (
    SHAPE_PURE,
    register_gradient,
    register_kernel,
    register_op,
)
from repro.tensor import TensorBase, TensorSpec, convert_to_tensor

__all__ = [
    "relu",
    "gelu",
    "silu",
    "softsign",
    "log_sigmoid",
    "leaky_relu",
    "softplus",
    "elu",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy_with_logits",
    "sparse_softmax_cross_entropy_with_logits",
    "sigmoid_cross_entropy_with_logits",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "bias_add",
    "dropout",
    "moments",
    "batch_normalization",
    "l2_loss",
]


def _convert(x, dtype=None):
    return convert_to_tensor(x, dtype=dtype)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def _relu_grad(op, grad):
    from repro.ops import array_ops, math_ops

    out = op.outputs[0]
    zero = convert_to_tensor(0, dtype=grad.dtype)
    return [array_ops.where(math_ops.greater(out, zero), grad, array_ops.zeros_like(grad))]


elementwise(
    "Relu",
    simple_kernel(lambda x: np.maximum(x, 0)),
    unary_infer,
    _relu_grad,
    inplace=lambda inputs, attrs, device, out: np.maximum(inputs[0], 0, out=out),
)


def relu(x):
    """Rectified linear unit: ``max(x, 0)``."""
    from repro.runtime.executor import execute

    return execute("Relu", [_convert(x)])


def _leaky_relu_kernel(inputs, attrs, device):
    (x,) = inputs
    alpha = attrs["alpha"]
    return np.where(x > 0, x, x * np.asarray(alpha, dtype=x.dtype))


def _leaky_relu_grad(op, grad):
    from repro.ops import array_ops, math_ops

    x = op.inputs[0]
    alpha = convert_to_tensor(op.attrs["alpha"], dtype=grad.dtype)
    zero = convert_to_tensor(0, dtype=grad.dtype)
    return [array_ops.where(math_ops.greater(x, zero), grad, grad * alpha)]


elementwise("LeakyRelu", _leaky_relu_kernel, unary_infer, _leaky_relu_grad)


def leaky_relu(x, alpha: float = 0.2):
    """Leaky ReLU with slope ``alpha`` for negative inputs."""
    from repro.runtime.executor import execute

    return execute("LeakyRelu", [_convert(x)], {"alpha": float(alpha)})


def _softplus_kernel(inputs, attrs, device):
    (x,) = inputs
    # Stable: log(1 + e^x) = max(x, 0) + log1p(e^{-|x|})
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def _softplus_grad(op, grad):
    from repro.ops import math_ops

    return [grad * math_ops.sigmoid(op.inputs[0])]


elementwise("Softplus", _softplus_kernel, unary_infer, _softplus_grad)


def softplus(x):
    """Smooth ReLU: ``log(1 + exp(x))`` (used by paper Listing 3)."""
    from repro.runtime.executor import execute

    return execute("Softplus", [_convert(x)])


def _elu_kernel(inputs, attrs, device):
    (x,) = inputs
    return np.where(x > 0, x, np.expm1(x))


def _elu_grad(op, grad):
    from repro.ops import array_ops, math_ops

    x, out = op.inputs[0], op.outputs[0]
    one = convert_to_tensor(1, dtype=grad.dtype)
    zero = convert_to_tensor(0, dtype=grad.dtype)
    return [array_ops.where(math_ops.greater(x, zero), grad, grad * (out + one))]


elementwise("Elu", _elu_kernel, unary_infer, _elu_grad)


def elu(x):
    """Exponential linear unit."""
    from repro.runtime.executor import execute

    return execute("Elu", [_convert(x)])


register_op("Softmax", infer_fn=unary_infer, traits=(SHAPE_PURE,))


@register_kernel("Softmax")
def _softmax_kernel(inputs, attrs, device):
    (x,) = inputs
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@register_gradient("Softmax")
def _softmax_grad(op, grad):
    from repro.ops import math_ops

    out = op.outputs[0]
    inner = math_ops.reduce_sum(grad * out, axis=-1, keepdims=True)
    return [out * (grad - inner)]


def gelu(x):
    """Gaussian error linear unit (exact erf form, composite)."""
    from repro.ops import math_ops

    x = _convert(x)
    half = convert_to_tensor(0.5, dtype=x.dtype)
    one = convert_to_tensor(1.0, dtype=x.dtype)
    inv_sqrt2 = convert_to_tensor(1.0 / np.sqrt(2.0), dtype=x.dtype)
    return x * half * (one + math_ops.erf(x * inv_sqrt2))


def silu(x):
    """Sigmoid-weighted linear unit (swish), composite."""
    from repro.ops import math_ops

    x = _convert(x)
    return x * math_ops.sigmoid(x)


def softsign(x):
    """``x / (1 + |x|)`` (composite)."""
    from repro.ops import math_ops

    x = _convert(x)
    return x / (math_ops.abs(x) + convert_to_tensor(1.0, dtype=x.dtype))


def log_sigmoid(x):
    """``log(sigmoid(x))`` computed stably as ``-softplus(-x)``."""
    from repro.ops import math_ops

    x = _convert(x)
    return math_ops.negative(softplus(math_ops.negative(x)))


def softmax(x):
    """Softmax along the last axis."""
    from repro.runtime.executor import execute

    return execute("Softmax", [_convert(x)])


register_op("LogSoftmax", infer_fn=unary_infer)


@register_kernel("LogSoftmax")
def _log_softmax_kernel(inputs, attrs, device):
    (x,) = inputs
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


@register_gradient("LogSoftmax")
def _log_softmax_grad(op, grad):
    from repro.ops import math_ops

    out = op.outputs[0]
    return [
        grad
        - math_ops.exp(out) * math_ops.reduce_sum(grad, axis=-1, keepdims=True)
    ]


def log_softmax(x):
    """Log-softmax along the last axis."""
    from repro.runtime.executor import execute

    return execute("LogSoftmax", [_convert(x)])


# ---------------------------------------------------------------------------
# Cross entropy
# ---------------------------------------------------------------------------

def _xent_infer(inputs, attrs):
    logits, labels = inputs
    s = TensorShape(logits.shape)
    if s.rank is None:
        return [
            TensorSpec(TensorShape(None), logits.dtype),
            TensorSpec(TensorShape(None), logits.dtype),
        ]
    return [
        TensorSpec(TensorShape(s.dims[:-1]), logits.dtype),
        TensorSpec(s, logits.dtype),
    ]


register_op("SoftmaxCrossEntropyWithLogits", infer_fn=_xent_infer)


@register_kernel("SoftmaxCrossEntropyWithLogits")
def _xent_kernel(inputs, attrs, device):
    logits, labels = inputs
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    log_probs = shifted - log_z
    loss = -np.sum(labels * log_probs, axis=-1)
    backprop = np.exp(log_probs) - labels
    return [loss, backprop]


@register_gradient("SoftmaxCrossEntropyWithLogits")
def _xent_grad(op, grad_loss, grad_backprop):
    from repro.ops import array_ops, math_ops

    g = None
    if grad_loss is not None:
        g = array_ops.expand_dims(grad_loss, -1) * op.outputs[1]
    if grad_backprop is not None:
        # Second-order path: the backward pass consumed outputs[1]
        # (softmax - labels), so its gradient flows back through the
        # softmax Jacobian, J^T u = p*u - p*<p, u>.
        p = softmax(op.inputs[0])
        second = p * (
            grad_backprop
            - math_ops.reduce_sum(grad_backprop * p, axis=-1, keepdims=True)
        )
        g = second if g is None else g + second
    return [g, None]


def softmax_cross_entropy_with_logits(labels, logits):
    """Per-example softmax cross-entropy for one-hot ``labels``."""
    from repro.runtime.executor import execute

    loss, _ = execute(
        "SoftmaxCrossEntropyWithLogits", [_convert(logits), _convert(labels)]
    )
    return loss


def sparse_softmax_cross_entropy_with_logits(labels, logits):
    """Per-example cross-entropy for integer class ``labels`` (composite)."""
    from repro.ops import array_ops

    logits = _convert(logits)
    depth = logits.shape[-1]
    if depth is None:
        raise InvalidArgumentError(
            "sparse cross entropy requires a static class dimension"
        )
    onehot = array_ops.one_hot(_convert(labels), depth, dtype=logits.dtype)
    return softmax_cross_entropy_with_logits(labels=onehot, logits=logits)


def sigmoid_cross_entropy_with_logits(labels, logits):
    """Stable elementwise binary cross-entropy from logits (composite)."""
    from repro.ops import math_ops

    logits, labels = _convert(logits), _convert(labels)
    # max(x, 0) - x*z + log(1 + exp(-|x|))
    zero = convert_to_tensor(0, dtype=logits.dtype)
    return (
        math_ops.maximum(logits, zero)
        - logits * labels
        + math_ops.log1p(math_ops.exp(-math_ops.abs(logits)))
    )


# ---------------------------------------------------------------------------
# Convolution (NHWC, filters HWIO) via im2col
# ---------------------------------------------------------------------------

def _conv_out_dim(in_dim: Optional[int], k: int, s: int, padding: str) -> Optional[int]:
    if in_dim is None:
        return None
    if padding == "SAME":
        return -(-in_dim // s)  # ceil division
    return (in_dim - k) // s + 1


def _same_pads(in_dim: int, k: int, s: int) -> tuple[int, int]:
    out = -(-in_dim // s)
    total = max((out - 1) * s + k - in_dim, 0)
    return total // 2, total - total // 2


def _extract_patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, padding: str):
    """Return (patches[N,OH,OW,KH,KW,C], pads) using stride-trick views."""
    n, h, w, c = x.shape
    if padding == "SAME":
        pt, pb = _same_pads(h, kh, sh)
        pl, pr = _same_pads(w, kw, sw)
        if pt or pb or pl or pr:
            x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    else:
        pt = pb = pl = pr = 0
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    # windows: N, H', W', C, KH, KW -> subsample strides, reorder to N,OH,OW,KH,KW,C
    windows = windows[:, ::sh, ::sw]
    patches = np.transpose(windows, (0, 1, 2, 4, 5, 3))
    return patches, (pt, pb, pl, pr)


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    pads: tuple[int, int, int, int],
) -> np.ndarray:
    """Scatter-add patch gradients back to image space (inverse of im2col)."""
    n, h, w, c = x_shape
    pt, pb, pl, pr = pads
    hp, wp = h + pt + pb, w + pl + pr
    oh, ow = cols.shape[1], cols.shape[2]
    out = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    for i in builtins.range(kh):
        for j in builtins.range(kw):
            out[:, i : i + sh * oh : sh, j : j + sw * ow : sw, :] += cols[:, :, :, i, j, :]
    return out[:, pt : pt + h, pl : pl + w, :]


def _conv2d_infer(inputs, attrs):
    x, filters = inputs
    xs, fs = TensorShape(x.shape), TensorShape(filters.shape)
    if xs.rank is None or fs.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    sh, sw = attrs["strides"]
    padding = attrs["padding"]
    oh = _conv_out_dim(xs[1], fs[0], sh, padding) if fs[0] is not None else None
    ow = _conv_out_dim(xs[2], fs[1], sw, padding) if fs[1] is not None else None
    return [TensorSpec(TensorShape([xs[0], oh, ow, fs[3]]), x.dtype)]


register_op("Conv2D", infer_fn=_conv2d_infer)


@register_kernel("Conv2D")
def _conv2d_kernel(inputs, attrs, device):
    x, filters = inputs
    kh, kw, cin, cout = filters.shape
    sh, sw = attrs["strides"]
    patches, _ = _extract_patches(x, kh, kw, sh, sw, attrs["padding"])
    n, oh, ow = patches.shape[:3]
    out = patches.reshape(n * oh * ow, kh * kw * cin) @ filters.reshape(
        kh * kw * cin, cout
    )
    return out.reshape(n, oh, ow, cout)


@register_gradient("Conv2D")
def _conv2d_grad(op, grad):
    from repro.runtime.executor import execute

    x, filters = op.inputs
    gx = execute(
        "Conv2DBackpropInput",
        [grad, filters],
        {**op.attrs, "input_shape": tuple(x.shape.as_list())},
    )
    gf = execute(
        "Conv2DBackpropFilter",
        [x, grad],
        {**op.attrs, "filter_shape": tuple(filters.shape.as_list())},
    )
    return [gx, gf]


register_op(
    "Conv2DBackpropInput",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(attrs["input_shape"]), inputs[0].dtype)
    ],
)


def _resolve_input_shape(x_shape, n, c) -> tuple[int, int, int, int]:
    """Fill a symbolic (relaxed-trace) NHWC shape from runtime values.

    The batch and channel dims follow the gradient buffer; the spatial
    dims parameterize the window arithmetic and must be static.
    """
    resolved = (
        n if x_shape[0] is None else x_shape[0],
        x_shape[1],
        x_shape[2],
        c if x_shape[3] is None else x_shape[3],
    )
    if resolved[1] is None or resolved[2] is None:
        raise UnimplementedError(
            "conv/pool gradients require static spatial dimensions; got "
            f"input shape {tuple(x_shape)}"
        )
    return resolved


@register_kernel("Conv2DBackpropInput")
def _conv2d_backprop_input_kernel(inputs, attrs, device):
    grad, filters = inputs
    kh, kw, cin, cout = filters.shape
    sh, sw = attrs["strides"]
    n, oh, ow = grad.shape[:3]
    x_shape = _resolve_input_shape(attrs["input_shape"], n, cin)
    cols = grad.reshape(n * oh * ow, cout) @ filters.reshape(kh * kw * cin, cout).T
    cols = cols.reshape(n, oh, ow, kh, kw, cin)
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x_shape[1], kh, sh)
        pl, pr = _same_pads(x_shape[2], kw, sw)
        pads = (pt, pb, pl, pr)
    else:
        pads = (0, 0, 0, 0)
    return _col2im(cols, tuple(x_shape), kh, kw, sh, sw, pads)


@register_gradient("Conv2DBackpropInput")
def _conv2d_backprop_input_grad(op, grad):
    # gx = backprop_input(gy, w) is bilinear in (gy, w).  With upstream
    # u shaped like x: d/dgy <u, gx> is the forward conv of u with w,
    # and d/dw <u, gx> = d/dw <gy, conv(u, w)> is backprop_filter(u, gy).
    from repro.runtime.executor import execute

    gy, filters = op.inputs
    base = {"strides": op.attrs["strides"], "padding": op.attrs["padding"]}
    ggy = execute("Conv2D", [grad, filters], base)
    gw = execute(
        "Conv2DBackpropFilter",
        [grad, gy],
        {**base, "filter_shape": tuple(filters.shape.as_list())},
    )
    return [ggy, gw]


register_op(
    "Conv2DBackpropFilter",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(attrs["filter_shape"]), inputs[0].dtype)
    ],
)


@register_gradient("Conv2DBackpropFilter")
def _conv2d_backprop_filter_grad(op, grad):
    # gf = backprop_filter(x, gy) is bilinear in (x, gy).  With upstream
    # u shaped like the filter: d/dx <u, gf> = backprop_input(gy, u) and
    # d/dgy <u, gf> = conv(x, u).
    from repro.runtime.executor import execute

    x, gy = op.inputs
    base = {"strides": op.attrs["strides"], "padding": op.attrs["padding"]}
    gx = execute(
        "Conv2DBackpropInput",
        [gy, grad],
        {**base, "input_shape": tuple(x.shape.as_list())},
    )
    ggy = execute("Conv2D", [x, grad], base)
    return [gx, ggy]


@register_kernel("Conv2DBackpropFilter")
def _conv2d_backprop_filter_kernel(inputs, attrs, device):
    x, grad = inputs
    kh, kw, cin, cout = attrs["filter_shape"]
    sh, sw = attrs["strides"]
    patches, _ = _extract_patches(x, kh, kw, sh, sw, attrs["padding"])
    n, oh, ow = patches.shape[:3]
    gf = patches.reshape(n * oh * ow, kh * kw * cin).T @ grad.reshape(n * oh * ow, cout)
    return gf.reshape(kh, kw, cin, cout)


def _normalize_strides(strides) -> tuple[int, int]:
    if isinstance(strides, int):
        return (strides, strides)
    strides = list(strides)
    if len(strides) == 4:
        return (int(strides[1]), int(strides[2]))
    if len(strides) == 2:
        return (int(strides[0]), int(strides[1]))
    raise InvalidArgumentError(f"Bad strides: {strides!r}")


def conv2d(x, filters, strides=1, padding: str = "SAME"):
    """2-D convolution over NHWC input with HWIO filters."""
    from repro.runtime.executor import execute

    padding = padding.upper()
    if padding not in ("SAME", "VALID"):
        raise InvalidArgumentError(f"Bad padding: {padding!r}")
    return execute(
        "Conv2D",
        [_convert(x), _convert(filters)],
        {"strides": _normalize_strides(strides), "padding": padding},
    )


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _pool_infer(inputs, attrs):
    (x,) = inputs
    xs = TensorShape(x.shape)
    if xs.rank is None:
        return [TensorSpec(TensorShape(None), x.dtype)]
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    padding = attrs["padding"]
    return [
        TensorSpec(
            TensorShape(
                [
                    xs[0],
                    _conv_out_dim(xs[1], kh, sh, padding),
                    _conv_out_dim(xs[2], kw, sw, padding),
                    xs[3],
                ]
            ),
            x.dtype,
        )
    ]


register_op("MaxPool", infer_fn=_pool_infer)


@register_kernel("MaxPool")
def _max_pool_kernel(inputs, attrs, device):
    (x,) = inputs
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x.shape[1], kh, sh)
        pl, pr = _same_pads(x.shape[2], kw, sw)
        if pt or pb or pl or pr:
            x = np.pad(
                x,
                ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                constant_values=-np.inf,
            )
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return windows[:, ::sh, ::sw].max(axis=(-2, -1))


@register_gradient("MaxPool")
def _max_pool_grad(op, grad):
    from repro.runtime.executor import execute

    x = op.inputs[0]
    return [execute("MaxPoolGrad", [x, op.outputs[0], grad], dict(op.attrs))]


register_op(
    "MaxPoolGrad",
    infer_fn=lambda inputs, attrs: [TensorSpec(inputs[0].shape, inputs[0].dtype)],
)


@register_kernel("MaxPoolGrad")
def _max_pool_grad_kernel(inputs, attrs, device):
    x, out, grad = inputs
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x.shape[1], kh, sh)
        pl, pr = _same_pads(x.shape[2], kw, sw)
    else:
        pt = pb = pl = pr = 0
    xp = x
    if pt or pb or pl or pr:
        xp = np.pad(
            x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=-np.inf
        )
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[
        :, ::sh, ::sw
    ]
    # windows: N,OH,OW,C,KH,KW; mark maxima, split grad among ties.
    mx = out[..., None, None]
    mask = windows == mx
    ties = mask.sum(axis=(-2, -1), keepdims=True)
    cols = (mask / ties) * grad[..., None, None]
    cols = np.transpose(cols, (0, 1, 2, 4, 5, 3))  # N,OH,OW,KH,KW,C
    return _col2im(cols.astype(grad.dtype), x.shape, kh, kw, sh, sw, (pt, pb, pl, pr))


@register_gradient("MaxPoolGrad")
def _max_pool_grad_grad(op, grad):
    # Holding the argmax selection fixed (the piecewise-linear view),
    # the scatter is linear in its grad input; its transpose gathers the
    # upstream back through the same max mask.  x and out get no
    # gradient (their dependence is discontinuous / measure-zero).
    from repro.runtime.executor import execute

    x, out, _ = op.inputs
    return [
        None,
        None,
        execute("MaxPoolGradGrad", [x, out, grad], dict(op.attrs)),
    ]


register_op(
    "MaxPoolGradGrad",
    infer_fn=lambda inputs, attrs: [TensorSpec(inputs[1].shape, inputs[2].dtype)],
)


@register_kernel("MaxPoolGradGrad")
def _max_pool_grad_grad_kernel(inputs, attrs, device):
    x, out, u = inputs
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x.shape[1], kh, sh)
        pl, pr = _same_pads(x.shape[2], kw, sw)
    else:
        pt = pb = pl = pr = 0
    xp, up = x, u
    if pt or pb or pl or pr:
        pads = ((0, 0), (pt, pb), (pl, pr), (0, 0))
        xp = np.pad(x, pads, constant_values=-np.inf)
        up = np.pad(u, pads)  # zeros: padded slots carry no upstream
    xw = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[
        :, ::sh, ::sw
    ]
    uw = np.lib.stride_tricks.sliding_window_view(up, (kh, kw), axis=(1, 2))[
        :, ::sh, ::sw
    ]
    mask = xw == out[..., None, None]
    ties = mask.sum(axis=(-2, -1), keepdims=True)
    return (uw * mask / ties).sum(axis=(-2, -1)).astype(u.dtype)


register_op("AvgPool", infer_fn=_pool_infer)


@register_kernel("AvgPool")
def _avg_pool_kernel(inputs, attrs, device):
    (x,) = inputs
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x.shape[1], kh, sh)
        pl, pr = _same_pads(x.shape[2], kw, sw)
        if pt or pb or pl or pr:
            x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    return windows[:, ::sh, ::sw].mean(axis=(-2, -1)).astype(x.dtype)


@register_gradient("AvgPool")
def _avg_pool_grad(op, grad):
    from repro.runtime.executor import execute

    x = op.inputs[0]
    return [
        execute(
            "AvgPoolGrad",
            [grad],
            {**op.attrs, "input_shape": tuple(x.shape.as_list())},
        )
    ]


register_op(
    "AvgPoolGrad",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(attrs["input_shape"]), inputs[0].dtype)
    ],
)


@register_kernel("AvgPoolGrad")
def _avg_pool_grad_kernel(inputs, attrs, device):
    (grad,) = inputs
    kh, kw = attrs["ksize"]
    sh, sw = attrs["strides"]
    x_shape = _resolve_input_shape(
        attrs["input_shape"], grad.shape[0], grad.shape[3]
    )
    if attrs["padding"] == "SAME":
        pt, pb = _same_pads(x_shape[1], kh, sh)
        pl, pr = _same_pads(x_shape[2], kw, sw)
    else:
        pt = pb = pl = pr = 0
    n, oh, ow, c = grad.shape
    cols = np.broadcast_to(
        (grad / (kh * kw))[:, :, :, None, None, :], (n, oh, ow, kh, kw, c)
    ).astype(grad.dtype)
    return _col2im(cols, tuple(x_shape), kh, kw, sh, sw, (pt, pb, pl, pr))


def _pool(op_name: str, x, ksize, strides, padding: str):
    from repro.runtime.executor import execute

    padding = padding.upper()
    if padding not in ("SAME", "VALID"):
        raise InvalidArgumentError(f"Bad padding: {padding!r}")
    if isinstance(ksize, int):
        ksize = (ksize, ksize)
    return execute(
        op_name,
        [_convert(x)],
        {
            "ksize": (int(ksize[0]), int(ksize[1])),
            "strides": _normalize_strides(strides),
            "padding": padding,
        },
    )


def max_pool2d(x, ksize, strides=None, padding: str = "VALID"):
    """Max pooling over NHWC input."""
    return _pool("MaxPool", x, ksize, strides if strides is not None else ksize, padding)


def avg_pool2d(x, ksize, strides=None, padding: str = "VALID"):
    """Average pooling over NHWC input."""
    return _pool("AvgPool", x, ksize, strides if strides is not None else ksize, padding)


# ---------------------------------------------------------------------------
# Composites
# ---------------------------------------------------------------------------

def bias_add(x, bias):
    """Add a rank-1 bias to the last dimension of ``x``."""
    from repro.ops import math_ops

    return math_ops.add(_convert(x), _convert(bias))


def dropout(x, rate: float):
    """Randomly zero a ``rate`` fraction of entries, scaling the rest.

    Expressed entirely in primitive ops, so the randomness stays inside
    staged graphs (paper §4.1).
    """
    from repro.ops import array_ops, math_ops, random_ops

    x = _convert(x)
    if rate <= 0.0:
        return x
    keep = 1.0 - rate
    noise = random_ops.random_uniform(array_ops.shape(x), dtype=x.dtype)
    mask = math_ops.cast(
        math_ops.greater_equal(noise, convert_to_tensor(rate, dtype=x.dtype)), x.dtype
    )
    return x * mask / convert_to_tensor(keep, dtype=x.dtype)


def moments(x, axes, keepdims: bool = False):
    """Mean and variance of ``x`` over ``axes`` (composite)."""
    from repro.ops import array_ops, math_ops

    x = _convert(x)
    mean = math_ops.reduce_mean(x, axis=axes, keepdims=True)
    variance = math_ops.reduce_mean(
        math_ops.squared_difference(x, array_ops.stop_gradient(mean)),
        axis=axes,
        keepdims=True,
    )
    if not keepdims:
        from repro.ops.common import normalize_axes

        norm = normalize_axes(axes, x.shape.rank)
        mean = array_ops.squeeze(mean, axis=norm)
        variance = array_ops.squeeze(variance, axis=norm)
    return mean, variance


def batch_normalization(x, mean, variance, offset, scale, variance_epsilon=1e-3):
    """Normalize ``x`` with the given moments, scale, and offset."""
    from repro.ops import math_ops

    x = _convert(x)
    inv = math_ops.rsqrt(variance + convert_to_tensor(variance_epsilon, dtype=x.dtype))
    if scale is not None:
        inv = inv * scale
    out = x * inv
    shift = mean * inv
    if offset is not None:
        return out + (offset - shift)
    return out - shift


def l2_loss(x):
    """``sum(x**2) / 2`` (composite)."""
    from repro.ops import math_ops

    x = _convert(x)
    return math_ops.reduce_sum(math_ops.square(x)) / convert_to_tensor(2, dtype=x.dtype)
