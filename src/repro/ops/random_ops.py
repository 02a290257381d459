"""Stateful random operations.

Random ops are marked stateful so the graph optimizer never
constant-folds or merges them (paper §4.1: replacing
``np.random.randn`` with ``tf.random_normal`` "preserve[s] semantics
under this tracing model" precisely because the randomness is an *op*
in the graph rather than a Python value baked in at trace time).

Each device draws from its own deterministic stream derived from the
global seed (:func:`repro.runtime.context.set_random_seed`).
"""

from __future__ import annotations


import numpy as np

from repro.framework import dtypes
from repro.framework.tensor_shape import TensorShape
from repro.ops.common import constant_or_none
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.runtime.context import context
from repro.tensor import TensorBase, TensorSpec, convert_to_tensor

__all__ = ["random_normal", "random_uniform", "truncated_normal"]


def _random_infer(inputs, attrs):
    (shape_t,) = inputs
    target = constant_or_none(shape_t)
    if target is None:
        return [TensorSpec(TensorShape(None), attrs["dtype"])]
    return [TensorSpec(TensorShape(tuple(int(d) for d in target)), attrs["dtype"])]


register_op("RandomStandardNormal", infer_fn=_random_infer, is_stateful=True)


@register_kernel("RandomStandardNormal")
def _random_normal_kernel(inputs, attrs, device):
    (shape_arr,) = inputs
    rng = context.rng_for_device(device.name)
    sample = rng.standard_normal(tuple(int(d) for d in shape_arr))
    return sample.astype(attrs["dtype"].as_numpy_dtype)


register_gradient("RandomStandardNormal")(lambda op, grad: [None])

register_op("RandomUniform", infer_fn=_random_infer, is_stateful=True)


@register_kernel("RandomUniform")
def _random_uniform_kernel(inputs, attrs, device):
    (shape_arr,) = inputs
    rng = context.rng_for_device(device.name)
    shape = tuple(int(d) for d in shape_arr)
    np_dtype = attrs["dtype"].as_numpy_dtype
    if np.issubdtype(np_dtype, np.integer):
        return rng.integers(
            attrs["minval"], attrs["maxval"], size=shape, dtype=np_dtype
        )
    return rng.random(shape).astype(np_dtype)


register_gradient("RandomUniform")(lambda op, grad: [None])

register_op("TruncatedNormal", infer_fn=_random_infer, is_stateful=True)


@register_kernel("TruncatedNormal")
def _truncated_normal_kernel(inputs, attrs, device):
    (shape_arr,) = inputs
    rng = context.rng_for_device(device.name)
    shape = tuple(int(d) for d in shape_arr)
    # Resample values beyond two standard deviations (TF semantics).
    sample = rng.standard_normal(shape)
    bad = np.abs(sample) > 2.0
    while bad.any():
        sample[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(sample) > 2.0
    return sample.astype(attrs["dtype"].as_numpy_dtype)


register_gradient("TruncatedNormal")(lambda op, grad: [None])


def _shape_input(shape):
    from repro.ops.array_ops import _shape_vector

    return _shape_vector(shape)


def random_normal(shape, mean=0.0, stddev=1.0, dtype=dtypes.float32):
    """Sample from a normal distribution with the given moments."""
    from repro.runtime.executor import execute

    dtype = dtypes.as_dtype(dtype)
    sample = execute(
        "RandomStandardNormal", [_shape_input(shape)], {"dtype": dtype}
    )
    if isinstance(stddev, TensorBase) or stddev != 1.0:
        sample = sample * convert_to_tensor(stddev, dtype=dtype)
    if isinstance(mean, TensorBase) or mean != 0.0:
        sample = sample + convert_to_tensor(mean, dtype=dtype)
    return sample


def random_uniform(shape, minval=0.0, maxval=1.0, dtype=dtypes.float32):
    """Sample uniformly from ``[minval, maxval)``."""
    from repro.runtime.executor import execute

    dtype = dtypes.as_dtype(dtype)
    if dtype.is_integer:
        return execute(
            "RandomUniform",
            [_shape_input(shape)],
            {"dtype": dtype, "minval": int(minval), "maxval": int(maxval)},
        )
    sample = execute(
        "RandomUniform",
        [_shape_input(shape)],
        {"dtype": dtype, "minval": 0.0, "maxval": 1.0},
    )
    if isinstance(minval, TensorBase) or isinstance(maxval, TensorBase) or (
        minval != 0.0 or maxval != 1.0
    ):
        lo = convert_to_tensor(minval, dtype=dtype)
        hi = convert_to_tensor(maxval, dtype=dtype)
        sample = sample * (hi - lo) + lo
    return sample


def truncated_normal(shape, mean=0.0, stddev=1.0, dtype=dtypes.float32):
    """Normal samples with values beyond 2 stddev resampled."""
    from repro.runtime.executor import execute

    dtype = dtypes.as_dtype(dtype)
    sample = execute("TruncatedNormal", [_shape_input(shape)], {"dtype": dtype})
    if isinstance(stddev, TensorBase) or stddev != 1.0:
        sample = sample * convert_to_tensor(stddev, dtype=dtype)
    if isinstance(mean, TensorBase) or mean != 0.0:
        sample = sample + convert_to_tensor(mean, dtype=dtype)
    return sample
