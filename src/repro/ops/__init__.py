"""Primitive operations.

This package defines the operation set shared by imperative and staged
execution (paper §4.1: "Both execution models have access to the same
set of operations and kernels").  Each module registers op definitions,
NumPy kernels (shared by the CPU and the simulated GPU), shape/dtype
inference for staging, and gradient rules, and exposes the user-facing
functional API.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.runtime.executor import execute
from repro.tensor import TensorBase, convert_to_tensor

__all__ = ["execute", "execute_binary", "convert_operand"]

# Scalar-literal tensor cache: `x * 2.0` style expressions create the
# same tiny constant on every op dispatch; interning them removes an
# allocation from the eager hot path (real TFE caches these as well).
_scalar_cache: dict = {}
_SCALAR_CACHE_LIMIT = 512


def _cached_scalar(value, dtype) -> TensorBase:
    key = (type(value).__name__, value, dtype)
    t = _scalar_cache.get(key)
    if t is None:
        t = convert_to_tensor(value, dtype=dtype)
        if len(_scalar_cache) < _SCALAR_CACHE_LIMIT:
            _scalar_cache[key] = t
    return t


def convert_operand(value, like: TensorBase) -> TensorBase:
    """Convert a weak Python operand to match a tensor's dtype.

    Python literals are "weakly typed": ``x * 2`` with a float32 tensor
    produces float32, not an error.  NumPy arrays and tensors are
    strongly typed and must match exactly.
    """
    if isinstance(value, TensorBase):
        return value
    if isinstance(value, (bool, np.bool_)):
        target = like.dtype if like.dtype.is_bool else None
        return _cached_scalar(bool(value), target)
    if isinstance(value, numbers.Integral):
        return _cached_scalar(
            int(value), like.dtype if not like.dtype.is_bool else None
        )
    if isinstance(value, numbers.Real):
        if like.dtype.is_floating or like.dtype.is_complex:
            return _cached_scalar(float(value), like.dtype)
        return convert_to_tensor(value)
    if isinstance(value, (list, tuple)):
        try:
            return convert_to_tensor(value, dtype=like.dtype)
        except (TypeError, ValueError):
            return convert_to_tensor(value)
    return convert_to_tensor(value)


def execute_binary(op_name: str, x, y, reverse: bool = False):
    """Dispatch a binary op from an operator overload."""
    if reverse:
        x, y = y, x
    if isinstance(x, TensorBase) and isinstance(y, TensorBase):
        pass
    elif isinstance(x, TensorBase):
        y = convert_operand(y, like=x)
    elif isinstance(y, TensorBase):
        x = convert_operand(x, like=y)
    else:
        x = convert_to_tensor(x)
        y = convert_operand(y, like=x)
    if x.dtype != y.dtype and op_name not in ("Equal", "NotEqual"):
        raise InvalidArgumentError(
            f"Operation {op_name!r} received mismatched dtypes "
            f"{x.dtype} and {y.dtype}; cast explicitly with repro.cast()"
        )
    return execute(op_name, [x, y])


# Importing the op modules registers every primitive operation.
from repro.ops import math_ops  # noqa: E402
from repro.ops import array_ops  # noqa: E402
from repro.ops import random_ops  # noqa: E402
from repro.ops import nn_ops  # noqa: E402
from repro.ops import state_ops  # noqa: E402
from repro.ops import functional_ops  # noqa: E402
from repro.ops import control_flow  # noqa: E402
from repro.ops import script_ops  # noqa: E402
from repro.ops import list_ops  # noqa: E402
from repro.ops import linalg_ops  # noqa: E402
from repro.ops import sort_ops  # noqa: E402
