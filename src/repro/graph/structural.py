"""Structural keys: the one value encoder and the lazy-segment key.

Paper §4.6 keys the trace cache by a binding-time analysis: tensors by
dtype and shape, every other value by value or by identity.
:func:`value_key` is the "by value" half, shared by every cache that
keys on non-tensor Python values — ``Function`` static arguments, lazy
segment attrs, CSE node signatures and the TPU one-op cache — so equal
keys mean the same thing everywhere:

* each key is tagged with the value's type object, so ``1``, ``1.0``,
  ``True`` and ``np.int32(1)`` never collide;
* floats key bit-exactly (a zero or NaN by its bit pattern), so
  ``0.0`` and ``-0.0`` differ and ``nan`` matches itself;
* ndarrays and NumPy scalars key by dtype, shape and bytes;
* tuples, lists and dicts are encoded recursively;
* any other hashable value is its own key;
* anything else raises :class:`Unhashable`, and the caller decides:
  ``Function`` keys the value by identity, lazy mode runs the segment
  uncached, CSE leaves the node unmerged, the TPU path builds its
  one-op function uncached.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

import numpy as np

from repro.framework.dtypes import DType
from repro.framework.tensor_shape import TensorShape

__all__ = ["Unhashable", "value_key", "segment_key"]


class Unhashable(TypeError):
    """The value has no by-value key (it is, or contains, an unhashable)."""


_double_bits = struct.Struct("<d").pack

# Hashable types whose equality is exact within the type: once tagged,
# the value is its own key.
_ATOMS = frozenset({int, bool, str, bytes, type(None), DType, TensorShape})


def _float_key(value: float):
    # Nonzero non-NaN floats are equal only when bit-identical; zeros
    # (signed) and NaNs (never equal to themselves) key by bit pattern.
    return value if value and value == value else _double_bits(value)


def value_key(value):
    """The hashable by-value key of ``value``; raises :class:`Unhashable`.

    ``value_key(a) == value_key(b)`` only when ``a`` and ``b`` have the
    same type tree and bit-identical leaves.
    """
    cls = type(value)
    if cls in _ATOMS:
        return (cls, value)
    if cls is float:
        return (cls, _float_key(value))
    if isinstance(value, dict):
        return (cls, frozenset((value_key(k), value_key(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return (cls, tuple(map(value_key, value)))
    if isinstance(value, (np.ndarray, np.generic)):  # before float: np.float64 is one
        if value.dtype.hasobject:
            raise Unhashable(f"object-dtype {cls.__name__} has no by-value key")
        return (cls, value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return (cls, _float_key(value))
    if isinstance(value, complex):
        return (cls, _float_key(value.real), _float_key(value.imag))
    try:
        hash(value)
    except TypeError:
        raise Unhashable(f"{cls.__name__} value is unhashable") from None
    return (cls, value)


def segment_key(records: Sequence, fetches: Sequence, externals: Sequence) -> Optional[tuple]:
    """``(pattern, shapes)`` of a recorded lazy segment, or None.

    The pattern is the op list (name, encoded attrs, dataflow references),
    the fetch mask and each external input's dtype and rank; ``shapes``
    are the external inputs' shapes, split out so the trace cache can
    relax them.  None means some attr is :class:`Unhashable`: the
    segment cannot be cached.
    """
    try:
        ops = tuple(
            (rec.op_name, value_key(rec.attrs), rec.in_refs) for rec in records
        )
    except Unhashable:
        return None
    shapes = tuple(t.shape for t in externals)
    ext = tuple((t._dtype, shape.rank) for t, shape in zip(externals, shapes))
    return (ops, tuple(fetches), ext), shapes
