"""Structural keys: the one value encoder, the lazy-segment key and the trace key.

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
  ``Function`` keys the value by :class:`Identity`, lazy mode and the
  trace key compile uncached, CSE leaves the node unmerged, the TPU
  path builds its one-op function uncached.

:func:`segment_key` and :func:`trace_key` key lazy segments and traces
by structure for the one artifact cache (:mod:`repro.core.pipeline`).
"""

from __future__ import annotations

import struct
from array import array
from typing import Optional, Sequence

import numpy as np

from repro.framework.dtypes import DType
from repro.framework.tensor_shape import TensorShape

__all__ = ["Identity", "Unhashable", "value_key", "segment_key", "trace_key"]


class Unhashable(TypeError):
    """The value has no by-value key (it is, or contains, an unhashable)."""


class Identity:
    """Key for a value keyed by identity: equal only to itself.

    Holds the object, so its address cannot be reused by a new object
    while the key is cached (§4.6: "non-tensor values are encoded by
    object identity").
    """

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj

    def __eq__(self, other) -> bool:
        return type(other) is Identity and other.obj is self.obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __repr__(self) -> str:
        return f"<{type(self.obj).__name__} object at {id(self.obj):#x}>"


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


def trace_key(fn, num_explicit: int) -> Optional[tuple]:
    """The structural pattern of a traced graph function, or None.

    Packed bytes of, per node, an index into a table of distinct ``(op,
    attrs, device)`` (a Placeholder's attrs with its constant value, a
    Const above 4 KiB by its array's identity), input refs as ``(producer
    position, output index)`` and control-input positions; then the
    explicit-input count and the input and output refs.  Names are left
    out.  None means some attr is :class:`Unhashable`.
    """
    position: dict = {}
    table: dict = {}  # (op name, attrs key, device) -> index, first-seen order
    codes = array("i")
    append = codes.append

    def refs(tensors):
        append(len(tensors))
        for t in tensors:
            append(position[id(t.node)])
            append(t.index)

    try:
        for i, node in enumerate(fn.graph.nodes):
            position[id(node)] = i
            attrs, op_name = node.attrs, node.op_name
            if op_name == "Const" and getattr(attrs["value"], "nbytes", 0) > 4096:
                attrs = dict(attrs, value=Identity(attrs["value"]))
            elif op_name == "Placeholder" and node.outputs[0].constant_value is not None:
                attrs = dict(attrs, constant=node.outputs[0].constant_value)
            entry = (op_name, value_key(attrs) if attrs else None, node.device)
            append(table.setdefault(entry, len(table)))
            refs(node.inputs)
            append(len(node.control_inputs))
            codes.extend(position[id(c)] for c in node.control_inputs)
    except Unhashable:
        return None
    append(num_explicit)
    refs(fn.inputs)
    refs(fn.outputs)
    return codes.tobytes(), tuple(table)
