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

:func:`segment_key`, :func:`trace_key` and :class:`TapeStructure` key
lazy segments, traces and eager tapes by structure for the one artifact
cache (:mod:`repro.core.pipeline`).
"""

from __future__ import annotations

import struct
import threading
from array import array
from bisect import bisect_left
from typing import Optional, Sequence

import numpy as np

from repro.framework.dtypes import DType
from repro.framework.tensor_shape import TensorShape
from repro.runtime.context import context
from repro.tensor import LazyTensor, Tensor

__all__ = [
    "Identity",
    "TapePattern",
    "TapeStructure",
    "Unhashable",
    "value_key",
    "segment_key",
    "trace_key",
]


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
    position, output index)``; then the explicit-input count and the
    input and output refs.  Names are left out.  None means some attr is
    :class:`Unhashable`.
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
    except Unhashable:
        return None
    append(num_explicit)
    refs(fn.inputs)
    refs(fn.outputs)
    return codes.tobytes(), tuple(table)


_DTYPES: list = []  # dtype code -> DType, in first-packed order
_DTYPE_CODES: dict = {}
_dtype_lock = threading.Lock()


def _dtype_code(dtype: DType) -> int:
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        with _dtype_lock:
            code = _DTYPE_CODES.get(dtype)
            if code is None:
                code = _DTYPE_CODES[dtype] = len(_DTYPES)
                _DTYPES.append(dtype)
    return code


class TapeStructure:
    """An eager tape's records in ``segment_key``'s form, packed as ``trace_key`` packs.

    Only a tape whose values all live on the CPU is keyed (its staged
    backward runs as CPU code).  Every distinct tensor object the
    records read or make has a code: record outputs count up from 0 in
    recording order, external inputs (read but not made by a record)
    count down from -1.  Per record, ``codes`` holds an index into
    ``table`` (distinct ``(op, value_key(attrs))``), the input count and
    codes, the output count, and per output its dtype code, rank and
    dims — or -1 and the earlier code when the op returned an object the
    tape already holds.  Output specs are in because an op's output
    shape may depend on input values the key leaves out.  The codes are
    also the records' only layout once the tensors are gone
    (:class:`TapePattern`).
    """

    __slots__ = ("codes", "table", "attrs", "starts", "spec_at", "code_of", "outputs", "externals")

    def __init__(self) -> None:
        self.codes = array("i")
        self.table: dict = {}
        self.attrs: list = []  # per table entry: the first record's attrs
        self.starts = array("i")  # per record: its offset in codes
        self.spec_at = array("i")  # per output: the offset of its dtype code
        self.code_of: dict[int, int] = {}  # id(tensor) -> code
        self.outputs: list = []  # by code
        self.externals: list = []  # by ~code

    def pack(self, records: Sequence) -> Optional[str]:
        """Append a tape's records (in recording order) in one pass;
        None, or why they have no key: a record with its own backward
        function (``"custom_backward"``), an unhashable attr
        (``"unhashable_attr"``), or a value pending (``"lazy"``),
        symbolic (``"symbolic"``) or off the CPU (``"off_cpu"``).
        """
        cpu = context.cpu_device()
        codes, code_of, table, attrs_of = self.codes, self.code_of, self.table, self.attrs
        append, extend = codes.append, codes.extend
        outputs, externals = self.outputs, self.externals
        start, spec_at = self.starts.append, self.spec_at.append
        try:
            for rec in records:
                if rec.backward_function is not None:
                    return "custom_backward"
                outs = rec.outputs
                first = outs[0]
                if type(first) is not Tensor:
                    return "lazy" if isinstance(first, LazyTensor) else "symbolic"
                if first._device is not cpu:
                    return "off_cpu"
                attrs = rec.attrs
                entry = (rec.op_name, value_key(attrs) if attrs else None)
                index = table.get(entry)
                if index is None:
                    index = table[entry] = len(attrs_of)
                    attrs_of.append(attrs)
                start(len(codes))
                append(index)
                ins = rec.inputs
                append(len(ins))
                for t in ins:
                    code = code_of.get(id(t))
                    if code is None:
                        if not isinstance(t, Tensor):
                            return "symbolic"
                        if t._device is not cpu:
                            return "off_cpu"
                        code = code_of[id(t)] = ~len(externals)
                        externals.append(t)
                    append(code)
                append(len(outs))
                for t in outs:
                    code = code_of.get(id(t))
                    if code is not None:
                        append(-1)
                        append(code)
                        continue
                    if type(t) is not Tensor:
                        return "symbolic"
                    if t._device is not cpu:
                        return "off_cpu"
                    code_of[id(t)] = len(outputs)
                    outputs.append(t)
                    spec_at(len(codes))
                    shape = t._array.shape
                    append(_dtype_code(t._dtype))
                    append(len(shape))
                    extend(shape)
        except Unhashable:
            return "unhashable_attr"
        return None

    def key(self, targets: Sequence, sources: Sequence, seeds: Sequence) -> Optional[tuple]:
        """``(key, values, positions)`` for one gradient call, or None.

        ``values`` are the outputs, the externals, then the seeds;
        ``positions`` are the targets', sources' and seeds' positions in
        ``values`` (None: skipped target, unread source, ones seed).  A
        target or source tensor no record touched becomes one more
        external.  ``sources`` are ``(id, source)`` pairs, the id the
        one the tape accumulates under (a variable's handle's).  The key
        holds the record codes and table, each external's dtype and
        shape, the positions, and each seed's spec (the value key of a
        non-tensor seed).  None when a target is not a concrete
        tensor; raises :class:`Unhashable` for a seed.
        """
        code_of, num_outputs = self.code_of, len(self.outputs)
        externals = list(self.externals)
        extra: dict[int, int] = {}

        def position(value_id, value) -> int:
            code = code_of.get(value_id, extra.get(value_id))
            if code is None:
                code = extra[value_id] = ~len(externals)
                externals.append(value)
            return code if code >= 0 else num_outputs + ~code

        target_pos = []
        for t in targets:
            if t is not None and id(t) not in code_of and not isinstance(t, Tensor):
                return None
            target_pos.append(None if t is None else position(id(t), t))
        source_pos = tuple(
            position(i, s) if i in code_of or isinstance(s, Tensor) else None
            for i, s in sources
        )
        values = self.outputs + externals
        seed_pos, seed_specs = [], []
        for seed in seeds:
            if seed is None:
                seed_pos.append(None)
                seed_specs.append(None)
                continue
            if isinstance(seed, Tensor):
                seed_specs.append((seed._dtype, seed._array.shape))
            else:
                seed_specs.append(value_key(seed))
            seed_pos.append(len(values))
            values.append(seed)
        positions = (tuple(target_pos), source_pos, tuple(seed_pos))
        key = (
            self.codes.tobytes(),
            tuple(self.table),
            tuple((t._dtype, t._array.shape) for t in externals),
            positions,
            tuple(seed_specs),
        )
        return key, values, positions

    def pattern(self, key: tuple) -> "TapePattern":
        """The records of ``key`` (this tape's) without their tensors."""
        return TapePattern(self.codes, list(self.table), self.attrs, self.starts, self.spec_at, key[2])


class TapePattern:
    """A tape's records decoded from its packed codes, by position in
    :meth:`TapeStructure.key`'s ``values``: no tensor is held."""

    __slots__ = ("codes", "table", "attrs", "starts", "spec_at", "ext_specs")

    def __init__(self, codes, table, attrs, starts, spec_at, ext_specs) -> None:
        self.codes, self.table, self.attrs = codes, table, attrs
        self.starts, self.spec_at, self.ext_specs = starts, spec_at, ext_specs

    def __len__(self) -> int:
        return len(self.starts)

    def record(self, k: int) -> tuple:
        """``(op_name, attrs, input positions, output positions)`` of record ``k``."""
        codes, spec_at = self.codes, self.spec_at
        num_outputs = len(spec_at)
        at = self.starts[k]
        op_name = self.table[codes[at]][0]
        attrs = self.attrs[codes[at]]
        end = at + 2 + codes[at + 1]
        ins = [c if c >= 0 else num_outputs + ~c for c in codes[at + 2 : end]]
        outs = []
        at = end + 1
        for _ in range(codes[end]):
            if codes[at] < 0:
                c = codes[at + 1]
                outs.append(c if c >= 0 else num_outputs + ~c)
                at += 2
            else:
                outs.append(bisect_left(spec_at, at))
                at += 2 + codes[at + 1]
        return op_name, attrs, ins, outs

    def spec(self, position: int) -> tuple:
        """``(dtype, shape)`` of the tape value at ``position``."""
        spec_at = self.spec_at
        if position >= len(spec_at):
            return self.ext_specs[position - len(spec_at)]
        at = spec_at[position]
        codes = self.codes
        return _DTYPES[codes[at]], tuple(codes[at + 2 : at + 2 + codes[at + 1]])
