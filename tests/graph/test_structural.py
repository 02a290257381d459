"""The one value encoder behind every trace-cache and CSE key.

Key soundness (paper §4.6's binding-time analysis, keyed "by value"):
two values share a key only when they have the same type tree and
bit-identical leaves, so a cache can never serve one value's trace to
another.  Checked as a property over generated nested values.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.framework.tensor_shape import TensorShape
from repro.graph.structural import Unhashable, value_key

_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]

_floats = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.nan, -math.nan, _NAN_PAYLOAD, math.inf, -math.inf, 1.0]
    ),
    st.floats(width=64),
)
_numpy_scalars = st.one_of(
    st.sampled_from([np.int32, np.int64, np.float32, np.float64, np.bool_]).map(
        lambda t: t(1)
    ),
    st.sampled_from([0.0, -0.0, math.nan, 1.0]).map(np.float32),
    st.sampled_from([0.0, -0.0, math.nan, 1.0]).map(np.float64),
)


@st.composite
def _arrays(draw):
    # ≤ 256 B and > 256 B (the old hashing cap), differing by one element.
    size = draw(st.sampled_from([1, 4, 64, 100]))
    dtype = draw(st.sampled_from([np.float32, np.float64, np.int32]))
    array = np.zeros(size, dtype)
    array[draw(st.integers(0, size - 1))] = draw(st.sampled_from([0.0, -0.0, 1.0]))
    if draw(st.booleans()) and size % 2 == 0:
        array = array.reshape(2, size // 2)
    return array


# Values that compare equal, print alike, or differ in one bit.
_CONFUSABLE = [
    0, 0.0, -0.0, False, np.float32(0.0), np.float32(-0.0), np.int32(0),
    1, 1.0, True, np.int32(1), np.int64(1), np.float64(1.0), np.bool_(True),
    math.nan, -math.nan, _NAN_PAYLOAD, np.float64(math.nan), "1", "True", None,
    TensorShape([2, None]), TensorShape([None, 2]), TensorShape(None),
    repro.float32, repro.float64, 0j, complex(0.0, -0.0), 1 + 0j,
    np.zeros(64, np.float32), np.full(64, -0.0, np.float32), np.zeros(64, np.int32),
    np.zeros((8, 8), np.float32),
]

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1, 2**70]),
    _floats,
    _numpy_scalars,
    _arrays(),
    st.sampled_from(["", "a", "1", "True"]),
    st.sampled_from([repro.float32, repro.float64, repro.int32, repro.bool_]),
    st.sampled_from([None, (), (2,), (None,), (2, None), (None, 2)]).map(TensorShape),
)

_values = st.recursive(
    st.one_of(_leaves, st.sampled_from(_CONFUSABLE)),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=3),
        st.lists(children, max_size=2).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b", 1]), children, max_size=2),
    ),
    max_leaves=6,
)


@st.composite
def _twins(draw, value):
    """``value`` with each leaf maybe swapped for a look-alike, and each
    sequence maybe swapped between tuple and list: the pairs a sloppy
    key would confuse."""
    if isinstance(value, dict):
        return {k: draw(_twins(v)) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        kind = draw(st.sampled_from([type(value), tuple, list]))
        return kind(draw(_twins(v)) for v in value)
    others = _look_alikes(value)
    if others and draw(st.booleans()):
        return draw(st.sampled_from(others))
    return value


def _look_alikes(value) -> list:
    """Pool values that compare equal to ``value`` or print like it, but
    differ in type or bits."""

    def alike(other) -> bool:
        if isinstance(other, np.ndarray) or isinstance(value, np.ndarray):
            return np.shape(other) == np.shape(value) and np.array_equal(other, value)
        try:
            return bool(other == value) or str(other) == str(value)
        except Exception:
            return False

    with np.errstate(all="ignore"):
        return [o for o in _CONFUSABLE if alike(o) and not _same_tree(o, value)]


def _float_bits(value) -> bytes:
    return struct.pack("<d", value)


def _same_tree(a, b) -> bool:
    """Same type tree, bit-identical leaves."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same_tree, a, b))
    if isinstance(a, (np.ndarray, np.generic)):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return _float_bits(a) == _float_bits(b)
    if isinstance(a, complex):
        return _same_tree(a.real, b.real) and _same_tree(a.imag, b.imag)
    if isinstance(a, TensorShape):
        return a.dims == b.dims
    return a == b


class TestKeySoundness:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equal_keys_mean_identical_values(self, data):
        a = data.draw(_values)
        b = data.draw(st.one_of(st.just(copy.deepcopy(a)), _twins(a), _twins(a), _values))
        if value_key(a) == value_key(b):
            assert _same_tree(a, b), (a, b)
        if _same_tree(a, b):
            assert value_key(a) == value_key(b), (a, b)
            assert hash(value_key(a)) == hash(value_key(b))

    def test_look_alike_pairs_key_apart(self):
        pool = _CONFUSABLE + [(0.0,), [0.0], (-0.0,), {"a": 0.0}, {"a": -0.0}, {1: 0}]
        for a in pool:
            for b in pool:
                assert (value_key(a) == value_key(b)) == _same_tree(a, b), (a, b)

    def test_numbers_of_different_types_never_collide(self):
        keys = {value_key(v) for v in (1, 1.0, True, np.int32(1))}
        assert len(keys) == 4

    def test_floats_key_bit_exactly(self):
        assert value_key(0.0) != value_key(-0.0)
        assert value_key(math.nan) == value_key(float("nan"))
        assert value_key(math.inf) != value_key(-math.inf)

    def test_large_arrays_key_by_content(self):
        a = np.arange(1024, dtype=np.float32)  # 4 KiB
        assert value_key(a) == value_key(a.copy())
        b = a.copy()
        b[-1] = -1.0
        assert value_key(a) != value_key(b)


class TestUnhashable:
    def test_unhashable_values_are_reported(self):
        @dataclasses.dataclass
        class Cfg:  # eq without hash
            scale: float

        for value in (Cfg(1.0), {1, 2}, [Cfg(1.0)], {"a": (1, {2})}):
            with pytest.raises(Unhashable):
                value_key(value)

    def test_object_arrays_are_unhashable(self):
        with pytest.raises(Unhashable):
            value_key(np.array([object()], dtype=object))

    def test_other_hashables_key_as_themselves(self):
        def fn():
            return None

        assert value_key(fn) == value_key(fn)
        assert value_key(fn) != value_key(lambda: None)
