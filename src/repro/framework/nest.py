"""Structured (nested) value utilities.

The tracing machinery (paper §4.6) must infer input signatures for
arbitrary Python call conventions: positional/keyword arguments holding
tensors inside tuples, lists, dicts, and namedtuples.  ``nest``
implements the flatten/pack pair that makes structures first-class:

* :func:`flatten` — deterministic left-to-right leaf extraction,
* :func:`pack_sequence_as` — inverse of flatten given a template,
* :func:`map_structure` — apply a function leaf-wise,
* :func:`assert_same_structure` — structural compatibility check.

Dict keys are traversed in sorted order so that two dicts that compare
equal produce identical flat sequences regardless of insertion order —
a requirement for stable trace-cache keys.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = [
    "is_nested",
    "flatten",
    "pack_sequence_as",
    "map_structure",
    "assert_same_structure",
    "flatten_with_paths",
]


def _is_namedtuple(value) -> bool:
    return isinstance(value, tuple) and hasattr(value, "_fields")


def is_nested(value) -> bool:
    """True for the container types nest recurses into."""
    return isinstance(value, (list, tuple, dict))


def _sorted_items(d: dict):
    try:
        keys = sorted(d)
    except TypeError:
        # Unsortable heterogeneous keys: fall back to repr order, still
        # deterministic for equal dicts.
        keys = sorted(d, key=repr)
    return [(k, d[k]) for k in keys]


def flatten(structure) -> list:
    """Flatten an arbitrarily nested structure into a list of leaves."""
    out: list = []
    _flatten_into(structure, out)
    return out


def _flatten_into(structure, out: list) -> None:
    if isinstance(structure, dict):
        for _, v in _sorted_items(structure):
            _flatten_into(v, out)
    elif isinstance(structure, (list, tuple)):
        for v in structure:
            _flatten_into(v, out)
    else:
        out.append(structure)


def flatten_with_paths(structure, prefix: tuple = ()) -> list[tuple[tuple, Any]]:
    """Like flatten, but each leaf is paired with its access path."""
    out: list[tuple[tuple, Any]] = []
    if isinstance(structure, dict):
        for k, v in _sorted_items(structure):
            out.extend(flatten_with_paths(v, prefix + (k,)))
    elif isinstance(structure, (list, tuple)):
        for i, v in enumerate(structure):
            out.extend(flatten_with_paths(v, prefix + (i,)))
    else:
        out.append((prefix, structure))
    return out


def pack_sequence_as(template, flat: Sequence):
    """Rebuild a structure shaped like ``template`` from flat leaves."""
    flat = list(flat)
    expected = len(flatten(template))
    if len(flat) != expected:
        raise ValueError(
            f"Flat sequence has {len(flat)} leaves but the template "
            f"structure expects {expected}"
        )
    result, consumed = _pack(template, flat, 0)
    assert consumed == len(flat)
    return result


def _pack(template, flat: list, index: int):
    if isinstance(template, dict):
        items = []
        for k, v in _sorted_items(template):
            packed, index = _pack(v, flat, index)
            items.append((k, packed))
        return type(template)(items), index
    if _is_namedtuple(template):
        values = []
        for v in template:
            packed, index = _pack(v, flat, index)
            values.append(packed)
        return type(template)(*values), index
    if isinstance(template, (list, tuple)):
        values = []
        for v in template:
            packed, index = _pack(v, flat, index)
            values.append(packed)
        return type(template)(values), index
    return flat[index], index + 1


def assert_same_structure(a, b) -> None:
    """Raise ValueError unless a and b have identical nesting structure."""
    if is_nested(a) != is_nested(b):
        raise ValueError(f"Structures differ: {a!r} vs {b!r}")
    if isinstance(a, dict):
        if not isinstance(b, dict) or set(a) != set(b):
            raise ValueError(f"Dict structures differ: {a!r} vs {b!r}")
        for k in a:
            assert_same_structure(a[k], b[k])
    elif _is_namedtuple(a) or _is_namedtuple(b):
        if type(a) is not type(b):
            raise ValueError(f"Namedtuple types differ: {type(a)} vs {type(b)}")
        for x, y in zip(a, b):
            assert_same_structure(x, y)
    elif isinstance(a, (list, tuple)):
        if type(a) is not type(b) or len(a) != len(b):
            raise ValueError(f"Sequence structures differ: {a!r} vs {b!r}")
        for x, y in zip(a, b):
            assert_same_structure(x, y)


def map_structure(fn: Callable, *structures):
    """Apply ``fn`` leaf-wise across one or more parallel structures."""
    if not structures:
        raise ValueError("map_structure requires at least one structure")
    first = structures[0]
    for other in structures[1:]:
        assert_same_structure(first, other)
    flats = [flatten(s) for s in structures]
    mapped = [fn(*leaves) for leaves in zip(*flats)]
    return pack_sequence_as(first, mapped)
