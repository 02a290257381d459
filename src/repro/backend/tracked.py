"""The "tracked" backend: a second, dependency-free array backend.

It computes with NumPy but owns its buffers — a ``TrackedArray``
subclass tagged ``__array_backend__ = "tracked"`` — and counts every
primitive call per op.  That makes it the conformance witness for the
pluggable-backend seam: tests assert that per-backend kernels actually
resolve ahead of the NumPy fallback (counter goes up), that the
fallback covers the ops it doesn't register (anything outside the
primitive set still works), and that buffers stay backend-tagged across
dispatch, fusion, and device placement.  Real accelerated backends
(CuPy, Torch, JAX) would plug in the same way with heavier ``alloc`` /
``from_host`` / primitive implementations.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["TrackedArray", "TrackedBackend", "TRACKED_BACKEND"]


class TrackedArray(np.ndarray):
    """An ndarray tagged as owned by the tracked backend.

    The tag propagates through NumPy ufuncs and views (subclass
    propagation), so untagged results only appear where a kernel built a
    fresh array from scratch — exactly the NumPy-fallback paths.
    """

    __array_backend__ = "tracked"


class TrackedBackend(ArrayBackend):
    name = "tracked"
    supports_inplace = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.primitive_calls: Counter[str] = Counter()

    def _count(self, name: str) -> None:
        with self._lock:
            self.primitive_calls[name] += 1

    def reset_stats(self) -> None:
        with self._lock:
            self.primitive_calls.clear()

    def total_calls(self) -> int:
        with self._lock:
            return sum(self.primitive_calls.values())

    # -- host transfer / allocation ------------------------------------
    def from_host(self, array: np.ndarray) -> np.ndarray:
        return array.view(TrackedArray)

    def to_host(self, array) -> np.ndarray:
        return np.asarray(array).view(np.ndarray)

    def alloc(self, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype=np.dtype(dtype.name)).view(TrackedArray)

    # -- compute primitives --------------------------------------------
    def elementwise(self, op_name: str, inputs: list, attrs: dict):
        self._count(op_name)
        out = super().elementwise(op_name, inputs, attrs)
        return np.asarray(out).view(TrackedArray)

    def matmul(self, a, b, transpose_a: bool = False, transpose_b: bool = False):
        self._count("MatMul")
        out = super().matmul(a, b, transpose_a, transpose_b)
        return np.asarray(out).view(TrackedArray)

    def reduce(self, op_name: str, x, axis, keepdims: bool = False):
        self._count(op_name)
        out = super().reduce(op_name, x, axis, keepdims)
        return np.asarray(out).view(TrackedArray)


TRACKED_BACKEND = register_backend(TrackedBackend())
