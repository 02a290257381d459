"""The array-backend seam: one kernel API over pluggable array libraries.

Following EagerPy's design of a single array API re-dispatched over many
backends (PAPERS.md, arXiv 2008.04175), an :class:`ArrayBackend` bundles
the primitives a kernel library needs — buffer allocation, host
transfer, elementwise/matmul/reduce compute, and dtype promotion — so
the dispatch stack (:mod:`repro.ops.registry`,
:mod:`repro.runtime.dispatch`) can resolve kernels per backend instead
of hard-wiring NumPy.

The NumPy backend is both the default and the universal fallback: a new
backend only registers kernels for the primitives it accelerates
(:func:`repro.backend.kernels.install_backend_kernels`), and resolution
falls back to the NumPy kernel for everything else.  The active backend
is ``context.kernel_backend`` / ``REPRO_KERNEL_BACKEND``.
"""

from __future__ import annotations

import numpy as np

from repro.framework.errors import AlreadyExistsError, NotFoundError
from repro.ops import registry

__all__ = [
    "ArrayBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "backend_of",
]


class ArrayBackend:
    """Protocol + base implementation for an array backend.

    Subclasses override the primitives they accelerate.  The base
    class's compute primitive for an op *is* that op's registered NumPy
    kernel, so a partial backend is always complete and no backend
    carries a second spelling of an op.  Buffers flowing through the
    runtime must be (or subclass) ``np.ndarray`` — the simulated
    devices and fusion codegen both assume NumPy's buffer protocol.
    """

    #: Registry key; subclasses must override.
    name = "abstract"

    #: Whether kernels for this backend accept NumPy's ``out=`` donation
    #: protocol.  The executor's memory plan and fused-region codegen
    #: only donate dying buffers in place when the active backend says
    #: its arrays support it.
    supports_inplace = True

    # -- host transfer / allocation ------------------------------------
    def from_host(self, array: np.ndarray) -> np.ndarray:
        """Adopt a host (NumPy) buffer as a backend buffer."""
        return array

    def to_host(self, array) -> np.ndarray:
        """View a backend buffer as a plain host NumPy array."""
        return np.asarray(array)

    def alloc(self, shape, dtype) -> np.ndarray:
        """An uninitialized backend buffer (kernels write every element)."""
        return self.from_host(np.empty(shape, dtype=np.dtype(dtype.name)))

    # -- dtype semantics -----------------------------------------------
    def promote_types(self, a, b):
        """Binary-op result dtype.  Backends must agree with the
        framework's strict promotion rules (conformance-tested)."""
        from repro.framework.dtypes import result_type

        return result_type(a, b)

    # -- compute primitives --------------------------------------------
    def elementwise(self, op_name: str, inputs: list, attrs: dict):
        """Apply an ``ELEMENTWISE`` op to backend buffers."""
        return _numpy_kernel(op_name)(inputs, attrs, None)

    def matmul(self, a, b, transpose_a: bool = False, transpose_b: bool = False):
        attrs = {"transpose_a": transpose_a, "transpose_b": transpose_b}
        return _numpy_kernel("MatMul")([a, b], attrs, None)

    def reduce(self, op_name: str, x, axis, keepdims: bool = False):
        """Apply a ``REDUCTION`` op over ``axis`` to a backend buffer."""
        attrs = {"axis": axis, "keepdims": keepdims}
        return _numpy_kernel(op_name)([x], attrs, None)

    def __repr__(self) -> str:
        return f"<ArrayBackend {self.name!r}>"


def _numpy_kernel(op_name: str):
    return registry.get_kernel(op_name, "CPU", registry.DEFAULT_BACKEND)


_BACKENDS: dict[str, ArrayBackend] = {}


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Add a backend to the registry (its ``name`` becomes the key)."""
    if backend.name in _BACKENDS:
        raise AlreadyExistsError(
            f"Array backend {backend.name!r} is already registered"
        )
    _BACKENDS[backend.name] = backend
    return backend


def get_backend(name: str) -> ArrayBackend:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise NotFoundError(
            f"Unknown array backend {name!r}; registered backends: "
            f"{sorted(_BACKENDS)}"
        ) from None


def list_backends() -> list[str]:
    return sorted(_BACKENDS)


def backend_of(array) -> str:
    """The backend name owning a buffer (tag attribute, NumPy default)."""
    return getattr(array, "__array_backend__", "numpy")
