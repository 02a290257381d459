"""Generic per-backend kernels routed through the ArrayBackend protocol.

:func:`install_backend_kernels` registers one kernel per routable op
under ``(op, device_type, backend.name)``: every ``ELEMENTWISE`` op calls
the backend's ``elementwise`` primitive, every ``REDUCTION`` its
``reduce``, and ``MatMul`` its ``matmul``.  The routable set is read off
the op traits, so it follows the op families; every other op resolves
to its NumPy fallback kernel.  A backend accelerates the hot op set by
overriding three methods, and inherits the NumPy kernels for the rest.
"""

from __future__ import annotations

from repro.ops import registry

__all__ = ["install_backend_kernels"]


def _make_elementwise(backend, op_name):
    def kernel(inputs, attrs, device):
        return backend.elementwise(op_name, inputs, attrs)

    kernel.__name__ = f"{backend.name}_{op_name}"
    return kernel


def _make_reduce(backend, op_name):
    def kernel(inputs, attrs, device):
        (x,) = inputs
        return backend.reduce(
            op_name, x, axis=attrs.get("axis"), keepdims=attrs.get("keepdims", False)
        )

    kernel.__name__ = f"{backend.name}_{op_name}"
    return kernel


def _make_matmul(backend):
    def kernel(inputs, attrs, device):
        a, b = inputs
        return backend.matmul(
            a,
            b,
            transpose_a=attrs.get("transpose_a", False),
            transpose_b=attrs.get("transpose_b", False),
        )

    kernel.__name__ = f"{backend.name}_MatMul"
    return kernel


def install_backend_kernels(backend, device_types=("CPU", "GPU")) -> int:
    """Register protocol-routed kernels for ``backend``; returns count."""
    kernels = {"MatMul": _make_matmul(backend)}
    for op_name in registry.ops_with_trait(registry.ELEMENTWISE):
        kernels[op_name] = _make_elementwise(backend, op_name)
    for op_name in registry.ops_with_trait(registry.REDUCTION):
        kernels[op_name] = _make_reduce(backend, op_name)
    for op_name, kernel in kernels.items():
        registry.register_kernel(op_name, device_types, backend=backend.name)(kernel)
    return len(kernels)
