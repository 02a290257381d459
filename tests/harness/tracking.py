"""Counting wrappers around registered kernels, the witness that an
execution path calls the kernels the registry holds."""

from __future__ import annotations

import collections
import contextlib

from repro.ops import registry


@contextlib.contextmanager
def tracked_kernels(op_names=None):
    """Swap the registered kernels of ``op_names`` (default: every op),
    on every device type, for wrappers that count their calls by op
    name; yields the ``Counter``.

    The swap goes through ``registry.register_kernel``, whose listeners
    drop the dispatch caches, so every eager op, and every staged plan
    or fused region bound inside the block, calls the wrappers.  A plan
    bound before the block keeps the kernels it bound.
    """
    counts = collections.Counter()
    originals = {
        key: fn
        for key, fn in registry._KERNELS.items()
        if op_names is None or key[0] in op_names
    }

    def counting(op_name, fn):
        def kernel(arrays, attrs, device):
            counts[op_name] += 1
            return fn(arrays, attrs, device)

        return kernel

    def swap(kernel_for):
        for (op_name, device_type), fn in originals.items():
            registry.unregister_kernel(op_name, (device_type,))
            registry.register_kernel(op_name, (device_type,))(kernel_for(op_name, fn))

    swap(counting)
    try:
        yield counts
    finally:
        swap(lambda op_name, fn: fn)
