"""The NumPy backend: default implementation and universal fallback.

Every kernel in :mod:`repro.ops` is registered against this backend
(``register_kernel``'s default), so it needs no per-op kernels of its
own, and the base-class compute primitives other backends inherit are
those same kernels.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import ArrayBackend, register_backend

__all__ = ["NumPyBackend", "NUMPY_BACKEND"]


class NumPyBackend(ArrayBackend):
    name = "numpy"
    supports_inplace = True

    def from_host(self, array: np.ndarray) -> np.ndarray:
        return array

    def to_host(self, array) -> np.ndarray:
        # Strip any ndarray subclass a foreign backend leaked through.
        return np.asarray(array) if type(array) is not np.ndarray else array


NUMPY_BACKEND = register_backend(NumPyBackend())
