"""Variables: program state as Python objects (paper §4.3).

"In TensorFlow Eager, variables correspond to Python objects.  Each
variable object has its own unique storage that is deleted when Python
deletes the object. ... Staged computations reference variables by
unique identifiers, which are no longer usable if the Python variable
objects they reference do not exist."

A :class:`Variable` owns a NumPy buffer on a device and exposes it to
the op layer through a 0-d ``resource`` handle tensor.  Reads and
writes are ordinary ops (stageable, capturable by reference — Listing
7), and reading a variable automatically watches it on all active tapes
(Listing 2).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.runtime.context import context
from repro.runtime.executor import execute
from repro.tensor import Tensor, convert_to_tensor

__all__ = ["Variable", "variable_creation_observer"]

_observer_lock = threading.Lock()
_creation_observers: list[Callable] = []


class variable_creation_observer:
    """Context manager notified of every Variable created inside it.

    The ``function`` decorator uses this to enforce its state-creation
    contract (paper §4.6: "No variables may be created during that
    second trace, or any subsequent one").
    """

    def __init__(self, callback: Callable) -> None:
        self._callback = callback

    def __enter__(self) -> "variable_creation_observer":
        with _observer_lock:
            _creation_observers.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        with _observer_lock:
            _creation_observers.remove(self._callback)


class Variable:
    """A mutable tensor-shaped value with unique storage.

    Args:
        initial_value: a tensor-convertible value, or a zero-argument
            callable producing one (evaluated eagerly, outside any
            active trace, per the state-creation contract).
        trainable: whether optimizers should update this variable.
        name: optional name used in checkpoints and debugging.
        dtype: optional dtype override for the initial value.
    """

    def __init__(
        self,
        initial_value,
        trainable: bool = True,
        name: Optional[str] = None,
        dtype=None,
    ) -> None:
        from repro.core.tracing import init_scope

        with init_scope():
            if callable(initial_value):
                initial_value = initial_value()
            value = convert_to_tensor(initial_value, dtype=dtype)
            if not isinstance(value, Tensor):
                raise InvalidArgumentError(
                    "Variable initial values must be concrete; wrap creation "
                    "in the first call of the function (paper §4.6) or pass "
                    "an eager tensor"
                )
            device_name = context.current_device_name()
            self._device = (
                context.get_device(device_name)
                if device_name is not None
                else value.device_object
            )
            arr = np.asarray(value.numpy())
            self._storage = self._device.allocate(arr)
            self._dtype = value.dtype
            self._shape = TensorShape(arr.shape)
            self._trainable = bool(trainable)
            self._name = name or f"Variable_{context.unique_id()}"
            self._handle = Tensor(self, dtype=dtypes.resource, device=self._device)
        with _observer_lock:
            observers = list(_creation_observers)
        for callback in observers:
            callback(self)

    # -- identity / metadata ---------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def handle(self) -> Tensor:
        """The resource tensor through which ops reference this variable."""
        return self._handle

    @property
    def dtype(self) -> dtypes.DType:
        return self._dtype

    @property
    def shape(self) -> TensorShape:
        return self._shape

    @property
    def device(self) -> str:
        return self._device.name

    @property
    def trainable(self) -> bool:
        return self._trainable

    # -- reads -------------------------------------------------------------
    def read_value(self):
        """The current value, via a (stageable, tape-visible) read op."""
        return execute(
            "ReadVariableOp",
            [self._handle],
            {"dtype": self._dtype, "shape": self._shape.as_tuple()},
        )

    def numpy(self) -> np.ndarray:
        """The current value as a NumPy array (no op dispatch)."""
        return self._storage

    def _as_tensor(self):
        """Hook for convert_to_tensor: variables convert by reading."""
        return self.read_value()

    # -- writes --------------------------------------------------------------
    def _assign_op(self, op_name: str, value):
        value = convert_to_tensor(value, dtype=self._dtype)
        execute(op_name, [self._handle, value], {})
        graph = context.current_graph()
        if graph is not None:
            # In a graph, hand back the op node so classic Sessions can
            # fetch it explicitly (the `train_op` idiom).
            return graph.nodes[-1]
        return self

    def assign(self, value):
        """Overwrite the variable's value."""
        return self._assign_op("AssignVariableOp", value)

    def assign_add(self, value):
        """Add ``value`` to the variable in place."""
        return self._assign_op("AssignAddVariableOp", value)

    def assign_sub(self, value):
        """Subtract ``value`` from the variable in place."""
        return self._assign_op("AssignSubVariableOp", value)

    # -- operator sugar (delegates to a read) ----------------------------------
    def __add__(self, other):
        return self.read_value() + other

    def __radd__(self, other):
        return other + self.read_value()

    def __sub__(self, other):
        return self.read_value() - other

    def __rsub__(self, other):
        return other - self.read_value()

    def __mul__(self, other):
        return self.read_value() * other

    def __rmul__(self, other):
        return other * self.read_value()

    def __truediv__(self, other):
        return self.read_value() / other

    def __rtruediv__(self, other):
        return other / self.read_value()

    def __pow__(self, other):
        return self.read_value() ** other

    def __matmul__(self, other):
        return self.read_value() @ other

    def __rmatmul__(self, other):
        return other @ self.read_value()

    def __neg__(self):
        return -self.read_value()

    def __getitem__(self, key):
        return self.read_value()[key]

    def __float__(self) -> float:
        return float(self._storage.reshape(())[()])

    def __repr__(self) -> str:
        return (
            f"<repro.Variable {self._name!r} shape={self._shape} "
            f"dtype={self._dtype.name} value=\n{self._storage!r}>"
        )
