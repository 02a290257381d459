"""Tensors: typed, device-resident, immutable multi-dimensional arrays.

"A tensor is a multi-dimensional, typed array" (paper §4).  Concrete
:class:`Tensor` objects are handles to data stored on a particular
device (§4.4); ``.numpy()`` fetches a NumPy array storing the tensor's
data, and tensors can be supplied to external libraries that expect
NumPy arrays.

The module also defines :class:`TensorBase`, shared by concrete tensors
and the symbolic tensors produced inside a graph-building context
(:mod:`repro.graph.graph`).  All Python operator overloads live on the
base class and dispatch through the single op-execution path, so the
same user code runs unchanged whether it is executing imperatively or
being traced — the heart of the paper's "single API surface ...
agnostic to execution mode" claim.  Lazy eager mode's deferred values
are :class:`LazyTensor` objects: concrete tensors whose buffer is one
flush of the recorded segment away.
"""

from __future__ import annotations

import numbers
from typing import Optional, Union

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InternalError, InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.runtime.context import context
from repro.runtime.device import Device

__all__ = [
    "LazyTensor",
    "Tensor",
    "TensorBase",
    "TensorSpec",
    "TraceSpecializationWarning",
    "convert_to_tensor",
    "unwrap_handle",
]


class TraceSpecializationWarning(UserWarning):
    """A concrete tensor's truth value was taken while tracing.

    ``bool()`` on a concrete tensor inside a graph-building context
    silently *specializes* the trace: the branch taken is baked into
    the graph as if it were a constant, and the trace will replay that
    branch even for inputs that would have gone the other way.  If the
    predicate is data-dependent, make it an argument of the staged
    function (so autograph lowers the control flow onto ``cond`` /
    ``while_loop``) instead of closing over a concrete tensor.
    """


_specialization_warned_sites: set = set()


def _warn_trace_specialization() -> None:
    """Warn (once per call site) that a trace just specialized on a value."""
    import sys
    import warnings

    pkg_dir = __file__.rsplit("/", 1)[0]  # .../src/repro
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_filename.startswith(pkg_dir):
        frame = frame.f_back
    if frame is None:
        return
    site = (frame.f_code.co_filename, frame.f_lineno)
    if site in _specialization_warned_sites:
        return
    _specialization_warned_sites.add(site)
    warnings.warn(
        f"bool() of a concrete tensor at {site[0]}:{site[1]} during "
        "tracing: the branch decision is baked into the trace (silent "
        "specialization). Pass the tensor as an argument of the staged "
        "function so the control flow is lowered instead.",
        TraceSpecializationWarning,
        stacklevel=3,
    )


# Cached repro.ops.execute_binary, bound on first operator dispatch (the
# ops package imports this module, so the import must be deferred).
_execute_binary = None


class _HandleBox:
    """Opaque wrapper for resource/variant payloads inside object arrays."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value


def unwrap_handle(array: np.ndarray):
    """Extract the payload of a resource/variant handle buffer (kernels)."""
    box = array[()]
    return box.value if isinstance(box, _HandleBox) else box


class TensorBase:
    """Operator-overload surface shared by concrete and symbolic tensors."""

    __slots__ = ("__weakref__",)

    # Ensure e.g. np.ndarray + Tensor defers to Tensor.__radd__.
    __array_priority__ = 100

    # -- metadata (implemented by subclasses) -------------------------------
    @property
    def dtype(self) -> dtypes.DType:
        raise NotImplementedError

    @property
    def shape(self) -> TensorShape:
        raise NotImplementedError

    @property
    def ndim(self) -> Optional[int]:
        return self.shape.rank

    # -- arithmetic ---------------------------------------------------------
    def _binary_op(self, op_name: str, other, reverse: bool = False):
        # Bound lazily (ops imports tensor, so a top-level import would
        # be circular) and cached: this is the operator-overload hot
        # path, and even a sys.modules probe per ``x * 2.0`` shows up.
        global _execute_binary
        if _execute_binary is None:
            from repro.ops import execute_binary

            _execute_binary = execute_binary
        return _execute_binary(op_name, self, other, reverse=reverse)

    def __add__(self, other):
        return self._binary_op("Add", other)

    def __radd__(self, other):
        return self._binary_op("Add", other, reverse=True)

    def __sub__(self, other):
        return self._binary_op("Sub", other)

    def __rsub__(self, other):
        return self._binary_op("Sub", other, reverse=True)

    def __mul__(self, other):
        return self._binary_op("Mul", other)

    def __rmul__(self, other):
        return self._binary_op("Mul", other, reverse=True)

    def __truediv__(self, other):
        return self._binary_op("RealDiv", other)

    def __rtruediv__(self, other):
        return self._binary_op("RealDiv", other, reverse=True)

    def __floordiv__(self, other):
        return self._binary_op("FloorDiv", other)

    def __rfloordiv__(self, other):
        return self._binary_op("FloorDiv", other, reverse=True)

    def __mod__(self, other):
        return self._binary_op("Mod", other)

    def __rmod__(self, other):
        return self._binary_op("Mod", other, reverse=True)

    def __pow__(self, other):
        return self._binary_op("Pow", other)

    def __rpow__(self, other):
        return self._binary_op("Pow", other, reverse=True)

    def __matmul__(self, other):
        from repro.ops import math_ops

        return math_ops.matmul(self, other)

    def __rmatmul__(self, other):
        from repro.ops import math_ops

        return math_ops.matmul(other, self)

    def __neg__(self):
        from repro.ops import math_ops

        return math_ops.negative(self)

    def __abs__(self):
        from repro.ops import math_ops

        return math_ops.abs(self)

    # -- comparisons ---------------------------------------------------------
    def __lt__(self, other):
        return self._binary_op("Less", other)

    def __le__(self, other):
        return self._binary_op("LessEqual", other)

    def __gt__(self, other):
        return self._binary_op("Greater", other)

    def __ge__(self, other):
        return self._binary_op("GreaterEqual", other)

    # NOTE: like TF2, == and != are *elementwise*; tensors are therefore
    # unhashable and internal bookkeeping uses id()-keyed maps.
    def __eq__(self, other):
        if other is None or (
            not isinstance(other, (TensorBase, np.ndarray, numbers.Number, list, tuple, bool))
        ):
            return NotImplemented
        return self._binary_op("Equal", other)

    def __ne__(self, other):
        if other is None or (
            not isinstance(other, (TensorBase, np.ndarray, numbers.Number, list, tuple, bool))
        ):
            return NotImplemented
        return self._binary_op("NotEqual", other)

    __hash__ = None  # type: ignore[assignment]

    def __invert__(self):
        from repro.ops import math_ops

        return math_ops.logical_not(self)

    def __and__(self, other):
        return self._binary_op("LogicalAnd", other)

    def __or__(self, other):
        return self._binary_op("LogicalOr", other)

    # -- indexing -------------------------------------------------------------
    def __getitem__(self, key):
        from repro.ops import array_ops

        return array_ops.slice_helper(self, key)


class Tensor(TensorBase):
    """A concrete tensor: an immutable buffer resident on one device."""

    __slots__ = ("_array", "_dtype", "_device")

    def __init__(
        self,
        value,
        dtype: Optional[dtypes.DType] = None,
        device: Optional[Device] = None,
    ) -> None:
        device = device or context.cpu_device()
        if dtype is not None:
            dtype = dtypes.as_dtype(dtype)

        if dtype is not None and dtype in (dtypes.resource, dtypes.variant):
            # Opaque handle: box the payload so NumPy cannot reinterpret
            # array-like objects (e.g. a Variable, which supports
            # __getitem__) during object-array assignment.
            array = np.empty((), dtype=object)
            array[()] = value if isinstance(value, _HandleBox) else _HandleBox(value)
        else:
            array = np.asarray(
                value, dtype=None if dtype is None else dtype.as_numpy_dtype
            )
            if dtype is None:
                # Weak Python literals adopt TF-style defaults.
                if array.dtype == np.float64 and _is_python_literal(value):
                    array = array.astype(np.float32)
                elif array.dtype == np.int64 and _is_python_literal(value):
                    array = array.astype(np.int32)
                dtype = dtypes.as_dtype(array.dtype)

        self._array = device.allocate(array)
        self._dtype = dtype
        self._device = device

    @classmethod
    def _from_buffer(
        cls, buf: np.ndarray, dtype: dtypes.DType, device: Device
    ) -> "Tensor":
        """Wrap an already-allocated device buffer without copying."""
        t = cls.__new__(cls)
        t._array = buf
        t._dtype = dtype
        t._device = device
        return t

    # -- metadata -----------------------------------------------------------
    @property
    def dtype(self) -> dtypes.DType:
        return self._dtype

    @property
    def shape(self) -> TensorShape:
        return TensorShape(self._array.shape)

    @property
    def device(self) -> str:
        """Name of the device on which the tensor's data resides."""
        return self._device.name

    @property
    def device_object(self) -> Device:
        return self._device

    @property
    def nbytes(self) -> int:
        return int(self._array.nbytes)

    @property
    def constant_value(self):
        """Concrete tensors are always statically known (see shape inference)."""
        if self._dtype in (dtypes.resource, dtypes.variant):
            return None
        return self._array

    # -- data access --------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """The tensor's data as a (read-only) NumPy array.

        The returned array shares the tensor's buffer; call ``.copy()``
        for a writable array.
        """
        if self._dtype in (dtypes.resource, dtypes.variant):
            raise InvalidArgumentError(
                f"Cannot convert a {self._dtype} handle to a NumPy array"
            )
        return self._array

    def item(self):
        """The value of a scalar (or single-element) tensor as a Python number."""
        return self._array.item()

    def resource_value(self):
        """The Python object held by a resource/variant handle tensor."""
        if self._dtype not in (dtypes.resource, dtypes.variant):
            raise InvalidArgumentError(f"Tensor has dtype {self._dtype}, not a handle")
        return unwrap_handle(self._array)

    def __array__(self, dtype=None, copy=None):
        arr = self.numpy()
        if dtype is not None:
            arr = arr.astype(dtype)
        elif copy:
            arr = arr.copy()
        return arr

    # -- device movement (Listing 4) ------------------------------------------
    def _copy_to(self, device_name: str) -> "Tensor":
        from repro.ops import array_ops

        return array_ops.copy_to_device(self, device_name)

    def cpu(self) -> "Tensor":
        """Copy this tensor to host (CPU) memory."""
        return self._copy_to("/device:CPU:0")

    def gpu(self, index: int = 0) -> "Tensor":
        """Copy this tensor to GPU memory (paper Listing 4)."""
        return self._copy_to(f"/device:GPU:{index}")

    # -- Python protocol --------------------------------------------------------
    def __len__(self) -> int:
        if self._array.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self._array.shape[0]

    def __iter__(self):
        if self._array.ndim == 0:
            raise TypeError("Cannot iterate over a 0-d tensor")
        for i in range(self._array.shape[0]):
            yield self[i]

    def __bool__(self) -> bool:
        if self._array.size != 1:
            raise InvalidArgumentError(
                "The truth value of a non-scalar tensor is ambiguous"
            )
        if context.current_graph() is not None:
            _warn_trace_specialization()
        return bool(self._array.reshape(())[()])

    def __float__(self) -> float:
        return float(self._array.reshape(())[()])

    def __int__(self) -> int:
        return int(self._array.reshape(())[()])

    def __index__(self) -> int:
        if not self._dtype.is_integer or self._array.size != 1:
            raise TypeError("Only scalar integer tensors can index")
        return int(self._array.reshape(())[()])

    def __repr__(self) -> str:
        if self._dtype in (dtypes.resource, dtypes.variant):
            return f"<repro.Tensor: dtype={self._dtype.name}, device={self.device!r}>"
        return (
            f"repro.Tensor(\n{np.array2string(self._array, separator=', ')}, "
            f"shape={tuple(self._array.shape)}, dtype={self._dtype.name})"
        )

    def __str__(self) -> str:
        return self.__repr__()


class LazyTensor(Tensor):
    """A tensor recorded — not yet executed — in a pending lazy trace.

    Lazy eager mode records ops into a
    :class:`~repro.runtime.lazy.LazyTrace` instead of running them and
    returns these: dtype and inferred shape are known at once, the
    buffer later.  The ``_array`` storage slot is a *forcing property*,
    so every code path that touches a tensor's buffer — ``.numpy()``,
    ``.item()``, ``bool()/float()/int()``, kernels consuming the
    tensor, cross-device copies — is a synchronization point with no
    change at the call site.  Forcing flushes the whole segment
    (``_trace``), which writes this tensor's outcome into it: the value,
    or the segment's one error (op name attached, original type
    preserved), which re-raises here.

    ``_ref`` is the tensor's ``("o", record, output)`` dataflow
    reference inside its trace.  The flush writes ``_value`` or
    ``_error`` first and clears ``_trace`` after: the GIL orders the
    stores, so an observer that reads a None ``_trace`` finds the
    outcome in place.
    """

    __slots__ = ("_ref", "_trace", "_shape", "_value", "_error")

    @classmethod
    def _recorded(cls, trace, ref: tuple, spec: "TensorSpec", device: Device):
        # Plain slot stores: one of these is built per recorded-op
        # output, and lazy mode only pays off while recording stays
        # cheaper than kernel dispatch.
        t = cls.__new__(cls)
        t._value = t._error = None
        t._ref = ref
        t._trace = trace
        t._dtype = spec.dtype
        t._shape = spec.shape  # TensorSpec.shape is a TensorShape
        t._device = device
        return t

    @property
    def _array(self) -> np.ndarray:
        value = self._value
        if value is None:
            trace = self._trace
            if trace is not None:
                trace.flush()  # idempotent, lock-serialized
            error = self._error
            if error is not None:
                error._repro_delivered = True  # type: ignore[attr-defined]
                raise error
            value = self._value
            if value is None:
                op = trace.records[self._ref[1]].op_name if trace else "?"
                raise InternalError(
                    f"Recorded op {op!r} was observed before its trace "
                    "flushed (flush-ordering bug)"
                )
        return value

    def _materialize(self) -> "LazyTensor":
        """Force the value to be resident (or raise its deferred error)."""
        self._array
        return self

    def is_ready(self) -> bool:
        """Whether the outcome is available without flushing."""
        return self._trace is None

    @property
    def shape(self) -> TensorShape:
        # Shape queries force only when inference left dynamic dims
        # (the "shape queries that need the value" sync point).
        if self._trace is not None and self._shape.is_fully_defined:
            return self._shape
        return TensorShape(self._array.shape)

    @property
    def constant_value(self):
        # While pending, report "not statically known" instead of
        # forcing a flush: shape inference consults constant_value on
        # the inputs of every recorded op, and materializing there
        # would defeat the recording entirely.
        if self._trace is not None:
            return None
        return Tensor.constant_value.fget(self)


class TensorSpec:
    """An abstract tensor type: dtype + (possibly partial) shape.

    Used for explicit input signatures (paper §4.6: "The user also has
    the option of specifying an input signature ... using only the
    shape and numeric type information").
    """

    __slots__ = ("shape", "dtype", "name")

    def __init__(self, shape, dtype=dtypes.float32, name: Optional[str] = None) -> None:
        # Shapes are immutable: an existing one is shared, not copied.
        self.shape = shape if type(shape) is TensorShape else TensorShape(shape)
        self.dtype = dtypes.as_dtype(dtype)
        self.name = name

    @property
    def constant_value(self):
        """Specs never carry a value; present for shape-inference duck typing."""
        return None

    @staticmethod
    def from_tensor(t: TensorBase, name: Optional[str] = None) -> "TensorSpec":
        return TensorSpec(t.shape, t.dtype, name=name)

    @property
    def is_fully_defined(self) -> bool:
        """True when the spec pins every dimension (an exact signature)."""
        return self.shape.is_fully_defined

    def relaxed(self) -> "TensorSpec":
        """This spec with all dimensions forgotten (rank and dtype kept)."""
        return TensorSpec(self.shape.relaxed(), self.dtype, self.name)

    def is_compatible_with(self, t) -> bool:
        if not isinstance(t, (TensorBase, TensorSpec)):
            return False
        return t.dtype == self.dtype and TensorShape(t.shape).is_subtype_of(self.shape)

    def most_general(self, other: "TensorSpec") -> "TensorSpec":
        if self.dtype != other.dtype:
            raise InvalidArgumentError("Cannot generalize specs of different dtypes")
        return TensorSpec(self.shape.most_general(other.shape), self.dtype, self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorSpec):
            return NotImplemented
        return self.shape == other.shape and self.dtype == other.dtype

    def __hash__(self) -> int:
        return hash((self.shape, self.dtype))

    def __repr__(self) -> str:
        return f"TensorSpec(shape={self.shape}, dtype={self.dtype.name})"


def _is_python_literal(value) -> bool:
    """True for Python numbers and (nested) lists/tuples of them."""
    if isinstance(value, np.ndarray) or isinstance(value, np.generic):
        return False
    if isinstance(value, (bool, int, float)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_python_literal(v) for v in value)
    return False


def convert_to_tensor(
    value,
    dtype: Optional[dtypes.DType] = None,
    device: Optional[Device] = None,
) -> TensorBase:
    """Convert ``value`` to a tensor, preserving symbolic tensors.

    Conversion of non-tensor values happens on the given (default: CPU)
    device.  A dtype mismatch on an existing tensor is an error rather
    than a silent cast, mirroring TF's strict promotion rules.
    """
    if isinstance(value, TensorBase):
        if dtype is not None and value.dtype != dtypes.as_dtype(dtype):
            raise InvalidArgumentError(
                f"Expected a tensor of dtype {dtypes.as_dtype(dtype)}, "
                f"got {value.dtype}"
            )
        return value
    # Variables convert by reading their value.
    read = getattr(value, "_as_tensor", None)
    if read is not None:
        return convert_to_tensor(read(), dtype=dtype, device=device)
    return Tensor(value, dtype=dtype, device=device)
