"""Data types for tensors.

Tensors are *typed* multi-dimensional arrays (paper §4, "Terminology").
Each :class:`DType` wraps a NumPy dtype and adds the metadata the rest
of the system needs: whether the type participates in gradient
computation (only floating types do), and how Python scalars promote
when they meet tensors.

The promotion rules are deliberately conservative, mirroring
TensorFlow's: two tensors must agree exactly on dtype (no silent
float32 + float64 upcast), while weakly-typed Python scalars adopt the
dtype of the tensor they are combined with.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DType",
    "float16",
    "float32",
    "float64",
    "int8",
    "int16",
    "int32",
    "int64",
    "uint8",
    "bool_",
    "complex64",
    "complex128",
    "as_dtype",
    "result_type",
]


class DType:
    """A tensor element type.

    Instances are interned: there is exactly one ``DType`` per name, so
    identity comparison (``is``) and equality coincide.
    """

    _registry: dict[str, "DType"] = {}

    def __init__(self, name: str, np_dtype: np.dtype) -> None:
        if name in DType._registry:
            raise ValueError(f"Duplicate dtype registration: {name!r}")
        self._name = name
        self._np_dtype = np.dtype(np_dtype)
        # Instances are interned, so type classification is computed once
        # here and stored as plain attributes: ``dtype.is_floating`` sits
        # on the operator-dispatch hot path (scalar operand promotion),
        # where a per-access ``np.issubdtype`` probe is measurable.
        self.is_floating = bool(np.issubdtype(self._np_dtype, np.floating))
        self.is_complex = bool(
            np.issubdtype(self._np_dtype, np.complexfloating)
        )
        self.is_integer = bool(np.issubdtype(self._np_dtype, np.integer))
        self.is_bool = self._np_dtype == np.bool_
        #: Whether gradients may flow through tensors of this type.
        self.is_differentiable = self.is_floating or self.is_complex
        #: Size in bytes of one element.
        self.size = int(self._np_dtype.itemsize)
        DType._registry[name] = self

    @property
    def name(self) -> str:
        return self._name

    @property
    def as_numpy_dtype(self) -> np.dtype:
        return self._np_dtype

    @property
    def min(self):
        if self.is_bool:
            return False
        if self.is_floating:
            return float(np.finfo(self._np_dtype).min)
        return int(np.iinfo(self._np_dtype).min)

    @property
    def max(self):
        if self.is_bool:
            return True
        if self.is_floating:
            return float(np.finfo(self._np_dtype).max)
        return int(np.iinfo(self._np_dtype).max)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DType):
            return self._name == other._name
        try:
            return self._np_dtype == np.dtype(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(self._name)

    def __reduce__(self):
        # DTypes are interned singletons compared by identity in hot
        # paths; pickling and deepcopy must rehydrate to the interned
        # instance, not a copy.
        return (as_dtype, (self._name,))

    def __repr__(self) -> str:
        return f"repro.{self._name}"

    def __str__(self) -> str:
        return self._name


float16 = DType("float16", np.float16)
float32 = DType("float32", np.float32)
float64 = DType("float64", np.float64)
int8 = DType("int8", np.int8)
int16 = DType("int16", np.int16)
int32 = DType("int32", np.int32)
int64 = DType("int64", np.int64)
uint8 = DType("uint8", np.uint8)
bool_ = DType("bool", np.bool_)
complex64 = DType("complex64", np.complex64)
complex128 = DType("complex128", np.complex128)

_NP_TO_DTYPE = {d.as_numpy_dtype: d for d in DType._registry.values()}

# Opaque handle types. Declared *after* _NP_TO_DTYPE so NumPy object
# arrays never silently convert to them: `resource` tensors (variable
# handles, §4.3) and `variant` tensors (tensor lists backing while-loop
# gradients) are only created deliberately by the runtime.
resource = DType("resource", np.object_)
variant = DType("variant", np.dtype(object))


def as_dtype(value) -> DType:
    """Convert ``value`` (DType, numpy dtype, str, or Python type) to a DType."""
    if isinstance(value, DType):
        return value
    if isinstance(value, str) and value in DType._registry:
        return DType._registry[value]
    if value is float:
        return float32
    if value is int:
        return int32
    if value is bool:
        return bool_
    if value is complex:
        return complex64
    try:
        np_dtype = np.dtype(value)
    except TypeError as exc:
        raise TypeError(f"Cannot convert {value!r} to a repro DType") from exc
    if np_dtype in _NP_TO_DTYPE:
        return _NP_TO_DTYPE[np_dtype]
    raise TypeError(f"NumPy dtype {np_dtype} has no corresponding repro DType")


def default_float() -> DType:
    """The dtype inferred for Python floats (matches TF: float32)."""
    return float32


def default_int() -> DType:
    """The dtype inferred for Python ints (matches TF: int32)."""
    return int32


def result_type(a: DType, b: DType) -> DType:
    """Binary-op result dtype.

    Strict: mixed tensor dtypes are an error, surfaced by the caller.
    ``result_type`` itself only answers the question for *equal* types
    or for the weak-scalar promotions handled in Tensor conversion.
    """
    if a == b:
        return a
    raise TypeError(
        f"Incompatible dtypes {a} and {b}: repro does not implicitly promote "
        "tensor dtypes; cast explicitly with repro.cast()."
    )
