"""Shape algebra with unknown dimensions.

Graph functions are traced with *abstract* tensor types (paper §4.6:
"tensors are represented as abstract types (numerical type and shape
tuples)").  An abstract shape may have unknown dimensions (``None``) or
be entirely unknown (unknown rank), so the shape class implements the
partial-order operations the tracer and shape-inference functions need:
compatibility, merging, broadcasting, and concatenation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from repro.framework.errors import InvalidArgumentError

__all__ = ["TensorShape", "as_shape", "broadcast_shapes"]

DimValue = Optional[int]


def _check_dim(dim) -> DimValue:
    if dim is None:
        return None
    dim = int(dim)
    if dim < 0:
        raise InvalidArgumentError(f"Shape dimensions must be >= 0, got {dim}")
    return dim


class TensorShape:
    """The (possibly partially known) shape of a tensor.

    ``TensorShape(None)`` is the unknown-rank shape; ``TensorShape([2,
    None])`` is rank 2 with an unknown second dimension.  Instances are
    immutable and hashable so they can key the trace cache.
    """

    __slots__ = ("_dims",)

    def __init__(self, dims: Union[None, int, Iterable] = None) -> None:
        if dims is None:
            self._dims: Optional[tuple[DimValue, ...]] = None
        elif isinstance(dims, TensorShape):
            self._dims = dims._dims
        elif isinstance(dims, (int,)):
            self._dims = (_check_dim(dims),)
        else:
            self._dims = tuple(_check_dim(d) for d in dims)

    @classmethod
    def _from_dims(cls, dims: Optional[tuple]) -> "TensorShape":
        """Wrap a dims tuple whose entries are already validated.

        The shape algebra below only ever recombines dims taken from
        existing shapes; re-validating them is most of what a shape
        costs during tracing.
        """
        self = object.__new__(cls)
        self._dims = dims
        return self

    # -- basic protocol ------------------------------------------------
    @property
    def rank(self) -> Optional[int]:
        return None if self._dims is None else len(self._dims)

    @property
    def dims(self) -> Optional[tuple[DimValue, ...]]:
        return self._dims

    def __len__(self) -> int:
        if self._dims is None:
            raise ValueError("Cannot take len() of a shape with unknown rank")
        return len(self._dims)

    def __iter__(self) -> Iterator[DimValue]:
        if self._dims is None:
            raise ValueError("Cannot iterate a shape with unknown rank")
        return iter(self._dims)

    def __getitem__(self, key):
        if self._dims is None:
            if isinstance(key, slice):
                return TensorShape(None)
            return None
        if isinstance(key, slice):
            return TensorShape._from_dims(self._dims[key])
        return self._dims[key]

    def __bool__(self) -> bool:
        return self._dims is not None

    # -- predicates ----------------------------------------------------
    @property
    def is_fully_defined(self) -> bool:
        return self._dims is not None and None not in self._dims

    def num_elements(self) -> Optional[int]:
        """Total element count, or None if not fully defined."""
        if not self.is_fully_defined:
            return None
        n = 1
        for d in self._dims:  # type: ignore[union-attr]
            n *= d  # type: ignore[operator]
        return n

    def is_compatible_with(self, other) -> bool:
        """True if some fully-defined shape satisfies both self and other."""
        other = as_shape(other)
        if self._dims is None or other._dims is None:
            return True
        if len(self._dims) != len(other._dims):
            return False
        return all(
            a is None or b is None or a == b
            for a, b in zip(self._dims, other._dims)
        )

    def is_subtype_of(self, other) -> bool:
        """True if every tensor with this shape also matches ``other``.

        Used by the trace cache: a concrete input shape is a subtype of
        the (possibly relaxed) shape recorded in a signature.
        """
        other = as_shape(other)
        if other._dims is None:
            return True
        if self._dims is None:
            return False
        if len(self._dims) != len(other._dims):
            return False
        return all(b is None or a == b for a, b in zip(self._dims, other._dims))

    # -- algebra ---------------------------------------------------------
    def merge_with(self, other) -> "TensorShape":
        """The most specific shape compatible with both, or raise."""
        other = as_shape(other)
        if self._dims is None:
            return other
        if other._dims is None:
            return self
        if len(self._dims) != len(other._dims):
            raise InvalidArgumentError(
                f"Shapes {self} and {other} have incompatible ranks"
            )
        merged = []
        for a, b in zip(self._dims, other._dims):
            if a is None:
                merged.append(b)
            elif b is None or a == b:
                merged.append(a)
            else:
                raise InvalidArgumentError(f"Shapes {self} and {other} are incompatible")
        return TensorShape._from_dims(tuple(merged))

    def most_general(self, other) -> "TensorShape":
        """The most specific shape that both shapes are subtypes of.

        This drives shape *relaxation* in the trace cache: repeated
        retraces with varying dimensions generalize toward None dims.
        """
        other = as_shape(other)
        if self._dims is None or other._dims is None:
            return TensorShape(None)
        if len(self._dims) != len(other._dims):
            return TensorShape(None)
        return TensorShape._from_dims(
            tuple(
                a if (a is not None and a == b) else None
                for a, b in zip(self._dims, other._dims)
            )
        )

    def concatenate(self, other) -> "TensorShape":
        other = as_shape(other)
        if self._dims is None or other._dims is None:
            return TensorShape(None)
        return TensorShape._from_dims(self._dims + other._dims)

    def as_list(self) -> list[DimValue]:
        if self._dims is None:
            raise ValueError("Cannot convert unknown-rank shape to a list")
        return list(self._dims)

    def as_tuple(self) -> tuple[DimValue, ...]:
        if self._dims is None:
            raise ValueError("Cannot convert unknown-rank shape to a tuple")
        return self._dims

    # -- hashing / equality ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(other) is TensorShape:
            return self._dims == other._dims
        try:
            other_shape = as_shape(other)  # type: ignore[arg-type]
        except TypeError:
            return NotImplemented
        return self._dims == other_shape._dims

    def __hash__(self) -> int:
        return hash(self._dims)

    def __repr__(self) -> str:
        if self._dims is None:
            return "TensorShape(None)"
        return f"TensorShape({list(self._dims)})"

    def __str__(self) -> str:
        if self._dims is None:
            return "<unknown>"
        return "(" + ", ".join("?" if d is None else str(d) for d in self._dims) + ")"

    def __add__(self, other) -> "TensorShape":
        return self.concatenate(other)


def as_shape(value) -> TensorShape:
    """Convert ``value`` to a TensorShape."""
    if isinstance(value, TensorShape):
        return value
    if value is None or isinstance(value, (int, tuple, list)):
        return TensorShape(value)
    if hasattr(value, "__iter__"):
        return TensorShape(value)
    raise TypeError(f"Cannot convert {value!r} to a TensorShape")


def broadcast_shapes(a, b) -> TensorShape:
    """NumPy-style broadcasting over partially-known shapes."""
    a, b = as_shape(a), as_shape(b)
    if a._dims is None or b._dims is None:
        return TensorShape(None)
    # Shapes are immutable, so the two commonest outcomes hand back an
    # operand: equal shapes, and a scalar against anything.
    if a._dims == b._dims or not b._dims:
        return a
    if not a._dims:
        return b
    ra, rb = list(a._dims), list(b._dims)
    # Left-pad the shorter shape with 1s.
    if len(ra) < len(rb):
        ra = [1] * (len(rb) - len(ra)) + ra
    else:
        rb = [1] * (len(ra) - len(rb)) + rb
    out: list[DimValue] = []
    for da, db in zip(ra, rb):
        if da == 1:
            out.append(db)
        elif db == 1:
            out.append(da)
        elif da is None or db is None:
            # One side may still turn out to be 1 at run time.
            if da is None and db is None:
                out.append(None)
            else:
                out.append(da if db is None else db)
        elif da == db:
            out.append(da)
        else:
            raise InvalidArgumentError(f"Shapes {a} and {b} are not broadcastable")
    return TensorShape._from_dims(tuple(out))
