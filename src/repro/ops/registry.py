"""Registries for operations, kernels, and gradients.

"An operation is a primitive, possibly stateful function that takes
tensors as inputs and produces tensors as outputs; a kernel is a
device-specific implementation of an operation" (paper §4).

Three registries implement that split:

* :class:`OpDef` / :func:`register_op` — the device-independent
  definition: statefulness (which gates constant folding and common
  subexpression elimination), a shape/dtype inference function used
  when the op is *staged* into a graph, and the op's *traits* — the
  classification the graph passes, lazy recording and the cost model
  read instead of keeping lists of op names.
* :func:`register_kernel` — device-specific implementations, keyed by
  ``(op name, device type)``.  CPU and the simulated GPU share NumPy
  kernels; the TPU has none (it only runs XLA-compiled programs).
* :func:`register_gradient` — the reverse-mode rule for each op,
  consumed by the tape machinery (§4.2).  Gradient functions are
  themselves compositions of primitive ops, so "it is possible to
  stage [gradient computation] or not".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.framework.errors import (
    AlreadyExistsError,
    InvalidArgumentError,
    NotFoundError,
)

__all__ = [
    "ELEMENTWISE",
    "REDUCTION",
    "SHAPE_PURE",
    "ALIASES_INPUT",
    "OpDef",
    "ops_with_trait",
    "register_op",
    "get_op_def",
    "register_kernel",
    "unregister_kernel",
    "get_kernel",
    "has_kernel",
    "resolve_kernel",
    "add_kernel_registration_listener",
    "register_gradient",
    "get_gradient_function",
    "has_gradient",
    "register_inplace_kernel",
    "get_inplace_kernel",
    "has_inplace_kernel",
    "list_ops",
]

# Op traits.  Each is declared once, at ``register_op(traits=...)``, and
# exists because some pass reads it (the op families in
# :mod:`repro.ops.common` attach them):
#
# * ``ELEMENTWISE`` — one output element per (broadcast) input position,
#   no reductions or data movement: the ``fuse`` pass's candidate set,
#   shape-pure for lazy recording, costed at one flop per output element.
# * ``REDUCTION`` — reduces its single input over ``axis``/``keepdims``
#   attrs: costed per input element.
# * ``SHAPE_PURE`` — output specs depend only on input dtypes/shapes, so
#   lazy recording may memoize inference (implied by ``ELEMENTWISE``).
# * ``ALIASES_INPUT`` — the kernel may return its input (or a view of it):
#   a fused region never donates such an output's buffer.
ELEMENTWISE = "elementwise"
REDUCTION = "reduction"
SHAPE_PURE = "shape_pure"
ALIASES_INPUT = "aliases_input"
_TRAITS = frozenset({ELEMENTWISE, REDUCTION, SHAPE_PURE, ALIASES_INPUT})

# infer_fn(input_specs: list[TensorSpec], attrs: dict) -> list[TensorSpec]
InferFn = Callable[[list, dict], list]
# kernel(inputs: list[np.ndarray], attrs: dict, device) -> list of outputs
KernelFn = Callable[..., object]
# gradient_fn(op_record, *output_grads) -> sequence of per-input grads
GradFn = Callable[..., Sequence]


@dataclass(frozen=True)
class OpDef:
    """Device-independent definition of a primitive operation."""

    name: str
    infer_fn: Optional[InferFn] = None
    is_stateful: bool = False
    # Ops that must never be pruned even if their outputs are unused
    # (e.g. variable assignment, save/restore, prints).
    has_side_effects: bool = False
    # Optional constant propagation: value_fn(inputs, attrs) -> list of
    # numpy arrays (or None per output) computed from statically-known
    # input values.  Lets shape inference see through Shape/Size/Rank.
    value_fn: Optional[Callable] = None
    traits: frozenset = frozenset()

    def infer(self, input_specs: list, attrs: dict) -> list:
        if self.infer_fn is None:
            raise NotFoundError(
                f"Operation {self.name!r} has no shape inference function and "
                "therefore cannot be staged into a graph"
            )
        return self.infer_fn(input_specs, attrs)


_OPS: dict[str, OpDef] = {}
_KERNELS: dict[tuple[str, str], KernelFn] = {}
_GRADIENTS: dict[str, GradFn] = {}

# Placement-aware kernel resolution is memoised here (and again, keyed
# by input signature, in the dispatch core); registering a new kernel
# invalidates both through the listener list.
_RESOLUTION_CACHE: dict[tuple[str, str, bool], KernelFn] = {}
_KERNEL_LISTENERS: list[Callable[[], None]] = []


def add_kernel_registration_listener(listener: Callable[[], None]) -> None:
    """Call ``listener`` whenever a new kernel is registered.

    Used by caches layered above the registry (the dispatch core's
    per-signature kernel cache) to invalidate themselves instead of
    re-checking the registry on every op.
    """
    _KERNEL_LISTENERS.append(listener)


def _notify_kernel_registration() -> None:
    _RESOLUTION_CACHE.clear()
    for listener in _KERNEL_LISTENERS:
        listener()


def register_op(
    name: str,
    infer_fn: Optional[InferFn] = None,
    is_stateful: bool = False,
    has_side_effects: bool = False,
    value_fn: Optional[Callable] = None,
    traits: Sequence[str] = (),
) -> OpDef:
    """Register an operation definition.  Returns the OpDef."""
    if name in _OPS:
        raise AlreadyExistsError(f"Operation {name!r} is already registered")
    unknown = set(traits) - _TRAITS
    if unknown:
        raise InvalidArgumentError(
            f"Operation {name!r}: unknown traits {sorted(unknown)}"
        )
    op = OpDef(
        name=name,
        infer_fn=infer_fn,
        is_stateful=is_stateful,
        has_side_effects=has_side_effects,
        value_fn=value_fn,
        traits=frozenset(traits),
    )
    _OPS[name] = op
    return op


def get_op_def(name: str) -> OpDef:
    try:
        return _OPS[name]
    except KeyError:
        raise NotFoundError(f"Unknown operation: {name!r}") from None


def list_ops() -> list[str]:
    return sorted(_OPS)


def ops_with_trait(trait: str) -> list[str]:
    """Names of the registered ops carrying ``trait``, sorted."""
    return sorted(name for name, op in _OPS.items() if trait in op.traits)


def register_kernel(op_name: str, device_types: Sequence[str] = ("CPU", "GPU")):
    """Decorator registering ``fn`` as the kernel for op on device types.

    A kernel ``fn(arrays, attrs, device)`` returns an op's single output
    bare, several outputs as a sequence, and no output as None or an
    empty sequence; the graph executor's printed statements rely on it.
    """

    def decorator(fn: KernelFn) -> KernelFn:
        for device_type in device_types:
            key = (op_name, device_type.upper())
            if key in _KERNELS:
                raise AlreadyExistsError(f"Kernel already registered for {key}")
            _KERNELS[key] = fn
        _notify_kernel_registration()
        return fn

    return decorator


def unregister_kernel(
    op_name: str, device_types: Sequence[str] = ("CPU", "GPU")
) -> None:
    """Remove a kernel registration (test ops use this to clean up)."""
    for device_type in device_types:
        _KERNELS.pop((op_name, device_type.upper()), None)
    _notify_kernel_registration()


def get_kernel(op_name: str, device_type: str) -> KernelFn:
    """Exact-key kernel lookup (no placement fallback)."""
    try:
        return _KERNELS[(op_name, device_type.upper())]
    except KeyError:
        raise NotFoundError(
            f"No kernel registered for operation {op_name!r} on device type "
            f"{device_type!r}"
        ) from None


def has_kernel(op_name: str, device_type: str) -> bool:
    return (op_name, device_type.upper()) in _KERNELS


def resolve_kernel(
    op_name: str, device_type: str, allow_soft_placement: bool = True
) -> KernelFn:
    """Placement-aware kernel resolution (the cacheable dispatch API).

    Returns the kernel registered for ``(op_name, device_type)``, else —
    under soft placement, as in TF — the op's CPU kernel.  Successful
    resolutions are memoised until the next kernel registration, so the
    dispatch hot path is a dict hit rather than repeated probing.
    """
    device_type = device_type.upper()
    key = (op_name, device_type, allow_soft_placement)
    kernel = _RESOLUTION_CACHE.get(key)
    if kernel is not None:
        return kernel
    kernel = _KERNELS.get((op_name, device_type))
    if kernel is None and allow_soft_placement and device_type != "CPU":
        kernel = _KERNELS.get((op_name, "CPU"))
    if kernel is None:
        raise NotFoundError(
            f"No kernel for operation {op_name!r} on device type "
            f"{device_type!r}"
        )
    _RESOLUTION_CACHE[key] = kernel
    return kernel


# In-place kernel variants, keyed by op name.  An in-place kernel has
# the signature ``fn(inputs, attrs, device, out) -> np.ndarray`` and
# writes its result into ``out`` (one of the input buffers, donated by
# the executor's memory plan when its refcount hits zero).  Only ops
# whose normal kernels always allocate a *fresh* output may register
# one — the presence of an entry doubles as the planner's "this op's
# output never aliases an input" predicate.
_INPLACE_KERNELS: dict[str, KernelFn] = {}


def register_inplace_kernel(op_name: str):
    """Decorator registering an in-place (buffer-donating) kernel variant."""

    def decorator(fn: KernelFn) -> KernelFn:
        if op_name in _INPLACE_KERNELS:
            raise AlreadyExistsError(
                f"In-place kernel already registered for {op_name!r}"
            )
        _INPLACE_KERNELS[op_name] = fn
        return fn

    return decorator


def get_inplace_kernel(op_name: str) -> Optional[KernelFn]:
    """The in-place kernel variant for ``op_name``, or None."""
    return _INPLACE_KERNELS.get(op_name)


def has_inplace_kernel(op_name: str) -> bool:
    return op_name in _INPLACE_KERNELS


def register_gradient(op_name: str):
    """Decorator registering the reverse-mode gradient for an op."""

    def decorator(fn: GradFn) -> GradFn:
        if op_name in _GRADIENTS:
            raise AlreadyExistsError(f"Gradient already registered for {op_name!r}")
        _GRADIENTS[op_name] = fn
        return fn

    return decorator


def get_gradient_function(op_name: str) -> GradFn:
    try:
        return _GRADIENTS[op_name]
    except KeyError:
        raise NotFoundError(
            f"Operation {op_name!r} has no registered gradient"
        ) from None


def has_gradient(op_name: str) -> bool:
    return op_name in _GRADIENTS
