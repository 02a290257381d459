"""Gradient tapes (paper §4.2).

"The main user-visible concept in the gradient API is a tape.  If a
tape watches a value, operations taking this value as an input will be
recorded. ... Tapes are composable data structures: multiple tapes can
be active simultaneously, and higher-order gradients can [be] computed
by having one tape recording while another tape computes a gradient."

Recording is mode-agnostic: entries hold whatever tensors the executor
produced — concrete ones under imperative execution, symbolic ones
inside a trace — so the gradient computation (itself a composition of
primitive ops) can run eagerly or be staged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.framework import nest
from repro.framework.errors import FailedPreconditionError, InvalidArgumentError
from repro.framework import dtypes
from repro.runtime import records
from repro.tensor import Tensor, TensorBase

__all__ = ["GradientTape", "OpRecord"]


@dataclass
class OpRecord:
    """One recorded operation: what ran, on what, producing what."""

    op_name: str
    attrs: dict
    inputs: list
    outputs: list
    backward_function: Optional[Callable] = None


def _tensor_id(value) -> int:
    """Identity key for watching: variables key by their handle."""
    handle = getattr(value, "handle", None)
    if handle is not None and not isinstance(value, TensorBase):
        return id(handle)
    return id(value)


class GradientTape:
    """Records operations for reverse-mode differentiation.

    Args:
        persistent: allow multiple ``gradient()`` calls (default: the
            tape is consumed by its first use).
        watch_accessed_variables: automatically watch any variable read
            while the tape is active (paper Listing 2), so model code
            needs no explicit ``watch`` calls.
    """

    def __init__(
        self,
        persistent: bool = False,
        watch_accessed_variables: bool = True,
    ) -> None:
        self._persistent = persistent
        self._watch_accessed_variables = watch_accessed_variables
        self._watched: set[int] = set()
        self._records: list[OpRecord] = []
        self._watched_variables: dict[int, object] = {}
        self._recording = False
        self._paused = 0
        self._used = False

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "GradientTape":
        if self._recording:
            raise FailedPreconditionError("Tape is already recording")
        records.push_recorder(self)
        self._recording = True
        return self

    def __exit__(self, *exc_info) -> None:
        records.pop_recorder(self)
        self._recording = False

    # -- recorder protocol (called by the executor) ----------------------------
    def should_record(self, inputs: Sequence) -> bool:
        if self._paused:
            return False
        for t in inputs:
            if id(t) in self._watched:
                return True
            if (
                self._watch_accessed_variables
                and isinstance(t, TensorBase)
                and t.dtype == dtypes.resource
            ):
                return True
        return False

    def record(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        outputs: Sequence,
        backward_function: Optional[Callable] = None,
    ) -> None:
        if self._paused:
            return
        if op_name == "ReadVariableOp":
            self._note_variable_read(inputs[0])
        differentiable = [
            t for t in outputs if isinstance(t, TensorBase) and t.dtype.is_differentiable
        ]
        handles = [
            t
            for t in outputs
            if isinstance(t, TensorBase) and t.dtype in (dtypes.resource, dtypes.variant)
        ]
        if not differentiable and not handles:
            return
        self._records.append(
            OpRecord(op_name, attrs, list(inputs), list(outputs), backward_function)
        )
        for t in differentiable:
            self._watched.add(id(t))
        for t in handles:
            self._watched.add(id(t))

    def _note_variable_read(self, handle) -> None:
        self._watched.add(id(handle))
        var = None
        if isinstance(handle, Tensor) and handle.dtype == dtypes.resource:
            var = handle.resource_value()
        if var is not None:
            self._watched_variables[id(handle)] = var

    # -- user API ------------------------------------------------------------
    def watch(self, value) -> None:
        """Start tracking ``value`` (a tensor or variable) on this tape."""
        if not isinstance(value, TensorBase) and not hasattr(value, "handle"):
            raise InvalidArgumentError(f"Cannot watch non-tensor value {value!r}")
        self._watched.add(_tensor_id(value))
        handle = getattr(value, "handle", None)
        if handle is not None and not isinstance(value, TensorBase):
            self._watched_variables[id(handle)] = value

    def watched_variables(self) -> list:
        """Variables the tape is watching, in first-read order."""
        return list(self._watched_variables.values())

    class _StopRecording:
        def __init__(self, tape: "GradientTape") -> None:
            self._tape = tape

        def __enter__(self):
            self._tape._paused += 1
            return self

        def __exit__(self, *exc_info) -> None:
            self._tape._paused -= 1

    def stop_recording(self):
        """Context manager suspending recording on this tape only."""
        return GradientTape._StopRecording(self)

    def reset(self) -> None:
        """Discard everything recorded so far."""
        self._records.clear()
        self._watched.clear()
        self._watched_variables.clear()
        self._used = False

    def gradient(
        self,
        target,
        sources,
        output_gradients=None,
        unconnected_gradients: str = "none",
    ):
        """Differentiate ``target`` with respect to ``sources``.

        Both arguments may be arbitrary nests of tensors/variables; the
        result matches the structure of ``sources``.  May be called
        while the tape is still recording (the computation pauses this
        tape but is visible to *outer* tapes, enabling higher-order
        gradients — paper Listing 1).
        """
        if self._used and not self._persistent:
            raise FailedPreconditionError(
                "A non-persistent GradientTape can only be used to compute "
                "one set of gradients; create it with persistent=True"
            )
        self._used = True
        from repro.core import backprop

        target_flat = [t for t in nest.flatten(target)]
        if output_gradients is None:
            out_grads_flat = [None] * len(target_flat)
        else:
            out_grads_flat = list(nest.flatten(output_gradients))
            if len(out_grads_flat) != len(target_flat):
                raise InvalidArgumentError(
                    "output_gradients must match the structure of target"
                )
        source_flat = nest.flatten(sources)
        # Gradient computation is a synchronization point of lazy eager
        # mode: the forward ops this tape recorded may still be pending
        # in an unflushed lazy trace, and a deferred forward error must
        # surface here rather than mid-backward-sweep.
        from repro.runtime.context import context as _runtime_context

        if _runtime_context.executor_mode != "sync" and _runtime_context.executing_eagerly():
            _runtime_context.sync()
        with self.stop_recording():
            result_flat = backprop.imperative_grad(
                self._records,
                target_flat,
                source_flat,
                out_grads_flat,
                unconnected_gradients=unconnected_gradients,
            )
        if not self._persistent:
            self._records = []
            self._watched = set()
        return nest.pack_sequence_as(sources, result_flat)

    def jacobian(self, target, source):
        """Dense Jacobian of a vector ``target`` w.r.t. ``source``.

        Computed row by row with repeated backward passes (requires a
        persistent tape).
        """
        from repro.ops import array_ops

        if not self._persistent:
            raise FailedPreconditionError("jacobian() requires a persistent tape")
        n = target.shape.num_elements()
        if n is None:
            raise InvalidArgumentError("jacobian() requires a static target shape")
        flat_target = target if target.shape.rank == 1 else None
        rows = []
        import numpy as np

        for i in range(n):
            seed = np.zeros(n, dtype=target.dtype.as_numpy_dtype)
            seed[i] = 1.0
            seed_t = array_ops.constant(seed.reshape(tuple(target.shape.as_list())))
            rows.append(self.gradient(target, source, output_gradients=seed_t))
        return array_ops.stack(rows, axis=0)
