"""The tape-recording hook between the dispatch core and autodiff.

The runtime must notify active gradient tapes (paper §4.2) about every
operation it runs, but the runtime layer cannot import the autodiff
layer without creating a cycle.  This module holds the thread-local
stack of *recorders* — duck-typed objects exposing
``should_record(inputs)`` and ``record(...)`` — that
:mod:`repro.core.tape` pushes and pops.

Recording integrates with execution as a dispatch **interceptor**
(:class:`repro.runtime.dispatch.OpInterceptor`): while at least one
recorder exists anywhere in the process, a single records interceptor
is registered with the dispatch core and forwards each eager op
(``on_complete``) and each staged op (``on_staged``) to
:func:`record_operation`.  When no recorder exists the interceptor is
unregistered, so tape-free programs pay nothing for this hook.

Recording is mode-agnostic: tapes see concrete tensors when executing
eagerly and symbolic tensors when an op runs inside a graph-building
context, which is what lets gradient computation itself be staged.
"""

from __future__ import annotations

import threading
from typing import Sequence

from repro.runtime import dispatch

__all__ = [
    "push_recorder",
    "pop_recorder",
    "active_recorders",
    "record_operation",
    "could_record",
    "stop_recording",
]


class _RecorderStack(threading.local):
    def __init__(self) -> None:
        self.recorders: list = []
        self.stopped_depth: int = 0


_stack = _RecorderStack()


class _RecordsInterceptor(dispatch.OpInterceptor):
    """Offers executed and staged ops to the active gradient tapes."""

    name = "records"
    modes = (dispatch.EAGER, dispatch.STAGE)

    def on_complete(self, op_name, attrs, inputs, outputs, device, token) -> None:
        record_operation(op_name, attrs, inputs, outputs)

    def on_staged(self, op_name, attrs, inputs, outputs) -> None:
        record_operation(op_name, attrs, inputs, outputs)


_interceptor = _RecordsInterceptor()
_count_lock = threading.Lock()
_total_recorders = 0  # across all threads; guards interceptor registration


def push_recorder(recorder) -> None:
    global _total_recorders
    _stack.recorders.append(recorder)
    with _count_lock:
        _total_recorders += 1
        if _total_recorders == 1:
            dispatch.core.register_interceptor(_interceptor)


def pop_recorder(recorder) -> None:
    global _total_recorders
    if not _stack.recorders or _stack.recorders[-1] is not recorder:
        raise RuntimeError("Recorder stack corrupted: popping a non-top recorder")
    _stack.recorders.pop()
    with _count_lock:
        _total_recorders -= 1
        if _total_recorders == 0:
            dispatch.core.unregister_interceptor(_interceptor)


def active_recorders() -> list:
    if _stack.stopped_depth > 0:
        return []
    return list(_stack.recorders)


def could_record(inputs: Sequence) -> bool:
    """Cheap check: is any active recorder interested in these inputs?"""
    if _stack.stopped_depth > 0 or not _stack.recorders:
        return False
    return any(r.should_record(inputs) for r in _stack.recorders)


def record_operation(
    op_name: str,
    attrs: dict,
    inputs: Sequence,
    outputs: Sequence,
    backward_function=None,
) -> None:
    """Offer an executed operation to every active tape."""
    if _stack.stopped_depth > 0:
        return
    for recorder in _stack.recorders:
        if recorder.should_record(inputs):
            recorder.record(op_name, attrs, inputs, outputs, backward_function)


class stop_recording:
    """Context manager suspending all tape recording (``tape.stop_recording``)."""

    def __enter__(self) -> "stop_recording":
        _stack.stopped_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        _stack.stopped_depth -= 1


class suspend:
    """Hide the *currently active* recorders for the duration of a block.

    Unlike :class:`stop_recording`, recorders pushed *inside* the block
    (e.g. the inner tape a ``py_func`` kernel opens) still work.  The
    polymorphic function wrapper uses this while executing a forward
    graph function so that only its hand-crafted tape entry — with the
    staged backward attached — is recorded, not the raw call op.
    """

    def __enter__(self) -> "suspend":
        self._saved = _stack.recorders
        _stack.recorders = []
        return self

    def __exit__(self, *exc_info) -> None:
        if _stack.recorders:
            raise RuntimeError(
                "Recorder stack not balanced inside records.suspend()"
            )
        _stack.recorders = self._saved
