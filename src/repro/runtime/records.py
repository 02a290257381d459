"""The tape-recording hook between the dispatch core and autodiff.

The runtime must notify active gradient tapes (paper §4.2) about every
operation it runs, but the runtime layer cannot import the autodiff
layer without creating a cycle.  This module holds the thread-local
stack of *recorders* that :mod:`repro.core.tape` pushes and pops.  A
recorder is duck-typed:

* ``record(op_name, attrs, inputs, outputs, backward_function)`` is
  offered every operation and records it only if it watches one of the
  inputs — the interest test and the record are one call, one pass;
* ``should_record(inputs)`` answers the interest test alone, for
  callers that choose a path by it (:func:`could_record`).

Recording is a direct call, not a dispatch interceptor:
:func:`repro.runtime.executor.execute` calls :func:`record_operation`
once per op — after staging it, dispatching it or submitting it to the
lazy trace — when this thread's stack (``stack.recorders``) is
non-empty, so tape-free programs pay one emptiness check per op.

Recording is mode-agnostic: tapes see concrete tensors when executing
eagerly and symbolic tensors when an op runs inside a graph-building
context, which is what lets gradient computation itself be staged.
"""

from __future__ import annotations

import threading
from typing import Sequence

__all__ = [
    "push_recorder",
    "pop_recorder",
    "active_recorders",
    "record_operation",
    "could_record",
    "stop_recording",
    "stack",
]


class _RecorderStack(threading.local):
    def __init__(self) -> None:
        self.recorders: list = []
        self.stopped_depth: int = 0


stack = _RecorderStack()
"""This thread's recorders (``stack.recorders``, innermost last)."""


def push_recorder(recorder) -> None:
    stack.recorders.append(recorder)


def pop_recorder(recorder) -> None:
    if not stack.recorders or stack.recorders[-1] is not recorder:
        raise RuntimeError("Recorder stack corrupted: popping a non-top recorder")
    stack.recorders.pop()


def active_recorders() -> list:
    if stack.stopped_depth > 0:
        return []
    return list(stack.recorders)


def could_record(inputs: Sequence) -> bool:
    """Cheap check: is any active recorder interested in these inputs?"""
    if stack.stopped_depth > 0 or not stack.recorders:
        return False
    return any(r.should_record(inputs) for r in stack.recorders)


def record_operation(
    op_name: str,
    attrs: dict,
    inputs: Sequence,
    outputs: Sequence,
    backward_function=None,
) -> None:
    """Offer an executed operation to every active tape."""
    if stack.stopped_depth > 0:
        return
    for recorder in stack.recorders:
        recorder.record(op_name, attrs, inputs, outputs, backward_function)


class stop_recording:
    """Context manager suspending all tape recording (``tape.stop_recording``)."""

    def __enter__(self) -> "stop_recording":
        stack.stopped_depth += 1
        return self

    def __exit__(self, *exc_info) -> None:
        stack.stopped_depth -= 1


class suspend:
    """Hide the *currently active* recorders for the duration of a block.

    Unlike :class:`stop_recording`, recorders pushed *inside* the block
    (e.g. the inner tape a ``py_func`` kernel opens) still work.  The
    polymorphic function wrapper uses this while executing a forward
    graph function so that only its hand-crafted tape entry — with the
    staged backward attached — is recorded, not the raw call op.
    """

    def __enter__(self) -> "suspend":
        self._saved = stack.recorders
        stack.recorders = []
        return self

    def __exit__(self, *exc_info) -> None:
        if stack.recorders:
            raise RuntimeError(
                "Recorder stack not balanced inside records.suspend()"
            )
        stack.recorders = self._saved
