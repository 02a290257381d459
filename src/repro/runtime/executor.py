"""The imperative entry point into the unified dispatch core.

Every library function — ``repro.matmul``, operator overloads, gradient
rules, optimizer updates — funnels through :func:`execute`.  The
function inspects the runtime context and either

* **stages** the operation into the innermost graph-building context,
  returning symbolic tensors (paper §4.1: "in a graph-building context,
  operations return symbolic representations of values to be computed
  instead of concrete values"), or
* **submits** it through the active :class:`SubmissionPolicy` — the one
  pluggable seam between "an eager op was requested" and "a kernel
  ran".  Three policies exist, selected by ``context.executor_mode``:

  - ``sync`` — :meth:`DispatchCore.dispatch`: resolve placement, run
    the kernel on the calling thread, return concrete tensors.
  - ``async`` — :meth:`DispatchCore.dispatch_async`: enqueue on the
    device's :class:`~repro.runtime.stream.ExecutionStream`, return
    pending :class:`~repro.tensor.AsyncTensor` outputs (§4.1, §4.4).
  - ``lazy`` — :func:`repro.runtime.lazy.submit`: record into a pending
    :class:`~repro.runtime.lazy.LazyTrace`, return pending
    :class:`~repro.tensor.LazyTensor` outputs; at a sync point the
    whole segment is compiled through the staged pipeline and run as
    one fused, memory-planned graph.

  All three share the pending-value protocol of
  :class:`~repro.tensor.PendingTensor` and the deferred-error contract
  of :mod:`repro.runtime.stream`: observation forces, errors keep their
  type, carry the originating op's name, and deliver exactly once.

There is deliberately no kernel lookup or device probing here: the
paper's claim that imperative and staged execution "use the same APIs
and kernels" (§4.1) holds because every policy bottoms out in the same
:data:`repro.runtime.dispatch.core`.  Cross-cutting concerns hook in as
interceptors (see the :mod:`repro.runtime.dispatch` docstring), not as
special cases in this file.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime.context import context
from repro.runtime.dispatch import core

__all__ = [
    "AsyncPolicy",
    "LazyPolicy",
    "SubmissionPolicy",
    "SyncPolicy",
    "execute",
    "get_policy",
]


class SubmissionPolicy:
    """How one eager op request becomes execution.

    A policy decides *when* the kernel runs relative to the Python
    thread; it never changes *what* runs (placement, kernels, and
    interceptors all live in the dispatch core).  Policies are
    stateless singletons — the per-mode state (streams, pending traces)
    lives in their backing modules.
    """

    #: The ``context.executor_mode`` value that selects this policy.
    name = "abstract"

    def submit(self, op_name: str, inputs: Sequence, attrs: dict) -> list:
        """Submit one op; returns its (possibly pending) output tensors."""
        raise NotImplementedError

    def sync(self) -> None:
        """Finish all deferred work, delivering any deferred error."""

    def drain(self) -> None:
        """Finish all deferred work *without* delivering errors."""


class SyncPolicy(SubmissionPolicy):
    """Kernel runs on the calling thread before ``submit`` returns."""

    name = "sync"

    def submit(self, op_name, inputs, attrs):
        return core.dispatch(op_name, inputs, attrs)


class AsyncPolicy(SubmissionPolicy):
    """Kernel runs on the device's stream worker; outputs are pending."""

    name = "async"

    def submit(self, op_name, inputs, attrs):
        return core.dispatch_async(op_name, inputs, attrs)

    def sync(self):
        from repro.runtime import stream

        stream.sync_all_streams()

    def drain(self):
        from repro.runtime import stream

        stream.drain_all_streams()


class LazyPolicy(SubmissionPolicy):
    """Op is recorded; kernels run (fused and planned) at a sync point.

    The lazy module is imported on first use: its machinery pulls in the
    staged-compilation stack, which must not be a hard import dependency
    of the runtime package.
    """

    name = "lazy"
    _lazy = None

    def _module(self):
        lazy = self._lazy
        if lazy is None:
            from repro.runtime import lazy

            LazyPolicy._lazy = lazy
        return LazyPolicy._lazy

    def submit(self, op_name, inputs, attrs):
        lazy = self._lazy
        if lazy is None:
            lazy = self._module()
        return lazy.submit(op_name, inputs, attrs)

    def sync(self):
        from repro.runtime import stream

        self._module().sync_lazy()
        stream.sync_all_streams()

    def drain(self):
        from repro.runtime import stream

        self._module().flush_all_pending()
        stream.drain_all_streams()


_POLICIES = {
    SyncPolicy.name: SyncPolicy(),
    AsyncPolicy.name: AsyncPolicy(),
    LazyPolicy.name: LazyPolicy(),
}


def get_policy(mode: Optional[str] = None) -> SubmissionPolicy:
    """The policy singleton for ``mode`` (default: the active mode)."""
    return _POLICIES[context._executor_mode if mode is None else mode]


def execute(
    op_name: str,
    inputs: Sequence,
    attrs: Optional[dict] = None,
    name: Optional[str] = None,
):
    """Build and run (or stage) one primitive operation.

    Args:
        op_name: registered operation name, e.g. ``"MatMul"``.
        inputs: tensors (concrete or symbolic).  Callers convert Python
            values beforehand; this function is the hot path and does
            no conversion of its own.
        attrs: static attributes baked into the operation.
        name: optional node name hint used when staging.

    Returns:
        A single tensor, or a tuple of tensors for multi-output ops
        (empty tuple for pure side-effect ops).
    """
    attrs = attrs or {}

    graph = context.current_graph()
    if graph is not None:
        outputs = graph.add_operation(op_name, inputs, attrs, name=name)
        core.notify_staged(op_name, attrs, inputs, outputs)
        return outputs[0] if len(outputs) == 1 else tuple(outputs)

    outputs = _POLICIES[context._executor_mode].submit(op_name, inputs, attrs)
    return outputs[0] if len(outputs) == 1 else tuple(outputs)
