"""The imperative entry point into the unified dispatch core.

Every library function — ``repro.matmul``, operator overloads, gradient
rules, optimizer updates — funnels through :func:`execute`.  The
function inspects the runtime context and either

* **stages** the operation into the innermost graph-building context,
  returning symbolic tensors (paper §4.1: "in a graph-building context,
  operations return symbolic representations of values to be computed
  instead of concrete values"), or
* **runs** it under one of the two eager policies selected by
  ``context.executor_mode``:

  - ``sync`` — :meth:`DispatchCore.dispatch`: resolve placement, run
    the kernel on the calling thread, return concrete tensors.
  - ``lazy`` — :func:`repro.runtime.lazy.submit`: record into a pending
    :class:`~repro.runtime.lazy.LazyTrace`, return pending
    :class:`~repro.tensor.LazyTensor` outputs; at a sync point the
    whole segment is compiled through the staged pipeline and run as
    one fused, memory-planned graph.

There is deliberately no kernel lookup or device probing here: the
paper's claim that imperative and staged execution "use the same APIs
and kernels" (§4.1) holds because both policies bottom out in the same
:data:`repro.runtime.dispatch.core`.  Cross-cutting concerns hook in as
interceptors (see the :mod:`repro.runtime.dispatch` docstring), not as
special cases in this file; the one exception is gradient tapes: after
whichever branch ran, every op is offered to this thread's active
recorders by one direct :func:`repro.runtime.records.record_operation`
call.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.runtime import records
from repro.runtime.context import context
from repro.runtime.dispatch import core

__all__ = ["execute"]

# :mod:`repro.runtime.lazy`, bound by the first lazy op: it pulls in the
# staged-compilation stack, which must not be a hard import dependency
# of the runtime package.
_lazy = None
_local = context._local  # this thread's device and graph stacks
_recorders = records.stack  # this thread's active gradient tapes


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
    global _lazy
    attrs = attrs or {}

    graph = context.current_graph() if _local.graph_stack else None
    if graph is not None:
        outputs = graph.add_operation(op_name, inputs, attrs, name=name)
    elif context._executor_mode == "sync":
        outputs = core.dispatch(op_name, inputs, attrs)
    else:
        if _lazy is None:
            from repro.runtime import lazy as _lazy
        outputs = _lazy.submit(op_name, inputs, attrs)
    if _recorders.recorders:  # a tape or accumulator is active
        records.record_operation(op_name, attrs, inputs, outputs)
    if graph is not None:
        core.notify_staged(op_name, attrs, inputs, outputs)
    return outputs[0] if len(outputs) == 1 else tuple(outputs)
