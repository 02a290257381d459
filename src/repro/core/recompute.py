"""Gradient checkpointing (rematerialization).

``recompute_grad(f)`` trades compute for peak memory: the wrapped
function's intermediates are *not* saved for the backward pass.  Only
the segment's boundary values (its inputs, and the variables it reads)
stay live; the backward pass re-runs the forward segment to regenerate
what the gradient rules need, then sweeps it.

Two regimes, matching the library's two stages:

* **Imperative (sync/lazy eager):** the forward runs with all
  recorders suspended, so the tape holds a single ``RecomputeGrad``
  entry — boundary tensors only.  In lazy mode the dropped
  intermediates lose their last strong reference, so the flush planner
  dead-code-eliminates them from the segment's fetch set: checkpointing
  composes with implicit staging for free.  The backward function
  replays the Python callable under a fresh tape and sweeps it; replay
  ops are visible to outer tapes, so higher-order gradients work.

* **Staged (inside a trace):** the segment is traced once into its own
  :class:`~repro.graph.function.GraphFunction` and staged as a single
  ``RecomputeCall`` node (stateful, so no optimization pass folds,
  merges, or prunes it).  Its gradient rule *inline-replays* the callee
  into the graph being built — under ``build_forward_backward`` that is
  the backward section, so only the call's inputs become checkpoint
  boundaries (extra forward outputs) and the memory planner's last-use
  analysis frees each rematerialized region as soon as its gradients
  are done.  Replayed nodes carry a ``_remat_scope`` attr so CSE
  dedups *within* a recomputed region but never merges it back into
  the forward section (which would silently undo the checkpoint).
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.framework import dtypes, nest
from repro.framework.errors import FailedPreconditionError, InvalidArgumentError
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.runtime import records
from repro.runtime.context import context
from repro.tensor import Tensor, TensorBase, TensorSpec

__all__ = ["recompute_grad"]

_SCOPE_COUNTER = itertools.count()


# ---------------------------------------------------------------------------
# The staged call op
# ---------------------------------------------------------------------------

def _recompute_call_infer(inputs, attrs):
    fn = attrs["f"]
    return [TensorSpec(spec.shape, spec.dtype) for spec in fn.output_specs]


# Stateful + side-effecting for the same reason PartitionedCall is, and
# additionally so no pass can elide the checkpoint boundary itself.
register_op(
    "RecomputeCall",
    infer_fn=_recompute_call_infer,
    is_stateful=True,
    has_side_effects=True,
)


@register_kernel("RecomputeCall", device_types=("CPU", "GPU"))
def _recompute_call_kernel(inputs, attrs, device):
    fn = attrs["f"]
    tensors = [
        Tensor._from_buffer(arr, spec.dtype, device)
        for arr, spec in zip(inputs, fn.input_specs)
    ]
    return list(fn.run(tensors))


def _inline_replay(fn, inputs, scope):
    """Re-stage (or re-run) ``fn``'s body in the *current* context.

    Unlike ``PartitionedCall``'s backward — which calls a separate
    staged function — checkpointing wants the recomputed nodes spliced
    directly into the graph under construction, so the memory planner
    sees their lifetimes.  When staging, every replayed node is tagged
    with the ``_remat_scope`` attr to keep CSE from merging it back
    into identical forward nodes.
    """
    from repro.runtime.executor import execute

    if len(inputs) != len(fn.inputs):
        raise InvalidArgumentError(
            f"Recompute replay of {fn.name!r} got {len(inputs)} inputs for "
            f"{len(fn.inputs)} placeholders"
        )
    staging = not context.executing_eagerly()
    mapping: dict[int, object] = {}
    for old, new in zip(fn.inputs, inputs):
        mapping[id(old)] = new
    for node in fn.graph.nodes:
        if node.op_name == "Placeholder":
            if id(node.outputs[0]) not in mapping:
                raise FailedPreconditionError(
                    f"Recompute replay of {fn.name!r}: placeholder "
                    f"{node.name!r} is not bound to a call input"
                )
            continue
        node_inputs = [mapping[id(t)] for t in node.inputs]
        if node.op_name == "FusedElementwise":
            outs = node.attrs["region"].replay(node_inputs)
        else:
            attrs = node.attrs
            if staging:
                attrs = dict(attrs)
                attrs["_remat_scope"] = scope
            outs = execute(node.op_name, node_inputs, attrs)
        if not isinstance(outs, tuple):
            outs = (outs,) if outs is not None else ()
        for old, new in zip(node.outputs, outs):
            mapping[id(old)] = new
    return [mapping[id(t)] for t in fn.outputs]


@register_gradient("RecomputeCall")
def _recompute_call_grad(op, *grads):
    """Rematerialize the segment, then sweep it.

    Runs during backward construction (symbolically, into the graph
    being built) or during an eager sweep over a replayed graph; either
    way the recomputed nodes land *after* the forward section, so the
    only forward-section tensors the backward consumes are the call's
    own inputs — the checkpoint boundary.
    """
    from repro.core import backprop
    from repro.core.tape import GradientTape

    fn = op.attrs["f"]
    scope = f"{fn.name}#{next(_SCOPE_COUNTER)}"
    tape = GradientTape(persistent=True, watch_accessed_variables=False)
    with tape:
        for t in op.inputs:
            if isinstance(t, TensorBase):
                tape.watch(t)
        replay_outs = _inline_replay(fn, list(op.inputs), scope)
    targets, seeds = [], []
    for t, g in zip(replay_outs, grads):
        if g is not None:
            targets.append(t)
            seeds.append(g)
    if not targets:
        return [None] * len(op.inputs)
    return backprop.imperative_grad(
        tape._records, targets, list(op.inputs), seeds, sync=False
    )


# ---------------------------------------------------------------------------
# The user-facing transform
# ---------------------------------------------------------------------------

class _VariableWatcher:
    """A recorder that notes which variable handles a segment reads."""

    def __init__(self) -> None:
        self.handles: dict[int, TensorBase] = {}

    def __enter__(self) -> "_VariableWatcher":
        records.push_recorder(self)
        return self

    def __exit__(self, *exc_info) -> None:
        records.pop_recorder(self)

    def should_record(self, inputs) -> bool:
        return any(
            isinstance(t, TensorBase) and t.dtype == dtypes.resource for t in inputs
        )

    def record(self, op_name, attrs, inputs, outputs, backward_function=None) -> None:
        for t in inputs:
            if isinstance(t, TensorBase) and t.dtype == dtypes.resource:
                self.handles.setdefault(id(t), t)


def _split_tensors(args, kwargs):
    """Flatten the call structure, extracting tensor leaves.

    Returns (tensor leaves in flatten order, marked structure for
    re-binding placeholders at trace time).
    """
    from repro.core.tracing import TENSOR_MARKER

    template = (list(args), kwargs)
    flat = nest.flatten(template)
    tensors = [t for t in flat if isinstance(t, TensorBase)]
    marked = nest.pack_sequence_as(
        template,
        [TENSOR_MARKER if isinstance(t, TensorBase) else t for t in flat],
    )
    return tensors, (tuple(marked[0]), marked[1])


def _eager_checkpoint(f, args, kwargs):
    tensor_inputs, _ = _split_tensors(args, kwargs)
    watcher = _VariableWatcher()
    # Suspend every active recorder: the tape must not see (and thus
    # must not retain) the segment's intermediates.  The watcher is
    # pushed inside the suspension, so it alone observes the segment.
    with records.suspend():
        with watcher:
            outputs = f(*args, **kwargs)
    flat_outputs = [t for t in nest.flatten(outputs) if isinstance(t, TensorBase)]
    handles = list(watcher.handles.values())
    # Let watch_accessed_variables tapes mark the variables this segment
    # read — the record offer below only reaches tapes already watching
    # one of its inputs.
    for h in handles:
        records.record_operation("ReadVariableOp", {}, [h], [])
    all_inputs = list(tensor_inputs) + handles

    def backward(*out_grads):
        from repro.core import backprop
        from repro.core.tape import GradientTape

        tape = GradientTape(persistent=True, watch_accessed_variables=True)
        with tape:
            for t in tensor_inputs:
                tape.watch(t)
            replayed = f(*args, **kwargs)
        replay_flat = [
            t for t in nest.flatten(replayed) if isinstance(t, TensorBase)
        ]
        targets, seeds = [], []
        for t, g in zip(replay_flat, out_grads):
            if g is not None:
                targets.append(t)
                seeds.append(g)
        if not targets:
            return [None] * len(all_inputs)
        return backprop.imperative_grad(tape._records, targets, all_inputs, seeds)

    records.record_operation("RecomputeGrad", {}, all_inputs, flat_outputs, backward)
    return outputs


def _staged_checkpoint(f, args, kwargs):
    from repro.core.tracing import trace_into_graph
    from repro.graph.function import GraphFunction
    from repro.runtime.executor import execute

    tensor_inputs, marked = _split_tensors(args, kwargs)
    specs = [TensorSpec(t.shape, t.dtype) for t in tensor_inputs]
    seg_name = f"{getattr(f, '__name__', type(f).__name__)}_ckpt_{next(_SCOPE_COUNTER)}"
    graph, flat_outputs, structure = trace_into_graph(
        f, specs, name=seg_name, structured_args=marked
    )
    # Deliberately *not* optimized: the callee is a recipe for replay,
    # and the replayed nodes are optimized in whichever graph they are
    # spliced into.
    gf = GraphFunction(
        name=seg_name,
        graph=graph,
        inputs=list(graph.inputs) + list(graph.capture_placeholders),
        outputs=flat_outputs,
    )
    call_inputs = list(tensor_inputs) + list(graph.captured_externals)
    outs = execute("RecomputeCall", call_inputs, {"f": gf})
    if not isinstance(outs, tuple):
        outs = (outs,) if outs is not None else ()

    def unpack(index):
        return outs[index] if isinstance(index, int) else None

    return nest.map_structure(unpack, structure)


def recompute_grad(f: Callable) -> Callable:
    """Wrap ``f`` so its intermediates are recomputed, not stored.

    Under a gradient tape the wrapped call saves only its boundary
    (inputs and accessed variables); the backward pass re-runs ``f`` to
    rebuild intermediate activations.  Inside a staged trace the segment
    becomes a single ``RecomputeCall`` node whose gradient splices a
    tagged recompute subgraph into the backward function.  With the
    ``REPRO_RECOMPUTE=0`` knob (or ``context.recompute = False``) the
    wrapper is a no-op, which is the cheap way to A/B the memory/compute
    trade.

    Caveat: ``f`` runs once forward and once per backward sweep, so any
    side effects inside it (variable updates such as batch-norm moving
    statistics in training mode) execute more than once.
    """

    def wrapper(*args, **kwargs):
        if not context.recompute:
            return f(*args, **kwargs)
        if not context.executing_eagerly():
            return _staged_checkpoint(f, args, kwargs)
        if not records.active_recorders():
            return f(*args, **kwargs)
        return _eager_checkpoint(f, args, kwargs)

    wrapper.__name__ = getattr(f, "__name__", type(f).__name__) + "_recompute"
    wrapper.__doc__ = getattr(f, "__doc__", None)
    wrapper.__wrapped__ = f
    return wrapper
