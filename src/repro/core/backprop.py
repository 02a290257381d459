"""Reverse-mode automatic differentiation over tape records.

Two layers live here:

* :func:`imperative_grad` — the reverse sweep over a tape's recorded
  operations.  It executes gradient rules as ordinary primitive ops, so
  the computation it performs is itself recordable (higher-order
  gradients) and stageable (paper §4.2).

* The **staged forward/backward machinery** for graph functions.
  "The first time a graph function is called when a tape is both active
  and watching one of its inputs, we build a 'forward' version of this
  function that returns any intermediate values needed for the backward
  step, in addition to its named outputs" (§4.2).
  :func:`build_forward_backward` performs that construction by
  symbolically replaying the function's graph under a tape and
  splitting the result into a forward function (outputs + needed
  intermediates) and a backward graph function — so a staged forward
  pass implies a staged backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.framework import dtypes
from repro.framework.errors import InternalError, InvalidArgumentError, UnimplementedError
from repro.ops import registry
from repro.tensor import Tensor, TensorBase, TensorSpec
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import SymbolicTensor

__all__ = [
    "imperative_grad",
    "build_forward_backward",
    "graph_function_backward",
    "ForwardBackward",
]


def _tensor_id(value) -> int:
    handle = getattr(value, "handle", None)
    if handle is not None and not isinstance(value, TensorBase):
        return id(handle)
    return id(value)


def _ones_like(t):
    from repro.ops import array_ops

    return array_ops.ones_like(t)


def zero_seed(t):
    """A zero gradient seed matching ``t``: zeros, or an empty tensor
    list for variant-typed values (per-element gradients of lists)."""
    from repro.ops import array_ops, list_ops

    if isinstance(t, TensorBase) and t.dtype == dtypes.variant:
        return list_ops.empty_tensor_list()
    return array_ops.zeros_like(t)


def _zeros_for_source(source):
    from repro.ops import array_ops

    if isinstance(source, TensorBase):
        return array_ops.zeros_like(source)
    # A variable: zeros shaped like its value.
    read = getattr(source, "read_value", None)
    if read is not None:
        return array_ops.zeros_like(read())
    raise InvalidArgumentError(f"Cannot build zero gradient for {source!r}")


class _GradAccumulator:
    """Accumulates per-tensor adjoints, summing lazily with add_n."""

    def __init__(self) -> None:
        self._partials: dict[int, list] = {}

    def add(self, key: int, grad) -> None:
        self._partials.setdefault(key, []).append(grad)

    def get(self, key: int):
        parts = self._partials.get(key)
        if parts is None:
            return None
        if len(parts) > 1:
            from repro.ops import math_ops

            parts = [math_ops.add_n(parts)]
            self._partials[key] = parts
        return parts[0]


def imperative_grad(
    op_records: Sequence,
    targets: Sequence,
    sources: Sequence,
    output_gradients: Sequence,
    unconnected_gradients: str = "none",
    sync: bool = True,
) -> list:
    """Reverse sweep over recorded operations.

    Args:
        op_records: tape records in execution order.
        targets: tensors to differentiate (flat).
        sources: tensors/variables to differentiate with respect to (flat).
        output_gradients: seed gradients aligned with targets (None
            entries seed with ones).
        unconnected_gradients: "none" or "zero" for sources the targets
            do not depend on.

    Returns:
        One gradient (or None) per source.
    """
    if unconnected_gradients not in ("none", "zero"):
        raise InvalidArgumentError(
            f"unconnected_gradients must be 'none' or 'zero', got "
            f"{unconnected_gradients!r}"
        )
    # Async/lazy eager modes: the recorded forward ops may still be in
    # flight (or merely recorded).  Replay must not start until they
    # (and any deferred error) have landed — gradient computation is a
    # synchronization point.  Internal callers that sweep a short,
    # self-contained record list (the forward accumulator deriving a
    # JVP per op) opt out: forcing a lazy flush per recorded op would
    # shred pending traces into single-op segments.
    if sync:
        from repro.runtime.context import context as _runtime_context

        if _runtime_context.executor_mode != "sync" and _runtime_context.executing_eagerly():
            _runtime_context.sync()
    acc = _GradAccumulator()
    for target, seed in zip(targets, output_gradients):
        if target is None:
            continue
        if not isinstance(target, TensorBase):
            raise InvalidArgumentError(
                f"Gradient target must be a tensor, got {target!r}"
            )
        if not target.dtype.is_differentiable:
            # Variant targets (tensor lists) are legal when an explicit
            # list-valued seed is supplied (the While backward does this).
            if not (target.dtype == dtypes.variant and seed is not None):
                raise InvalidArgumentError(
                    f"Gradient target has non-differentiable dtype {target.dtype}"
                )
        acc.add(id(target), seed if seed is not None else _ones_like(target))

    for rec in reversed(op_records):
        out_grads = [
            acc.get(id(o)) if isinstance(o, TensorBase) else None for o in rec.outputs
        ]
        if not any(g is not None for g in out_grads):
            continue
        if rec.backward_function is not None:
            in_grads = rec.backward_function(*out_grads)
        else:
            if not registry.has_gradient(rec.op_name):
                raise UnimplementedError(
                    f"Operation {rec.op_name!r} has no registered gradient"
                )
            grad_fn = registry.get_gradient_function(rec.op_name)
            in_grads = grad_fn(rec, *out_grads)
        if len(in_grads) != len(rec.inputs):
            raise InternalError(
                f"Gradient of {rec.op_name!r} returned {len(in_grads)} values "
                f"for {len(rec.inputs)} inputs"
            )
        for inp, g in zip(rec.inputs, in_grads):
            if g is None or not isinstance(inp, TensorBase):
                continue
            acc.add(id(inp), g)

    results = []
    for source in sources:
        grad = acc.get(_tensor_id(source))
        if grad is None and unconnected_gradients == "zero":
            grad = _zeros_for_source(source)
        results.append(grad)
    return results


# ---------------------------------------------------------------------------
# Staged forward/backward construction
# ---------------------------------------------------------------------------

@dataclass
class ForwardBackward:
    """Forward-with-intermediates and backward functions for one callee.

    Attributes:
        forward_fn: returns the callee's outputs followed by the
            intermediate values the backward step needs.
        backward_fn: maps (intermediates..., output gradients for the
            differentiable outputs...) to gradients for the inputs that
            have one.
        num_outputs: arity of the original function.
        diff_output_indices: which outputs receive seed gradients.
        input_grad_mask: per original input, whether backward_fn
            produces a gradient for it (None inputs get None).
        boundary_indices: for each of backward_fn's leading inputs, the
            index into forward_fn's outputs holding its value.  A
            boundary tensor that is *also* a user output is not
            duplicated as an extra forward output — a duplicated slot
            would receive the incoming gradient twice and double the
            result — so the indices may point into the user outputs.
    """

    forward_fn: GraphFunction
    backward_fn: Optional[GraphFunction]
    num_outputs: int
    diff_output_indices: list[int]
    input_grad_mask: list[bool]
    boundary_indices: list[int]


def _replay(fn: GraphFunction, scratch, tape) -> tuple[list, dict, list]:
    """Re-execute fn's nodes symbolically into ``scratch`` under ``tape``.

    Thin wrapper over the shared :func:`repro.core.tracing.replay_into`
    (also used by the pipeline's shape-specialization stage) that
    watches every replayed input on the tape.

    Returns (new input placeholders, old->new tensor map, new outputs).
    """
    from repro.core.tracing import replay_into

    return replay_into(fn, scratch, on_input=tape.watch)


def _extract(nodes: Sequence, inputs: Sequence, outputs: Sequence, name: str) -> GraphFunction:
    """Copy a node span into a fresh graph, with ``inputs`` as placeholders."""
    from repro.core.tracing import FuncGraph
    from repro.runtime.executor import execute

    graph = FuncGraph(name=name)
    mapping: dict[int, object] = {}
    with graph.as_default():
        for i, t in enumerate(inputs):
            ph = graph.add_input(TensorSpec(t.shape, t.dtype), name=f"in_{i}")
            mapping[id(t)] = ph
        for node in nodes:
            if all(id(o) in mapping for o in node.outputs) and node.outputs:
                continue  # already provided as an input (e.g. placeholders)
            if node.op_name == "Placeholder":
                continue
            node_inputs = []
            ok = True
            for t in node.inputs:
                m = mapping.get(id(t))
                if m is None:
                    ok = False
                    break
                node_inputs.append(m)
            if not ok:
                raise InternalError(
                    f"Extraction of {name!r}: node {node.name!r} depends on a "
                    "tensor outside the extracted span"
                )
            graph.push_device(node.device)
            try:
                outs = execute(node.op_name, node_inputs, node.attrs, name=node.name)
            finally:
                graph.pop_device()
            if not isinstance(outs, tuple):
                outs = (outs,) if outs is not None else ()
            for old, new in zip(node.outputs, outs):
                mapping.setdefault(id(old), new)
        out_tensors = [mapping[id(t)] for t in outputs]
    return GraphFunction(name=name, graph=graph, inputs=list(graph.inputs), outputs=out_tensors)


def build_forward_backward(fn: GraphFunction, optimize: bool = True) -> ForwardBackward:
    """Construct the forward-with-intermediates and backward functions."""
    from repro.core.tape import GradientTape
    from repro.core.tracing import ReplayGraph

    scratch = ReplayGraph(name=f"{fn.name}_fb")
    tape = GradientTape(persistent=True, watch_accessed_variables=False)
    with scratch.as_default():
        with tape:
            new_inputs, mapping, new_outputs = _replay(fn, scratch, tape)
        marker = len(scratch.nodes)
        diff_indices = [
            i
            for i, t in enumerate(new_outputs)
            if t.dtype.is_differentiable or t.dtype == dtypes.variant
        ]
        out_grad_phs = [
            placeholder(
                scratch,
                new_outputs[i].dtype,
                new_outputs[i].shape,
                name=f"grad_out_{i}",
            )
            for i in diff_indices
        ]
        in_grads = imperative_grad(
            tape._records,
            [new_outputs[i] for i in diff_indices],
            new_inputs,
            out_grad_phs,
            unconnected_gradients="none",
        )

    backward_nodes = scratch.nodes[marker:]
    backward_node_ids = {id(n) for n in backward_nodes}
    out_grad_ids = {id(t) for t in out_grad_phs}

    # Boundary: forward-section tensors the backward section consumes.
    # A boundary tensor that is already a user output (tanh, sqrt, ...
    # gradients read the forward *output*) must not occupy a second
    # forward-output slot: the tape would deliver the incoming gradient
    # to both slots and the gradient would double.
    output_pos: dict[int, int] = {}
    for i, t in enumerate(new_outputs):
        output_pos.setdefault(id(t), i)
    boundary: list = []
    extra_outputs: list = []
    boundary_indices: list[int] = []
    seen: set[int] = set()

    def note_boundary(t) -> None:
        if id(t) in out_grad_ids or id(t) in seen:
            return
        if id(t.node) in backward_node_ids:
            return
        seen.add(id(t))
        boundary.append(t)
        pos = output_pos.get(id(t))
        if pos is None:
            boundary_indices.append(len(new_outputs) + len(extra_outputs))
            extra_outputs.append(t)
        else:
            boundary_indices.append(pos)

    for node in backward_nodes:
        for t in node.inputs:
            note_boundary(t)
    for g in in_grads:
        if g is not None:
            note_boundary(g)

    forward_fn = _extract(
        scratch.nodes[:marker],
        inputs=new_inputs,
        outputs=list(new_outputs) + extra_outputs,
        name=f"{fn.name}_forward",
    )

    input_grad_mask = [g is not None for g in in_grads]
    if any(input_grad_mask):
        backward_fn = _extract(
            backward_nodes,
            inputs=list(boundary) + list(out_grad_phs),
            outputs=[g for g in in_grads if g is not None],
            name=f"{fn.name}_backward",
        )
    else:
        backward_fn = None

    if optimize:
        forward_fn.optimize()
        if backward_fn is not None:
            backward_fn.optimize()

    return ForwardBackward(
        forward_fn=forward_fn,
        backward_fn=backward_fn,
        num_outputs=len(fn.outputs),
        diff_output_indices=diff_indices,
        input_grad_mask=input_grad_mask,
        boundary_indices=boundary_indices,
    )


def build_rematerializing_backward(fn: GraphFunction) -> tuple[GraphFunction, list[bool], list[int]]:
    """A single backward function that recomputes the forward internally.

    Used when differentiating a call node *after the fact* (no saved
    intermediates are available): the returned function takes the
    original inputs plus output gradients and recomputes what it needs.
    """
    from repro.core.tape import GradientTape
    from repro.core.tracing import ReplayGraph

    scratch = ReplayGraph(name=f"{fn.name}_remat")
    tape = GradientTape(persistent=True, watch_accessed_variables=False)
    with scratch.as_default():
        with tape:
            new_inputs, _, new_outputs = _replay(fn, scratch, tape)
        diff_indices = [
            i
            for i, t in enumerate(new_outputs)
            if t.dtype.is_differentiable or t.dtype == dtypes.variant
        ]
        out_grad_phs = [
            placeholder(
                scratch, new_outputs[i].dtype, new_outputs[i].shape, name=f"grad_out_{i}"
            )
            for i in diff_indices
        ]
        in_grads = imperative_grad(
            tape._records,
            [new_outputs[i] for i in diff_indices],
            new_inputs,
            out_grad_phs,
            unconnected_gradients="none",
        )
    mask = [g is not None for g in in_grads]
    backward = _extract(
        scratch.nodes,
        inputs=list(new_inputs) + list(out_grad_phs),
        outputs=[g for g in in_grads if g is not None],
        name=f"{fn.name}_remat_backward",
    )
    backward.optimize()
    return backward, mask, diff_indices


def graph_function_backward(fn: GraphFunction, inputs, outputs, grads):
    """Registry gradient for raw ``PartitionedCall`` records.

    The normal path (a ``ConcreteFunction`` called under a tape) records
    a custom backward that reuses saved intermediates; this fallback —
    reached when a call node is differentiated without them — pays for
    rematerialization instead.
    """
    from repro.ops import array_ops
    from repro.ops.functional_ops import call_graph_function

    cached = getattr(fn, "_remat_backward", None)
    if cached is None:
        cached = build_rematerializing_backward(fn)
        fn._remat_backward = cached
    backward, mask, diff_indices = cached
    seed = []
    for i in diff_indices:
        g = grads[i]
        if g is None:
            g = zero_seed(outputs[i])
        seed.append(g)
    produced = call_graph_function(backward, list(inputs) + seed)
    produced = list(produced)
    result = []
    it = iter(produced)
    for has_grad in mask:
        result.append(next(it) if has_grad else None)
    return result
