"""Grappler-style graph optimization passes.

The paper attributes part of staged execution's advantage to "compiler
optimizations and the exploitation of parallelism ... constant-folding
and buffer reuse" (§1, §4.1).  This module implements the classic
passes over our graph IR:

* ``prune`` — drop non-stateful ops unreachable from the outputs (§5).
* ``fold`` — evaluate ops whose inputs are all constants at build time.
* ``arithmetic`` — algebraic identities (x*1, x+0, double negation,
  transpose/reshape collapsing).
* ``cse`` — common-subexpression elimination for stateless ops.
* ``fuse`` — elementwise-fusion (:mod:`repro.graph.fusion`), appended
  to the default pipeline when ``context.graph_fusion`` is on.

Passes rewrite the function's graph in place and report how much work
they did; the ablation benchmark ``abl-opt`` measures their run-time
effect.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.ops import registry
from repro.tensor import Tensor
from repro.graph.graph import Graph, Node, SymbolicTensor
from repro.graph.structural import Unhashable, value_key

__all__ = ["optimize_function", "DEFAULT_PASSES"]

DEFAULT_PASSES = ("prune", "fold", "arithmetic", "dedup_reads", "cse", "prune")

# Never materialize folded constants bigger than this.
_MAX_FOLD_ELEMENTS = 1 << 20


class _Replacements:
    """Tensor replacements a pass accumulates while it walks the nodes.

    A pass visits nodes in topological order and rewires each node's
    inputs as it reaches it (:meth:`rewire`), so by the end of the walk
    every consumer already points at the final tensor and only the
    function's output list is left to patch (:meth:`finish`) — one
    visit per node, no graph-wide sweep per rewrite.
    """

    __slots__ = ("map",)

    def __init__(self) -> None:
        self.map: dict[int, SymbolicTensor] = {}

    def add(self, old: SymbolicTensor, new: SymbolicTensor) -> None:
        self.map[id(old)] = new

    def resolve(self, t: SymbolicTensor) -> SymbolicTensor:
        rmap = self.map
        while id(t) in rmap:
            t = rmap[id(t)]
        return t

    def rewire(self, node: Node) -> None:
        if self.map:
            resolve = self.resolve
            node.inputs = [resolve(t) for t in node.inputs]

    def finish(self, fn) -> None:
        if self.map:
            fn.outputs = [self.resolve(t) for t in fn.outputs]
            fn._runner = None


def prune(fn) -> int:
    """Remove ops not reachable from the function outputs."""
    roots = list(fn.outputs) + list(fn.inputs)
    return fn.graph.remove_dead(roots)


def constant_fold(fn) -> int:
    """Evaluate statically-known subgraphs into Const nodes."""
    from repro.runtime.context import context

    graph: Graph = fn.graph
    folded = 0
    const_values: dict[int, np.ndarray] = {}
    replaced = _Replacements()
    for node in list(graph.nodes):
        if node.op_name == "Const":
            const_values[id(node.outputs[0])] = node.attrs["value"]
            continue
        replaced.rewire(node)
        # Cheapest rejection first: almost every node has an input
        # whose value is not statically known.
        arrays = []
        for t in node.inputs:
            value = const_values.get(id(t))
            if value is None:
                value = t.constant_value
            if value is None:
                break
            arrays.append(np.asarray(value))
        if len(arrays) != len(node.inputs):
            continue
        op_def = node.op_def
        if (
            op_def.is_stateful
            or op_def.has_side_effects
            or not registry.has_kernel(node.op_name, "CPU")
        ):
            continue
        if any(
            t.dtype in (dtypes.resource, dtypes.variant) for t in node.outputs
        ):
            continue
        kernel = registry.get_kernel(node.op_name, "CPU")
        try:
            results = kernel(arrays, node.attrs, context.cpu_device())
        except Exception:
            continue
        if results is None:
            continue
        if isinstance(results, (np.ndarray, Tensor)) or np.isscalar(results):
            results = [results]
        if any(isinstance(r, Tensor) for r in results):
            continue
        results = [np.asarray(r) for r in results]
        if any(r.size > _MAX_FOLD_ELEMENTS for r in results):
            continue
        with graph.as_default():
            from repro.runtime.executor import execute

            for out_sym, value in zip(node.outputs, results):
                const_out = execute("Const", [], {"value": value})
                replaced.add(out_sym, const_out)
                const_values[id(const_out)] = value
        folded += 1
    replaced.finish(fn)
    if folded:
        # New Const nodes were appended; restore topological node order.
        _topological_sort(fn)
    return folded


def _is_scalar_const(t: SymbolicTensor, value: float) -> bool:
    cv = t.constant_value
    if cv is None and t.node.op_name == "Const":
        cv = t.node.attrs["value"]
    if cv is None:
        return False
    cv = np.asarray(cv)
    return cv.size == 1 and float(cv.reshape(())[()]) == value


def arithmetic_simplify(fn) -> int:
    """Apply algebraic identities that remove whole nodes."""
    graph: Graph = fn.graph
    rewrites = 0
    replaced = _Replacements()

    for node in graph.nodes:
        replaced.rewire(node)
        out = node.outputs[0] if node.outputs else None
        new = None
        if node.op_name == "Add":
            x, y = node.inputs
            if _is_scalar_const(y, 0.0) and x.shape == out.shape and x.dtype == out.dtype:
                new = x
            elif _is_scalar_const(x, 0.0) and y.shape == out.shape and y.dtype == out.dtype:
                new = y
        elif node.op_name == "Sub":
            x, y = node.inputs
            if _is_scalar_const(y, 0.0) and x.shape == out.shape:
                new = x
        elif node.op_name == "Mul":
            x, y = node.inputs
            if _is_scalar_const(y, 1.0) and x.shape == out.shape and x.dtype == out.dtype:
                new = x
            elif _is_scalar_const(x, 1.0) and y.shape == out.shape and y.dtype == out.dtype:
                new = y
        elif node.op_name == "RealDiv":
            x, y = node.inputs
            if _is_scalar_const(y, 1.0) and x.shape == out.shape:
                new = x
        elif node.op_name == "Neg":
            (x,) = node.inputs
            if x.node.op_name == "Neg":
                new = x.node.inputs[0]
        elif node.op_name == "Transpose":
            (x,) = node.inputs
            inner = x.node
            if inner.op_name == "Transpose":
                p_outer = node.attrs.get("perm")
                p_inner = inner.attrs.get("perm")
                if p_outer is not None and p_inner is not None:
                    composed = [p_inner[p] for p in p_outer]
                    if composed == list(range(len(composed))):
                        new = inner.inputs[0]
                elif p_outer is None and p_inner is None:
                    new = inner.inputs[0]
        elif node.op_name == "Reshape":
            x = node.inputs[0]
            if x.node.op_name == "Reshape":
                node.inputs[0] = x.node.inputs[0]
                rewrites += 1
            if node.inputs[0].shape.is_fully_defined and node.inputs[0].shape == out.shape:
                new = node.inputs[0]
        elif node.op_name == "Identity":
            new = node.inputs[0] if node.device is None else None
        if new is not None:
            replaced.add(out, new)
            rewrites += 1
    replaced.finish(fn)
    return rewrites


def cse(fn) -> int:
    """Merge identical stateless operations.

    A node's signature is its op, inputs, device and attrs keyed by
    :func:`~repro.graph.structural.value_key`; a node with an
    unhashable attr is never merged.  Nodes spliced in by gradient
    checkpointing carry a ``_remat_scope`` attr, so a recomputed node
    never merges with the forward node it shadows and the checkpoint's
    memory behavior survives this pass (duplicates *within* one scope
    still merge — they share the tag).
    """
    graph: Graph = fn.graph
    seen: dict = {}
    replaced = _Replacements()
    merged = 0

    for node in graph.nodes:
        replaced.rewire(node)
        op_def = node.op_def
        if op_def.is_stateful or op_def.has_side_effects or node.op_name == "Placeholder":
            continue
        try:
            sig = (
                node.op_name,
                tuple(map(id, node.inputs)),
                value_key(node.attrs),
                node.device,
            )
        except Unhashable:
            continue
        existing = seen.get(sig)
        if existing is None:
            seen[sig] = node
            continue
        for old, new in zip(node.outputs, existing.outputs):
            replaced.add(old, new)
        merged += 1
    replaced.finish(fn)
    return merged


def dedup_reads(fn) -> int:
    """Merge repeated variable reads with no intervening write.

    ``ReadVariableOp`` is stateful (so generic CSE must skip it), but
    consecutive reads of the same handle separated by no assignment are
    guaranteed identical — the same read-dedup rewrite TensorFlow's
    grappler applies inside a function body.  Invalidation is
    per-resource: calls and control flow thread every captured handle
    through their explicit inputs, so their writes are confined to the
    resource-dtype tensors they consume.  Only ``EagerPyFunc`` (whose
    Python body can close over a variable directly) invalidates every
    pending read.
    """
    graph: Graph = fn.graph
    current_read: dict[int, SymbolicTensor] = {}
    replaced = _Replacements()
    merged = 0

    for node in graph.nodes:
        replaced.rewire(node)
        op = node.op_name
        if op == "ReadVariableOp":
            handle = node.inputs[0]
            existing = current_read.get(id(handle))
            if existing is not None:
                replaced.add(node.outputs[0], existing)
                merged += 1
            else:
                current_read[id(handle)] = node.outputs[0]
        elif op in ("AssignVariableOp", "AssignAddVariableOp", "AssignSubVariableOp"):
            current_read.pop(id(node.inputs[0]), None)
        elif node.op_def.has_side_effects:
            if _may_write_unknown_state(node):
                current_read.clear()
            else:
                for t in node.inputs:
                    if t.dtype == dtypes.resource:
                        current_read.pop(id(t), None)
    replaced.finish(fn)
    return merged


def _may_write_unknown_state(node: Node) -> bool:
    """Can a side-effecting op touch variables beyond its resource inputs?

    ``EagerPyFunc`` runs arbitrary Python that may close over a variable
    without threading its handle through the node's inputs; the same
    goes for any call / control-flow op whose body contains a py_func.
    Everything else reaches state only through explicit resource-dtype
    inputs (captures become inputs during tracing).
    """
    if node.op_name == "EagerPyFunc":
        return True
    for v in node.attrs.values():
        if getattr(v, "contains_py_func", False):
            return True
    return False


def fuse(fn) -> int:
    """Cluster elementwise chains into FusedElementwise nodes."""
    from repro.graph import fusion

    return fusion.fuse_function(fn)


_PASSES = {
    "prune": prune,
    "fold": constant_fold,
    "arithmetic": arithmetic_simplify,
    "cse": cse,
    "dedup_reads": dedup_reads,
    "fuse": fuse,
}


def _default_passes() -> Sequence[str]:
    """The default pipeline, with ``fuse`` appended when the knob is on.

    Fusion runs last — after CSE has merged duplicates and the final
    prune has dropped dead nodes — so regions are built over the graph
    the executor will actually run.
    """
    from repro.runtime.context import context

    if context.graph_fusion:
        return DEFAULT_PASSES + ("fuse",)
    return DEFAULT_PASSES


def _topological_sort(fn) -> None:
    """Restore producer-before-consumer node order after rewrites.

    The executor relies on list order being topological, and so does
    every pass (each walks the list once, rewiring consumers as it
    meets them).  Passes that only remove nodes or point a consumer at
    an earlier tensor keep the order; the two that can break it sort
    before they return — constant folding (replacement Const nodes are
    appended at the end) and fusion (a fused node sits where its last
    member sat, possibly after a consumer of an earlier member).
    """
    order: list[Node] = []
    visited: set[int] = set()
    for root in fn.graph.nodes:
        if id(root) in visited:
            continue
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for t in node.inputs:
                if id(t.node) not in visited:
                    stack.append((t.node, False))
            for c in node.control_inputs:
                if id(c) not in visited:
                    stack.append((c, False))
    fn.graph.nodes = order


def _is_topological(fn) -> bool:
    seen: set[int] = set()
    for node in fn.graph.nodes:
        for t in node.inputs:
            if id(t.node) not in seen:
                return False
        for c in node.control_inputs:
            if id(c) not in seen:
                return False
        seen.add(id(node))
    return True


def optimize_function(fn, passes: Optional[Sequence[str]] = None) -> dict:
    """Run the pass pipeline on a GraphFunction; returns per-pass counts.

    ``fn.graph.nodes`` must be in producer-before-consumer order (any
    traced graph is): the passes rewire consumers as they walk and would
    silently lose a rewrite on a consumer listed before its producer.
    Each pass's wall time lands in ``fn.stage_ms`` under ``<i>:<pass>_ms``.
    """
    assert _is_topological(fn), "optimize_function needs topologically ordered nodes"
    report: dict[str, int] = {}
    for i, name in enumerate(passes if passes is not None else _default_passes()):
        start = time.perf_counter()
        report[f"{i}:{name}"] = _PASSES[name](fn)
        fn.stage_ms[f"{i}:{name}_ms"] = (time.perf_counter() - start) * 1e3
    fn._runner = None
    return report
