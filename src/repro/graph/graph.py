"""The dataflow graph IR: graphs, nodes, and symbolic tensors.

A :class:`Graph` is an ordered list of :class:`Node` operations whose
construction order is a valid topological order (graphs are only built
by tracing, which executes the Python function front to back).  Inside
a graph-building context, operations return :class:`SymbolicTensor`
objects — "symbolic representations of values to be computed instead of
concrete values" (paper §4.1).

Static analysis metadata rides along at build time: every node gets
output :class:`~repro.tensor.TensorSpec` values from the op's shape
inference, and ops with a ``value_fn`` (``Shape``, ``Const``, ...)
propagate statically-known values so downstream inference can see
through dynamic-shape plumbing.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import (
    FailedPreconditionError,
    InvalidArgumentError,
    NotFoundError,
)
from repro.framework.tensor_shape import TensorShape
from repro.ops import registry
from repro.runtime.context import context
from repro.tensor import Tensor, TensorBase, TensorSpec

__all__ = ["Graph", "Node", "SymbolicTensor"]


class SymbolicTensor(TensorBase):
    """A placeholder for a value that a graph will compute.

    Carries its producing node, output index, inferred spec, and — when
    constant propagation succeeded — the statically-known value.
    """

    __slots__ = ("node", "index", "spec", "_constant_value")

    def __init__(self, node: "Node", index: int, spec: TensorSpec) -> None:
        self.node = node
        self.index = index
        self.spec = spec
        self._constant_value: Optional[np.ndarray] = None

    @property
    def graph(self) -> "Graph":
        return self.node.graph

    @property
    def dtype(self) -> dtypes.DType:
        return self.spec.dtype

    @property
    def shape(self) -> TensorShape:
        return self.spec.shape

    @property
    def name(self) -> str:
        return f"{self.node.name}:{self.index}"

    @property
    def constant_value(self) -> Optional[np.ndarray]:
        return self._constant_value

    def refine_spec(self, spec: TensorSpec) -> bool:
        """Merge ``spec`` into the recorded spec; most specific shape wins.

        The pipeline's shape-refinement stage re-runs inference after
        graph rewrites and sharpens symbolic dims through here.  Returns
        True when the spec became strictly more specific; a dtype
        mismatch or rank conflict is treated conservatively (unchanged).
        """
        if spec.dtype != self.spec.dtype:
            return False
        try:
            merged = self.spec.shape.merge_with(spec.shape)
        except InvalidArgumentError:
            return False
        if merged == self.spec.shape:
            return False
        self.spec = TensorSpec(merged, self.spec.dtype)
        return True

    @property
    def device(self) -> Optional[str]:
        return self.node.device

    def numpy(self):
        raise FailedPreconditionError(
            f"Symbolic tensor {self.name!r} has no concrete value; .numpy() is "
            "only available on eagerly-executed tensors. Return the value from "
            "the staged function to compute it."
        )

    def __bool__(self) -> bool:
        raise FailedPreconditionError(
            f"The truth value of the symbolic tensor {self.name!r} is unknown "
            "during tracing. Python `if`/`while` on tensor values must be "
            "rewritten with repro.cond / repro.while_loop when staging (paper "
            "§4.1), or the function left unstaged."
        )

    def __iter__(self):
        n = self.shape[0] if self.shape.rank else None
        if self.shape.rank is None or n is None:
            raise FailedPreconditionError(
                "Cannot iterate over a symbolic tensor of unknown leading size"
            )
        for i in range(n):
            yield self[i]

    def __len__(self) -> int:
        if self.shape.rank is None or self.shape.rank == 0 or self.shape[0] is None:
            raise FailedPreconditionError("len() of symbolic tensor is not static")
        return self.shape[0]

    # Symbolic tensors are hashable by identity so they can key feed
    # dicts (classic Session.run usage); == stays elementwise.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return (
            f"<SymbolicTensor {self.name!r} shape={self.shape} "
            f"dtype={self.dtype.name} op={self.node.op_name!r}>"
        )


class Node:
    """One operation instance inside a graph."""

    __slots__ = (
        "graph",
        "name",
        "op_name",
        "op_def",
        "inputs",
        "attrs",
        "device",
        "outputs",
        "control_inputs",
    )

    def __init__(
        self,
        graph: "Graph",
        name: str,
        op_name: str,
        inputs: list[SymbolicTensor],
        attrs: dict,
        device: Optional[str],
        output_specs: Sequence[TensorSpec],
    ) -> None:
        self.graph = graph
        self.name = name
        self.op_name = op_name
        # Registrations are permanent (re-registering an op raises), so
        # the definition is resolved once here, not per pass per node.
        self.op_def: registry.OpDef = registry.get_op_def(op_name)
        self.inputs = list(inputs)
        self.attrs = dict(attrs)
        self.device = device
        self.control_inputs: list["Node"] = []
        self.outputs = [SymbolicTensor(self, i, spec) for i, spec in enumerate(output_specs)]

    def __repr__(self) -> str:
        ins = ", ".join(t.name for t in self.inputs)
        return f"<Node {self.name!r} = {self.op_name}({ins})>"


class Graph:
    """A dataflow graph under construction or awaiting execution.

    This base class implements the classic TensorFlow ("v1") behaviour:
    concrete tensors flowing into staged ops become ``Const`` nodes.
    The tracer's :class:`~repro.core.tracing.FuncGraph` subclass turns
    them into captured inputs instead (paper §4.6, "Lexical closure").
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: list[Node] = []
        self._names: dict[str, int] = {}
        self._device_stack: list[Optional[str]] = []
        self._lock = threading.Lock()
        # Cache: interned Const nodes keyed by (dtype, shape, bytes).
        self._const_cache: dict = {}
        self.contains_py_func = False
        # Sticky: has any operation ever been staged here with an output
        # of unknown rank or dimension?  While False, every spec in the
        # graph is exact and shape refinement has nothing to sharpen.
        # (Nodes built directly — fused regions — adopt specs of staged
        # members, so they cannot introduce an unknown.)
        self.has_unknown_dims = False

    # -- naming ------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        with self._lock:
            count = self._names.get(base, 0)
            self._names[base] = count + 1
        return base if count == 0 else f"{base}_{count}"

    # -- device scoping ------------------------------------------------------
    def push_device(self, name: Optional[str]) -> None:
        self._device_stack.append(name)

    def pop_device(self) -> None:
        self._device_stack.pop()

    def current_device(self) -> Optional[str]:
        for name in reversed(self._device_stack):
            if name is not None:
                return name
        return None

    # -- construction -----------------------------------------------------
    def as_default(self) -> "_GraphContext":
        """Context manager staging subsequent ops into this graph."""
        return _GraphContext(self)

    def add_operation(
        self,
        op_name: str,
        inputs: Sequence,
        attrs: dict,
        name: Optional[str] = None,
    ) -> list[SymbolicTensor]:
        """Stage one operation; returns its symbolic outputs."""
        op_def = registry.get_op_def(op_name)
        resolved = [self._resolve_input(op_name, t) for t in inputs]
        node_name = self.unique_name(name or op_name)
        output_specs = op_def.infer(resolved, attrs)
        if not self.has_unknown_dims:
            for spec in output_specs:
                if not spec.shape.is_fully_defined:
                    self.has_unknown_dims = True
                    break
        node = Node(
            graph=self,
            name=node_name,
            op_name=op_name,
            inputs=resolved,
            attrs=attrs,
            device=self.current_device(),
            output_specs=output_specs,
        )
        self.nodes.append(node)
        if op_name == "EagerPyFunc":
            self.contains_py_func = True
        # Propagate the py_func taint from *any* nested function attr —
        # calls store theirs under "f", control flow under "true_fn" /
        # "false_fn" / "cond_fn" / "body_fn".
        for attr_value in attrs.values():
            if getattr(attr_value, "contains_py_func", False):
                self.contains_py_func = True
                break
        self._propagate_constants(node, op_def)
        return node.outputs

    def _propagate_constants(self, node: Node, op_def: registry.OpDef) -> None:
        if op_def.value_fn is None or op_def.is_stateful:
            return
        try:
            values = op_def.value_fn(node.inputs, node.attrs)
        except Exception:
            return
        if values is None:
            return
        for out, value in zip(node.outputs, values):
            if value is not None:
                out._constant_value = np.asarray(value)

    def _resolve_input(self, op_name: str, t) -> SymbolicTensor:
        if isinstance(t, SymbolicTensor):
            if t.graph is self:
                return t
            return self._capture_symbolic(t)
        if isinstance(t, Tensor):
            return self._capture_concrete(t)
        raise InvalidArgumentError(
            f"Operation {op_name!r} received a non-tensor input {t!r} while "
            "building a graph"
        )

    def _capture_concrete(self, t: Tensor) -> SymbolicTensor:
        """Base graphs intern concrete tensors as Const nodes."""
        if t.dtype in (dtypes.resource, dtypes.variant):
            # Variables in classic graphs: reference the handle by
            # identity (how TF1 graphs name their variables).
            cached = self._const_cache.get(id(t))
            if cached is None:
                cached = self.add_operation(
                    "HandleConst", [], {"handle": t, "dtype": t.dtype}
                )[0]
                self._const_cache[id(t)] = cached
            return cached
        arr = np.asarray(t.numpy())
        key = (t.dtype, arr.shape, arr.tobytes() if arr.nbytes <= 4096 else id(t))
        cached = self._const_cache.get(key)
        if cached is not None:
            return cached
        out = self.add_operation("Const", [], {"value": arr})[0]
        self._const_cache[key] = out
        return out

    def _capture_symbolic(self, t: SymbolicTensor) -> SymbolicTensor:
        raise FailedPreconditionError(
            f"Tensor {t.name!r} belongs to graph {t.graph.name!r} and cannot "
            f"be used in unrelated graph {self.name!r}"
        )

    # -- rewriting (used by the optimizer) -----------------------------------
    def apply_replacements(self, replacements: dict) -> None:
        """Rewire node inputs according to an id-keyed tensor replacement map."""
        if not replacements:
            return
        for node in self.nodes:
            node.inputs = [replacements.get(id(t), t) for t in node.inputs]

    def remove_dead(self, live_roots: Sequence[SymbolicTensor]) -> int:
        """Drop nodes not reachable from live roots or side effects.

        Mirrors the paper (§5): "non-stateful operations that are not
        reachable from the outputs of a function are pruned".  Returns
        the number of removed nodes.
        """
        live_nodes: set[int] = set()
        stack = [t.node for t in live_roots if isinstance(t, SymbolicTensor)]
        stack.extend(
            n for n in self.nodes if n.op_def.has_side_effects or n.op_name == "Placeholder"
        )
        while stack:
            node = stack.pop()
            if id(node) in live_nodes:
                continue
            live_nodes.add(id(node))
            stack.extend(t.node for t in node.inputs)
            stack.extend(node.control_inputs)
        before = len(self.nodes)
        self.nodes = [n for n in self.nodes if id(n) in live_nodes]
        return before - len(self.nodes)

    # -- inspection -----------------------------------------------------------
    def get_node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise NotFoundError(f"No node named {name!r} in graph {self.name!r}")

    def ops_by_type(self, op_name: str) -> list[Node]:
        return [n for n in self.nodes if n.op_name == op_name]

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"<Graph {self.name!r} with {len(self.nodes)} nodes>"


class _GraphContext:
    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def __enter__(self) -> Graph:
        context.push_graph(self._graph)
        return self._graph

    def __exit__(self, *exc_info) -> None:
        context.pop_graph()
