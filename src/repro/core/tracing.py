"""Graph-building contexts for the tracing JIT.

A :class:`FuncGraph` is the graph a Python function is traced into.
It differs from a plain :class:`~repro.graph.graph.Graph` in how it
treats values from outside the trace: concrete (eager) tensors and
symbolic tensors from *enclosing* traces become **captures** — silent
extra inputs threaded through placeholders (paper §4.6, "Lexical
closure: ``function`` is capable of tracing Python functions that
lexically close over tensors or variables").

:func:`init_scope` implements the trace escape of §4.7: it pauses all
active traces so that code inside runs eagerly.  The ``function``
decorator uses it for its state-creation contract; it is exposed to
users as well.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes, nest
from repro.framework.errors import FailedPreconditionError, InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.runtime.context import context
from repro.tensor import Tensor, TensorBase, TensorSpec, convert_to_tensor
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph, SymbolicTensor

__all__ = [
    "FuncGraph",
    "ReplayGraph",
    "init_scope",
    "replay_into",
    "trace_into_graph",
]


class FuncGraph(Graph):
    """A graph under construction by tracing, with capture support."""

    def __init__(self, name: str = "func_graph") -> None:
        super().__init__(name=name)
        self.inputs: list[SymbolicTensor] = []  # explicit placeholders, in order
        # id(external tensor) -> (external tensor, internal placeholder)
        self.captures: dict[int, tuple] = {}

    # -- inputs ------------------------------------------------------------
    def add_input(self, spec: TensorSpec, name: str = "input") -> SymbolicTensor:
        ph = placeholder(self, spec.dtype, spec.shape, name=name)
        self.inputs.append(ph)
        return ph

    @property
    def captured_externals(self) -> list:
        """External tensors captured so far, in capture order."""
        return [ext for ext, _ in self.captures.values()]

    @property
    def capture_placeholders(self) -> list[SymbolicTensor]:
        return [ph for _, ph in self.captures.values()]

    # -- capture ----------------------------------------------------------
    def capture(self, external) -> SymbolicTensor:
        """Map an outside value to an internal placeholder (creating it once)."""
        entry = self.captures.get(id(external))
        if entry is not None:
            return entry[1]
        ph = placeholder(
            self, external.dtype, external.shape, name="captured"
        )
        # Concrete constants keep their value visible to shape inference.
        cv = getattr(external, "constant_value", None)
        if cv is not None and external.dtype not in (dtypes.resource, dtypes.variant):
            ph._constant_value = np.asarray(cv)
        self.captures[id(external)] = (external, ph)
        return ph

    def _capture_concrete(self, t: Tensor) -> SymbolicTensor:
        # Resource/variant handles are captured *by reference* as silent
        # inputs (Listing 7: "variables are captured by reference and
        # not by value").  Ordinary tensors are immutable, so they are
        # interned as constants — keeping traced graphs self-contained
        # (serializable) and visible to constant folding.
        if t.dtype in (dtypes.resource, dtypes.variant):
            return self.capture(t)
        from repro.graph.graph import Graph

        return Graph._capture_concrete(self, t)

    def _capture_symbolic(self, t: SymbolicTensor) -> SymbolicTensor:
        # A symbolic tensor from an enclosing trace: legal only if its
        # graph is below us on the stack (lexical nesting).
        for g in context.graph_stack():
            if g is t.graph:
                return self.capture(t)
        raise FailedPreconditionError(
            f"Symbolic tensor {t.name!r} (from graph {getattr(t.graph, 'name', None)!r}) used in "
            f"trace {self.name!r}, but its graph is not an enclosing trace. "
            "Symbolic tensors cannot outlive their graph-building context."
        )


class ReplayGraph(FuncGraph):
    """A scratch graph for symbolic re-execution of an existing graph.

    Concrete tensors reaching a replay (scalar factors and shape vectors
    materialized by gradient rules, constants re-staged by
    specialization) are interned as ``Const`` nodes rather than captured
    as hidden placeholders, so functions extracted from the replay are
    self-contained.  Used by the forward/backward builder
    (:mod:`repro.core.backprop`) and by the compilation pipeline's
    shape-specialization stage (:mod:`repro.core.pipeline`).
    """

    def _capture_concrete(self, t: Tensor) -> SymbolicTensor:
        from repro.graph.graph import Graph

        return Graph._capture_concrete(self, t)


def replay_into(
    fn,
    graph: FuncGraph,
    input_specs: Optional[Sequence[TensorSpec]] = None,
    on_input: Optional[Callable] = None,
):
    """Symbolically re-execute a graph function's nodes into ``graph``.

    Every node is re-staged through :func:`~repro.runtime.executor.execute`,
    which re-runs shape inference and constant propagation — so a replay
    under *refined* input specs (``input_specs``) propagates the sharper
    shapes through the whole body.  That is the heart of per-shape
    specialization: one symbolic trace, many cheap shape-refined clones,
    and no Python re-execution.

    Args:
        fn: the :class:`~repro.graph.function.GraphFunction` to replay.
        graph: the (already-created) destination graph.  Must be a
            :class:`FuncGraph`; callers wanting self-contained results
            use a :class:`ReplayGraph`.
        input_specs: optional replacement specs for ``fn``'s inputs (one
            per input, dtypes must match).  Defaults to the originals.
        on_input: optional callback invoked with each new input
            placeholder as it is created (e.g. ``tape.watch``).

    Returns:
        ``(new_inputs, mapping, new_outputs)`` where ``mapping`` maps
        ``id(old tensor) -> new tensor``.
    """
    from repro.runtime.executor import execute

    specs = list(input_specs) if input_specs is not None else list(fn.input_specs)
    if len(specs) != len(fn.inputs):
        raise InvalidArgumentError(
            f"Replay of {fn.name!r} got {len(specs)} input specs for "
            f"{len(fn.inputs)} inputs"
        )
    for old, spec in zip(fn.inputs, specs):
        if spec.dtype != old.dtype:
            raise InvalidArgumentError(
                f"Replay of {fn.name!r}: input spec dtype {spec.dtype} does "
                f"not match traced dtype {old.dtype}"
            )
    new_inputs = [
        graph.add_input(spec, name=f"x_{i}") for i, spec in enumerate(specs)
    ]
    mapping: dict[int, object] = {}
    for old, new in zip(fn.inputs, new_inputs):
        mapping[id(old)] = new
        if on_input is not None:
            on_input(new)
    with graph.as_default():
        for node in fn.graph.nodes:
            if node.op_name == "Placeholder":
                out = node.outputs[0]
                if id(out) not in mapping:
                    raise FailedPreconditionError(
                        f"Placeholder {node.name!r} is not among the inputs of "
                        f"function {fn.name!r}"
                    )
                continue
            inputs = [mapping[id(t)] for t in node.inputs]
            graph.push_device(node.device)
            try:
                if node.op_name == "FusedElementwise":
                    # Fusion is a scheduling artifact; replay expands the
                    # region back into its member primitives so gradients,
                    # specialization, and lowering see real ops.
                    outputs = node.attrs["region"].replay(inputs)
                else:
                    outputs = execute(node.op_name, inputs, node.attrs, name=node.name)
            finally:
                graph.pop_device()
            if not isinstance(outputs, tuple):
                outputs = (outputs,) if outputs is not None else ()
            if outputs == () and node.outputs:
                raise FailedPreconditionError(
                    f"Replay of {node.op_name!r} lost its outputs"
                )
            for old, new in zip(node.outputs, outputs):
                mapping[id(old)] = new
    new_outputs = [mapping[id(t)] for t in fn.outputs]
    return new_inputs, mapping, new_outputs


class init_scope:
    """Escape the current trace: run the enclosed code eagerly (§4.7).

    "We provide a Python context manager, ``tf.init_scope``, that pauses
    the trace and jumps into the imperative context. We use this scope
    to implement ``function``'s state-creation contract."
    """

    def __enter__(self) -> "init_scope":
        context.enter_init_scope()
        return self

    def __exit__(self, *exc_info) -> None:
        context.exit_init_scope()


def trace_into_graph(
    fn: Callable,
    input_specs: Sequence[TensorSpec],
    name: str = "traced",
    structured_args=None,
):
    """Trace ``fn`` in a graph-building context.

    Args:
        fn: Python function taking flat tensors (already bound to the
            caller's structure by the polymorphic wrapper).
        input_specs: abstract types of the explicit inputs.
        name: graph name.
        structured_args: optional (args, kwargs) template whose tensor
            leaves are replaced by the created placeholders before
            calling ``fn``; when None, ``fn`` receives the placeholders
            positionally.

    Returns:
        (func_graph, flat_outputs, output_structure) where
        ``output_structure`` is the original nest with tensors replaced
        by integer indices into ``flat_outputs`` (None outputs stay
        None).
    """
    graph = FuncGraph(name=name)
    with graph.as_default():
        placeholders = [
            graph.add_input(spec, name=spec.name or f"arg_{i}")
            for i, spec in enumerate(input_specs)
        ]
        if structured_args is not None:
            args, kwargs = _bind_placeholders(structured_args, placeholders)
            outputs = fn(*args, **kwargs)
        else:
            outputs = fn(*placeholders)
        flat_outputs, structure = _canonicalize_outputs(graph, outputs)
    return graph, flat_outputs, structure


def _bind_placeholders(structured_args, placeholders: list[SymbolicTensor]):
    args, kwargs = structured_args
    it = iter(placeholders)

    def swap(leaf):
        if isinstance(leaf, _TensorMarker):
            return next(it)
        return leaf

    new_args = nest.map_structure(swap, list(args))
    new_kwargs = nest.map_structure(swap, kwargs)
    return tuple(new_args), new_kwargs


class _TensorMarker:
    """Placeholder leaf marking where a tensor sat in the arg structure."""

    __slots__ = ()


TENSOR_MARKER = _TensorMarker()


def _canonicalize_outputs(graph: FuncGraph, outputs):
    """Convert traced outputs to graph tensors; build an index structure."""
    from repro.graph.graph import Node

    flat = nest.flatten(outputs)
    flat_tensors: list[SymbolicTensor] = []
    indices: list = []
    for leaf in flat:
        if leaf is None or isinstance(leaf, Node):
            # Side-effect-only results (e.g. a staged assignment op)
            # carry no value out of the trace.
            indices.append(None)
            continue
        if hasattr(leaf, "read_value") and not isinstance(leaf, TensorBase):
            # A Variable returned from the trace: yield its value.
            leaf = leaf.read_value()
        if isinstance(leaf, Tensor):
            # An eager tensor returned from a trace (e.g. computed in an
            # init_scope): bake it in as a capture so the value flows out.
            leaf = graph.capture(leaf)
        elif not isinstance(leaf, TensorBase):
            # Python numbers / numpy arrays become constants.
            from repro.ops import array_ops

            with graph.as_default():
                leaf = array_ops.constant(leaf)
        if isinstance(leaf, SymbolicTensor) and leaf.graph is not graph:
            leaf = graph.capture(leaf)
        indices.append(len(flat_tensors))
        flat_tensors.append(leaf)
    structure = nest.pack_sequence_as(outputs, indices) if flat else outputs
    return flat_tensors, structure
