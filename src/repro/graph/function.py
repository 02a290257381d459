"""Graph functions: graphs with named inputs and outputs.

"TensorFlow Eager represents each staged computation as a graph
function, i.e., a graph with named inputs and outputs, representing the
exact computation of interest" (paper §5).  A :class:`GraphFunction`
bundles a graph, its placeholder inputs (in calling order, including
lexically-captured values appended at the end), and its output tensors.
It is the unit of execution (via the ``PartitionedCall`` op), of
optimization (the grappler-style passes run per function), and of
compilation (XLA compiles one function into one accelerator program).
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.ops.registry import register_gradient, register_op
from repro.tensor import Tensor, TensorSpec
from repro.graph.graph import Graph, SymbolicTensor

__all__ = ["GraphFunction", "placeholder"]


def _placeholder_infer(inputs, attrs):
    return [TensorSpec(TensorShape(attrs["shape"]), attrs["dtype"])]


register_op("Placeholder", infer_fn=_placeholder_infer)
register_gradient("Placeholder")(lambda op, grad: [])


def placeholder(graph: Graph, dtype, shape=None, name: str = "Placeholder") -> SymbolicTensor:
    """Add a graph input node and return its symbolic output."""
    from repro.framework import dtypes as _dtypes

    with graph.as_default():
        from repro.runtime.executor import execute

        out = execute(
            "Placeholder",
            [],
            {"dtype": _dtypes.as_dtype(dtype), "shape": TensorShape(shape)},
            name=name,
        )
    return out


class GraphFunction:
    """An executable dataflow graph with a fixed, typed signature.

    Unlike Python functions, graph functions are monomorphic: "they
    have a fixed number of inputs, which are statically typed" (paper
    §4.6).  The polymorphic ``function`` decorator maintains a cache of
    these.
    """

    def __init__(
        self,
        name: str,
        graph: Graph,
        inputs: Sequence[SymbolicTensor],
        outputs: Sequence[SymbolicTensor],
    ) -> None:
        self.name = name
        self.graph = graph
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.input_specs = [TensorSpec(t.shape, t.dtype) for t in self.inputs]
        self.output_specs = [TensorSpec(t.shape, t.dtype) for t in self.outputs]
        self._runner = None
        # XLA-sim executables compiled from this function, by concrete
        # input-shape tuple (``None`` under a static signature); a string
        # says why it cannot be compiled.  The only place executables
        # are kept: :func:`repro.xla.compiler.executable_for` fills it.
        self.executables: dict = {}
        # Held while building the plan or an executable.
        self._build_lock = threading.Lock()
        # Wall-clock milliseconds each compilation stage last spent on
        # this function: ``trace_ms``, ``<i>:<pass>_ms`` per optimize
        # pass, ``infer_ms``, ``plan_ms``.  Written by the stage that
        # ran, read by ``Function.execution_stats()``.
        self.stage_ms: dict[str, float] = {}

    @property
    def contains_py_func(self) -> bool:
        return self.graph.contains_py_func

    @property
    def num_nodes(self) -> int:
        return len(self.graph.nodes)

    def plan(self):
        """The cached :class:`~repro.graph.executor.GraphRunner` plan.

        Plans are *shape-polymorphic*: kernels derive output shapes from
        the actual buffers, so a single plan serves every concrete shape
        a symbolic (relaxed) trace admits.  The pipeline's plan stage
        (:meth:`repro.core.pipeline.CompilationPipeline.plan`) routes
        here; rewriting the graph invalidates the plan via
        :meth:`release_plan`.
        """
        from repro.graph.executor import GraphRunner

        runner = self._runner
        if runner is None:
            # Double-checked: concurrent first callers (serving worker
            # threads sharing one LoadedFunction) must agree on a single
            # plan rather than racing two half-built ones.
            with self._build_lock:
                runner = self._runner
                if runner is None:
                    start = time.perf_counter()
                    runner = self._runner = GraphRunner(self.graph, self.outputs)
                    self.stage_ms["plan_ms"] = (time.perf_counter() - start) * 1e3
        return runner

    def release_plan(self) -> None:
        """Drop the cached execution plan, the executables compiled from
        it and the rematerializing backward (all rebuilt on next use)."""
        self._runner = None
        self.executables.clear()
        self.__dict__.pop("_remat_backward", None)

    def run(self, args: Sequence[Tensor]) -> list[Tensor]:
        """Execute the graph on concrete inputs; returns concrete outputs.

        The execution plan (schedule, refcounts) is built once and
        cached; repeated calls dispatch kernels with no graph analysis.
        """
        if len(args) != len(self.inputs):
            raise InvalidArgumentError(
                f"Graph function {self.name!r} takes {len(self.inputs)} inputs, "
                f"got {len(args)}"
            )
        return self.plan().run(list(zip(self.inputs, args)))

    def optimize(self, passes: Optional[Sequence[str]] = None) -> dict:
        """Run grappler-style optimization passes in place.

        Everything built from the graph before the rewrite is released
        first (:meth:`release_plan`).  Returns a per-pass report (nodes
        removed/rewritten), used by the ablation benchmarks.
        """
        from repro.graph.optimize import optimize_function

        self.release_plan()
        return optimize_function(self, passes)

    def definition(self) -> dict:
        """GraphDef-like serializable structure (see serialization module)."""
        from repro.graph.serialization import function_to_def

        return function_to_def(self)

    def __repr__(self) -> str:
        return (
            f"<GraphFunction {self.name!r}: {len(self.inputs)} inputs -> "
            f"{len(self.outputs)} outputs, {len(self.graph.nodes)} nodes>"
        )
