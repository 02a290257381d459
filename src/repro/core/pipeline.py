"""The staged-compilation pipeline: trace → infer → optimize → plan → compile.

Before this module existed, the path from a Python function to
executable code was an ad-hoc chain of calls buried in
:mod:`repro.core.function`: trace into a graph, optimize in place,
lazily build an execution plan, lazily compile for XLA.  The pipeline
makes those stages explicit, ordered, and reusable:

* **trace** — run the Python function under a graph-building context,
  producing a :class:`~repro.core.tracing.FuncGraph` (paper §4.6).  The
  trace's input signature may be *symbolic*: `TensorSpec`s with unknown
  (``None``) dimensions, produced either by an explicit
  ``input_signature`` or by the trace cache's relaxation policy.
* **infer** — re-propagate shape information through the graph
  (:func:`refine_shapes`).  Shape inference first runs node-by-node at
  trace time; this stage re-runs it after rewrites so sharpened input
  specs flow through the whole body.
* **optimize** — the grappler-style passes of
  :mod:`repro.graph.optimize`, which are conservative under unknown
  dimensions (a ``Shape`` op over a symbolic tensor stays dynamic).
* **plan** — the :class:`~repro.graph.executor.GraphRunner` execution
  schedule.  Plans are shape-polymorphic: kernels compute output shapes
  from the actual buffers, so one symbolic trace needs only one plan.
* **compile** — the XLA-sim executable.  Compilation *does* require
  static shapes (the roofline cost model consumes byte counts), so a
  symbolic trace is **specialized** per concrete shape first:
  :func:`CompilationPipeline.specialize` replays the traced graph under
  concrete input specs — re-running shape inference and constant
  propagation, *without* re-executing any Python — and
  :func:`repro.xla.compiler.executable_for` keeps the per-shape
  executables on the one symbolic trace's graph function.

This is the binding-time structure LazyTensor-style systems converge
on: bind Python early (one trace), bind shapes late (per-shape
artifacts only where a backend demands them).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.tensor import TensorSpec

__all__ = ["CompilationPipeline", "refine_shapes"]


def refine_shapes(fn) -> int:
    """Re-run shape inference over a graph function, sharpening specs.

    Walks the nodes in topological order, re-invokes each op's inference
    function on its (possibly rewritten) inputs, and merges the result
    into the recorded output specs — the *most specific* shape
    compatible with both wins.  Inference failures and inconsistencies
    are treated conservatively: the existing spec is kept.

    A graph in which no node was ever created with an unknown dimension
    (an exact trace) has nothing to sharpen, so it returns without
    visiting a node.

    Returns the number of tensors whose spec became more specific.
    """
    if not fn.graph.has_unknown_dims:
        return 0
    refined = 0
    for node in fn.graph.nodes:
        if node.op_name == "Placeholder":
            continue
        op_def = node.op_def
        if op_def.infer_fn is None:
            continue
        try:
            new_specs = op_def.infer(node.inputs, node.attrs)
        except Exception:
            continue  # conservative: inference may not handle unknown dims
        if len(new_specs) != len(node.outputs):
            continue
        for out, spec in zip(node.outputs, new_specs):
            if out.refine_spec(spec):
                refined += 1
    if refined:
        fn.input_specs = [TensorSpec(t.shape, t.dtype) for t in fn.inputs]
        fn.output_specs = [TensorSpec(t.shape, t.dtype) for t in fn.outputs]
        fn.release_plan()
    return refined


class CompilationPipeline:
    """Orchestrates the stages that turn a trace into executable code.

    One pipeline is shared by all of a ``Function``'s concrete traces;
    it is stateless apart from configuration (the optimization pass
    list), so stages can also be invoked individually — the ablation
    benchmarks and the specialization cache both do.
    """

    #: Stage names, in execution order (introspection / reporting).
    STAGES = ("trace", "infer", "optimize", "plan", "compile")

    def __init__(self, passes: Optional[Sequence[str]] = None) -> None:
        self.passes = None if passes is None else tuple(passes)

    # -- stage 1: trace ---------------------------------------------------
    def trace(
        self,
        python_fn: Callable,
        input_specs: Sequence[TensorSpec],
        name: str,
        structured_args=None,
    ):
        """Trace ``python_fn`` into a fresh FuncGraph (paper §4.6).

        Returns ``(func_graph, flat_outputs, output_structure)`` exactly
        as :func:`repro.core.tracing.trace_into_graph` does.
        """
        from repro.core import tracing

        return tracing.trace_into_graph(
            python_fn, input_specs, name=name, structured_args=structured_args
        )

    # -- stages 2+3: infer + optimize -------------------------------------
    def finalize(self, fn) -> dict:
        """Run the post-trace analysis stages on a graph function.

        Optimization first (rewrites may replace symbolic chains with
        constants), then a shape-refinement sweep so the sharpened specs
        are visible to later stages.  Returns the merged report: the
        per-pass counts, ``infer:refined``, and every ``*_ms`` stage
        time recorded on ``fn.stage_ms`` so far.
        """
        report = self.optimize(fn)
        start = time.perf_counter()
        report["infer:refined"] = refine_shapes(fn)
        fn.stage_ms["infer_ms"] = (time.perf_counter() - start) * 1e3
        report.update(fn.stage_ms)
        return report

    def optimize(self, fn) -> dict:
        from repro.graph.optimize import optimize_function

        return optimize_function(fn, self.passes)

    # -- stage 4: plan -----------------------------------------------------
    def plan(self, fn):
        """The (cached) shape-polymorphic execution plan for ``fn``."""
        return fn.plan()

    # -- stage 5: compile (with per-shape specialization) ------------------
    def specialize(self, fn, input_specs: Sequence[TensorSpec]):
        """Clone ``fn`` with its inputs refined to ``input_specs``.

        The graph is symbolically replayed node-by-node
        (:func:`repro.core.tracing.replay_into`), which re-runs shape
        inference and constant propagation: ``Shape`` ops over
        now-static tensors become foldable again, and the optimization
        passes then clean up behind them.  No Python is re-executed —
        specialization is cheap relative to a retrace, which is the
        whole point of keeping one symbolic trace.
        """
        from repro.core.tracing import ReplayGraph, replay_into
        from repro.graph.function import GraphFunction

        graph = ReplayGraph(name=f"{fn.name}_spec")
        new_inputs, _, new_outputs = replay_into(fn, graph, input_specs=input_specs)
        specialized = GraphFunction(
            name=f"{fn.name}_spec",
            graph=graph,
            inputs=new_inputs,
            outputs=new_outputs,
        )
        self.finalize(specialized)
        return specialized

    # -- lazy segments -----------------------------------------------------
    def compile_segment(
        self,
        name: str,
        input_specs: Sequence[TensorSpec],
        ops: Sequence[tuple],
        fetches: Sequence[tuple],
    ):
        """Lower one recorded lazy-trace segment to a planned graph function.

        The lazy executor (:mod:`repro.runtime.lazy`) hands over the
        recorded segment in a graph-free form and gets back an
        executable artifact that went through the same pipeline stages
        as a traced ``function``: build → optimize (incl. the ``fuse``
        pass when ``context.graph_fusion`` is on) → shape refinement →
        plan (with the static memory plan and in-place donation).

        Args:
            name: artifact name (diagnostics only).
            input_specs: one :class:`TensorSpec` per external input, in
                feed order.  Relaxed (``None``-dimension) specs produce
                a shape-polymorphic artifact.
            ops: recorded operations in program order, each a tuple
                ``(op_name, attrs, in_refs)`` where every input ref is
                ``("e", i)`` (external input ``i``) or ``("o", k, j)``
                (output ``j`` of recorded op ``k``).
            fetches: ``(k, j)`` pairs selecting the live outputs, in the
                order the caller wants them back from ``run()``.

        Returns:
            A planned :class:`~repro.graph.function.GraphFunction`.
        """
        from repro.framework.tensor_shape import TensorShape
        from repro.graph.function import GraphFunction
        from repro.graph.graph import Graph

        graph = Graph(name=name)
        inputs = [
            graph.add_operation(
                "Placeholder",
                [],
                {"dtype": spec.dtype, "shape": TensorShape(spec.shape)},
                name=f"seg_arg_{i}",
            )[0]
            for i, spec in enumerate(input_specs)
        ]
        produced: list = []
        for op_name, attrs, in_refs in ops:
            sym_inputs = [
                inputs[ref[1]] if ref[0] == "e" else produced[ref[1]][ref[2]]
                for ref in in_refs
            ]
            produced.append(graph.add_operation(op_name, sym_inputs, attrs))
        outputs = [produced[k][j] for k, j in fetches]
        fn = GraphFunction(name=name, graph=graph, inputs=inputs, outputs=outputs)
        self.finalize(fn)
        self.plan(fn)
        return fn

    def compile(
        self,
        fn,
        input_specs: Optional[Sequence[TensorSpec]] = None,
    ):
        """Compile ``fn`` to an XLA-sim executable.

        When ``input_specs`` is given and the function's own signature
        is not fully static, the function is specialized to those
        concrete shapes first.  Uncached; callers that run the result
        go through :func:`repro.xla.compiler.executable_for`.
        """
        from repro.xla.compiler import compile_function

        target = fn
        if input_specs is not None and not all(
            spec.is_fully_defined for spec in fn.input_specs
        ):
            target = self.specialize(fn, input_specs)
        return compile_function(target)
