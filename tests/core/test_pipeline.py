"""The staged-compilation pipeline: stages, refinement, specialization.

Exercises :mod:`repro.core.pipeline` directly: tracing under symbolic
specs, the shape-refinement sweep, per-shape specialization of a
symbolic trace (no Python re-execution), and the per-shape compiled
cache on ConcreteFunction.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.pipeline import CompilationPipeline, artifact_cache, refine_shapes
from repro.core.tracing import TENSOR_MARKER
from repro.framework.errors import UnimplementedError
from repro.graph.function import GraphFunction
from repro.tensor import TensorSpec
from repro.xla.compiler import compile_function


def _trace_symbolic(pipeline=None, n=4):
    """A matmul+relu body traced at a symbolic [None, n] signature."""
    pipeline = pipeline or CompilationPipeline()
    w = np.arange(n * 3, dtype=np.float32).reshape(n, 3)

    def body(x):
        return repro.maximum(repro.matmul(x, repro.constant(w)), 0.0)

    graph, outs, _ = pipeline.trace(
        body,
        [TensorSpec([None, n], repro.float32)],
        name="body",
        structured_args=((TENSOR_MARKER,), {}),
    )
    fn = GraphFunction("body", graph, list(graph.inputs), outs)
    return pipeline, fn, w


class TestStages:
    def test_trace_produces_symbolic_graph(self):
        _, fn, _ = _trace_symbolic()
        assert fn.input_specs[0].shape.dims == (None, 4)
        assert fn.output_specs[0].shape.dims == (None, 3)

    def test_plan_is_shape_polymorphic(self):
        pipeline, fn, w = _trace_symbolic()
        pipeline.finalize(fn)
        plan = pipeline.plan(fn)
        assert pipeline.plan(fn) is plan  # cached
        for b in (2, 6):
            x = np.ones((b, 4), np.float32)
            (out,) = fn.run([repro.constant(x)])
            np.testing.assert_allclose(out.numpy(), np.maximum(x @ w, 0.0), rtol=1e-6)

    def test_plan_rejects_incompatible_feed(self):
        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        with pytest.raises(repro.framework.errors.InvalidArgumentError, match="symbolic"):
            fn.run([repro.constant(np.ones((2, 5), np.float32))])

    def test_finalize_reports_stage_counts(self):
        pipeline, fn, _ = _trace_symbolic()
        report = pipeline.finalize(fn)
        assert "infer:refined" in report
        assert any(k.endswith("prune") for k in report)


class TestRefineShapes:
    def test_sharpens_after_input_pinning(self):
        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        # Pin the symbolic input dim and re-run the infer stage: the
        # refinement must flow through matmul and relu to the outputs.
        fn.inputs[0].spec = TensorSpec([8, 4], repro.float32)
        refined = refine_shapes(fn)
        assert refined >= 1
        assert fn.output_specs[0].shape.dims == (8, 3)

    def test_idempotent(self):
        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        assert refine_shapes(fn) == 0  # nothing new to learn


class TestSpecialize:
    def test_specialized_clone_is_static(self):
        pipeline, fn, w = _trace_symbolic()
        pipeline.finalize(fn)
        spec_fn = pipeline.specialize(fn, [TensorSpec([5, 4], repro.float32)])
        assert spec_fn.input_specs[0].shape.dims == (5, 4)
        assert spec_fn.output_specs[0].shape.dims == (5, 3)
        # The original stays symbolic (specialization clones).
        assert fn.input_specs[0].shape.dims == (None, 4)
        x = np.random.rand(5, 4).astype(np.float32)
        (out,) = spec_fn.run([repro.constant(x)])
        np.testing.assert_allclose(out.numpy(), np.maximum(x @ w, 0.0), rtol=1e-6)

    def test_shape_op_folds_under_specialization(self):
        pipeline = CompilationPipeline()

        def body(x):
            return repro.reshape(x, repro.shape(x))  # dynamic-shape round trip

        graph, outs, _ = pipeline.trace(
            body,
            [TensorSpec([None, 4], repro.float32)],
            name="dyn",
            structured_args=((TENSOR_MARKER,), {}),
        )
        fn = GraphFunction("dyn", graph, list(graph.inputs), outs)
        pipeline.finalize(fn)
        # Symbolically the Shape op must stay dynamic ...
        assert any(n.op_name == "Shape" for n in fn.graph.nodes)
        # ... but at a concrete shape it constant-folds away and the
        # whole round trip collapses to the input.
        spec_fn = pipeline.specialize(fn, [TensorSpec([3, 4], repro.float32)])
        assert not any(n.op_name == "Shape" for n in spec_fn.graph.nodes)

    def test_compile_requires_static_shapes(self):
        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        with pytest.raises(UnimplementedError, match="static shapes"):
            compile_function(fn)
        # The pipeline route specializes first, so it succeeds.
        exe = pipeline.compile(fn, input_specs=[TensorSpec([2, 4], repro.float32)])
        assert exe.num_launch_instructions >= 1


class TestPerShapeCompiledCache:
    def test_one_executable_per_shape_under_one_trace(self):
        @repro.function(experimental_relax_shapes=True, jit_compile=True)
        def f(x):
            return repro.tanh(x) * 2.0

        def call(b):
            x = np.random.rand(b, 3).astype(np.float32)
            np.testing.assert_allclose(
                f(repro.constant(x)).numpy(), np.tanh(x) * 2.0, rtol=1e-5
            )

        call(2)  # exact trace (static: single executable, key None)
        call(4)  # relaxed trace; per-shape executable
        call(6)
        call(4)  # cache hit: no new executable
        assert f.trace_count == 2
        concrete = f.get_concrete_function(
            repro.constant(np.ones((4, 3), np.float32))
        )
        assert set(concrete.graph_function.executables) == {((4, 3),), ((6, 3),)}

    def test_release_clears_per_shape_cache(self):
        @repro.function(experimental_relax_shapes=True, jit_compile=True)
        def f(x):
            return x + 1.0

        f(repro.constant(np.ones((2, 3), np.float32)))
        f(repro.constant(np.ones((4, 3), np.float32)))
        concrete = f.get_concrete_function(
            repro.constant(np.ones((4, 3), np.float32))
        )
        assert concrete.graph_function.executables
        # The graph function is the artifact cache's, shared by every
        # trace of this structure: evicting one trace leaves it, and the
        # artifact cache's release clears its per-shape executables.
        concrete.release()
        assert concrete.graph_function.executables
        artifact_cache().clear()
        assert not concrete.graph_function.executables

    def test_optimize_releases_what_was_built_from_the_graph(self):
        from repro.core.backprop import build_rematerializing_backward
        from repro.xla.compiler import executable_for

        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        x = repro.constant(np.ones((2, 4), np.float32))
        fn.run([x])
        executable_for(fn, [x])
        fn._remat_backward = build_rematerializing_backward(fn)
        assert fn._runner is not None and fn.executables
        fn.optimize()
        assert fn._runner is None
        assert not fn.executables
        assert "_remat_backward" not in vars(fn)


def _count_infer_calls(monkeypatch):
    """Patch ``OpDef.infer`` to count invocations; returns the counter."""
    from repro.ops import registry

    calls = [0]
    original = registry.OpDef.infer

    def counting(self, input_specs, attrs):
        calls[0] += 1
        return original(self, input_specs, attrs)

    monkeypatch.setattr(registry.OpDef, "infer", counting)
    return calls


class TestEachNodeInferredOnce:
    """Post-trace stages must not re-derive what the trace already knows."""

    @staticmethod
    def _static_program(x, w1, w2):
        h = repro.tanh(repro.matmul(x, w1) * 0.5 + 0.25)
        h = h * h + repro.exp(-h) * 2.0
        for _ in range(6):
            h = repro.tanh(h * 1.5 - 0.1)
        logits = repro.matmul(h, w2)
        scale = repro.constant(2.0) * repro.constant(4.0)  # folds
        return repro.reduce_sum(logits * scale) + repro.reduce_mean(h)

    def test_infer_calls_bounded_by_nodes_traced(self, monkeypatch):
        from repro.runtime.context import context

        previous = context.graph_fusion
        context.graph_fusion = True
        try:
            calls = _count_infer_calls(monkeypatch)
            pipeline = CompilationPipeline()
            specs = [
                TensorSpec([8, 16], repro.float32),
                TensorSpec([16, 32], repro.float32),
                TensorSpec([32, 4], repro.float32),
            ]
            graph, outs, _ = pipeline.trace(
                self._static_program,
                specs,
                name="static",
                structured_args=((TENSOR_MARKER,) * 3, {}),
            )
            nodes_traced = len(graph.nodes)
            fn = GraphFunction("static", graph, list(graph.inputs), outs)
            report = pipeline.finalize(fn)
            pipeline.plan(fn)
        finally:
            context.graph_fusion = previous
        assert nodes_traced >= 30
        assert report["6:fuse"] >= 1  # regions exist, and were not re-inferred
        assert not graph.has_unknown_dims
        # One inference per traced node; the slack covers the Const
        # nodes that folding adds.
        assert calls[0] <= 1.25 * nodes_traced, (calls[0], nodes_traced)

    def test_static_refine_is_sweep_free_symbolic_is_not(self, monkeypatch):
        pipeline, fn, _ = _trace_symbolic()
        pipeline.finalize(fn)
        spec_fn = pipeline.specialize(fn, [TensorSpec([5, 4], repro.float32)])
        assert spec_fn.output_specs[0].shape.dims == (5, 3)
        calls = _count_infer_calls(monkeypatch)
        assert not spec_fn.graph.has_unknown_dims
        assert refine_shapes(spec_fn) == 0
        assert calls[0] == 0
        assert fn.graph.has_unknown_dims
        refine_shapes(fn)
        assert calls[0] > 0

    def test_refine_sharpens_signature_trace_through_fused_region(self):
        from repro.graph import fusion
        from repro.runtime.context import context

        # Finalized outside the artifact cache: a graph function the
        # cache holds is shared by every equal trace and is never edited.
        context.graph_fusion = True
        pipeline = CompilationPipeline()
        graph, outs, _ = pipeline.trace(
            lambda x: repro.tanh(x * 2.0 + 1.0) * x,
            [TensorSpec([None, 4], repro.float32)],
            name="f",
            structured_args=((TENSOR_MARKER,), {}),
        )
        gf = GraphFunction("f", graph, list(graph.inputs), outs)
        pipeline.finalize(gf)
        assert fusion.has_fused_nodes(gf)
        assert gf.output_specs[0].shape.dims == (None, 4)
        gf.inputs[0].spec = TensorSpec([8, 4], repro.float32)
        assert refine_shapes(gf) >= 1
        assert gf.output_specs[0].shape.dims == (8, 4)


class TestStageTimes:
    @pytest.mark.parametrize("fusion", [True, False])
    def test_finalize_and_execution_stats_report_stage_ms(self, fusion):
        from repro.runtime.context import context

        context.graph_fusion = fusion

        @repro.function
        def f(x):
            return repro.tanh(x * 2.0 + 1.0)

        f(repro.constant([0.0, 1.0]))
        (trace,) = f.execution_stats()["traces"]
        stage_ms = trace["stage_ms"]
        for key in ("trace_ms", "0:prune_ms", "4:cse_ms", "infer_ms", "plan_ms"):
            assert stage_ms[key] >= 0.0, key
        assert stage_ms["trace_ms"] > 0.0
        passes = [key.split(":")[1][: -len("_ms")] for key in stage_ms if ":" in key]
        assert "cse" in passes
        assert ("fuse" in passes) == fusion, passes
        pipeline, fn, _ = _trace_symbolic()
        report = pipeline.finalize(fn)
        assert report["infer_ms"] >= 0.0 and "1:fold_ms" in report
        # Counts stay separable from times.
        assert all(isinstance(v, int) for k, v in report.items() if not k.endswith("_ms"))
