"""Property tests: graph optimization never changes program meaning.

Random DAGs of arithmetic ops (with shared subexpressions, constants,
and dead branches mixed in) must produce bit-identical results before
and after the full optimization pipeline, and the same holds for
serialization round-trips of the optimized graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.tracing import trace_into_graph
from repro.graph.function import GraphFunction
from repro.graph.optimize import optimize_function
from repro.graph.serialization import function_from_def, function_to_def
from repro.tensor import TensorSpec

_BINARY = [repro.add, repro.subtract, repro.multiply, repro.maximum]
_UNARY = [repro.tanh, repro.exp, lambda t: t * 1.0, lambda t: t + 0.0, repro.negative]


@st.composite
def _programs(draw):
    """A random straight-line program over one input vector."""
    steps = draw(st.lists(st.tuples(
        st.integers(0, 1),          # unary vs binary
        st.integers(0, 4),          # op index
        st.integers(0, 7),          # operand pick a
        st.integers(0, 7),          # operand pick b
        st.booleans(),              # mix in a constant operand
    ), min_size=2, max_size=12))
    out_pick = draw(st.integers(0, 7))
    return steps, out_pick


def _build(steps, out_pick):
    def program(x):
        values = [x, x * 0.5]
        for kind, op_idx, a, b, use_const in steps:
            lhs = values[a % len(values)]
            if kind == 0:
                values.append(_UNARY[op_idx % len(_UNARY)](lhs))
            else:
                rhs = (
                    repro.constant(1.5)
                    if use_const
                    else values[b % len(values)]
                )
                values.append(_BINARY[op_idx % len(_BINARY)](lhs, rhs))
        return values[out_pick % len(values)] * 1.0

    graph, outs, _ = trace_into_graph(program, [TensorSpec([4])], "prop")
    return GraphFunction("prop", graph, list(graph.inputs), outs)


class TestOptimizationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(_programs(), st.integers(0, 2 ** 31 - 1))
    def test_pipeline_preserves_values(self, program, seed):
        steps, out_pick = program
        fn = _build(steps, out_pick)
        rng = np.random.default_rng(seed)
        x = repro.constant(rng.normal(size=4).astype(np.float32) * 0.5)
        (before,) = fn.run([x])
        optimize_function(fn)
        (after,) = fn.run([x])
        np.testing.assert_allclose(
            after.numpy(), before.numpy(), rtol=1e-6, atol=1e-6, equal_nan=True
        )

    @settings(max_examples=30, deadline=None)
    @given(_programs())
    def test_pipeline_never_grows_the_graph(self, program):
        steps, out_pick = program
        fn = _build(steps, out_pick)
        before = fn.num_nodes
        optimize_function(fn)
        assert fn.num_nodes <= before

    @settings(max_examples=30, deadline=None)
    @given(_programs(), st.integers(0, 2 ** 31 - 1))
    def test_optimized_graph_serializes(self, program, seed):
        steps, out_pick = program
        fn = _build(steps, out_pick)
        optimize_function(fn)
        rng = np.random.default_rng(seed)
        x = repro.constant(rng.normal(size=4).astype(np.float32) * 0.5)
        (direct,) = fn.run([x])
        rebuilt = function_from_def(function_to_def(fn))
        (roundtrip,) = rebuilt.run([x])
        np.testing.assert_allclose(
            roundtrip.numpy(), direct.numpy(), rtol=1e-6, equal_nan=True
        )

    @settings(max_examples=30, deadline=None)
    @given(_programs(), st.integers(0, 2 ** 31 - 1))
    def test_compiled_execution_matches_interpreter(self, program, seed):
        """XLA-sim, lowering the graph clusterer's regions, agrees with
        the graph executor — in values and in what the cost model may
        and may not change."""
        from repro.graph.fusion import defuse_function
        from repro.runtime.context import context
        from repro.xla import hlo
        from repro.xla.compiler import compile_function

        steps, out_pick = program
        fn = _build(steps, out_pick)
        rng = np.random.default_rng(seed)
        x = repro.constant(rng.normal(size=4).astype(np.float32) * 0.5)
        (interpreted,) = fn.run([x])
        exe = compile_function(fn)
        (compiled,) = exe.execute([x._array], context.cpu_device())
        np.testing.assert_allclose(
            compiled, interpreted.numpy(), rtol=1e-6, equal_nan=True
        )
        # Fusion moves no arithmetic, only memory traffic: the internal
        # values of a region are never charged.
        fused = exe.computation
        unfused = hlo.lower(defuse_function(fn))
        assert fused.total_flops == unfused.total_flops
        regions = [i for i in fused.instructions if i.opcode == "Fusion"]
        if regions:
            assert fused.total_bytes < unfused.total_bytes
        else:
            assert fused.total_bytes == unfused.total_bytes
        # Every op here is elementwise and hangs off the one input, so a
        # value with two consumers (a diamond) never splits a region:
        # what the output depends on is one Fusion (or the lone op a
        # region of one is not built for).
        live = {index for index, _slot in fused.roots}
        for instr in reversed(fused.instructions):
            if instr.index in live:
                live.update(index for index, _slot in instr.operands)
        launched = [
            i.opcode
            for i in fused.instructions
            if i.index in live and i.opcode not in ("Parameter", "Const")
        ]
        assert launched == ["Fusion"] or len(launched) <= 1
