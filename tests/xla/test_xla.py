"""XLA-sim: lowering, fusion, compiled execution, and the TPU bridge."""

import contextlib
import gc

import numpy as np
import pytest

import repro
import repro.xla  # installs the TPU hook
from repro.framework.errors import UnimplementedError
from repro.core.pipeline import artifact_cache
from repro.graph import fusion
from repro.runtime.context import context
from repro.xla import compiler, hlo, tpu


def _concrete(fn, *args):
    return repro.function(fn).get_concrete_function(*args).graph_function


def _fused(fn, *args):
    """The traced function with the graph clusterer applied, whatever
    ``context.graph_fusion`` says."""
    gf = _concrete(fn, *args)
    if not fusion.has_fused_nodes(gf):
        fusion.fuse_function(gf)
    return gf


class TestLowering:
    def test_parameters_and_roots(self):
        gf = _concrete(lambda x: repro.reduce_sum(x * x), repro.constant([1.0, 2.0]))
        comp = hlo.lower(gf)
        params = [i for i in comp.instructions if i.opcode == "Parameter"]
        assert len(params) == len(gf.inputs)
        assert len(comp.roots) == 1

    def test_cost_estimates_positive(self):
        gf = _concrete(
            lambda x: repro.matmul(x, x),
            repro.constant(np.eye(8, dtype=np.float32)),
        )
        comp = hlo.lower(gf)
        matmuls = [i for i in comp.instructions if i.opcode == "MatMul"]
        assert matmuls and matmuls[0].flops == pytest.approx(2 * 8 * 8 * 8)
        assert comp.total_bytes > 0

    def test_py_func_uncompilable(self):
        gf = _concrete(
            lambda x: repro.py_func(lambda v: v.numpy(), [x], Tout=repro.float32),
            repro.constant(1.0),
        )
        with pytest.raises(UnimplementedError):
            hlo.lower(gf)


class TestFusion:
    """XLA-sim has no clusterer of its own: ``lower`` turns each
    ``FusedElementwise`` node of a graph-fused function into one
    ``Fusion`` instruction."""

    def test_elementwise_chain_fuses(self):
        gf = _fused(
            lambda x: repro.tanh(repro.exp(x * 2.0) + 1.0),
            repro.constant([1.0, 2.0]),
        )
        fused = hlo.lower(gf)
        (fusion_instr,) = [i for i in fused.instructions if i.opcode == "Fusion"]
        assert fusion_instr.kernel is gf.graph.ops_by_type(fusion.FUSED_OP)[0].attrs["region"]
        assert fusion_instr.attrs["ops"] == ("Mul", "Exp", "Add", "Tanh")
        # Fewer launches after fusion.
        unfused = hlo.lower(fusion.defuse_function(gf))
        assert len(fused.instructions) < len(unfused.instructions)

    def test_matmul_breaks_fusion(self):
        gf = _fused(
            lambda x: repro.tanh(repro.matmul(repro.exp(x * 2.0), x) + 1.0),
            repro.constant(np.eye(3, dtype=np.float32)),
        )
        opcodes = [i.opcode for i in hlo.lower(gf).instructions]
        assert "MatMul" in opcodes
        assert opcodes.count("Fusion") == 2  # one region on each side

    def test_fanout_fuses_into_one_multi_consumer_region(self):
        def f(x):
            y = repro.exp(x)  # two consumers, both inside the region
            return y * 2.0 + y

        gf = _fused(f, repro.constant([1.0]))
        launched = [
            i.opcode
            for i in hlo.lower(gf).instructions
            if i.opcode not in ("Parameter", "Const")
        ]
        assert launched == ["Fusion"]

    def test_multi_output_region_is_one_instruction(self):
        def f(x):
            y = repro.exp(x) + 1.0
            return y, repro.tanh(y)  # y escapes *and* feeds a member

        gf = _fused(f, repro.constant([0.3, -1.2]))
        comp = hlo.lower(gf)
        (fusion_instr,) = [i for i in comp.instructions if i.opcode == "Fusion"]
        assert len(fusion_instr.output_specs) == 2
        assert {index for index, _slot in comp.roots} == {fusion_instr.index}
        exe = compiler.compile_function(gf)
        y, t = exe.execute([np.float32([0.3, -1.2])], context.get_device("/tpu:0"))
        np.testing.assert_allclose(y, np.exp(np.float32([0.3, -1.2])) + 1.0, rtol=1e-6)
        np.testing.assert_allclose(t, np.tanh(y), rtol=1e-6)

    def test_fusion_preserves_values(self):
        def f(x):
            return repro.tanh(repro.exp(x * 2.0) + repro.sigmoid(x))

        gf = _fused(f, repro.constant([0.3, -1.2]))
        reference = gf.run([repro.constant([0.3, -1.2])])[0].numpy()
        exe = compiler.compile_function(gf)
        out = exe.execute([np.float32([0.3, -1.2])], context.get_device("/tpu:0"))
        np.testing.assert_allclose(out[0], reference, rtol=1e-6)

    def test_fusion_reduces_modelled_bytes(self):
        gf = _fused(
            lambda x: repro.tanh(repro.exp(x * 2.0) + 1.0),
            repro.constant(np.zeros(1024, np.float32)),
        )
        fused = hlo.lower(gf)
        unfused = hlo.lower(fusion.defuse_function(gf))
        assert fused.total_bytes < unfused.total_bytes
        assert fused.total_flops == unfused.total_flops

    def test_compile_fuses_a_clone_of_an_unfused_function(self):
        previous = context.graph_fusion
        context.graph_fusion = False
        try:
            gf = _concrete(
                lambda x: repro.tanh(repro.exp(x * 2.0) + 1.0),
                repro.constant([1.0, 2.0]),
            )
        finally:
            context.graph_fusion = previous
        nodes = list(gf.graph.nodes)
        plan = gf.plan()
        exe = compiler.compile_function(gf)
        assert [i.opcode for i in exe.computation.instructions].count("Fusion") == 1
        # The caller's graph and plan are what they were.
        assert gf.graph.nodes == nodes and gf.plan() is plan
        assert not fusion.has_fused_nodes(gf)


class TestCompiledExecution:
    def test_values_match_cpu(self):
        gf = _concrete(
            lambda x: repro.reduce_sum(repro.matmul(x, x) * 0.5),
            repro.constant(np.eye(4, dtype=np.float32)),
        )
        exe = compiler.compile_function(gf)
        arg = np.random.randn(4, 4).astype(np.float32)
        cpu_out = gf.run([repro.constant(arg)])[0].numpy()
        tpu_out = exe.execute([arg], context.get_device("/tpu:0"))[0]
        np.testing.assert_allclose(tpu_out, cpu_out, rtol=1e-5)

    def test_one_launch_overhead_per_execution(self):
        gf = _concrete(lambda x: repro.tanh(x) + repro.exp(x), repro.constant([1.0]))
        exe = compiler.compile_function(gf)
        dev = context.get_device("/tpu:0")
        dev.reset_stats()
        exe.execute([np.float32([1.0])], dev)
        once = dev.simulated_time_us
        exe.execute([np.float32([1.0])], dev)
        assert dev.simulated_time_us == pytest.approx(2 * once)
        assert once >= dev.cost_model.launch_overhead_us


class TestTPUBridge:
    def test_per_op_execution_charges_launch_each_time(self):
        dev = context.get_device("/tpu:0")
        dev.reset_stats()
        with repro.device("/tpu:0"):
            a = repro.constant([1.0, 2.0])
            b = a * 2.0 + 1.0
        np.testing.assert_allclose(b.numpy(), [3.0, 5.0])
        # constant copy is free; Mul and Add each pay >= one launch.
        assert dev.simulated_time_us >= 2 * dev.cost_model.launch_overhead_us

    def test_staged_call_is_one_launch(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(repro.tanh(x) * x + 1.0)

        dev = context.get_device("/tpu:0")
        x = repro.constant(np.random.randn(16).astype(np.float32))
        with repro.device("/tpu:0"):
            f(x)  # compile + first launch
            dev.reset_stats()
            out_tpu = f(x)
        per_step = dev.simulated_time_us
        assert per_step < 2 * dev.cost_model.launch_overhead_us
        np.testing.assert_allclose(float(out_tpu), float(f(x)), rtol=1e-5)

    def test_single_op_programs_are_cached(self):
        tpu.reset_caches()
        with repro.device("/tpu:0"):
            x = repro.constant([1.0])
            for _ in range(5):
                x = x * 1.5
        stats = tpu.compile_cache_stats()
        assert stats["op_compiles"] == 1  # same signature compiles once
        assert stats["launches"] >= 5

    def test_variables_work_on_tpu(self):
        with repro.device("/tpu:0"):
            v = repro.Variable([1.0, 2.0])
            v.assign_add([1.0, 1.0])
        np.testing.assert_allclose(v.numpy(), [2.0, 3.0])

    def test_gradients_through_tpu_function(self):
        v = repro.Variable(2.0)

        @repro.function
        def f(x):
            return x * v * v

        x = repro.constant(3.0)
        with repro.device("/tpu:0"):
            with repro.GradientTape() as tape:
                y = f(x)
            g = tape.gradient(y, v)
        assert float(g) == pytest.approx(12.0)


class TestNestedFunctionCompiled:
    """Listing 8 compiled: a function called from a compiled function
    lowers to one call instruction of the outer program."""

    @pytest.mark.parametrize("device", [None, "/tpu:0"], ids=["jit_compile", "tpu"])
    def test_matches_eager(self, device):
        from repro.ops import nn_ops

        @repro.function
        def inner(a):
            return nn_ops.relu(a)

        def outer(a, b):
            return inner(repro.matmul(a, b)) * 2.0 + 1.0

        a = repro.eye(3)
        b = repro.diag(repro.constant([-1.0, 1.0, 2.0]))
        expected = outer(a, b).numpy()
        staged = repro.function(outer, jit_compile=device is None)
        with repro.device(device) if device else contextlib.nullcontext():
            out = staged(a, b)
            gf = staged.get_concrete_function(a, b).graph_function
        np.testing.assert_allclose(out.numpy(), expected)
        (exe,) = gf.executables.values()
        assert "PartitionedCall" in [i.opcode for i in exe.computation.instructions]


class TestOneExecutableCache:
    """``jit_compile`` and TPU placement share the cache each graph
    function owns; nothing is keyed by ``id()`` and nothing outlives the
    function."""

    def test_short_lived_functions_get_their_own_executable(self):
        def live_executables():
            gc.collect()
            return sum(
                isinstance(o, compiler.CompiledExecutable) for o in gc.get_objects()
            )

        def call(k):
            f = repro.function(lambda t: t * float(k))
            with repro.device("/tpu:0"):
                return f(x).numpy()

        x = repro.constant([1.0, 2.0])
        call(0)
        before = live_executables()
        wrong = [k for k in range(200) if call(k).tolist() != [float(k), 2.0 * k]]
        assert not wrong  # an id()-keyed cache serves a dead function's program
        # Every function is gone; once the artifact cache lets go of the
        # graph functions it holds, every executable must be gone too.
        artifact_cache().clear()
        assert live_executables() <= before

    def test_relaxed_trace_specializes_per_shape_on_tpu(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(repro.tanh(x) * 2.0, axis=1)

        dev = context.get_device("/tpu:0")
        batches = (2, 4, 6, 3)
        with repro.device("/tpu:0"):
            for b in batches:
                x = np.random.rand(b, 3).astype(np.float32)
                np.testing.assert_allclose(
                    f(repro.constant(x)).numpy(), (np.tanh(x) * 2.0).sum(1), rtol=1e-5
                )
            for b in batches:  # warm: one launch, no compile
                x = repro.constant(np.ones((b, 3), np.float32))
                dev.reset_stats()
                f(x)
                assert dev.simulated_time_us < 2 * dev.cost_model.launch_overhead_us
            relaxed = f.get_concrete_function(x)
        assert f.trace_count == 2
        assert relaxed.graph_function.input_specs[0].shape.dims == (None, 3)
        assert set(relaxed.graph_function.executables) == {
            ((4, 3),), ((6, 3),), ((3, 3),)
        }
        relaxed.release()  # the graph function is the artifact cache's
        artifact_cache().clear()
        assert not relaxed.graph_function.executables

    def test_uncompilable_function_is_remembered_and_raises_on_tpu(self):
        @repro.function
        def f(x):
            return repro.py_func(lambda v: v.numpy() * 2, [x], Tout=repro.float32)

        x = repro.constant([2.0])
        with repro.device("/tpu:0"):
            gf = f.get_concrete_function(x).graph_function
            for _ in range(2):
                with pytest.raises(UnimplementedError, match="host-only"):
                    f(x)
        assert isinstance(gf.executables[None], str)
