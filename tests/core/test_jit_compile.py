"""function(jit_compile=True): XLA-sim lowering of traces (paper §4.4)."""

import numpy as np
import pytest

import repro
import repro.xla  # install the TPU bridge
from repro.runtime.context import context


class TestJitParity:
    def test_matches_graph_execution(self):
        def model(x):
            return repro.reduce_sum(repro.tanh(repro.matmul(x, x) * 0.5) + 1.0)

        plain = repro.function(model)
        jitted = repro.function(model, jit_compile=True)
        x = repro.constant(np.random.randn(8, 8).astype(np.float32))
        assert float(jitted(x)) == pytest.approx(float(plain(x)), rel=1e-5)

    def test_multi_output(self):
        @repro.function(jit_compile=True)
        def f(x):
            return x * 2.0, repro.reduce_sum(x)

        a, b = f(repro.constant([1.0, 2.0]))
        np.testing.assert_allclose(a.numpy(), [2.0, 4.0])
        assert float(b) == 3.0

    def test_variables_read_and_written(self):
        v = repro.Variable([1.0, 2.0])

        @repro.function(jit_compile=True)
        def bump(x):
            v.assign_add(x)
            return v.read_value()

        out = bump(repro.constant([1.0, 1.0]))
        np.testing.assert_allclose(out.numpy(), [2.0, 3.0])
        np.testing.assert_allclose(v.numpy(), [2.0, 3.0])

    def test_compiled_once_then_cached(self):
        @repro.function(jit_compile=True)
        def f(x):
            return repro.exp(x)

        x = repro.constant([0.5])
        f(x)
        executables = f.get_concrete_function(x).graph_function.executables
        exe = executables[None]
        assert exe.num_launch_instructions >= 1
        f(x)
        assert executables == {None: exe}

    def test_py_func_falls_back_gracefully(self):
        @repro.function(jit_compile=True)
        def f(x):
            return repro.py_func(lambda v: v.numpy() * 2, [x], Tout=repro.float32)

        out = f(repro.constant([2.0]))
        np.testing.assert_allclose(out.numpy(), [4.0])
        concrete = f.get_concrete_function(repro.constant([2.0]))
        # Remembered as uncompilable, with the reason.
        assert "host-only" in concrete.graph_function.executables[None]

    def test_gradients_still_flow(self):
        v = repro.Variable(3.0)

        @repro.function(jit_compile=True)
        def f(x):
            return x * v * v

        with repro.GradientTape() as tape:
            y = f(repro.constant(2.0))
        assert float(tape.gradient(y, v)) == pytest.approx(12.0)


class TestJitOnDevices:
    def test_single_launch_on_tpu(self):
        @repro.function(jit_compile=True)
        def f(x):
            return repro.reduce_sum(repro.tanh(x) * x)

        device = context.get_device("/tpu:0")
        x = repro.constant(np.random.randn(16).astype(np.float32))
        with repro.device("/tpu:0"):
            f(x)
            device.reset_stats()
            f(x)
        assert device.simulated_time_us >= device.cost_model.launch_overhead_us
        assert device.simulated_time_us < 2 * device.cost_model.launch_overhead_us

    def test_fusion_reduces_dispatches(self):
        def chain(x):
            y = x
            for _ in range(10):
                y = repro.tanh(y * 1.01)
            return y

        jitted = repro.function(chain, jit_compile=True)
        plain = repro.function(chain)
        x = repro.constant(np.random.randn(32).astype(np.float32))
        jitted(x)
        exe = jitted.get_concrete_function(x).graph_function.executables[None]
        # 20 elementwise ops collapse into one fused dispatch — also
        # with ``context.graph_fusion`` off: compile fuses its own clone.
        assert exe.num_launch_instructions < 5
        concrete = plain.get_concrete_function(x)
        assert concrete.num_nodes > exe.num_launch_instructions
