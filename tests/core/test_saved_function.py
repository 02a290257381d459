"""Exporting traced functions (paper §4.3 production workflow)."""

import numpy as np
import pytest

import repro
from repro.core import saved_function
from repro.framework.errors import InvalidArgumentError


class TestSaveLoad:
    def test_roundtrip_pure_function(self, tmp_path):
        @repro.function
        def f(x):
            return repro.tanh(x) * 2.0 + 1.0

        x = repro.constant([0.3, -1.2])
        expected = f(x).numpy()
        path = saved_function.save(f, str(tmp_path / "f"), x)
        loaded = saved_function.load(path)
        np.testing.assert_allclose(loaded(x).numpy(), expected, rtol=1e-6)

    def test_variables_snapshotted(self, tmp_path):
        v = repro.Variable([[2.0]])

        @repro.function
        def f(x):
            return repro.matmul(x, v)

        x = repro.constant([[3.0]])
        path = saved_function.save(f, str(tmp_path / "f"), x)
        v.assign([[100.0]])  # post-save mutation must not leak in
        loaded = saved_function.load(path)
        assert float(loaded(x)[0, 0]) == 6.0
        assert len(loaded.variables) == 1
        assert float(loaded.variables[0].numpy()[0, 0]) == 2.0

    def test_loaded_state_is_independent_and_mutable(self, tmp_path):
        counter = repro.Variable(0.0)

        @repro.function
        def bump(x):
            counter.assign_add(1.0)
            return counter.read_value() + x

        x = repro.constant(0.0)
        bump(x)  # counter -> 1 before saving
        path = saved_function.save(bump, str(tmp_path / "bump"), x)
        loaded = saved_function.load(path)
        assert float(loaded(x)) == 2.0  # loaded counter starts at 1
        assert float(loaded(x)) == 3.0  # loaded graph mutates its own copy
        assert float(counter.read_value()) == 1.0  # original untouched

    def test_structured_outputs(self, tmp_path):
        @repro.function
        def f(x):
            return {"double": x * 2.0, "pair": (x, x + 1.0)}

        x = repro.constant(4.0)
        path = saved_function.save(f, str(tmp_path / "f"), x)
        out = saved_function.load(path)(x)
        assert float(out["double"]) == 8.0
        assert isinstance(out["pair"], tuple)
        assert float(out["pair"][1]) == 5.0

    def test_concrete_function_accepted(self, tmp_path):
        @repro.function
        def f(x):
            return x + 1.0

        concrete = f.get_concrete_function(repro.constant(1.0))
        path = saved_function.save(concrete, str(tmp_path / "c"))
        assert float(saved_function.load(path)(repro.constant(2.0))) == 3.0

    def test_saved_training_step_keeps_training(self, tmp_path):
        """A staged train step exported and resumed elsewhere."""
        from repro import nn

        repro.set_random_seed(0)
        w = repro.Variable([[0.0], [0.0]])
        x_np = np.random.randn(16, 2).astype(np.float32)
        y_np = (x_np @ np.float32([[1.0], [-1.0]])).astype(np.float32)

        @repro.function
        def step(x, y):
            with repro.GradientTape() as tape:
                loss = nn.mean_squared_error(y, repro.matmul(x, w))
            (g,) = tape.gradient(loss, [w])
            w.assign_sub(g * 0.1)
            return loss

        x, y = repro.constant(x_np), repro.constant(y_np)
        step(x, y)
        path = saved_function.save(step, str(tmp_path / "step"), x, y)
        loaded = saved_function.load(path)
        losses = [float(loaded(x, y)) for _ in range(20)]
        assert losses[-1] < losses[0] * 0.5  # it really trains

    def test_polymorphic_requires_example_args(self, tmp_path):
        @repro.function
        def f(x):
            return x

        with pytest.raises(InvalidArgumentError):
            saved_function.save(f, str(tmp_path / "f"))

    def test_arity_checked_at_call(self, tmp_path):
        @repro.function
        def f(x):
            return x * 1.0

        path = saved_function.save(f, str(tmp_path / "f"), repro.constant(1.0))
        loaded = saved_function.load(path)
        with pytest.raises(InvalidArgumentError):
            loaded(repro.constant(1.0), repro.constant(2.0))

    def test_py_func_rejected(self, tmp_path):
        @repro.function
        def f(x):
            return repro.py_func(lambda v: v.numpy(), [x], Tout=repro.float32)

        with pytest.raises(InvalidArgumentError):
            saved_function.save(f, str(tmp_path / "f"), repro.constant(1.0))

    def test_wrong_file_rejected(self, tmp_path):
        bad = tmp_path / "junk.npz"
        np.savez(str(bad), __saved_function__=np.frombuffer(b'{"format":"x"}', dtype=np.uint8))
        with pytest.raises(InvalidArgumentError):
            saved_function.load(str(bad))


class TestProfiler:
    def test_collects_per_op_stats(self):
        x = repro.constant(np.random.randn(64, 64).astype(np.float32))
        with repro.profiler.Profile() as prof:
            # Chained (not repeated-identical) matmuls: lazy mode would
            # CSE four copies of the same op into one dispatch.
            y = x
            for _ in range(4):
                y = repro.matmul(y, x)
            z = repro.tanh(x)
            repro.sync()  # lazy mode: run the kernels in-profile
        del y, z
        assert prof.ops["MatMul"].count == 4
        assert prof.ops["Tanh"].count == 1
        assert prof.total_op_seconds > 0
        assert "MatMul" in prof.summary()

    def test_profiles_staged_execution_too(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(repro.exp(x) * x)

        x = repro.constant(np.random.randn(32).astype(np.float32))
        f(x)
        with repro.profiler.Profile() as prof:
            f(x)
        from repro.runtime.context import context

        if context.graph_fusion:
            # The Exp*Mul chain dispatches as one fused region.
            assert "FusedElementwise" in prof.ops
        else:
            assert "Exp" in prof.ops  # inner graph nodes are visible

    def test_inactive_by_default(self):
        x = repro.constant(1.0)
        with repro.profiler.Profile() as prof:
            pass
        repro.add(x, x)  # after exit: not recorded
        assert prof.total_ops == 0

    def test_nested_profilers_rejected(self):
        with repro.profiler.Profile():
            with pytest.raises(RuntimeError):
                with repro.profiler.Profile():
                    pass

    def test_top_is_sorted(self):
        x = repro.constant(np.random.randn(256, 256).astype(np.float32))
        small = repro.constant(1.0)
        with repro.profiler.Profile() as prof:
            big = repro.matmul(x, x)
            tiny = repro.add(small, small)
            repro.sync()  # lazy mode: run the kernels in-profile
        del big, tiny
        names = [name for name, _ in prof.top(2)]
        assert names[0] == "MatMul"
