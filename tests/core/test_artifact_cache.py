"""The one artifact cache: traces of one structure share a compiled graph.

A fresh trace whose structure (:func:`repro.graph.structural.trace_key`
plus the context the stages read) equals an already-compiled one runs
that artifact, fed with its own captures, and skips optimize → fuse →
plan.  Every case here pins one element of the key: drop it from the
key and the case fails, by a wrong value or a wrong hit/miss.
"""

from __future__ import annotations

import dataclasses
import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.pipeline import CompilationPipeline, artifact_cache
from repro.graph import fusion
from repro.ops import registry
from repro.runtime.context import context
from repro.runtime.executor import execute
from repro.tensor import TensorSpec


@pytest.fixture(autouse=True)
def _empty_artifact_cache():
    # Exact hit/miss counts: nothing compiled by an earlier test serves these.
    artifact_cache().clear()


def _concrete(fn, x):
    return fn.get_concrete_function(x)


_STEPS = st.lists(
    st.tuples(st.sampled_from(["mul", "add", "tanh", "square"]), st.sampled_from([0.5, 2.0])),
    min_size=1,
    max_size=2,
)


def _program(steps):
    def body(x):
        for op, c in steps:
            if op == "mul":
                x = x * c
            elif op == "add":
                x = x + c
            elif op == "tanh":
                x = repro.tanh(x)
            else:
                x = repro.square(x)
        return repro.reduce_sum(x)

    return body


def _value_and_gradient(fn, x_np):
    x = repro.constant(x_np)
    with repro.GradientTape() as tape:
        tape.watch(x)
        y = fn(x)
    return y.numpy(), tape.gradient(y, x).numpy()


class TestKeySoundness:
    @settings(max_examples=30, deadline=None)
    @given(first=_STEPS, second=_STEPS, n=st.sampled_from([2, 3]))
    def test_colliding_traces_give_identical_outputs_and_gradients(self, first, second, n):
        x_np = np.linspace(-0.8, 0.9, n)
        runs = []
        for steps in (first, second):
            fn = repro.function(_program(steps), autograph=False)
            value, grad = _value_and_gradient(fn, x_np)
            eager_value, eager_grad = _value_and_gradient(_program(steps), x_np)
            np.testing.assert_allclose(value, eager_value, rtol=1e-12)
            np.testing.assert_allclose(grad, eager_grad, rtol=1e-12)
            runs.append((_concrete(fn, repro.constant(x_np)), value, grad))
        (c1, v1, g1), (c2, v2, g2) = runs
        if c2.graph_function is c1.graph_function:
            assert c2.artifact_reused
            np.testing.assert_array_equal(v2, v1)
            np.testing.assert_array_equal(g2, g1)

    def test_changed_closure_float_misses(self):
        def make(scale):
            def f(x):
                return x * scale

            return repro.function(f)

        x = repro.constant([1.0, 2.0])
        np.testing.assert_allclose(make(2.0)(x).numpy(), [2.0, 4.0])
        g = make(3.0)
        np.testing.assert_allclose(g(x).numpy(), [3.0, 6.0])
        assert not _concrete(g, x).artifact_reused
        same = make(3.0)
        np.testing.assert_allclose(same(x).numpy(), [3.0, 6.0])
        assert _concrete(same, x).artifact_reused

    def test_other_captured_variable_hits_and_reads_its_own_value(self):
        def make(v):
            def f(x):
                return x * v.read_value()

            return repro.function(f)

        v1 = repro.Variable([1.0, 2.0])
        v2 = repro.Variable([5.0, 7.0])
        x = repro.constant([1.0, 10.0])
        f1, f2 = make(v1), make(v2)
        np.testing.assert_allclose(f1(x).numpy(), [1.0, 20.0])
        np.testing.assert_allclose(f2(x).numpy(), [5.0, 70.0])
        c1, c2 = _concrete(f1, x), _concrete(f2, x)
        assert c2.artifact_reused and c2.graph_function is c1.graph_function
        v2.assign([-1.0, 0.5])  # captured by reference, not by value
        np.testing.assert_allclose(f2(x).numpy(), [-1.0, 5.0])
        np.testing.assert_allclose(f1(x).numpy(), [1.0, 20.0])

    def test_graph_fusion_flip_misses(self):
        def f(x):
            return repro.tanh(x * 2.0 + 1.0)

        x = repro.constant([0.0, 1.0])
        context.graph_fusion = True
        fused = repro.function(f)
        fused(x)
        assert fusion.has_fused_nodes(_concrete(fused, x).graph_function)
        context.graph_fusion = False
        plain = repro.function(f)
        np.testing.assert_allclose(plain(x).numpy(), np.tanh([1.0, 3.0]), rtol=1e-6)
        concrete = _concrete(plain, x)
        assert not concrete.artifact_reused
        assert not fusion.has_fused_nodes(concrete.graph_function)

    def test_enclosing_trace_constant_changes_the_inner_key(self):
        # The inner function captures the outer trace's Const, so its
        # placeholder carries a constant that folding bakes into the
        # inner artifact.
        def make(value):
            def outer(x):
                c = repro.constant(value)

                def inner(y):
                    return y + c * 2.0

                return repro.function(inner)(x)

            return repro.function(outer)

        x = repro.constant([1.0, 2.0])
        np.testing.assert_allclose(make(6.0)(x).numpy(), [13.0, 14.0])
        np.testing.assert_allclose(make(7.0)(x).numpy(), [15.0, 16.0])
        np.testing.assert_allclose(make(7.0)(x).numpy(), [15.0, 16.0])


@dataclasses.dataclass
class _Table:
    """An attr value with no by-value key: a dataclass with eq is unhashable."""

    values: np.ndarray


@pytest.fixture
def table_op():
    registry.register_op(
        "TestArtifactTable",
        infer_fn=lambda inputs, attrs: [TensorSpec.from_tensor(inputs[0])],
    )
    registry.register_kernel("TestArtifactTable", ("CPU",))(
        lambda arrays, attrs, device: arrays[0] + attrs["table"].values.sum()
    )
    yield "TestArtifactTable"
    registry.unregister_kernel("TestArtifactTable", ("CPU",))
    del registry._OPS["TestArtifactTable"]


class TestSharing:
    def test_unhashable_attr_compiles_uncached(self, table_op):
        table = _Table(np.ones(4, np.float32))

        def f(x):
            return execute(table_op, [x * 2.0], {"table": table})

        x = repro.constant([1.0, 2.0])
        for _ in range(2):
            fn = repro.function(f)
            np.testing.assert_allclose(fn(x).numpy(), [6.0, 8.0])
            assert not _concrete(fn, x).artifact_reused
        assert artifact_cache().stats()["size"] == 0

    def test_concurrent_traces_keep_one_artifact(self, monkeypatch):
        # Both threads are inside finalize at once, so both missed: the
        # second insert must keep the first artifact and hand it back.
        both_compiling = threading.Barrier(2, timeout=30)
        finalize = CompilationPipeline.finalize

        def racing_finalize(self, fn):
            both_compiling.wait()
            return finalize(self, fn)

        monkeypatch.setattr(CompilationPipeline, "finalize", racing_finalize)

        def f(x):
            return repro.tanh(x) * 3.0

        inputs = [np.array([0.5, -1.0]), np.array([2.0, 0.25])]
        concretes, errors = [None, None], []

        def run(i):
            try:
                fn = repro.function(f)
                x = repro.constant(inputs[i])
                np.testing.assert_allclose(fn(x).numpy(), np.tanh(inputs[i]) * 3.0, rtol=1e-6)
                concretes[i] = _concrete(fn, x)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert concretes[0].graph_function is concretes[1].graph_function
        assert sorted(c.artifact_reused for c in concretes) == [False, True]
        assert artifact_cache().stats()["size"] == 1

    def test_dropped_trace_is_freed_without_a_collection(self, monkeypatch):
        # A hit drops the fresh trace's graph; its node/tensor cycles are
        # unlinked, so reference counting frees it at once.
        graphs = []
        compile_trace = CompilationPipeline.compile_trace

        def recording(self, fn, num_explicit):
            graphs.append(weakref.ref(fn.graph))
            return compile_trace(self, fn, num_explicit)

        monkeypatch.setattr(CompilationPipeline, "compile_trace", recording)

        def f(x):
            return repro.tanh(x * 2.0 + 1.0)

        x = repro.constant([0.5, 1.5])
        gc.disable()
        try:
            for _ in range(2):
                np.testing.assert_allclose(repro.function(f)(x).numpy(), np.tanh([2.0, 4.0]), rtol=1e-6)
            assert graphs[0]() is not None  # the compiled artifact's graph
            assert graphs[1]() is None
        finally:
            gc.enable()

    def test_fresh_functions_of_one_body_hit(self):
        def f(x):
            return repro.reduce_sum(repro.tanh(x * 2.0 + 1.0))

        x_np = np.array([0.1, -0.4, 0.7], np.float32)
        expected = np.tanh(x_np * 2.0 + 1.0).sum()
        sizes = []
        for _ in range(50):
            fn = repro.function(f)
            assert float(fn(repro.constant(x_np))) == pytest.approx(expected, rel=1e-6)
            assert fn.trace_count == 1
            sizes.append(artifact_cache().stats()["size"])
        stats = artifact_cache().stats()
        assert (stats["misses"], stats["hits"]) == (1, 49)
        assert sizes == [sizes[0]] * 50
