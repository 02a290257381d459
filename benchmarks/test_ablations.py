"""Ablation benchmarks for the design choices DESIGN.md calls out.

* ``abl-cache``   — the trace cache (§4.6 polymorphism): hit vs miss.
* ``abl-opt``     — graph optimization passes on/off (§4.1).
* ``abl-pyfunc``  — the escape hatch's cost ("disadvantages include a
  potential performance hit", §4.7).
* ``abl-exec``    — the graph executor on a wide, branchy graph (§5).
* ``abl-overhead``— per-op eager dispatch cost vs raw NumPy (§6 framing).
"""

import numpy as np
import pytest

import repro
from repro.graph.executor import GraphRunner
from repro.graph.optimize import optimize_function


def _mlp_step_source():
    """A mid-sized chain of ops used by several ablations."""
    w1 = repro.constant(np.random.randn(64, 64).astype(np.float32))
    w2 = repro.constant(np.random.randn(64, 64).astype(np.float32))

    def step(x):
        h = repro.tanh(repro.matmul(x, w1) + 1.0)
        h = repro.tanh(repro.matmul(h, w2) * 0.5 + 0.1)
        return repro.reduce_sum(h * h)

    return step


class TestTraceCacheAblation:
    def test_abl_cache_hit(self, benchmark):
        """Steady-state call: one dict lookup, no tracing."""
        staged = repro.function(_mlp_step_source())
        x = repro.constant(np.random.randn(8, 64).astype(np.float32))
        staged(x)
        benchmark(lambda: staged(x))
        benchmark.extra_info["trace_count"] = staged.trace_count
        assert staged.trace_count == 1

    def test_abl_cache_miss(self, benchmark):
        """Every call sees a fresh shape: retraces each time."""
        step = _mlp_step_source()
        shapes = [(i + 1, 64) for i in range(512)]
        state = {"i": 0}

        def fresh_shape_call():
            staged = repro.function(step)
            x = repro.constant(np.zeros(shapes[state["i"] % 512], np.float32))
            state["i"] += 1
            staged(x)

        benchmark.pedantic(fresh_shape_call, rounds=5, iterations=2)

    def test_cache_hit_orders_faster_than_miss(self):
        import time

        step = _mlp_step_source()
        staged = repro.function(step)
        x = repro.constant(np.zeros((4, 64), np.float32))
        staged(x)
        t0 = time.perf_counter()
        for _ in range(20):
            staged(x)
        hit = (time.perf_counter() - t0) / 20
        t0 = time.perf_counter()
        for i in range(5):
            staged(repro.constant(np.zeros((100 + i, 64), np.float32)))
        miss = (time.perf_counter() - t0) / 5
        assert miss > 5 * hit  # typically >10x; 5x is robust under load


class TestGraphOptAblation:
    def _make_fn(self):
        # Deliberately sloppy code: dead branches, repeated subexpressions,
        # foldable constants, x*1 identities.
        def messy(x):
            dead = repro.tanh(x) * 123.0  # noqa: F841
            c = repro.constant(2.0) * repro.constant(3.0)
            a = repro.exp(x * 1.0) + repro.exp(x * 1.0)
            return repro.reduce_sum(a * c + 0.0)

        staged = repro.function(messy)
        x = repro.constant(np.random.randn(512).astype(np.float32))
        return staged.get_concrete_function(x).graph_function, x

    def test_abl_opt_enabled(self, benchmark):
        fn, x = self._make_fn()  # already optimized at finalization
        benchmark(lambda: fn.run([x]))
        benchmark.extra_info["num_nodes"] = fn.num_nodes

    def test_abl_opt_report(self):
        def messy(x):
            dead = repro.tanh(x) * 123.0  # noqa: F841
            a = repro.exp(x * 1.0) + repro.exp(x * 1.0)
            return repro.reduce_sum(a + 0.0)

        from repro.core.tracing import trace_into_graph
        from repro.graph.function import GraphFunction
        from repro.tensor import TensorSpec

        graph, outs, _ = trace_into_graph(messy, [TensorSpec([512])], "messy")
        fn = GraphFunction("messy", graph, list(graph.inputs), outs)
        before = fn.num_nodes
        report = optimize_function(fn)
        assert fn.num_nodes < before
        assert sum(report.values()) >= 3


class TestPyFuncAblation:
    def _build(self, use_py_func):
        def inner(h):
            return h * 0.5 + 1.0

        def step(x):
            h = repro.tanh(x) * 2.0
            if use_py_func:
                h = repro.py_func(inner, [h], Tout=repro.float32)
            else:
                h = inner(h)
            return repro.reduce_sum(h)

        staged = repro.function(step)
        x = repro.constant(np.random.randn(256).astype(np.float32))
        staged(x)
        return staged, x

    def test_abl_pyfunc_without(self, benchmark):
        staged, x = self._build(use_py_func=False)
        benchmark(lambda: staged(x))

    def test_abl_pyfunc_with(self, benchmark):
        staged, x = self._build(use_py_func=True)
        benchmark(lambda: staged(x))

    def test_pyfunc_costs_more(self):
        import time

        fast, x = self._build(use_py_func=False)
        slow, _ = self._build(use_py_func=True)

        def rate(fn):
            t0 = time.perf_counter()
            for _ in range(200):
                fn(x)
            return 200 / (time.perf_counter() - t0)

        assert rate(fast.__call__) > rate(slow.__call__)


class TestExecutorAblation:
    def _wide_runner(self):
        from repro.graph.function import placeholder
        from repro.graph.graph import Graph

        g = Graph("wide")
        x = placeholder(g, repro.float32, [128, 128], name="x")
        with g.as_default():
            branches = [
                repro.reduce_sum(repro.matmul(x, x) * float(i + 1))
                for i in range(8)
            ]
            total = repro.add_n(branches)
        return GraphRunner(g, [total]), x

    def test_abl_exec_serial(self, benchmark):
        runner, x = self._wide_runner()
        value = repro.constant(np.random.randn(128, 128).astype(np.float32))
        benchmark(lambda: runner.run([(x, value)]))


class TestJitFusionAblation:
    """abl-fusion: XLA-sim fusion of staged functions on the CPU.

    Fusion's win on a long elementwise chain comes from fewer Python
    dispatches and hot temporary buffers (paper §4.4: "operation
    fusion" is one of the optimizations compilation unlocks).
    """

    def _chain(self, jit):
        def f(x):
            y = x
            for _ in range(30):
                y = repro.tanh(y * 1.01 + 0.001)
            return repro.reduce_sum(y)

        staged = repro.function(f, jit_compile=jit)
        x = repro.constant(np.random.randn(50_000).astype(np.float32))
        staged(x)
        return staged, x

    def test_abl_fusion_graph_executor(self, benchmark):
        staged, x = self._chain(jit=False)
        benchmark(lambda: staged(x))

    def test_abl_fusion_compiled(self, benchmark):
        staged, x = self._chain(jit=True)
        benchmark(lambda: staged(x))
        exe = staged.get_concrete_function(x).graph_function.executables[None]
        benchmark.extra_info["launch_instructions"] = exe.num_launch_instructions

    def test_fusion_collapses_the_chain(self):
        staged, x = self._chain(jit=True)
        exe = staged.get_concrete_function(x).graph_function.executables[None]
        plain, _ = self._chain(jit=False)
        (trace,) = plain.execution_stats()["traces"]
        graph_nodes = trace["nodes_before_fusion"]
        assert exe.num_launch_instructions * 5 < graph_nodes


class TestDispatchOverheadAblation:
    """Paper §6 framing: imperative performance is bottlenecked on the
    interpreter when kernels are small."""

    def test_abl_overhead_numpy(self, benchmark):
        a = np.random.randn(4).astype(np.float32)
        b = np.random.randn(4).astype(np.float32)
        benchmark(lambda: np.add(a, b))

    def test_abl_overhead_eager(self, benchmark):
        a = repro.constant(np.random.randn(4).astype(np.float32))
        b = repro.constant(np.random.randn(4).astype(np.float32))
        benchmark(lambda: repro.add(a, b))

    def test_abl_overhead_eager_large_kernel(self, benchmark):
        a = repro.constant(np.random.randn(512, 512).astype(np.float32))
        benchmark(lambda: repro.matmul(a, a))
