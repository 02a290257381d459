"""The executor's static memory plan: lifetimes, donation, peak bytes.

``GraphRunner._build_schedule`` performs last-use analysis (an explicit
free list per step) and, under ``context.graph_fusion``, plans in-place
buffer donation: a node may write into an input buffer that dies at
that step, has exactly one consumer, is not fetched, was freshly
allocated by its producer, and matches the output's static dtype/shape.
The plan reports peak live bytes.  These tests pin the safety rules —
wrong donation corrupts values silently, so every rule gets a case that
would fail loudly if it regressed.
"""

import numpy as np

import repro
from repro.graph import optimize
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.runtime.context import context


def _fn(build, in_specs=((repro.float32, [8]),), name="t"):
    g = Graph(name)
    phs = [placeholder(g, dt, shape) for dt, shape in in_specs]
    with g.as_default():
        outputs = build(*phs)
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    return GraphFunction(name, g, phs, list(outputs))


def _with_fusion(value):
    class _Knob:
        def __enter__(self):
            self.prev = context.graph_fusion
            context.graph_fusion = value

        def __exit__(self, *exc):
            context.graph_fusion = self.prev

    return _Knob()


class TestPeakAccounting:
    def test_chain_peak_counts_live_intermediates(self):
        # exp produces 32 bytes (8 x float32); neg's output coexists
        # with it for one step before exp's buffer dies.
        fn = _fn(lambda x: -repro.exp(x))
        with _with_fusion(False):
            plan = fn.plan().memory_plan
        assert plan["peak_live_bytes"] == 64
        assert plan["donated_nodes"] == 0
        assert not plan["lower_bound"]

    def test_donation_halves_chain_peak(self):
        fn = _fn(lambda x: -repro.exp(x))
        with _with_fusion(True):
            plan = fn.plan().memory_plan
        # neg writes into exp's dying buffer: no second allocation.
        assert plan["donated_nodes"] == 1
        assert plan["peak_live_bytes"] == 32
        x = np.float32([0.5] * 8)
        (out,) = fn.run([repro.constant(x)])
        np.testing.assert_allclose(out.numpy(), -np.exp(x), rtol=1e-6)

    def test_symbolic_plan_reports_lower_bound(self):
        fn = _fn(
            lambda x: -repro.exp(x),
            in_specs=((repro.float32, [None]),),
        )
        with _with_fusion(False):
            plan = fn.plan().memory_plan
        assert plan["lower_bound"]

    def test_fused_region_internal_peak_is_counted(self):
        def build(x):
            y = x * 2.0
            for _ in range(5):
                y = repro.tanh(y + 0.1)
            return y

        plain = _fn(build, in_specs=((repro.float32, [1024]),))
        with _with_fusion(False):
            optimize.optimize_function(plain)
            plain_peak = plain.plan().memory_plan["peak_live_bytes"]
        fused = _fn(build, in_specs=((repro.float32, [1024]),))
        with _with_fusion(True):
            optimize.optimize_function(fused)
            runner = fused.plan()
        assert runner.memory_plan["fused_nodes"] == 1
        fused_peak = runner.memory_plan["peak_live_bytes"]
        # In-place donation inside the region reuses one 4 KiB buffer
        # for the whole chain instead of two live at every step.
        assert fused_peak > 0
        # A few bytes of scalar constants ride along in both plans, so
        # compare against half-plus-slack rather than exactly half.
        assert fused_peak <= plain_peak // 2 + 64


class TestDonationSafety:
    def test_multi_consumer_input_never_donated(self):
        def build(x):
            a = repro.exp(x)
            return -a, a * 2.0

        fn = _fn(build)
        with _with_fusion(True):
            plan = fn.plan().memory_plan
            assert plan["donated_nodes"] == 0
            x = np.float32(np.linspace(-1, 1, 8))
            neg, double = fn.run([repro.constant(x)])
        np.testing.assert_allclose(neg.numpy(), -np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(double.numpy(), 2 * np.exp(x), rtol=1e-6)

    def test_fetched_value_never_donated(self):
        def build(x):
            a = repro.exp(x)
            return a, -a

        fn = _fn(build)
        with _with_fusion(True):
            fn.plan()
            x = np.float32([0.1] * 8)
            a, b = fn.run([repro.constant(x)])
        # If neg had stolen a's buffer, the fetched a would hold -exp(x).
        np.testing.assert_allclose(a.numpy(), np.exp(x), rtol=1e-6)
        np.testing.assert_allclose(b.numpy(), -np.exp(x), rtol=1e-6)

    def test_placeholder_feed_never_donated(self):
        fn = _fn(lambda x: repro.tanh(x))
        with _with_fusion(True):
            assert fn.plan().memory_plan["donated_nodes"] == 0
            x = repro.constant(np.ones(8, np.float32))
            fn.run([x])
        np.testing.assert_array_equal(x.numpy(), np.ones(8, np.float32))

    def test_constant_buffer_never_donated(self):
        """Const kernels hand out the graph-owned array; an in-place
        consumer must not scribble on it (the next run would see it)."""

        def build(x):
            c = repro.constant(np.float32([1.0] * 8))
            return repro.exp(c) + x

        fn = _fn(build)
        with _with_fusion(True):
            fn.plan()
            x = repro.constant(np.zeros(8, np.float32))
            (first,) = fn.run([x])
            (second,) = fn.run([x])
        np.testing.assert_array_equal(first.numpy(), second.numpy())
        np.testing.assert_allclose(first.numpy(), np.exp(np.float32(1.0)) * np.ones(8), rtol=1e-6)

    def test_dtype_mismatch_blocks_donation(self):
        def build(x):
            return repro.cast(repro.exp(x), repro.float64) * 1.0

        fn = _fn(build)
        with _with_fusion(True):
            fn.plan()
            x = np.float32([0.2] * 8)
            (out,) = fn.run([repro.constant(x)])
        np.testing.assert_allclose(out.numpy(), np.exp(x).astype(np.float64), rtol=1e-6)


class TestConstantHoisting:
    def test_consts_leave_the_serial_plan(self):
        fn = _fn(lambda x: x * 2.0 + 3.0)
        runner = fn.plan()
        assert all(e[0].op_name != "Const" for e in runner.plan)
        assert len(runner.const_store) == 2
        # The memory plan still describes the full graph.
        assert runner.memory_plan["num_nodes"] == len(runner.plan) + 2
        (out,) = fn.run([repro.constant(np.float32([1.0] * 8))])
        np.testing.assert_allclose(out.numpy(), [5.0] * 8)

    def test_hoisted_buffers_survive_repeated_runs(self):
        """The hoisted array is shared across runs; nothing may have
        scribbled on it by run two."""

        def build(x):
            c = repro.constant(np.float32([2.0] * 8))
            return repro.tanh(c * x) + c

        fn = _fn(build)
        with _with_fusion(True):
            x = repro.constant(np.float32([0.5] * 8))
            (first,) = fn.run([x])
            (second,) = fn.run([x])
        np.testing.assert_array_equal(first.numpy(), second.numpy())
        np.testing.assert_allclose(
            first.numpy(), np.tanh(np.float32(1.0)) + 2.0, rtol=1e-6
        )

    def test_pinned_const_keeps_its_plan_entry(self):
        def build(x):
            with repro.device("/gpu:0"):
                c = repro.constant(np.float32([1.0] * 8))
            return x + c

        fn = _fn(build)
        runner = fn.plan()
        assert any(e[0].op_name == "Const" for e in runner.plan)

    def test_fetched_const_is_served_from_the_store(self):
        def build(x):
            c = repro.constant(np.float32([7.0] * 8))
            return c, x * 1.0

        fn = _fn(build)
        c_out, _ = fn.run([repro.constant(np.zeros(8, np.float32))])
        np.testing.assert_array_equal(c_out.numpy(), np.float32([7.0] * 8))
