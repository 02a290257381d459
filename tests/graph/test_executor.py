"""Graph executor: scheduling order, pruning, buffer freeing, printed plans."""

import builtins
import functools
import tracemalloc

import numpy as np
import pytest

import repro
from repro.framework.errors import InvalidArgumentError
from repro.graph import printer
from repro.graph.executor import GraphRunner
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.runtime import dispatch
from repro.runtime.context import context
from tests.harness.tracking import tracked_kernels


def _build_diamond():
    """x -> (a, b) -> c : a graph with reconvergent fan-out."""
    g = Graph("diamond")
    x = placeholder(g, repro.float32, [4], name="x")
    with g.as_default():
        a = x * 2.0
        b = x + 10.0
        c = a * b
    return g, x, (a, b, c)


class TestSerialExecution:
    def test_basic(self):
        g, x, (_, _, c) = _build_diamond()
        runner = GraphRunner(g, [c])
        (out,) = runner.run([(x, repro.constant([1.0, 2.0, 3.0, 4.0]))])
        np.testing.assert_allclose(out.numpy(), [22.0, 48.0, 78.0, 112.0])

    def test_multiple_fetches(self):
        g, x, (a, b, c) = _build_diamond()
        runner = GraphRunner(g, [a, c])
        out_a, out_c = runner.run([(x, repro.constant([1.0, 1.0, 1.0, 1.0]))])
        np.testing.assert_allclose(out_a.numpy(), [2.0] * 4)
        np.testing.assert_allclose(out_c.numpy(), [22.0] * 4)

    def test_duplicate_fetch(self):
        g, x, (a, _, _) = _build_diamond()
        runner = GraphRunner(g, [a, a])
        o1, o2 = runner.run([(x, repro.constant([1.0] * 4))])
        assert o1 is o2

    def test_missing_feed_raises(self):
        g, x, (a, _, _) = _build_diamond()
        runner = GraphRunner(g, [a])
        with pytest.raises(InvalidArgumentError):
            runner.run([])

    def test_runner_reusable(self):
        g, x, (a, _, _) = _build_diamond()
        runner = GraphRunner(g, [a])
        for v in (1.0, 2.0, 3.0):
            (out,) = runner.run([(x, repro.constant([v] * 4))])
            assert out.numpy()[0] == pytest.approx(v * 2)

    def test_pruning_skips_unneeded_nodes(self):
        g = Graph("p")
        x = placeholder(g, repro.float32, [], name="x")
        ran = []

        def spy(v):
            ran.append(1)
            return v.numpy()

        with g.as_default():
            wanted = x * 2.0
            _unwanted = repro.py_func(spy, [x], Tout=repro.float32) * 3.0
        runner = GraphRunner(g, [wanted], include_side_effects=False)
        runner.run([(x, repro.constant(1.0))])
        assert ran == []  # the side-effecting branch never executed

    def test_side_effects_included_for_functions(self):
        g = Graph("s")
        x = placeholder(g, repro.float32, [], name="x")
        v = repro.Variable(0.0)
        with g.as_default():
            wanted = x * 2.0
            v.assign_add(1.0)
        runner = GraphRunner(g, [wanted], include_side_effects=True)
        runner.run([(x, repro.constant(1.0))])
        assert float(v.read_value()) == 1.0

    def test_stateful_order_preserved(self):
        v = repro.Variable(1.0)
        g = Graph("state")
        x = placeholder(g, repro.float32, [], name="x")
        with g.as_default():
            v.assign(v.read_value() * 2.0)
            v.assign_add(1.0)
            out = x * 1.0
        GraphRunner(g, [out]).run([(x, repro.constant(0.0))])
        assert float(v.read_value()) == 3.0  # (1*2)+1, in program order

    def test_error_propagates(self):
        g = Graph("err")
        x = placeholder(g, repro.float32, [2], name="x")
        with g.as_default():
            bad = repro.py_func(
                lambda v: (_ for _ in ()).throw(RuntimeError("boom")),
                [x],
                Tout=repro.float32,
            )
        with pytest.raises(RuntimeError, match="boom"):
            GraphRunner(g, [bad]).run([(x, repro.constant([1.0, 2.0]))])


class TestGraphFunction:
    def test_run_arity_checked(self):
        g = Graph("f")
        x = placeholder(g, repro.float32, [], name="x")
        with g.as_default():
            y = x * 2.0
        fn = GraphFunction("f", g, [x], [y])
        with pytest.raises(InvalidArgumentError):
            fn.run([])

    def test_repr(self):
        g = Graph("f")
        x = placeholder(g, repro.float32, [], name="x")
        with g.as_default():
            y = x * 2.0
        fn = GraphFunction("f", g, [x], [y])
        assert "1 inputs" in repr(fn)


class _GraphNodes(dispatch.OpInterceptor):
    """Records the op of every graph node the dispatch core runs."""

    name = "graph-nodes"
    modes = (dispatch.GRAPH,)

    def __init__(self):
        self.ops = []

    def on_start(self, op_name, attrs, inputs, device):
        self.ops.append(op_name)


class TestDispatchVariant:
    """A registered graph-mode interceptor, or a feed off the CPU, runs
    the plan's second print, where every node goes through the dispatch
    core; nothing is checked per node."""

    def test_interceptor_sees_every_node_and_values_match(self, monkeypatch):
        g, x, (a, b, c) = _build_diamond()
        runner = GraphRunner(g, [a, c])
        feed = [(x, repro.constant([1.0, -2.0, 3.0, 0.5]))]
        fast = runner.run(feed)
        seen = dispatch.core.register_interceptor(_GraphNodes())
        try:
            observed = runner.run(feed)
            runner.run(feed)
        finally:
            dispatch.core.unregister_interceptor(seen)
        # Placeholders are feeds, not dispatched ops.
        executed = [e[0].op_name for e in runner.plan if e[0].op_name != "Placeholder"]
        assert len(executed) == len(runner.plan) - 1
        assert seen.ops == executed * 2
        for got, want in zip(observed, fast):
            np.testing.assert_array_equal(got.numpy(), want.numpy())
        # Unregistered: the next run is the fast print, which reaches the
        # dispatch core for no node.
        calls = []
        real = dispatch.core.dispatch
        monkeypatch.setattr(
            dispatch.core, "dispatch", lambda *a, **k: calls.append(a[0]) or real(*a, **k)
        )
        runner.run(feed)
        assert calls == []

    def test_gpu_feed_into_unpinned_plan(self):
        """Placement follows the inputs, as on the eager path: nodes fed
        from the GPU run there, a node of CPU constants stays put."""
        g, x, (a, b, c) = _build_diamond()
        with g.as_default():
            d = repro.constant(1.0) + 2.0
        runner = GraphRunner(g, [a, b, c, d])
        value = repro.constant([1.0, 2.0, 3.0, 4.0])
        on_cpu = runner.run([(x, value)])
        on_gpu = runner.run([(x, value.gpu())])
        assert ["GPU" in t.device for t in on_gpu] == [True, True, True, False]
        assert all("CPU" in t.device for t in on_cpu)
        for got, want in zip(on_gpu, on_cpu):
            np.testing.assert_array_equal(got.numpy(), want.numpy())


class TestPrintedCode:
    """Printed plan code is keyed by wiring alone (``printer._code_for``);
    what a plan computes with is bound per plan."""

    @staticmethod
    def _affine(scale, shift):
        g = Graph("affine")
        x = placeholder(g, repro.float32, [3], name="x")
        with g.as_default():
            y = shift(x * scale, 1.0)
        return GraphRunner(g, [y]), x

    @staticmethod
    def _pieces(runner):
        return runner._programs[False][0]

    def test_equal_wiring_shares_code_not_state(self):
        double_inc, x1 = self._affine(2.0, repro.add)
        triple_dec, x2 = self._affine(3.0, repro.subtract)
        value = repro.constant([1.0, 2.0, 3.0])
        (a,) = double_inc.run([(x1, value)])
        (b,) = triple_dec.run([(x2, value)])
        (fa,), (fb,) = self._pieces(double_inc), self._pieces(triple_dec)
        assert fa.__code__ is fb.__code__
        assert fa.__globals__ is not fb.__globals__
        np.testing.assert_array_equal(a.numpy(), [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(b.numpy(), [2.0, 5.0, 8.0])

    def test_backend_flip_rebinds_a_printed_plan(self):
        """A kernel swap through the registry reaches the plans printed
        after it: a runner over the same wiring re-uses the printed code
        with the swapped kernels bound, and a plan printed before keeps
        the kernels it bound."""
        before, x = self._affine(2.0, repro.add)
        value = repro.constant([1.0, 2.0, 3.0])
        before.run([(x, value)])
        (printed,) = self._pieces(before)
        with tracked_kernels(("Mul", "Add")) as counts:
            after, x2 = self._affine(2.0, repro.add)
            (out,) = after.run([(x2, value)])
            # (With memory planning on, Add overwrites the dead product
            # through its in-place kernel; the allocating Mul is the
            # witness.)
            assert counts["Mul"] == 1 and counts["Add"] <= 1
            assert self._pieces(after)[0].__code__ is printed.__code__
            counts.clear()
            before.run([(x, value)])
            assert not counts
        np.testing.assert_array_equal(out.numpy(), [3.0, 5.0, 7.0])

    def test_fresh_function_over_a_seen_program_compiles_nothing(self, monkeypatch):
        def step(x):
            return repro.reduce_sum(repro.tanh(x * 2.0 + 1.0) * x)

        x = repro.constant(np.linspace(-1.0, 1.0, 8, dtype=np.float32))
        first = repro.function(step)(x)
        compiled = []
        monkeypatch.setattr(
            printer,
            "compile",
            lambda *a, **k: compiled.append(a[0]) or builtins.compile(*a, **k),
            raising=False,
        )
        second = repro.function(step)(x)
        assert compiled == []
        np.testing.assert_array_equal(first.numpy(), second.numpy())

    def test_printing_a_large_plan_compiles_in_small_pieces(self, monkeypatch):
        """One ``compile()`` of a whole 2 000-node plan peaks at ~17 MiB;
        the printer compiles at most ``PIECE`` statements at a time."""
        monkeypatch.setattr(
            printer, "_code_for", functools.lru_cache(maxsize=64)(printer._code_for.__wrapped__)
        )
        rng = np.random.default_rng(0)
        g = Graph("wide")
        x = placeholder(g, repro.float32, [4], name="x")
        with g.as_default():
            values = [x]
            for i in range(2000):
                other = values[int(rng.integers(len(values)))]
                values.append(values[-1] + other if i % 2 else values[-1] * other)
        runner = GraphRunner(g, [values[-1]])
        assert len(runner.plan) > 2000
        tracemalloc.start()
        try:
            runner._program(False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert printer._code_for.cache_info().misses > 30  # really printed
        assert peak <= 2 * 2**20


class TestErrorLabels:
    @pytest.mark.parametrize("fusion", [True, False])
    def test_staged_call_names_the_failing_node(self, fusion):
        """Every printed plan names its failing node, fused or not."""
        context.graph_fusion = fusion

        @repro.function
        def f(x):
            return repro.gather(x, repro.constant([7], dtype=repro.int32)) * 2.0

        with pytest.raises(IndexError, match="Gather") as ei:
            f(repro.constant([1.0, 2.0]))
        assert getattr(ei.value, "_repro_async_op", None) == "Gather"
