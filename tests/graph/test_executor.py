"""Graph executor: scheduling order, pruning, buffer freeing."""

import numpy as np
import pytest

import repro
from repro.framework.errors import InvalidArgumentError
from repro.graph.executor import GraphRunner
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph


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
