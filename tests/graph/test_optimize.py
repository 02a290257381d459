"""Grappler-style optimization passes."""

import numpy as np
import pytest

import repro
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.graph import optimize


def _fn(build, in_specs=((repro.float32, [2]),), name="t"):
    g = Graph(name)
    phs = [placeholder(g, dt, shape) for dt, shape in in_specs]
    with g.as_default():
        outputs = build(*phs)
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    return GraphFunction(name, g, phs, list(outputs))


class TestPrune:
    def test_removes_dead_ops(self):
        def build(x):
            _dead = x * 3.0 + 7.0
            return x * 2.0

        fn = _fn(build)
        before = fn.num_nodes
        removed = optimize.prune(fn)
        assert removed >= 2
        assert fn.num_nodes < before
        (out,) = fn.run([repro.constant([1.0, 2.0])])
        np.testing.assert_allclose(out.numpy(), [2.0, 4.0])

    def test_keeps_side_effects(self):
        v = repro.Variable(0.0)

        def build(x):
            v.assign_add(1.0)  # unused output but must survive
            return x * 1.0

        fn = _fn(build)
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("AssignAddVariableOp")) == 1


class TestConstantFold:
    def test_folds_constant_subgraph(self):
        def build(x):
            c = repro.constant(2.0) * repro.constant(3.0)
            return x * c

        fn = _fn(build)
        folded = optimize.constant_fold(fn)
        assert folded >= 1
        optimize.prune(fn)
        mults = fn.graph.ops_by_type("Mul")
        assert len(mults) == 1  # only x * 6 remains
        (out,) = fn.run([repro.constant([1.0, 2.0])])
        np.testing.assert_allclose(out.numpy(), [6.0, 12.0])

    def test_does_not_fold_random(self):
        def build(x):
            return x + repro.random_normal([2])

        fn = _fn(build)
        assert optimize.constant_fold(fn) == 0
        assert len(fn.graph.ops_by_type("RandomStandardNormal")) == 1

    def test_folds_shape_of_placeholder(self):
        def build(x):
            return repro.cast(repro.shape(x)[0], repro.float32) * x

        fn = _fn(build)
        optimize.constant_fold(fn)
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("Shape")) == 0
        (out,) = fn.run([repro.constant([1.0, 1.0])])
        np.testing.assert_allclose(out.numpy(), [2.0, 2.0])


class TestArithmetic:
    def test_mul_by_one_removed(self):
        def build(x):
            return (x * 1.0) + 0.0

        fn = _fn(build)
        optimize.constant_fold(fn)
        rewrites = optimize.arithmetic_simplify(fn)
        assert rewrites >= 2
        optimize.prune(fn)
        assert fn.graph.ops_by_type("Mul") == []
        assert fn.graph.ops_by_type("Add") == []
        (out,) = fn.run([repro.constant([5.0, 6.0])])
        np.testing.assert_allclose(out.numpy(), [5.0, 6.0])

    def test_broadcasting_identity_not_removed(self):
        """x * ones([2,2]) changes shape; must not be elided."""

        def build(x):
            return x * repro.ones([2, 2])  # broadcasts [2] -> [2,2]

        fn = _fn(build)
        optimize.arithmetic_simplify(fn)
        (out,) = fn.run([repro.constant([1.0, 2.0])])
        assert out.shape.as_list() == [2, 2]

    def test_double_negation(self):
        def build(x):
            return -(-x)

        fn = _fn(build)
        optimize.arithmetic_simplify(fn)
        optimize.prune(fn)
        assert fn.graph.ops_by_type("Neg") == []

    def test_transpose_pair_collapsed(self):
        def build(x):
            return repro.transpose(repro.transpose(x, [1, 0]), [1, 0])

        fn = _fn(build, in_specs=((repro.float32, [2, 3]),))
        optimize.arithmetic_simplify(fn)
        optimize.prune(fn)
        assert fn.graph.ops_by_type("Transpose") == []


class TestCSE:
    def test_merges_identical_ops(self):
        def build(x):
            a = repro.exp(x)
            b = repro.exp(x)
            return a + b

        fn = _fn(build)
        merged = optimize.cse(fn)
        assert merged == 1
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("Exp")) == 1
        (out,) = fn.run([repro.constant([0.0, 1.0])])
        np.testing.assert_allclose(out.numpy(), 2 * np.exp([0.0, 1.0]), rtol=1e-6)

    def test_does_not_merge_random(self):
        def build(x):
            return repro.random_normal([2]) + repro.random_normal([2]) + x

        fn = _fn(build)
        assert optimize.cse(fn) == 0
        assert len(fn.graph.ops_by_type("RandomStandardNormal")) == 2

    def test_attrs_distinguish(self):
        def build(x):
            return repro.reduce_sum(x, keepdims=True) + repro.reduce_sum(
                x, keepdims=False
            )

        fn = _fn(build)
        assert optimize.cse(fn) == 0

    def test_an_unhashable_node_does_not_block_later_merges(self):
        from repro.runtime.executor import execute

        def build(x):
            unhashable = execute("Exp", [x], {"tag": {1, 2}})
            a = execute("Exp", [x], {"tag": (1, 2)})
            b = execute("Exp", [x], {"tag": (1, 2)})
            return unhashable + a + b

        fn = _fn(build)
        assert optimize.cse(fn) == 1
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("Exp")) == 2
        (out,) = fn.run([repro.constant([0.0, 1.0])])
        np.testing.assert_allclose(out.numpy(), 3 * np.exp([0.0, 1.0]), rtol=1e-6)


class TestDedupReads:
    def test_merges_reads_without_writes(self):
        v = repro.Variable([1.0, 2.0])

        def build(x):
            return v.read_value() + v.read_value() + x

        fn = _fn(build)
        assert optimize.dedup_reads(fn) == 1
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("ReadVariableOp")) == 1

    def test_write_invalidates(self):
        v = repro.Variable(1.0)

        def build(x):
            a = v.read_value()
            v.assign_add(1.0)
            b = v.read_value()
            return a + b + x

        fn = _fn(build, in_specs=((repro.float32, []),))
        assert optimize.dedup_reads(fn) == 0
        assert len(fn.graph.ops_by_type("ReadVariableOp")) == 2

    def test_moving_average_write_invalidates(self):
        """``AssignMovingAverage`` is a write: a read after it sees the
        moved value, not the merged earlier read."""
        from repro.ops import state_ops

        v = repro.Variable([1.0, 2.0])

        def build(x):
            a = v.read_value()
            state_ops.assign_moving_average(v, x, momentum=0.5)
            b = v.read_value()
            return a + b

        fn = _fn(build)
        assert optimize.dedup_reads(fn) == 0
        assert len(fn.graph.ops_by_type("ReadVariableOp")) == 2
        (out,) = fn.run([repro.constant([3.0, 4.0])])
        np.testing.assert_array_equal(out.numpy(), [3.0, 5.0])  # [1, 2] + [2, 3]
        np.testing.assert_array_equal(v.numpy(), [2.0, 3.0])

    def test_unrelated_write_does_not_invalidate(self):
        """Side-effect ordering is per-resource: a write to one variable
        must not split reads of a *different* variable (it needlessly
        breaks up fusion regions otherwise)."""
        v = repro.Variable(1.0)
        w = repro.Variable(10.0)

        def build(x):
            a = v.read_value()
            w.assign_add(1.0)
            b = v.read_value()
            return a + b + x

        fn = _fn(build, in_specs=((repro.float32, []),))
        assert optimize.dedup_reads(fn) == 1
        optimize.prune(fn)
        assert len(fn.graph.ops_by_type("ReadVariableOp")) == 1
        assert len(fn.graph.ops_by_type("AssignAddVariableOp")) == 1
        x = repro.constant(0.0)
        (out,) = fn.run([x])
        assert float(out.numpy()) == 2.0
        assert float(w.read_value()) == 11.0

    def test_py_func_still_invalidates_all(self):
        """An opaque py_func may close over any variable, so it remains
        a full barrier for read dedup."""
        v = repro.Variable(1.0)

        def build(x):
            a = v.read_value()
            y = repro.py_func(lambda t: t.numpy() * 1.0, [x], Tout=repro.float32)
            b = v.read_value()
            return a + b + y

        fn = _fn(build, in_specs=((repro.float32, []),))
        assert optimize.dedup_reads(fn) == 0
        assert len(fn.graph.ops_by_type("ReadVariableOp")) == 2


class TestPipeline:
    def test_default_pipeline_preserves_semantics(self):
        v = repro.Variable(2.0)

        def build(x):
            a = (x * 1.0 + 0.0) * v.read_value()
            b = repro.exp(x) + repro.exp(x)
            dead = repro.tanh(x) * 123.0  # noqa: F841 - intentionally unused
            return a + b + repro.constant(1.0) * repro.constant(4.0)

        fn = _fn(build)
        x = repro.constant([0.5, 1.5])
        (before,) = fn.run([x])
        report = optimize.optimize_function(fn)
        (after,) = fn.run([x])
        np.testing.assert_allclose(after.numpy(), before.numpy(), rtol=1e-6)
        assert sum(report.values()) > 0

    def test_explicit_pass_selection(self):
        def build(x):
            return x * 1.0

        fn = _fn(build)
        report = optimize.optimize_function(fn, passes=["arithmetic"])
        assert list(report) == ["0:arithmetic"]

    def test_rejects_node_list_that_is_not_topological(self):
        # The passes rewire consumers as they walk; a consumer listed
        # before its producer would silently keep a stale input.
        fn = _fn(lambda x: repro.tanh(x * 1.0))
        fn.graph.nodes.reverse()
        with pytest.raises(AssertionError, match="topologically ordered"):
            optimize.optimize_function(fn)
