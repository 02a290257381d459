"""Graph IR construction and capture semantics."""

import numpy as np
import pytest

import repro
from repro.framework.errors import FailedPreconditionError
from repro.graph.graph import Graph
from repro.graph.function import placeholder


class TestBuilding:
    def test_add_operation_infers_specs(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [2, 3])
        with g.as_default():
            y = repro.matmul(x, repro.transpose(x))
        assert y.shape.as_list() == [2, 2]
        assert y.dtype is repro.float32

    def test_names_are_uniquified(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [2])
        with g.as_default():
            a = x + x
            b = x + x
        assert a.node.name != b.node.name
        assert a.node.name.startswith("Add")

    def test_symbolic_tensor_repr_and_name(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [2], name="input")
        assert x.name == "input:0"
        assert "SymbolicTensor" in repr(x)

    def test_symbolic_numpy_raises(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [2])
        with pytest.raises(FailedPreconditionError):
            x.numpy()

    def test_symbolic_bool_raises_with_hint(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [])
        with pytest.raises(FailedPreconditionError, match="cond"):
            bool(x)

    def test_symbolic_static_len_and_iter(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [3, 2])
        assert len(x) == 3
        with g.as_default():
            rows = list(x)
        assert len(rows) == 3
        assert rows[0].shape.as_list() == [2]

    def test_concrete_inputs_become_interned_constants(self):
        g = Graph("t")
        c = repro.constant([1.0, 2.0])
        with g.as_default():
            a = repro.reduce_sum(c * 1.0)
            b = repro.reduce_sum(c * 2.0)
        const_nodes = g.ops_by_type("Const")
        # c was interned once despite two uses (the scalars differ).
        values = [n.attrs["value"].tobytes() for n in const_nodes]
        assert len([v for v in values if v == np.float32([1.0, 2.0]).tobytes()]) == 1

    def test_cross_graph_use_rejected(self):
        g1, g2 = Graph("a"), Graph("b")
        x = placeholder(g1, repro.float32, [])
        with g2.as_default():
            with pytest.raises(FailedPreconditionError):
                repro.add(x, x)

    def test_device_scope_recorded_on_nodes(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [])
        with g.as_default():
            with repro.device("/gpu:0"):
                y = x + 1.0
        assert y.node.device == "/gpu:0"
        assert y.device == "/gpu:0"

    def test_get_node(self):
        g = Graph("t")
        placeholder(g, repro.float32, [], name="ph")
        assert g.get_node("ph").op_name == "Placeholder"

    def test_constant_propagation_through_shape(self):
        g = Graph("t")
        x = placeholder(g, repro.float32, [4, 5])
        with g.as_default():
            s = repro.shape(x)
            r = repro.rank(x)
        np.testing.assert_array_equal(s.constant_value, [4, 5])
        assert r.constant_value == 2
