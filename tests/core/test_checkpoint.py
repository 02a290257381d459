"""Graph-based state matching (paper §4.3, Listing 3 / Figure 1)."""

import os

import numpy as np
import pytest

import repro
from repro import nn
from repro.core.checkpoint import Checkpoint, NumpyState, Trackable
from repro.framework.errors import FailedPreconditionError
from repro.ops import nn_ops


class Net(nn.Model):
    """The model from paper Listing 3: a variable plus a Dense layer."""

    def __init__(self):
        super().__init__()
        self.v = repro.Variable(1.0)
        self.out = nn.Dense(1)

    def call(self, x, training: bool = False):
        return self.out(nn_ops.softplus(x * self.v))


class TestListing3:
    def test_dependency_graph_edges(self):
        """Figure 1: edges v, out; out has kernel and bias."""
        net = Net()
        net(repro.constant([[1.0]]))
        names = [name for name, _ in net._checkpoint_dependencies()]
        assert "v" in names and "out" in names
        out_deps = [name for name, _ in net.out._checkpoint_dependencies()]
        assert "kernel" in out_deps and "bias" in out_deps

    def test_save_restore_roundtrip(self, tmp_path):
        net = Net()
        net(repro.constant([[1.0]]))
        net.v.assign(7.5)
        path = Checkpoint(model=net).save(str(tmp_path / "net"))

        other = Net()
        other(repro.constant([[1.0]]))  # build variables
        status = Checkpoint(model=other).restore(path)
        status.assert_consumed()
        assert float(other.v) == 7.5
        np.testing.assert_array_equal(other.out.kernel.numpy(), net.out.kernel.numpy())

    def test_deferred_restore_on_first_call(self, tmp_path):
        """Restoring before layers build: values applied on creation."""
        net = Net()
        net(repro.constant([[1.0]]))
        net.out.kernel.assign([[42.0]])
        path = Checkpoint(model=net).save(str(tmp_path / "net"))

        fresh = Net()  # out layer not yet built: kernel doesn't exist
        status = Checkpoint(model=fresh).restore(path)
        assert float(fresh.v) == float(net.v)  # v existed; restored now
        fresh(repro.constant([[1.0]]))  # builds out.kernel -> deferred apply
        status.assert_consumed()
        assert float(fresh.out.kernel.numpy()[0, 0]) == 42.0

    def test_matching_is_local(self, tmp_path):
        """The same subtree restores regardless of surrounding structure."""
        net = Net()
        net(repro.constant([[1.0]]))
        net.v.assign(3.25)
        path = Checkpoint(model=net).save(str(tmp_path / "net"))

        class Wrapper(Trackable):
            def __init__(self):
                self.model = Net()

        w = Wrapper()
        w.model(repro.constant([[1.0]]))
        # Restore with the *same* edge name at the root.
        Checkpoint(model=w.model).restore(path).assert_consumed()
        assert float(w.model.v) == 3.25


class TestContainers:
    def test_list_edges_are_numbered(self, tmp_path):
        class Holder(Trackable):
            def __init__(self):
                self.items = [repro.Variable(1.0)]
                self.items.append(repro.Variable(2.0))

        h = Holder()
        h.items[1].assign(9.0)
        path = Checkpoint(root=h).save(str(tmp_path / "h"))
        fresh = Holder()
        Checkpoint(root=fresh).restore(path).assert_consumed()
        assert float(fresh.items[1]) == 9.0

    def test_dict_edges_by_key(self, tmp_path):
        class Holder(Trackable):
            def __init__(self):
                self.table = {"a": repro.Variable(1.0), "b": repro.Variable(2.0)}

        h = Holder()
        h.table["b"].assign(5.0)
        path = Checkpoint(root=h).save(str(tmp_path / "h"))
        fresh = Holder()
        Checkpoint(root=fresh).restore(path).assert_consumed()
        assert float(fresh.table["b"]) == 5.0
        assert [key for key, _ in fresh.table.items()] == ["a", "b"]

    def test_shared_objects_saved_once(self, tmp_path):
        shared = repro.Variable([1.0, 2.0])

        class Holder(Trackable):
            def __init__(self):
                self.a = shared
                self.b = shared

        path = Checkpoint(root=Holder()).save(str(tmp_path / "s"))
        import json
        import numpy as np_mod

        with np_mod.load(path) as archive:
            graph = json.loads(bytes(archive["__object_graph__"].tobytes()).decode())
        value_nodes = [n for n in graph["nodes"] if n["value_keys"]]
        assert len(value_nodes) == 1  # one storage for the shared variable


class TestMiscState:
    def test_numpy_state(self, tmp_path):
        """Paper §4.3: NumPy arrays can use graph-based matching."""
        state = NumpyState()
        state.table = np.arange(4.0)
        path = Checkpoint(stats=state).save(str(tmp_path / "np"))
        fresh = NumpyState()
        fresh.table = np.zeros(4)
        Checkpoint(stats=fresh).restore(path).assert_consumed()
        np.testing.assert_array_equal(fresh.table, np.arange(4.0))

    def test_iterator_position_restored(self, tmp_path):
        """Paper §4.3: an iterator's position in a dataset is serialized."""
        ds = nn.Dataset([np.arange(10)], batch_size=2)
        it = ds.make_iterator()
        it.get_next()
        it.get_next()
        path = Checkpoint(iterator=it).save(str(tmp_path / "it"))

        it2 = ds.make_iterator()
        Checkpoint(iterator=it2).restore(path).assert_consumed()
        (batch,) = it2.get_next()
        np.testing.assert_array_equal(batch.numpy(), [4, 5])

    def test_optimizer_slots_roundtrip(self, tmp_path):
        v = repro.Variable([1.0, 2.0])
        opt = nn.SGD(0.1, momentum=0.9)
        with repro.GradientTape() as tape:
            loss = repro.reduce_sum(v * v)
        opt.apply_gradients(zip([tape.gradient(loss, v)], [v]))
        path = Checkpoint(v=v, opt=opt).save(str(tmp_path / "opt"))

        v2 = repro.Variable([0.0, 0.0])
        opt2 = nn.SGD(0.1, momentum=0.9)
        with repro.GradientTape() as tape:
            loss = repro.reduce_sum(v2 * v2)
        opt2.apply_gradients(zip([tape.gradient(loss, v2)], [v2]))
        Checkpoint(v=v2, opt=opt2).restore(path).assert_consumed()
        np.testing.assert_allclose(v2.numpy(), v.numpy())


class TestFailureModes:
    def test_unconsumed_values_detected(self, tmp_path):
        class Big(Trackable):
            def __init__(self):
                self.a = repro.Variable(1.0)
                self.b = repro.Variable(2.0)

        class Small(Trackable):
            def __init__(self):
                self.a = repro.Variable(0.0)

        path = Checkpoint(root=Big()).save(str(tmp_path / "big"))
        status = Checkpoint(root=Small()).restore(path)
        with pytest.raises(FailedPreconditionError):
            status.assert_consumed()

    def test_extra_objects_are_fine(self, tmp_path):
        class Small(Trackable):
            def __init__(self):
                self.a = repro.Variable(3.0)

        class Big(Trackable):
            def __init__(self):
                self.a = repro.Variable(0.0)
                self.extra = repro.Variable(99.0)

        path = Checkpoint(root=Small()).save(str(tmp_path / "small"))
        big = Big()
        Checkpoint(root=big).restore(path).assert_consumed()
        assert float(big.a) == 3.0
        assert float(big.extra) == 99.0  # untouched

    def test_save_appends_extension(self, tmp_path):
        path = Checkpoint(v=repro.Variable(1.0)).save(str(tmp_path / "x"))
        assert path.endswith(".npz")
        assert os.path.exists(path)
