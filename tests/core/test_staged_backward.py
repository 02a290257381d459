"""The eager tape's staged backward.

A sync-eager ``GradientTape.gradient`` keys its records by structure.
The first sighting of a structure walks the records op by op; the
second walks too and then stages the same sweep, symbolically, into a
planned graph function held in the artifact cache; every later sighting
runs that plan with the tape's saved tensors as feeds.  Each branch is
counted in :mod:`repro.runtime.decisions` under site ``"tape"``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.pipeline import TapeBackward, artifact_cache
from repro.framework.errors import FailedPreconditionError
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.ops import nn_ops, registry
from repro.runtime import decisions, dispatch, lazy
from repro.runtime.context import context
from repro.runtime.executor import execute
from repro.tensor import TensorSpec


@pytest.fixture(autouse=True)
def fresh():
    artifact_cache().clear()
    decisions.reset()
    yield
    artifact_cache().clear()


def taken() -> dict:
    """``{cause: count}`` of the tape decisions since the fixture reset them."""
    return {cause: n for (site, cause), n in decisions.snapshot().items() if site == "tape"}


def _const(values, dtype=np.float32):
    return repro.constant(np.asarray(values, dtype=dtype))


def _taped(fn, *arrays):
    """``(tape, fn(*xs), xs)`` over fresh tensors ``xs``, each watched."""
    xs = [_const(a, np.asarray(a).dtype) for a in arrays]
    with repro.GradientTape() as tape:
        for x in xs:
            tape.watch(x)
        y = fn(*xs)
    return tape, y, xs


def _grad(fn, *arrays, **kwargs):
    """One tape over ``fn`` of fresh tensors: ``[dfn/dx for x in inputs]``."""
    tape, y, xs = _taped(fn, *arrays)
    return [None if g is None else g.numpy() for g in tape.gradient(y, xs, **kwargs)]


class _Counting(dispatch.OpInterceptor):
    def __init__(self, modes) -> None:
        self.modes, self.ops = modes, []

    def on_start(self, op_name, attrs, inputs, device):
        self.ops.append(op_name)


def _loss(x, w):
    return repro.reduce_sum(repro.tanh(repro.matmul(x, w)) * 2.0 + x[:, :1])


X = np.arange(6, dtype=np.float32).reshape(2, 3) / 6.0
W = np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)


class TestSightings:
    def test_walk_then_build_then_hits_agree(self):
        results = [_grad(_loss, X, W) for _ in range(5)]
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 3}
        for staged in results[2:]:
            for g, ref in zip(staged, results[0]):
                np.testing.assert_allclose(g, ref, rtol=1e-6, atol=1e-6)

    def test_only_a_large_build_collects_garbage(self, monkeypatch):
        """A build of at least ``_COLLECT_AT`` swept nodes collects
        between its stages (its garbage would raise the process's peak
        RSS); a small one does not pay for full collections."""
        import gc

        collections = []
        monkeypatch.setattr(gc, "collect", lambda *a: collections.append(1) or 0)

        def chain(x):
            for _ in range(300):
                x = repro.tanh(x) * 0.5 + x * 0.5
            return repro.reduce_sum(x)

        small = [_grad(_loss, X, W) for _ in range(3)]
        assert collections == []
        large = [_grad(chain, X) for _ in range(3)]
        assert len(collections) == 4
        assert taken() == {"first_sighting": 2, "built": 2, "hit": 2}
        np.testing.assert_allclose(small[2][1], small[0][1], rtol=1e-6)
        np.testing.assert_allclose(large[2][0], large[0][0], rtol=1e-5)

    def test_hit_dispatches_no_eager_op(self):
        for _ in range(2):
            _grad(_loss, X, W)
        tape, y, xs = _taped(_loss, X, W)
        counting = dispatch.core.register_interceptor(_Counting((dispatch.EAGER,)))
        try:
            tape.gradient(y, xs)
        finally:
            dispatch.core.unregister_interceptor(counting)
        assert counting.ops == []
        assert taken()["hit"] == 1

    def test_variables_are_sources(self):
        v = repro.Variable(W)
        x = _const(X)
        grads = []
        for _ in range(3):
            with repro.GradientTape() as tape:
                y = _loss(x, v)
            grads.append(tape.gradient(y, v).numpy())
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        np.testing.assert_allclose(grads[2], grads[0], rtol=1e-6, atol=1e-6)

    def test_a_new_variable_gives_a_new_key(self):
        layer_vars = [repro.Variable(W)]
        x = _const(X)

        def step():
            with repro.GradientTape() as tape:
                h = x
                for v in layer_vars:
                    h = repro.tanh(repro.matmul(h, v))
                    h = h[:, :3]
                y = repro.reduce_sum(h)
            return [g.numpy() for g in tape.gradient(y, layer_vars)]

        step(), step(), step()
        layer_vars.append(repro.Variable(W * 0.5))
        grads = step()
        assert taken() == {"first_sighting": 2, "built": 1, "hit": 1}
        assert len(grads) == 2

    def test_the_forward_is_not_rerun(self, test_ops):
        f = lambda x: repro.reduce_sum(execute("TestTagged", [x], {"tag": 1}) * x)  # noqa: E731
        for _ in range(2):
            _grad(f, X)
        tape, y, xs = _taped(f, X)
        ran = TAGGED_CALLS[0]
        np.testing.assert_allclose(tape.gradient(y, xs)[0].numpy(), 2.0 * X)
        assert TAGGED_CALLS[0] == ran and taken()["hit"] == 1


class TestKeySoundness:
    """Two structures that differ in one thing never share an artifact:
    each sighting count starts from scratch, and each plan's gradients
    equal its own walk."""

    def _agree(self, fns_and_inputs):
        walks = [_grad(fn, *arrays) for fn, arrays in fns_and_inputs]
        for _ in range(2):
            for (fn, arrays), ref in zip(fns_and_inputs, walks):
                for g, r in zip(_grad(fn, *arrays), ref):
                    np.testing.assert_allclose(g, r, rtol=1e-6, atol=1e-6)
        n = len(fns_and_inputs)
        assert taken() == {"first_sighting": n, "built": n, "hit": n}

    def test_one_attr(self):
        self._agree(
            [
                (lambda x: repro.reduce_sum(nn_ops.leaky_relu(x, alpha=0.1) ** 2.0), [X]),
                (lambda x: repro.reduce_sum(nn_ops.leaky_relu(x, alpha=0.2) ** 2.0), [X]),
            ]
        )

    def test_one_input_shape(self):
        f = lambda x: repro.reduce_sum(repro.exp(x) * x)  # noqa: E731
        self._agree([(f, [X]), (f, [X.reshape(3, 2)]), (f, [X[:, :2]])])

    def test_one_dtype(self):
        f = lambda x: repro.reduce_sum(repro.sin(x) * x)  # noqa: E731
        self._agree([(f, [X]), (f, [X.astype(np.float64)])])

    def test_one_wiring(self):
        self._agree(
            [
                (lambda a, b: repro.reduce_sum(a * b + a * a), [X, X + 1.0]),
                (lambda a, b: repro.reduce_sum(a * b + b * b), [X, X + 1.0]),
            ]
        )

    def test_a_hash_collision_walks(self, monkeypatch):
        from repro.core import pipeline

        monkeypatch.setattr(pipeline, "hash", lambda key: 0, raising=False)
        f = lambda x: repro.reduce_sum(repro.exp(x))  # noqa: E731
        g = lambda x: repro.reduce_sum(repro.sin(x))  # noqa: E731
        for _ in range(2):
            _grad(f, X)
        for _ in range(2):
            np.testing.assert_allclose(_grad(g, X)[0], np.cos(X), rtol=1e-6)
        np.testing.assert_allclose(_grad(f, X)[0], np.exp(X), rtol=1e-6)
        assert taken() == {"first_sighting": 3, "built": 1, "hit": 1}

    def test_values_are_not_in_the_key(self):
        f = lambda x, w: repro.reduce_sum(repro.matmul(x, w) ** 2.0)  # noqa: E731
        first = _grad(f, X, W)
        _grad(f, X, W)
        staged = _grad(f, X * 3.0, W - 1.0)
        walked = [np.asarray(g) for g in first]
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        expected_w = 2.0 * (X * 3.0).T @ ((X * 3.0) @ (W - 1.0))
        np.testing.assert_allclose(staged[1], expected_w, rtol=1e-5)
        assert not np.allclose(staged[1], walked[1])


class TestTapeUses:
    def test_persistent_tape_with_two_targets(self):
        x = _const(X)
        with repro.GradientTape(persistent=True) as tape:
            tape.watch(x)
            y1 = repro.reduce_sum(repro.exp(x))
            y2 = repro.reduce_sum(x * x * x)
        for _ in range(3):
            g1 = tape.gradient(y1, x).numpy()
            g2 = tape.gradient(y2, x).numpy()
        assert taken() == {"first_sighting": 2, "built": 2, "hit": 2}
        np.testing.assert_allclose(g1, np.exp(X), rtol=1e-6)
        np.testing.assert_allclose(g2, 3.0 * X * X, rtol=1e-6)

    def test_jacobian_walks_builds_then_hits(self):
        x = _const([0.5, -1.0, 2.0])
        with repro.GradientTape(persistent=True) as tape:
            tape.watch(x)
            y = repro.sin(x) * x
        jac = tape.jacobian(y, x).numpy()
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        xv = np.array([0.5, -1.0, 2.0], np.float32)
        np.testing.assert_allclose(jac, np.diag(np.cos(xv) * xv + np.sin(xv)), rtol=1e-6)

    def test_unconnected_gradients_zero(self):
        f = lambda x, z: repro.reduce_sum(x * x)  # noqa: E731
        for _ in range(3):
            gx, gz = _grad(f, X, W, unconnected_gradients="zero")
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        np.testing.assert_allclose(gx, 2.0 * X)
        np.testing.assert_array_equal(gz, np.zeros_like(W))
        assert _grad(f, X, W)[1] is None  # "none" is another key

    def test_explicit_output_gradients(self):
        x = _const(X)
        for scale in (1.0, 2.0, 3.0):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = repro.exp(x)
            g = tape.gradient(y, x, output_gradients=_const(np.full_like(X, scale))).numpy()
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        np.testing.assert_allclose(g, 3.0 * np.exp(X), rtol=1e-6)

    def test_target_is_a_source(self):
        x = _const(X)
        for _ in range(3):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = x * 2.0
            gy, gx = tape.gradient(y, [y, x])
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
        np.testing.assert_array_equal(gy.numpy(), np.ones_like(X))
        np.testing.assert_array_equal(gx.numpy(), np.full_like(X, 2.0))

    def test_eviction_under_a_small_cache(self):
        context.trace_cache_size = 1
        f = lambda x: repro.reduce_sum(repro.exp(x))  # noqa: E731
        g = lambda x: repro.reduce_sum(repro.sin(x))  # noqa: E731
        for _ in range(3):
            np.testing.assert_allclose(_grad(f, X)[0], np.exp(X), rtol=1e-6)
            np.testing.assert_allclose(_grad(g, X)[0], np.cos(X), rtol=1e-6)
        assert taken() == {"first_sighting": 6}
        assert artifact_cache().stats()["evictions"] == 5
        assert len(artifact_cache()) == 1

    def test_tape_entries_evict_only_tape_entries(self):
        """Past the bound a new tape entry evicts the oldest other tape
        entry, so structures that never repeat leave traced plans alone."""
        context.trace_cache_size = 3
        traced = [repro.function(lambda x, k=k: x * float(k)) for k in range(2)]
        for f in traced:
            f(_const(X))
        for depth in range(1, 7):
            _grad(lambda x: repro.reduce_sum(_tanh_chain(x, depth)), X)
        artifacts = artifact_cache().artifacts()
        assert sum(isinstance(a, TapeBackward) for a in artifacts) == 1
        assert sum(isinstance(a, GraphFunction) for a in artifacts) == 2
        assert artifact_cache().stats()["evictions"] == 5
        assert taken() == {"first_sighting": 6}
        _grad(lambda x: repro.exp(x), X)  # a new trace still evicts the LRU entry
        traced.append(repro.function(lambda x: x + 1.0))
        traced[-1](_const(X))
        assert sum(isinstance(a, GraphFunction) for a in artifact_cache().artifacts()) == 2

    def test_a_structure_seen_once_holds_no_key(self):
        _grad(_loss, X, W)
        (entry,) = [a for a in artifact_cache().artifacts() if isinstance(a, TapeBackward)]
        assert entry.key is None and entry.built is None
        _grad(_loss, X, W)
        assert entry.key is not None and entry.built is not None

    def test_an_evicted_entry_drops_its_plan(self):
        for _ in range(2):
            _grad(_loss, X, W)
        (entry,) = [a for a in artifact_cache().artifacts() if isinstance(a, TapeBackward)]
        assert entry.built is not None
        artifact_cache().clear()
        assert entry.built is None and entry.run([]) is None


def _tanh_chain(x, depth: int):
    for _ in range(depth):
        x = repro.tanh(x)
    return x


TAGGED_CALLS = [0]  # kernel calls of the ``test_ops`` identities


@pytest.fixture
def test_ops():
    """``TestTagged`` (an identity carrying a ``tag`` attr) and
    ``TestNumpyGrad`` (an identity whose gradient reads its input's
    value, so it works on a walk and fails in the symbolic build)."""

    def identity(arrays, attrs, device):
        TAGGED_CALLS[0] += 1
        return arrays[0].copy()

    def value_grad(op, grad):
        return [grad * float(op.inputs[0].numpy().sum() * 0.0 + 1.0)]

    for name, grad_fn in (
        ("TestTagged", lambda op, grad: [grad]),
        ("TestNumpyGrad", value_grad),
    ):
        registry.register_op(
            name, infer_fn=lambda inputs, attrs: [TensorSpec.from_tensor(inputs[0])]
        )
        registry.register_kernel(name, ("CPU",))(identity)
        registry.register_gradient(name)(grad_fn)
    yield
    for name in ("TestTagged", "TestNumpyGrad"):
        registry.unregister_kernel(name, ("CPU",))
        del registry._OPS[name]
        del registry._GRADIENTS[name]


class TestFallbacks:
    """Every branch that walks is counted under its cause."""

    def test_symbolic(self):
        @repro.function
        def grad(x):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = repro.reduce_sum(x * x)
            return tape.gradient(y, x)

        np.testing.assert_allclose(grad(_const(X)).numpy(), 2.0 * X)
        assert taken() == {"symbolic": 1}

    def test_outer_recorder(self):
        x = _const([1.5])
        for _ in range(3):
            with repro.GradientTape() as outer:
                outer.watch(x)
                with repro.GradientTape() as inner:
                    inner.watch(x)
                    y = x * x * x
                dy = inner.gradient(y, x)
            d2y = outer.gradient(dy, x)
        np.testing.assert_allclose(d2y.numpy(), [9.0])
        assert taken()["outer_recorder"] == 3

    def test_forward_accumulator_is_an_outer_recorder(self):
        x = _const([1.5])
        with repro.ForwardAccumulator([x], [_const([1.0])]) as acc:
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = x * x
            g = tape.gradient(y, x)
        np.testing.assert_allclose(acc.jvp(g).numpy(), [2.0])
        assert taken() == {"outer_recorder": 1}

    def test_custom_backward(self):
        block = repro.recompute_grad(lambda t: repro.tanh(t) * t)
        for _ in range(3):
            g = _grad(lambda x: repro.reduce_sum(block(x)), X)[0]
        np.testing.assert_allclose(g, np.tanh(X) + X * (1 - np.tanh(X) ** 2), rtol=1e-6)
        assert taken() == {"custom_backward": 3}

    def test_a_staged_call_has_a_custom_backward(self):
        f = repro.function(lambda x: repro.exp(x))
        for _ in range(3):
            g = _grad(lambda x: repro.reduce_sum(f(x)), X)[0]
        np.testing.assert_allclose(g, np.exp(X), rtol=1e-6)
        assert taken() == {"custom_backward": 3}

    def test_unhashable_attr(self, test_ops):
        f = lambda x: repro.reduce_sum(execute("TestTagged", [x], {"tag": {1, 2}}) * x)  # noqa: E731
        for _ in range(3):
            np.testing.assert_allclose(_grad(f, X)[0], 2.0 * X)
        assert taken() == {"unhashable_attr": 3}
        g = lambda x: repro.reduce_sum(execute("TestTagged", [x], {"tag": (1, 2)}) * x)  # noqa: E731
        for _ in range(3):
            np.testing.assert_allclose(_grad(g, X)[0], 2.0 * X)
        assert taken()["hit"] == 1

    def test_lazy(self):
        with repro.execution_mode("lazy"):
            for _ in range(3):
                g = _grad(_loss, X, W)
        assert taken() == {"lazy": 3}
        np.testing.assert_allclose(g[1], _grad(_loss, X, W)[1], rtol=1e-6)

    def test_off_cpu(self):
        with repro.device("/gpu:0"):
            results = [_grad(_loss, X, W) for _ in range(3)]
        assert taken() == {"off_cpu": 3}
        (gx, gw), (_, gw_cpu) = results[2], _grad(_loss, X, W)
        np.testing.assert_allclose(gw, gw_cpu, rtol=1e-6)
        seed = _const(np.ones(3, np.float32)).gpu()
        x = _const([1.0, 2.0, 3.0])
        for _ in range(3):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = x * x
            tape.gradient(y, x, output_gradients=seed)
        assert taken()["off_cpu"] == 6

    def test_a_device_scope_around_the_gradient_is_off_cpu(self):
        """Recorded on the CPU, differentiated under ``/gpu:0``: every
        sighting walks, so the gradients land where the scope puts them."""
        for _ in range(3):
            tape, y, xs = _taped(_loss, X, W)
            with repro.device("/gpu:0"):
                grads = tape.gradient(y, xs)
            assert all(g.device.endswith("GPU:0") for g in grads)
        assert taken() == {"off_cpu": 3}
        np.testing.assert_allclose(grads[1].numpy(), _grad(_loss, X, W)[1], rtol=1e-6)

    def test_intercepted(self):
        for _ in range(2):
            _grad(_loss, X, W)
        with repro.profiler.Profile() as prof:
            _grad(_loss, X, W)
        assert taken() == {"first_sighting": 1, "built": 1, "intercepted": 1}
        assert prof.ops["MatMul"].count == 3  # the forward's, and the walk's two

    def test_build_error_walks_from_then_on(self, test_ops):
        f = lambda x: repro.reduce_sum(execute("TestNumpyGrad", [x], {}) * x)  # noqa: E731
        for _ in range(4):
            np.testing.assert_allclose(_grad(f, X)[0], 2.0 * X)
        assert taken() == {"first_sighting": 1, "build_error": 3}

    def test_a_plan_that_raises_walks_from_then_on(self, monkeypatch):
        for _ in range(2):
            _grad(_loss, X, W)

        def broken(self, values):
            raise RuntimeError("plan failed")

        monkeypatch.setattr(TapeBackward, "run", broken)
        ref = _grad(_loss, X, W)
        monkeypatch.undo()
        again = _grad(_loss, X, W)
        assert taken() == {"first_sighting": 1, "built": 1, "build_error": 2}
        for g, r in zip(again, ref):
            np.testing.assert_allclose(g, r)

    def test_an_error_the_walk_raises_too_keeps_the_plan(self, monkeypatch):
        """A data error (the walk fails as the plan did) propagates and
        leaves the plan in use."""
        from repro.core import backprop

        ref = [_grad(_loss, X, W) for _ in range(2)][0]

        def broken(*args, **kwargs):
            raise ValueError("bad batch")

        monkeypatch.setattr(TapeBackward, "run", broken)
        monkeypatch.setattr(backprop, "imperative_grad", broken)
        with pytest.raises(ValueError, match="bad batch"):
            _grad(_loss, X, W)
        monkeypatch.undo()
        for g, r in zip(_grad(_loss, X, W), ref):
            np.testing.assert_allclose(g, r, rtol=1e-6, atol=1e-6)
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}


def test_lazy_cache_counters_ignore_tape_entries():
    before = lazy.lazy_stats()
    for _ in range(3):
        _grad(_loss, X, W)
    after = lazy.lazy_stats()
    assert taken() == {"first_sighting": 1, "built": 1, "hit": 1}
    assert (after["cache_hits"], after["cache_misses"]) == (
        before["cache_hits"],
        before["cache_misses"],
    )
    assert artifact_cache().stats()["hits"] >= 2


def test_a_compacted_plan_runs_only_its_cpu_program():
    graph = Graph(name="g")
    x = placeholder(graph, repro.float32, [3])
    with graph.as_default():
        y = execute("Exp", [x], {})
    runner = GraphFunction("f", graph, [x], [y]).plan()
    steps = len(runner.plan)
    runner.compact()
    assert len(runner.plan) == steps and runner.graph is None
    value = _const([0.0, 1.0, 2.0])
    np.testing.assert_allclose(runner.run([(x, value)])[0].numpy(), np.exp([0.0, 1.0, 2.0]), rtol=1e-6)
    with repro.profiler.Profile():
        with pytest.raises(FailedPreconditionError, match="compacted"):
            runner.run([(x, value)])
