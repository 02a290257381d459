"""The eager optimizer update, staged on its second sighting.

``Optimizer.apply_gradients`` runs its first call for a variable list op
by op (creating the slots eagerly), traces the same update body into a
``repro.function`` on the second call for that list, and runs the
staged function from then on.  Each call's branch is counted in
:mod:`repro.runtime.decisions` under site ``"update"``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import nn
from repro.core.checkpoint import Checkpoint
from repro.core.pipeline import artifact_cache
from repro.runtime import decisions, dispatch

# The parity corpus's float32 tolerances (tests/harness/parity.py).
TOL = dict(rtol=1e-5, atol=1e-5)


@pytest.fixture(autouse=True)
def fresh():
    artifact_cache().clear()
    decisions.reset()
    with repro.execution_mode("sync"):
        yield
    artifact_cache().clear()


def taken() -> dict:
    """``{cause: count}`` of the update decisions since the last reset."""
    return {c: n for (site, c), n in decisions.snapshot().items() if site == "update"}


class _GraphProbe(dispatch.OpInterceptor):
    """A graph-mode interceptor: the update must stay eager under it."""

    name = "graph-probe"
    modes = (dispatch.GRAPH,)


class _Halve(nn.Optimizer):
    """A custom optimizer declaring its one hyperparameter: staged."""

    def __init__(self):
        super().__init__("Halve")

    def _hyper(self):
        return {"rate": 0.5}

    def _apply_dense(self, grad, var, hyper):
        var.assign_sub(grad * hyper["rate"])


class _Scaled(nn.Optimizer):
    """A custom optimizer in the two-argument form, reading ``self``."""

    def __init__(self, rate):
        super().__init__("Scaled")
        self.rate = rate

    def _apply_dense(self, grad, var):
        var.assign_sub(grad * self.rate)


class _CountingSGD(nn.SGD):
    """SGD with a Python side effect in an undeclared hook."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished = 0

    def _finish(self):
        self.finished += 1


class _TraceFails(nn.SGD):
    """SGD whose update body cannot be staged."""

    def _hyper(self):
        return super()._hyper()

    def _apply_dense(self, grad, var, hyper):
        if not repro.executing_eagerly():
            raise RuntimeError("this update does not stage")
        super()._apply_dense(grad, var, hyper)


def _problem(seed=0):
    rng = np.random.default_rng(seed)
    x = repro.constant(rng.normal(size=(8, 3)).astype(np.float32))
    y = repro.constant(rng.normal(size=(8, 2)).astype(np.float32))
    w = repro.Variable(rng.normal(size=(3, 2)).astype(np.float32), name="w")
    b = repro.Variable(np.zeros(2, np.float32), name="b")
    return x, y, [w, b]


def _train(opt, steps=10, eager=False, seed=0):
    """Losses and final weights of ``steps`` steps; ``eager`` forces
    every update op by op (a registered graph interceptor)."""
    x, y, variables = _problem(seed)
    probe = dispatch.core.register_interceptor(_GraphProbe()) if eager else None
    losses = []
    try:
        for _ in range(steps):
            with repro.GradientTape() as tape:
                w, b = variables
                loss = repro.reduce_mean(repro.square(repro.matmul(x, w) + b - y))
            grads = tape.gradient(loss, variables)
            opt.apply_gradients(zip(grads, variables))
            losses.append(float(loss.numpy()))
    finally:
        if probe is not None:
            dispatch.core.unregister_interceptor(probe)
    return losses, [v.numpy().copy() for v in variables]


OPTIMIZERS = {
    "sgd": lambda: nn.SGD(0.1),
    "momentum": lambda: nn.SGD(0.1, momentum=0.9),
    "nesterov": lambda: nn.SGD(0.1, momentum=0.9, nesterov=True),
    "adam": lambda: nn.Adam(0.01),
    "custom": _Halve,
}


class TestStagedMatchesEager:
    @pytest.mark.parametrize("name", sorted(OPTIMIZERS))
    def test_ten_steps(self, name):
        eager_losses, eager_vars = _train(OPTIMIZERS[name](), eager=True)
        assert taken() == {"intercepted": 10}
        decisions.reset()
        staged_losses, staged_vars = _train(OPTIMIZERS[name]())
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 8}
        np.testing.assert_allclose(staged_losses, eager_losses, **TOL)
        for got, want in zip(staged_vars, eager_vars):
            np.testing.assert_allclose(got, want, **TOL)

    def test_each_variable_list_builds_once(self):
        opt = nn.SGD(0.1, momentum=0.9)
        _, _, first = _problem()
        _, _, second = _problem(1)
        grads = [repro.constant(np.ones(v.shape.as_tuple(), np.float32)) for v in first]
        for variables in (first, first, second, second, first, second):
            opt.apply_gradients(zip(grads, variables))
        assert taken() == {"first_sighting": 2, "built": 2, "hit": 2}
        assert opt._update_fn.trace_count == 2

    def test_an_alternating_variable_list(self):
        """A tree model whose leaf-only examples leave some variables
        unconnected: the None-gradient pattern varies step to step."""
        opt = nn.Adam(0.01)
        _, _, (w, b) = _problem()
        grads = {w: repro.constant(np.ones((3, 2), np.float32)), b: repro.constant([1.0, 1.0])}
        eager_w, eager_b = (repro.Variable(v.numpy()) for v in (w, b))
        eager_opt = nn.Adam(0.01)
        pattern = "ababbaaba"
        for p in pattern:
            used = [w, b] if p == "a" else [w]
            opt.apply_gradients([(grads[v], v) for v in used])
            probe = dispatch.core.register_interceptor(_GraphProbe())
            try:
                mirror = [eager_w, eager_b] if p == "a" else [eager_w]
                eager_opt.apply_gradients([(grads[v], m) for v, m in zip(used, mirror)])
            finally:
                dispatch.core.unregister_interceptor(probe)
        # a: first, b: first, a: first, b: first, b: built, a: first,
        # a: built, b: hit, a: hit.
        assert taken() == {
            "first_sighting": 5, "built": 2, "hit": 2, "intercepted": len(pattern),
        }
        assert opt._update_fn.trace_count == 2
        np.testing.assert_allclose(w.numpy(), eager_w.numpy(), **TOL)
        np.testing.assert_allclose(b.numpy(), eager_b.numpy(), **TOL)

    def test_a_structural_flag_is_part_of_the_key(self):
        opt = nn.SGD(0.1, momentum=0.9)
        x, y, variables = _problem()
        grads = [repro.constant(np.ones(v.shape.as_tuple(), np.float32)) for v in variables]
        for _ in range(2):
            opt.apply_gradients(zip(grads, variables))
        opt.nesterov = True
        opt.apply_gradients(zip(grads, variables))
        assert taken() == {"first_sighting": 2, "built": 1}


class TestHyperparameters:
    def test_a_learning_rate_change_does_not_retrace(self):
        opt = nn.SGD(0.1, momentum=0.5)
        v = repro.Variable([1.0, 2.0])
        grad = repro.constant([1.0, 1.0])
        for _ in range(3):
            opt.apply_gradients([(grad, v)])
        staged = opt._update_fn
        assert staged.trace_count == 1
        opt.learning_rate = 0.0
        before = v.numpy().copy()
        opt.apply_gradients([(grad, v)])
        opt.momentum = 0.25  # a value change, not a structural one
        opt.apply_gradients([(grad, v)])
        assert opt._update_fn is staged and staged.trace_count == 1
        np.testing.assert_array_equal(v.numpy(), before)
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 3}

    def test_schedule_values_take_effect(self):
        v = repro.Variable(1.0)
        opt = nn.SGD(1.0)
        for lr in (1.0, 1.0, 0.5, 0.0):
            opt.learning_rate = lr
            opt.apply_gradients([(repro.constant(1.0), v)])
        assert float(v) == pytest.approx(1.0 - 2.5)
        assert taken()["hit"] == 2


class TestCheckpoint:
    @staticmethod
    def _graph(path) -> list:
        with np.load(path) as archive:
            return json.loads(bytes(archive["__object_graph__"].tobytes()).decode())["nodes"]

    def test_slot_names_and_object_graph_unchanged(self, tmp_path):
        eager_opt, staged_opt = nn.Adam(0.01), nn.Adam(0.01)
        _train(eager_opt, steps=1)
        _train(staged_opt, steps=4)
        assert taken()["hit"] == 2
        assert sorted(staged_opt.slots._values) == sorted(eager_opt.slots._values)
        eager_path = Checkpoint(opt=eager_opt).save(str(tmp_path / "eager"))
        staged_path = Checkpoint(opt=staged_opt).save(str(tmp_path / "staged"))
        assert self._graph(staged_path) == self._graph(eager_path)

        restored = nn.Adam(0.01)
        _train(restored, steps=1)  # creates the slots to restore into
        Checkpoint(opt=restored).restore(staged_path).assert_consumed()
        for key, slot in staged_opt.slots._values.items():
            np.testing.assert_array_equal(restored.slots[key].numpy(), slot.numpy())
        assert float(restored.step) == float(staged_opt.step) == 4.0

    def test_restore_between_staged_steps(self, tmp_path):
        opt = nn.SGD(0.1, momentum=0.9)
        x, y, variables = _problem()
        grads = [repro.constant(np.ones(v.shape.as_tuple(), np.float32)) for v in variables]
        for _ in range(3):
            opt.apply_gradients(zip(grads, variables))
        ckpt = Checkpoint(opt=opt, w=variables[0], b=variables[1])
        path = ckpt.save(str(tmp_path / "s"))
        opt.apply_gradients(zip(grads, variables))
        fourth = [v.numpy().copy() for v in variables]
        opt.apply_gradients(zip(grads, variables))
        ckpt.restore(path).assert_consumed()
        opt.apply_gradients(zip(grads, variables))  # the plan reads restored state
        for got, want in zip(variables, fourth):
            np.testing.assert_array_equal(got.numpy(), want)
        assert taken() == {"first_sighting": 1, "built": 1, "hit": 4}


class TestFallbacks:
    def _twice(self, opt, v, grad):
        opt.apply_gradients([(grad, v)])
        opt.apply_gradients([(grad, v)])

    def test_an_active_tape(self):
        opt, v = nn.SGD(0.1), repro.Variable([1.0])
        with repro.GradientTape():
            self._twice(opt, v, repro.constant([1.0]))
        assert taken() == {"recorder": 2}
        np.testing.assert_allclose(v.numpy(), [0.8], rtol=1e-6)

    def test_lazy_mode(self):
        opt, v = nn.SGD(0.1), repro.Variable([1.0])
        with repro.execution_mode("lazy"):
            self._twice(opt, v, repro.constant([1.0]))
            repro.sync()
        assert taken() == {"lazy": 2}
        np.testing.assert_allclose(v.numpy(), [0.8], rtol=1e-6)

    def test_inside_a_function_body(self):
        opt, v = nn.SGD(0.1), repro.Variable([1.0])
        step = repro.function(lambda g: opt.apply_gradients([(g, v)]))
        for _ in range(3):
            step(repro.constant([1.0]))
        assert taken() == {"symbolic": 1}  # one trace; later calls run it
        np.testing.assert_allclose(v.numpy(), [0.7], rtol=1e-6)

    def test_a_gpu_variable(self):
        opt = nn.SGD(0.1)
        with repro.device("/gpu:0"):
            v = repro.Variable([1.0])
        self._twice(opt, v, repro.constant([1.0]))
        with repro.device("/gpu:0"):
            self._twice(opt, repro.Variable([1.0]), repro.constant([1.0]))
        assert taken() == {"off_cpu": 4}
        np.testing.assert_allclose(v.numpy(), [0.8], rtol=1e-6)

    def test_a_graph_interceptor(self):
        _train(nn.SGD(0.1), steps=2, eager=True)
        assert taken() == {"intercepted": 2}

    def test_an_undeclared_custom_optimizer_follows_its_attributes(self):
        opt, v = _Scaled(0.5), repro.Variable([1.0])
        for rate in (0.5, 0.5, 0.25, 0.0):
            opt.rate = rate
            opt.apply_gradients([(repro.constant([1.0]), v)])
        assert taken() == {"custom": 4}
        np.testing.assert_allclose(v.numpy(), [1.0 - 1.25], rtol=1e-6)

    def test_an_undeclared_hook_keeps_a_subclass_eager(self):
        opt, v = _CountingSGD(0.1, momentum=0.9), repro.Variable([1.0])
        for _ in range(3):
            opt.apply_gradients([(repro.constant([1.0]), v)])
        assert opt.finished == 3
        assert taken() == {"custom": 3}

    def test_a_build_error_keeps_the_key_eager(self):
        losses, values = _train(_TraceFails(0.1, momentum=0.9), steps=4)
        assert taken() == {"first_sighting": 1, "build_error": 3}
        decisions.reset()
        want_losses, want_values = _train(nn.SGD(0.1, momentum=0.9), steps=4, eager=True)
        np.testing.assert_allclose(losses, want_losses, **TOL)
        for got, want in zip(values, want_values):
            np.testing.assert_allclose(got, want, **TOL)


class TestInterceptorContract:
    class _Events(dispatch.OpInterceptor):
        name = "events"
        modes = (dispatch.EAGER,)

        def __init__(self):
            self.events = []

        def on_start(self, op_name, attrs, inputs, device):
            self.events.append(("start", op_name))
            return op_name

        def on_complete(self, op_name, attrs, inputs, outputs, device, token):
            assert token == op_name
            self.events.append(("complete", op_name))

    def _profiled(self, taped: bool):
        x = repro.constant([1.0, 2.0])
        events = self._Events()
        with repro.profiler.Profile() as prof:
            dispatch.core.register_interceptor(events)
            try:
                if taped:
                    with repro.GradientTape() as tape:
                        tape.watch(x)
                        y = repro.reduce_sum(repro.tanh(x) * x)
                    assert len(tape._records) == 3
                else:
                    y = repro.reduce_sum(repro.tanh(x) * x)
            finally:
                dispatch.core.unregister_interceptor(events)
        counts = {name: stats.count for name, stats in prof.ops.items()}
        return float(y.numpy()), events.events, counts

    def test_a_recording_tape_leaves_the_contract_unchanged(self):
        plain = self._profiled(taped=False)
        taped = self._profiled(taped=True)
        assert taped == plain
        assert plain[1] == [
            ("start", "Tanh"), ("complete", "Tanh"),
            ("start", "Mul"), ("complete", "Mul"),
            ("start", "Sum"), ("complete", "Sum"),
        ]
        assert plain[2] == {"Tanh": 1, "Mul": 1, "Sum": 1}
