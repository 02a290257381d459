"""Staged gradients (paper §4.2): forward/backward graph functions."""

import numpy as np
import pytest

import repro
from repro import nn


class TestStagedVsEagerParity:
    def test_simple_function(self):
        w = repro.Variable([[1.0, 2.0], [3.0, 4.0]])

        def loss_fn(x):
            return repro.reduce_sum(repro.matmul(x, w) ** 2.0)

        staged = repro.function(loss_fn)
        x = repro.constant([[1.0, 0.5]])

        with repro.GradientTape() as tape:
            loss_e = loss_fn(x)
        g_eager = tape.gradient(loss_e, w)

        with repro.GradientTape() as tape:
            loss_s = staged(x)
        g_staged = tape.gradient(loss_s, w)

        assert float(loss_e) == pytest.approx(float(loss_s))
        np.testing.assert_allclose(g_staged.numpy(), g_eager.numpy(), rtol=1e-6)

    def test_gradient_wrt_explicit_input(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(repro.tanh(x) * x)

        x = repro.constant([0.5, -1.0, 2.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = f(x)
        g = tape.gradient(y, x)

        with repro.GradientTape() as tape:
            tape.watch(x)
            y2 = repro.reduce_sum(repro.tanh(x) * x)
        g2 = tape.gradient(y2, x)
        np.testing.assert_allclose(g.numpy(), g2.numpy(), rtol=1e-6)

    def test_multi_output_function(self):
        @repro.function
        def f(x):
            return x * 2.0, x * x

        x = repro.constant(3.0)
        with repro.GradientTape() as tape:
            tape.watch(x)
            a, b = f(x)
        g = tape.gradient([a, b], x)
        assert float(g) == pytest.approx(2.0 + 6.0)

    def test_partial_output_gradient(self):
        @repro.function
        def f(x):
            return x * 2.0, x * 10.0

        x = repro.constant(1.0)
        with repro.GradientTape() as tape:
            tape.watch(x)
            a, _b = f(x)
        assert float(tape.gradient(a, x)) == 2.0

    def test_nested_function_gradient(self):
        @repro.function
        def inner(x):
            return x * x

        @repro.function
        def outer(x):
            return inner(x) * 3.0

        x = repro.constant(2.0)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = outer(x)
        assert float(tape.gradient(y, x)) == pytest.approx(12.0)

    def test_forward_backward_are_staged_once(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(x * x)

        x = repro.constant([1.0, 2.0])
        for _ in range(3):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = f(x)
            tape.gradient(y, x)
        concrete = f.get_concrete_function(x)
        fb = concrete._forward_backward
        assert fb is not None
        assert fb.forward_fn.num_nodes > 0
        assert fb.backward_fn is not None

    def test_variable_mutation_inside_gradient_function(self):
        v = repro.Variable(1.0)
        counter = repro.Variable(0.0, trainable=False)

        @repro.function
        def f(x):
            counter.assign_add(1.0)
            return x * v

        x = repro.constant(3.0)
        with repro.GradientTape() as tape:
            y = f(x)
        g = tape.gradient(y, v)
        assert float(g) == 3.0
        # Side effect ran exactly once (the forward pass).
        assert float(counter.read_value()) == 1.0

    def test_op_without_a_gradient_fails_at_the_gradient_not_the_call(self):
        @repro.function
        def f(x):
            return (x // 2.0) * x  # FloorDiv has no gradient

        x = repro.constant([3.0, 5.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = f(x)
        np.testing.assert_allclose(y.numpy(), [3.0, 10.0])
        with pytest.raises(repro.errors.UnimplementedError, match="FloorDiv"):
            tape.gradient(y, x)


class TestHigherOrderThroughFunctions:
    def test_second_order(self):
        @repro.function
        def f(x):
            return x * x * x

        x = repro.constant(2.0)
        with repro.GradientTape() as t1:
            t1.watch(x)
            with repro.GradientTape() as t2:
                t2.watch(x)
                y = f(x)
            g1 = t2.gradient(y, x)  # 3x^2
        g2 = t1.gradient(g1, x)  # 6x
        assert float(g1) == pytest.approx(12.0)
        assert float(g2) == pytest.approx(12.0)


class TestGradientComputationCanBeStaged:
    """Paper §4.2: 'gradient computation is itself expressed as a
    function which executes primitive operations, so it is possible to
    stage it or not.'"""

    def test_staged_gradient_of_eager_model(self):
        v = repro.Variable(2.0)

        @repro.function
        def grad_step(x):
            with repro.GradientTape() as tape:
                y = x * v * v
            return tape.gradient(y, v)

        g = grad_step(repro.constant(3.0))
        assert float(g) == pytest.approx(12.0)  # d(3v^2)/dv = 6v = 12

    def test_training_step_fully_staged(self):
        model = nn.Dense(1, kernel_initializer=lambda s, dtype=repro.float32: repro.ones(list(s)))
        opt = nn.SGD(0.1)

        @repro.function
        def step(x, y):
            with repro.GradientTape() as tape:
                pred = model(x)
                loss = nn.mean_squared_error(y, pred)
            grads = tape.gradient(loss, model.trainable_variables)
            opt.apply_gradients(zip(grads, model.trainable_variables))
            return loss

        x = repro.constant(np.random.randn(8, 3).astype(np.float32))
        y = repro.constant(np.random.randn(8, 1).astype(np.float32))
        losses = [float(step(x, y)) for _ in range(10)]
        assert losses[-1] < losses[0]
