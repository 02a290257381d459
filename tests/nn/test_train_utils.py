"""Gradient clipping, learning-rate schedules, metrics, EMA."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.framework.errors import InvalidArgumentError


class TestClipping:
    def test_global_norm(self):
        tensors = [repro.constant([3.0]), repro.constant([4.0])]
        assert float(nn.global_norm(tensors)) == pytest.approx(5.0)

    def test_clip_scales_down(self):
        tensors = [repro.constant([3.0]), repro.constant([4.0])]
        clipped, norm = nn.clip_by_global_norm(tensors, 1.0)
        assert float(norm) == pytest.approx(5.0)
        assert float(nn.global_norm(clipped)) == pytest.approx(1.0)
        np.testing.assert_allclose(clipped[0].numpy(), [0.6], rtol=1e-6)

    def test_clip_no_op_when_under(self):
        tensors = [repro.constant([0.3])]
        clipped, _ = nn.clip_by_global_norm(tensors, 10.0)
        np.testing.assert_allclose(clipped[0].numpy(), [0.3], rtol=1e-6)

    def test_preserves_none(self):
        clipped, _ = nn.clip_by_global_norm([repro.constant([1.0]), None], 0.5)
        assert clipped[1] is None

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            nn.global_norm([None])

    def test_clip_by_norm_single(self):
        out = nn.clip_by_norm(repro.constant([3.0, 4.0]), 2.5)
        np.testing.assert_allclose(out.numpy(), [1.5, 2.0], rtol=1e-6)

    def test_clipping_inside_staged_step(self):
        v = repro.Variable([10.0])
        opt = nn.SGD(1.0)

        @repro.function
        def step():
            with repro.GradientTape() as tape:
                loss = repro.reduce_sum(v * v) * 100.0
            grads = tape.gradient(loss, [v])
            clipped, _ = nn.clip_by_global_norm(grads, 1.0)
            opt.apply_gradients(zip(clipped, [v]))
            return loss

        step()
        assert float(v.numpy()[0]) == pytest.approx(9.0)  # moved by exactly 1


class TestSchedules:
    def test_exponential_decay(self):
        sched = nn.ExponentialDecay(1.0, decay_steps=10, decay_rate=0.5)
        assert sched(0) == 1.0
        assert sched(10) == pytest.approx(0.5)
        assert sched(5) == pytest.approx(0.5 ** 0.5)

    def test_exponential_staircase(self):
        sched = nn.ExponentialDecay(1.0, 10, 0.5, staircase=True)
        assert sched(9) == 1.0
        assert sched(10) == pytest.approx(0.5)

    def test_cosine(self):
        sched = nn.CosineDecay(2.0, decay_steps=100)
        assert sched(0) == pytest.approx(2.0)
        assert sched(50) == pytest.approx(1.0)
        assert sched(100) == pytest.approx(0.0, abs=1e-12)
        assert sched(1000) == pytest.approx(0.0, abs=1e-12)  # clamps

    def test_cosine_alpha_floor(self):
        sched = nn.CosineDecay(1.0, 10, alpha=0.1)
        assert sched(10) == pytest.approx(0.1)

    def test_piecewise(self):
        sched = nn.PiecewiseConstant([5, 10], [1.0, 0.1, 0.01])
        assert sched(0) == 1.0
        assert sched(5) == 0.1
        assert sched(12) == 0.01

    def test_piecewise_validation(self):
        with pytest.raises(InvalidArgumentError):
            nn.PiecewiseConstant([5], [1.0])

    def test_schedule_drives_optimizer(self):
        sched = nn.PiecewiseConstant([2], [1.0, 0.0])
        v = repro.Variable(1.0)
        opt = nn.SGD(sched(0))
        for step in range(4):
            opt.learning_rate = sched(step)
            with repro.GradientTape() as tape:
                loss = v * 1.0
            opt.apply_gradients(zip([tape.gradient(loss, v)], [v]))
        # Two unit steps, then LR 0: value froze at -1.
        assert float(v) == pytest.approx(-1.0)


class TestMetrics:
    def test_mean(self):
        m = nn.Mean()
        m.update_state(repro.constant(2.0))
        m.update_state(repro.constant(4.0))
        assert float(m.result()) == pytest.approx(3.0)
        m.reset_state()
        assert float(m.result()) == 0.0

    def test_accuracy(self):
        acc = nn.Accuracy()
        logits = repro.constant(np.float32([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]]))
        labels = repro.constant(np.array([0, 1, 1]))
        acc.update_state(labels, logits)
        assert float(acc.result()) == pytest.approx(2 / 3)
        acc.update_state(repro.constant(np.array([0])), repro.constant(np.float32([[9.0, 0.0]])))
        assert float(acc.result()) == pytest.approx(3 / 4)
        acc.reset_state()
        assert float(acc.result()) == 0.0

    def test_metrics_update_inside_staged_function(self):
        m = nn.Mean()

        @repro.function
        def observe(x):
            m.update_state(x)

        for v in (1.0, 2.0, 3.0):
            observe(repro.constant(v))
        assert float(m.result()) == pytest.approx(2.0)

    def test_metrics_checkpointable(self, tmp_path):
        from repro.core.checkpoint import Checkpoint

        m = nn.Mean()
        m.update_state(repro.constant(10.0))
        path = Checkpoint(metric=m).save(str(tmp_path / "m"))
        fresh = nn.Mean()
        Checkpoint(metric=fresh).restore(path).assert_consumed()
        assert float(fresh.result()) == pytest.approx(10.0)


class TestEMA:
    def test_shadow_tracks_variable(self):
        v = repro.Variable(0.0)
        ema = nn.ExponentialMovingAverage(decay=0.5)
        ema.apply([v])  # initializes shadow to current value
        v.assign(10.0)
        ema.apply([v])
        assert float(ema.average(v).read_value()) == pytest.approx(5.0)
        v.assign(10.0)
        ema.apply([v])
        assert float(ema.average(v).read_value()) == pytest.approx(7.5)

    def test_unknown_variable_returns_none(self):
        ema = nn.ExponentialMovingAverage()
        assert ema.average(repro.Variable(1.0)) is None
