"""Batch norm's training step is bit-exact against its old composite.

``BatchNormalization`` once computed its statistics with ``moments``
over ``keepdims=True`` plus two ``Squeeze`` ops, and moved its moving
averages with a ``ReadVariableOp`` → ``Sub`` → ``Mul`` →
``AssignAddVariableOp`` chain per statistic: 23 eager ops per training
call.  It now runs 15: ``moments`` reduces a leading run of axes without
``keepdims``, and each moving average is one ``AssignMovingAverage``
op.  The ResNet benchmark's loss trajectory is chaotic (a 1e-7 weight
perturbation moves its losses past the golden band), so the new path
must reproduce the old one to the bit, not within a tolerance.
"""

import numpy as np
import pytest

import repro
from repro import nn
from repro.ops import array_ops, math_ops, nn_ops
from repro.ops.common import normalize_axes
from repro.runtime.profiler import Profile


def _old_moments(x, axes, keepdims=False):
    """``moments`` as it was: reduce with keepdims, then squeeze."""
    mean = math_ops.reduce_mean(x, axis=axes, keepdims=True)
    variance = math_ops.reduce_mean(
        math_ops.squared_difference(x, array_ops.stop_gradient(mean)),
        axis=axes,
        keepdims=True,
    )
    if not keepdims:
        norm = normalize_axes(axes, x.shape.rank)
        mean = array_ops.squeeze(mean, axis=norm)
        variance = array_ops.squeeze(variance, axis=norm)
    return mean, variance


class _OldBatchNorm(nn.BatchNormalization):
    """The 23-op training composite, kept as the reference."""

    def call(self, x, training=False):
        if not training:
            return super().call(x, training=False)
        mean, variance = _old_moments(x, tuple(range(x.shape.rank - 1)))
        one_minus = 1.0 - self.momentum
        self.moving_mean.assign_add((mean - self.moving_mean.read_value()) * one_minus)
        self.moving_variance.assign_add(
            (variance - self.moving_variance.read_value()) * one_minus
        )
        return nn_ops.batch_normalization(
            x,
            mean,
            variance,
            offset=self.beta.read_value(),
            scale=self.gamma.read_value(),
            variance_epsilon=self.epsilon,
        )


def _stack(bn_class):
    return nn.Sequential(
        [
            nn.Conv2D(4, 3),
            bn_class(momentum=0.9),
            nn.Conv2D(6, 3, strides=2),
            bn_class(momentum=0.8),
            nn.GlobalAveragePooling2D(),
            nn.Dense(3),
        ]
    )


def _batches():
    rng = np.random.default_rng(7)
    return [
        (
            repro.constant(rng.normal(0.5, 1.5, size=(2, 6, 6, 3)).astype(np.float32)),
            repro.constant(rng.integers(0, 3, size=(2,)).astype(np.int64)),
        )
        for _ in range(3)
    ]


def _pair():
    """The new and the old stack, with identical starting weights."""
    new, old = _stack(nn.BatchNormalization), _stack(_OldBatchNorm)
    x = _batches()[0][0]
    new(x)
    old(x)
    for a, b in zip(old.variables, new.variables):
        b.assign(a.numpy())
    return new, old


def _trainer(model, staged):
    opt = nn.SGD(0.05, momentum=0.9)

    def train_step(images, labels):
        with repro.GradientTape() as tape:
            logits = model(images, training=True)
            loss = nn.sparse_softmax_cross_entropy(labels, logits)
        variables = model.trainable_variables
        grads = tape.gradient(loss, variables)
        opt.apply_gradients(zip(grads, variables))
        return [loss, logits] + list(grads)

    return repro.function(train_step) if staged else train_step


def _moving(model):
    return [
        v.numpy().copy()
        for layer in model.layers
        if isinstance(layer, nn.BatchNormalization)
        for v in (layer.moving_mean, layer.moving_variance)
    ]


@pytest.mark.parametrize("staged", [False, True], ids=["eager", "staged"])
def test_training_steps_match_old_composite_bit_for_bit(staged):
    new, old = _pair()
    steps = _trainer(new, staged), _trainer(old, staged)
    for images, labels in _batches():
        got, want = (
            [t.numpy() for t in step(images, labels)] for step in steps
        )
        assert len(got) == len(want) == 2 + len(new.trainable_variables)
        for g, w in zip(got, want):  # loss, logits, every gradient
            assert np.array_equal(g, w)
        for g, w in zip(_moving(new), _moving(old)):
            assert np.array_equal(g, w)
    for a, b in zip(new.variables, old.variables):
        assert np.array_equal(a.numpy(), b.numpy())
    x = _batches()[0][0]
    assert np.array_equal(new(x).numpy(), old(x).numpy())


def _taped_call(bn, x):
    with repro.GradientTape() as tape:
        tape.watch(x)
        with Profile() as prof:
            bn(x, training=True)
    return tape._records, {name: s.count for name, s in prof.ops.items()}


def test_training_call_op_and_record_budget():
    x = repro.constant(np.random.default_rng(0).normal(size=(2, 3, 3, 4)).astype(np.float32))
    new, old = nn.BatchNormalization(), _OldBatchNorm()
    new(x)
    old(x)
    records, ops = _taped_call(new, x)
    assert sum(ops.values()) == 15
    assert ops["AssignMovingAverage"] == 2
    assert "Squeeze" not in ops and "AssignAddVariableOp" not in ops
    assert len(records) == 13
    assert all(r.op_name != "AssignMovingAverage" for r in records)
    old_records, old_ops = _taped_call(old, x)
    assert (sum(old_ops.values()), len(old_records)) == (23, 21)


class TestMoments:
    def _x(self):
        return repro.constant(
            np.random.default_rng(1).normal(2.0, 3.0, size=(3, 4, 5, 6)).astype(np.float32)
        )

    @pytest.mark.parametrize("axes", [(0, 1, 2), (0,), (-4, -3), None])
    def test_leading_axes_emit_no_squeeze(self, axes):
        x = self._x()
        with Profile() as prof:
            mean, variance = nn_ops.moments(x, axes)
        assert "Squeeze" not in prof.ops
        assert sum(s.count for s in prof.ops.values()) == 4
        want = _old_moments(x, axes)
        for got, ref in zip((mean, variance), want):
            assert got.shape == ref.shape
            assert np.array_equal(got.numpy(), ref.numpy())

    @pytest.mark.parametrize(
        "axes, keepdims",
        [((1, 2), False), ((0, 2), False), ((3,), False), ((0, 1, 2), True), ((1,), True)],
    )
    def test_other_axes_keep_the_old_output(self, axes, keepdims):
        x = self._x()
        got = nn_ops.moments(x, axes, keepdims=keepdims)
        want = _old_moments(x, axes, keepdims=keepdims)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.numpy(), w.numpy())
