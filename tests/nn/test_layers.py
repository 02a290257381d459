"""Layer library tests."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.framework.errors import InvalidArgumentError
from repro.ops import nn_ops


class TestDense:
    def test_output_shape_and_value(self):
        layer = nn.Dense(4, kernel_initializer=lambda s: repro.ones(list(s)))
        x = repro.constant(np.ones((3, 2), np.float32))
        out = layer(x)
        assert out.shape.as_list() == [3, 4]
        np.testing.assert_allclose(out.numpy(), np.full((3, 4), 2.0))

    def test_lazy_build(self):
        layer = nn.Dense(4, name="head")
        assert layer.name == "head"
        assert not layer.built
        layer(repro.constant(np.ones((1, 5), np.float32)))
        assert layer.built
        assert layer.kernel.shape.as_list() == [5, 4]

    def test_activation(self):
        layer = nn.Dense(
            2, activation=nn_ops.relu, kernel_initializer=lambda s: -repro.ones(list(s))
        )
        out = layer(repro.constant(np.ones((1, 3), np.float32)))
        np.testing.assert_allclose(out.numpy(), [[0.0, 0.0]])

    def test_no_bias(self):
        layer = nn.Dense(2, use_bias=False)
        layer(repro.constant(np.ones((1, 3), np.float32)))
        assert len(layer.trainable_variables) == 1

    def test_dynamic_last_dim_rejected(self):
        layer = nn.Dense(2)
        with pytest.raises(InvalidArgumentError):
            layer.build(repro.TensorShape([None, None]))


class TestConv2D:
    def test_shapes(self):
        layer = nn.Conv2D(8, 3, strides=2, padding="SAME")
        out = layer(repro.constant(np.zeros((2, 8, 8, 3), np.float32)))
        assert out.shape.as_list() == [2, 4, 4, 8]
        assert layer.kernel.shape.as_list() == [3, 3, 3, 8]

    def test_variable_count(self):
        layer = nn.Conv2D(8, 3)
        layer(repro.constant(np.zeros((1, 4, 4, 2), np.float32)))
        assert len(layer.trainable_variables) == 2  # kernel + bias


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        bn = nn.BatchNormalization()
        x = repro.constant((np.random.randn(256, 4) * 5 + 3).astype(np.float32))
        out = bn(x, training=True).numpy()
        np.testing.assert_allclose(out.mean(0), np.zeros(4), atol=0.05)
        np.testing.assert_allclose(out.std(0), np.ones(4), atol=0.05)

    def test_moving_stats_update_only_in_training(self):
        bn = nn.BatchNormalization(momentum=0.5)
        x = repro.constant((np.random.randn(64, 2) + 10).astype(np.float32))
        bn(x, training=False)
        np.testing.assert_allclose(bn.moving_mean.numpy(), [0.0, 0.0])
        bn(x, training=True)
        assert (bn.moving_mean.numpy() > 1.0).all()

    def test_inference_uses_moving_stats(self):
        bn = nn.BatchNormalization(momentum=0.0)  # instant adoption
        x = repro.constant((np.random.randn(512, 3) * 2 + 7).astype(np.float32))
        bn(x, training=True)
        out = bn(x, training=False).numpy()
        np.testing.assert_allclose(out.mean(0), np.zeros(3), atol=0.1)


class TestPoolingAndShapes:
    def test_max_pool_layer(self):
        layer = nn.MaxPool2D(2)
        out = layer(repro.constant(np.zeros((1, 4, 4, 1), np.float32)))
        assert out.shape.as_list() == [1, 2, 2, 1]

    def test_global_average_pool(self):
        x = repro.constant(np.ones((2, 3, 3, 5), np.float32))
        out = nn.GlobalAveragePooling2D()(x)
        assert out.shape.as_list() == [2, 5]
        np.testing.assert_allclose(out.numpy(), np.ones((2, 5)))

    def test_flatten(self):
        out = nn.Flatten()(repro.constant(np.zeros((2, 3, 4), np.float32)))
        assert out.shape.as_list() == [2, 12]

    def test_dropout_inference_identity(self):
        x = repro.constant(np.ones((4,), np.float32))
        assert nn.Dropout(0.5)(x, training=False) is x


class TestSequentialAndTracking:
    def test_sequential_composes(self):
        model = nn.Sequential(
            [
                nn.Dense(8, activation=nn_ops.relu),
                nn.Dense(2),
            ]
        )
        out = model(repro.constant(np.ones((3, 4), np.float32)))
        assert out.shape.as_list() == [3, 2]
        assert len(model.trainable_variables) == 4

    def test_variables_deduplicated(self):
        shared = nn.Dense(2)

        class Twice(nn.Model):
            def __init__(self):
                super().__init__()
                self.a = shared
                self.b = shared

            def call(self, x, training=False):
                return self.a(x) + self.b(x)

        m = Twice()
        m(repro.constant(np.ones((1, 3), np.float32)))
        assert len(m.trainable_variables) == 2

    def test_non_trainable_excluded(self):
        bn = nn.BatchNormalization()
        bn(repro.constant(np.zeros((2, 3), np.float32)), training=True)
        assert len(bn.variables) == 4
        assert len(bn.trainable_variables) == 2

    def test_variables_follow_tracked_mutations(self):
        """The cached variable lists see every edge added or removed
        after the first read, and each read is a fresh list."""
        x = repro.constant(np.ones((1, 3), np.float32))
        model = nn.Sequential([nn.Dense(2)])
        extra, appended, table = nn.Dense(2), nn.Dense(2, use_bias=False), nn.Dense(2)
        bn = nn.BatchNormalization()
        for layer in (model, extra, appended, table, bn):
            layer(x)  # built before the first read: no variable creation below
        model.table = {"a": table}
        first = model.trainable_variables
        assert len(first) == 4
        first.clear()
        assert len(model.trainable_variables) == 4

        model.extra = extra  # a sublayer
        assert len(model.trainable_variables) == 6
        model.layers.append(appended)  # a list element
        assert len(model.trainable_variables) == 7
        model.table["b"] = bn  # a dict entry
        assert (len(model.trainable_variables), len(model.variables)) == (9, 11)

        del model.extra
        assert len(model.trainable_variables) == 7
        model.table = None
        assert len(model.trainable_variables) == 3

    def test_layers_work_inside_function(self):
        model = nn.Sequential([nn.Dense(4), nn.Dense(1)])

        @repro.function
        def forward(x):
            return model(x)

        x = repro.constant(np.ones((2, 3), np.float32))
        eager = model(x).numpy()
        staged = forward(x).numpy()
        np.testing.assert_allclose(staged, eager, rtol=1e-6)


class TestResNet:
    def test_tiny_forward_shapes(self):
        model = nn.resnet.resnet_tiny(num_classes=7)
        out = model(repro.constant(np.zeros((2, 8, 8, 3), np.float32)))
        assert out.shape.as_list() == [2, 7]

    def test_resnet50_has_53_convolutions(self):
        model = nn.resnet.resnet50_scaled(width=4)
        model(repro.constant(np.zeros((1, 16, 16, 3), np.float32)))
        convs = [v for v in model.trainable_variables if v.shape.rank == 4]
        assert len(convs) == 53  # 1 stem + 16 blocks * 3 + 4 downsample

    def test_bottleneck_residual_path(self):
        block = nn.resnet.Bottleneck(4, stride=1, downsample=True)
        x = repro.constant(np.random.randn(1, 4, 4, 8).astype(np.float32))
        out = block(x, training=True)
        assert out.shape.as_list() == [1, 4, 4, 16]
        assert (out.numpy() >= 0).all()  # final ReLU


class TestL2HMC:
    def test_sampler_step_shapes(self):
        energy = nn.l2hmc.gaussian_mixture_energy([[-1.0, 0.0], [1.0, 0.0]])
        dyn = nn.l2hmc.L2HMCDynamics(2, energy, num_steps=3)
        sampler = nn.l2hmc.L2HMCSampler(dyn)
        x = repro.random_normal([6, 2])
        for loss, x_next in (sampler.loss_and_samples(x), sampler(x)):
            assert loss.shape.rank == 0
            assert x_next.shape.as_list() == [6, 2]

    def test_acceptance_probabilities_valid(self):
        energy = nn.l2hmc.gaussian_mixture_energy([[0.0, 0.0]])
        dyn = nn.l2hmc.L2HMCDynamics(2, energy, num_steps=2)
        x = repro.random_normal([8, 2])
        v = repro.random_normal([8, 2])
        x_new, v_new, logdet = dyn.propose(x, v)
        p = dyn.accept_prob(x, v, x_new, v_new, logdet).numpy()
        assert (p >= 0).all() and (p <= 1).all()

    def test_trainable(self):
        energy = nn.l2hmc.gaussian_mixture_energy([[0.0, 0.0]])
        dyn = nn.l2hmc.L2HMCDynamics(2, energy, num_steps=2)
        sampler = nn.l2hmc.L2HMCSampler(dyn)
        x = repro.random_normal([4, 2])
        with repro.GradientTape() as tape:
            loss, _ = sampler.loss_and_samples(x)
        grads = tape.gradient(loss, sampler.trainable_variables)
        assert len(grads) > 10
        assert sum(g is not None for g in grads) == len(grads)
