"""Data-parallel strategy (the paper's distributed-training direction)."""

import threading

import numpy as np
import pytest

import repro
from repro import nn
from repro.distribute import (
    ClusterSpec,
    DataParallelStrategy,
    PerReplica,
    connect_to_cluster,
    shutdown_cluster,
)
from repro.framework.errors import InvalidArgumentError, NotFoundError
from repro.runtime.context import context
from repro.runtime.device import Device, local_device_spec


@pytest.fixture
def two_workers():
    connect_to_cluster(ClusterSpec({"train": 2}))
    yield [
        "/job:train/task:0/device:CPU:0",
        "/job:train/task:1/device:CPU:0",
    ]
    shutdown_cluster()


class TestConstruction:
    def test_devices_validated(self):
        with pytest.raises(NotFoundError):
            DataParallelStrategy(["/job:nope/task:0/device:CPU:0"])

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DataParallelStrategy([])

    def test_local_devices_work(self):
        strategy = DataParallelStrategy(["/cpu:0", "/gpu:0"])
        assert strategy.num_replicas == 2


class TestSharding:
    def test_split_batch(self, two_workers):
        strategy = DataParallelStrategy(two_workers)
        x = repro.constant(np.arange(8, dtype=np.float32).reshape(4, 2))
        shards = strategy.split_batch(x)
        assert len(shards) == 2
        np.testing.assert_array_equal(shards[0].numpy(), [[0, 1], [2, 3]])
        np.testing.assert_array_equal(shards[1].numpy(), [[4, 5], [6, 7]])

    def test_split_structure(self, two_workers):
        strategy = DataParallelStrategy(two_workers)
        batch = (repro.constant(np.zeros((4, 2), np.float32)), repro.constant(np.arange(4)))
        shards = strategy.split_batch(batch)
        x0, y0 = shards[0]
        assert x0.shape.as_list() == [2, 2]
        np.testing.assert_array_equal(y0.numpy(), [0, 1])

    def test_indivisible_batch_rejected(self, two_workers):
        strategy = DataParallelStrategy(two_workers)
        with pytest.raises(InvalidArgumentError):
            strategy.split_batch(repro.constant(np.zeros((3, 2), np.float32)))


class TestRunAndReduce:
    def test_run_places_on_each_device(self, two_workers):
        strategy = DataParallelStrategy(two_workers)
        outs = strategy.run(lambda: repro.constant(1.0) * 2.0)
        assert len(outs) == 2
        assert "task:0" in outs[0].device
        assert "task:1" in outs[1].device

    def test_reduce_sum_and_mean(self, two_workers):
        strategy = DataParallelStrategy(two_workers)
        values = PerReplica([repro.constant(2.0), repro.constant(4.0)])
        assert float(strategy.reduce_sum(values)) == 6.0
        assert float(strategy.reduce_mean(values)) == 3.0

    def test_replica_errors_propagate(self, two_workers):
        strategy = DataParallelStrategy(two_workers)

        def boom():
            raise RuntimeError("replica failure")

        with pytest.raises(RuntimeError, match="replica failure"):
            strategy.run(boom)


class TestGradientStep:
    def test_matches_single_device_training(self, two_workers):
        rng = np.random.default_rng(0)
        x_np = rng.normal(size=(32, 3)).astype(np.float32)
        y_np = (x_np @ np.float32([[1.0], [2.0], [-1.0]])).astype(np.float32)
        x, y = repro.constant(x_np), repro.constant(y_np)

        def train(strategy: bool):
            repro.set_random_seed(0)
            model = nn.Dense(1)
            model(x)
            opt = nn.SGD(0.1)
            losses = []
            if strategy:
                strat = DataParallelStrategy(two_workers)
                for _ in range(10):
                    losses.append(
                        float(
                            strat.gradient_step(
                                lambda bx, by: nn.mean_squared_error(by, model(bx)),
                                (x, y),
                                model.trainable_variables,
                                opt,
                            )
                        )
                    )
            else:
                for _ in range(10):
                    with repro.GradientTape() as tape:
                        loss = nn.mean_squared_error(y, model(x))
                    grads = tape.gradient(loss, model.trainable_variables)
                    opt.apply_gradients(zip(grads, model.trainable_variables))
                    losses.append(float(loss))
            return losses, model.kernel.numpy().copy()

        dist_losses, dist_kernel = train(strategy=True)
        local_losses, local_kernel = train(strategy=False)
        # Same data, same updates (mean of shard grads == full-batch grad
        # for MSE with equal shard sizes), so training trajectories match.
        np.testing.assert_allclose(dist_kernel, local_kernel, rtol=1e-4)
        assert dist_losses[-1] < dist_losses[0] * 0.5


@pytest.fixture
def second_gpu():
    gpu1 = Device(local_device_spec("GPU", 1))
    context.add_device(gpu1)
    try:
        yield gpu1.name
    finally:
        del context._devices[gpu1.name]


class TestLocalGpuReplicas:
    """Paper §4.5's recipe on one host: one Python thread per local GPU,
    each replica's kernels running in this process."""

    STEPS = 3

    def _data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 4)).astype(np.float32)
        y = rng.normal(size=(8, 2)).astype(np.float32)
        return repro.constant(x), repro.constant(y)

    def _model(self, x, weights=None):
        model = nn.Dense(2)
        model(x)
        if weights is not None:
            for var, value in zip(model.trainable_variables, weights):
                var.assign(value)
        return model

    def _reference(self, weights, x, y):
        """The same steps, shard by shard on ``/cpu:0``, grads averaged."""
        model = self._model(x, weights)
        opt = nn.SGD(0.1)
        shards = [(x[:4], y[:4]), (x[4:], y[4:])]
        losses = []
        for _ in range(self.STEPS):
            step_losses, step_grads = [], []
            with repro.device("/cpu:0"):
                for bx, by in shards:
                    with repro.GradientTape() as tape:
                        loss = nn.mean_squared_error(by, model(bx))
                    step_grads.append(tape.gradient(loss, model.trainable_variables))
                    step_losses.append(loss)
            averaged = [
                repro.add_n([g[i] for g in step_grads]) / 2.0
                for i in range(len(model.trainable_variables))
            ]
            opt.apply_gradients(zip(averaged, model.trainable_variables))
            losses.append(float(repro.add_n(step_losses) / 2.0))
        return losses, [v.numpy() for v in model.trainable_variables]

    @pytest.mark.parametrize("staged", [False, True], ids=["eager", "function"])
    def test_gradient_step_over_two_gpus(self, second_gpu, staged):
        x, y = self._data()
        model = self._model(x)
        initial = [v.numpy().copy() for v in model.trainable_variables]
        loss_devices = {}
        lock = threading.Lock()

        def mse(bx, by):
            return nn.mean_squared_error(by, model(bx))

        compute = repro.function(mse) if staged else mse

        def loss_fn(bx, by):
            loss = compute(bx, by)
            with lock:
                loss_devices.setdefault(context.current_device_name(), set()).add(
                    loss.device
                )
            return loss

        strategy = DataParallelStrategy(["/gpu:0", "/gpu:1"])
        opt = nn.SGD(0.1)
        losses = [
            float(strategy.gradient_step(loss_fn, (x, y), model.trainable_variables, opt))
            for _ in range(self.STEPS)
        ]

        ref_losses, ref_weights = self._reference(initial, x, y)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-5)
        for var, ref in zip(model.trainable_variables, ref_weights):
            np.testing.assert_allclose(var.numpy(), ref, rtol=1e-5)
        gpu0 = context.get_device("/gpu:0").name
        assert loss_devices == {"/gpu:0": {gpu0}, "/gpu:1": {second_gpu}}
        if staged:
            stats = compute.cache_stats()
            assert stats["traces"] == 2  # one per device
            assert stats["hits"] == 2 * self.STEPS - 2
