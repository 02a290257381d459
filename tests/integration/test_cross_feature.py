"""Cross-feature integration: workflows spanning multiple subsystems."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.core import saved_function
from repro.core.checkpoint import Checkpoint


class TestCheckpointedTrainingResume:
    def test_resume_mid_training_is_exact(self, tmp_path):
        """Model + optimizer slots + iterator position all round-trip."""
        repro.set_random_seed(0)
        rng = np.random.default_rng(0)
        x_np = rng.normal(size=(40, 4)).astype(np.float32)
        y_np = (x_np @ rng.normal(size=(4, 1))).astype(np.float32)

        def build():
            repro.set_random_seed(7)
            model = nn.Dense(1)
            model(repro.constant(x_np[:1]))
            optimizer = nn.SGD(0.05, momentum=0.9)
            dataset = nn.Dataset([x_np, y_np], batch_size=10).repeat()
            iterator = dataset.make_iterator()

            @repro.function
            def step(bx, by):
                with repro.GradientTape() as tape:
                    loss = nn.mean_squared_error(by, model(bx))
                grads = tape.gradient(loss, model.trainable_variables)
                optimizer.apply_gradients(zip(grads, model.trainable_variables))
                return loss

            return model, optimizer, iterator, step

        # Train 6 steps straight through.
        model_a, opt_a, it_a, step_a = build()
        losses_straight = []
        for _ in range(6):
            bx, by = it_a.get_next()
            losses_straight.append(float(step_a(bx, by)))

        # Train 3 steps, checkpoint, restore into a fresh program, 3 more.
        model_b, opt_b, it_b, step_b = build()
        losses_resumed = []
        for _ in range(3):
            bx, by = it_b.get_next()
            losses_resumed.append(float(step_b(bx, by)))
        path = Checkpoint(model=model_b, opt=opt_b, it=it_b).save(
            str(tmp_path / "mid")
        )

        model_c, opt_c, it_c, step_c = build()
        # Exercise slot creation so the optimizer graph exists, then restore.
        bx, by = it_c.get_next()
        step_c(bx, by)
        status = Checkpoint(model=model_c, opt=opt_c, it=it_c).restore(path)
        status.assert_consumed()
        for _ in range(3):
            bx, by = it_c.get_next()
            losses_resumed.append(float(step_c(bx, by)))

        np.testing.assert_allclose(losses_resumed, losses_straight, rtol=1e-5)


class TestExportedModelAfterDistributedTraining:
    def test_train_distributed_then_serve_from_export(self, tmp_path):
        from repro.distribute import (
            ClusterSpec,
            DataParallelStrategy,
            connect_to_cluster,
            shutdown_cluster,
        )

        connect_to_cluster(ClusterSpec({"pool": 2}))
        try:
            strategy = DataParallelStrategy(
                ["/job:pool/task:0/device:CPU:0", "/job:pool/task:1/device:CPU:0"]
            )
            rng = np.random.default_rng(1)
            x_np = rng.normal(size=(16, 3)).astype(np.float32)
            y_np = (x_np @ np.float32([[1.0], [0.0], [-1.0]])).astype(np.float32)
            repro.set_random_seed(1)
            model = nn.Dense(1)
            model(repro.constant(x_np))
            opt = nn.SGD(0.2)
            for _ in range(40):
                strategy.gradient_step(
                    lambda bx, by: nn.mean_squared_error(by, model(bx)),
                    (repro.constant(x_np), repro.constant(y_np)),
                    model.trainable_variables,
                    opt,
                )
        finally:
            shutdown_cluster()

        @repro.function
        def serve(x):
            return model(x)

        example = repro.constant(x_np[:4])
        path = saved_function.save(serve, str(tmp_path / "served"), example)
        loaded = saved_function.load(path)
        np.testing.assert_allclose(
            loaded(example).numpy(), serve(example).numpy(), rtol=1e-6
        )
        np.testing.assert_allclose(
            loaded(example).numpy(), y_np[:4], atol=0.2
        )


class TestProfilerGuidedStaging:
    def test_analysis_step_identifies_hot_block(self):
        """The §4.1 workflow: profile, find the hot block, stage it."""
        repro.set_random_seed(2)
        model = nn.Sequential([nn.Dense(64, activation=repro.tanh), nn.Dense(1)])
        x = repro.constant(np.random.randn(32, 16).astype(np.float32))
        model(x)

        def hot_block(v):
            out = model(v)
            for _ in range(20):  # many small ops: the staging sweet spot
                out = repro.tanh(out * 1.1)
            return repro.reduce_sum(out)

        with repro.profiler.Profile() as prof:
            observed = hot_block(x)
            repro.sync()  # lazy mode: run the kernels in-profile
        del observed
        # The analysis sees per-op costs; in lazy mode the elementwise
        # chain dispatches as fused regions, so count covered ops too.
        assert prof.total_ops + prof.fused_covered_ops > 20
        staged = repro.function(hot_block)
        assert float(staged(x)) == pytest.approx(float(hot_block(x)), rel=1e-5)


class TestResNetOnSimulatedAccelerators:
    def test_same_model_three_devices(self):
        """One model definition; CPU, simulated GPU, simulated TPU."""
        import repro.xla  # TPU bridge

        repro.set_random_seed(3)
        model = nn.resnet.resnet_tiny(num_classes=4)
        x = repro.constant(np.random.randn(2, 8, 8, 3).astype(np.float32))
        reference = model(x, training=False).numpy()

        with repro.device("/gpu:0"):
            gpu_out = model(x, training=False)
        assert "GPU:0" in gpu_out.device
        np.testing.assert_allclose(gpu_out.cpu().numpy(), reference, rtol=1e-5)

        @repro.function
        def forward(v):
            return model(v, training=False)

        with repro.device("/tpu:0"):
            tpu_out = forward(x)
        np.testing.assert_allclose(tpu_out.cpu().numpy(), reference, rtol=1e-4, atol=1e-5)
