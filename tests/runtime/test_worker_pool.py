"""Process-parallel device workers: lifecycle, marshalling, failure.

These tests exercise the worker pool directly (no env flag needed):
they flip ``context.process_devices`` themselves and rely on the
conftest knob-reset fixture to shut workers down afterwards.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

import repro
from repro.framework.errors import InternalError, UnavailableError
from repro.runtime import worker_pool
from repro.runtime.context import context
from repro.runtime.device import Device, local_device_spec

GPU0 = "/job:localhost/replica:0/task:0/device:GPU:0"


@pytest.fixture
def process_devices():
    context.process_devices = True
    yield
    context.process_devices = False


def _gpu_device():
    return context.get_device(GPU0)


class TestExecution:
    def test_op_executes_in_child_process(self, process_devices):
        with repro.device("/gpu:0"):
            a = repro.constant(np.random.rand(96, 96).astype(np.float32))
            out = repro.matmul(a, a)
        np.testing.assert_allclose(
            out.numpy(), a.numpy() @ a.numpy(), rtol=1e-4
        )
        stats = worker_pool.worker_stats()[GPU0]
        assert stats["ops_shipped"] >= 1
        assert stats["last_exec_pid"] is not None
        assert stats["last_exec_pid"] != os.getpid()

    def test_two_threads_two_devices_two_children(self, process_devices):
        """The overlap route process devices exist for (paper §4.5): one
        Python thread per device, each blocked on its own child."""
        gpu1 = Device(local_device_spec("GPU", 1))
        context.add_device(gpu1)  # picks up the process runner
        a_np = np.random.rand(96, 96).astype(np.float32)
        outs: dict = {}

        def chain(device_name: str) -> None:
            with repro.device(device_name):
                out = a = repro.constant(a_np)
                for _ in range(4):
                    out = repro.matmul(out, a) * 0.01
                outs[device_name] = out.numpy()

        threads = [
            threading.Thread(target=chain, args=(name,))
            for name in ("/gpu:0", "/gpu:1")
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
            stats = worker_pool.worker_stats()
            assert stats[GPU0]["ops_shipped"] > 0
            assert stats[gpu1.name]["ops_shipped"] > 0
            pids = {stats[GPU0]["last_exec_pid"], stats[gpu1.name]["last_exec_pid"]}
            assert len(pids) == 2 and os.getpid() not in pids
        finally:
            context.process_devices = False  # stops both children
            del context._devices[gpu1.name]
        # The same chain with the kernels in this process.
        chain("/cpu:0")
        for name in ("/gpu:0", "/gpu:1"):
            np.testing.assert_allclose(outs[name], outs["/cpu:0"], rtol=1e-4)

    def test_knob_installs_and_removes_the_runner(self, process_devices):
        assert _gpu_device().op_runner is worker_pool._process_runner
        context.process_devices = False
        assert _gpu_device().op_runner is None

    def test_zero_dim_shapes_preserved(self, process_devices):
        w = worker_pool._worker_for(_gpu_device())
        (out,) = w.run_op(
            "Add", [np.float32(1.5), np.float32(2.5)], {}
        )
        assert out.shape == ()
        assert float(out) == 4.0

    def test_large_arrays_round_trip_via_shm(self, process_devices):
        w = worker_pool._worker_for(_gpu_device())
        big = np.random.rand(512, 512).astype(np.float64)  # 2 MiB >> inline
        (out,) = w.run_op("Mul", [big, big], {})
        np.testing.assert_allclose(out, big * big)


class TestErrorMarshalling:
    def test_kernel_error_type_crosses_boundary(self, process_devices):
        w = worker_pool._worker_for(_gpu_device())
        with pytest.raises(ValueError):
            w.run_op(
                "MatMul",
                [
                    np.ones((2, 3), dtype=np.float32),
                    np.ones((5, 7), dtype=np.float32),
                ],
                {"transpose_a": False, "transpose_b": False},
            )
        # The worker survives a kernel error and serves the next op.
        (out,) = w.run_op(
            "Add",
            [np.float32(1.0), np.float32(1.0)],
            {},
        )
        assert float(out) == 2.0

    def test_killed_worker_raises_unavailable_not_hang(
        self, process_devices
    ):
        w = worker_pool._worker_for(_gpu_device())
        os.kill(w.pid, signal.SIGKILL)
        w._proc.join(timeout=5.0)
        with pytest.raises(UnavailableError):
            w.run_op("Add", [np.float32(1.0), np.float32(1.0)], {})

    def test_respawn_after_worker_death(self, process_devices):
        dev = _gpu_device()
        w = worker_pool._worker_for(dev)
        old_pid = w.pid
        os.kill(old_pid, signal.SIGKILL)
        w._proc.join(timeout=5.0)
        with pytest.raises(UnavailableError):
            w.run_op("Add", [np.float32(1.0), np.float32(1.0)], {})
        # Dispatch-level recovery: the pool hands out a fresh worker.
        w2 = worker_pool._worker_for(dev)
        assert w2.pid != old_pid
        (out,) = w2.run_op("Add", [np.float32(3.0), np.float32(4.0)], {})
        assert float(out) == 7.0


class TestLifecycle:
    def test_knob_disable_stops_all_workers(self, process_devices):
        w = worker_pool._worker_for(_gpu_device())
        pid = w.pid
        context.process_devices = False
        assert worker_pool.worker_stats() == {}
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and _pid_alive(pid):
            time.sleep(0.05)
        assert not _pid_alive(pid)

    def test_knob_reenable_spawns_fresh_worker(self, process_devices):
        w = worker_pool._worker_for(_gpu_device())
        old = w.pid
        context.process_devices = False
        context.process_devices = True
        w2 = worker_pool._worker_for(_gpu_device())
        assert w2.pid != old
        (out,) = w2.run_op("Add", [np.float32(1.0), np.float32(1.0)], {})
        assert float(out) == 2.0

    def test_shutdown_workers_drains_pool(self, process_devices):
        worker_pool._worker_for(_gpu_device())
        assert worker_pool.worker_stats()
        worker_pool.shutdown_workers()
        assert worker_pool.worker_stats() == {}

    def test_cpu_devices_never_process_backed(self, process_devices):
        cpu = context.get_device(
            "/job:localhost/replica:0/task:0/device:CPU:0"
        )
        assert cpu.op_runner is None


class TestShippability:
    def test_denylisted_ops_stay_in_parent(self, process_devices):
        # Calls and py_func are stateful; a fused region's attrs carry its
        # FusionRegion.  Each is asked with the attrs it really carries.
        context.graph_fusion = True
        f = repro.function(lambda t: repro.tanh(t * 2.0 + 1.0))
        x = repro.constant(np.ones(4, dtype=np.float32))
        gf = f.get_concrete_function(x).graph_function
        (fused,) = gf.graph.ops_by_type("FusedElementwise")
        py_func = {"func": np.tanh, "Tout": (repro.float32,), "token": 0, "output_shapes": None}
        for op_name, attrs in [
            ("EagerPyFunc", py_func),
            ("PartitionedCall", {"f": gf}),
            ("RecomputeCall", {"f": gf}),
            ("FusedElementwise", fused.attrs),
        ]:
            assert not worker_pool._shippable(op_name, [x], attrs), op_name

    def test_unpicklable_attrs_stay_in_parent(self, process_devices):
        assert not worker_pool._shippable(
            "Add", [], {"fn": lambda x: x}
        )

    def test_variables_keep_working_on_process_device(
        self, process_devices
    ):
        # Stateful ops (handle dtypes) are never shipped; the variable
        # lives in the parent and mixes with shipped compute.
        with repro.device("/gpu:0"):
            v = repro.Variable(np.ones((64, 64), dtype=np.float32))
            a = repro.constant(
                np.random.rand(64, 64).astype(np.float32)
            )
            prod = repro.matmul(a, v.read_value())
            v.assign(prod)
        np.testing.assert_allclose(
            v.numpy(), a.numpy() @ np.ones((64, 64), dtype=np.float32),
            rtol=1e-4,
        )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True
