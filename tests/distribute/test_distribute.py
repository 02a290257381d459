"""Distributed execution (paper §4.5)."""

import threading

import numpy as np
import pytest

import repro
from repro.distribute import ClusterSpec, connect_to_cluster, shutdown_cluster
from repro.framework.errors import InvalidArgumentError, UnavailableError
from tests.harness.tracking import tracked_kernels


@pytest.fixture
def cluster():
    workers = connect_to_cluster(ClusterSpec({"training": 2}), gpus_per_worker=1)
    yield workers
    shutdown_cluster()


class TestClusterSpec:
    def test_task_counts(self):
        spec = ClusterSpec({"training": 3, "ps": 1})
        assert spec.jobs == ["ps", "training"]
        assert spec.num_tasks("training") == 3

    def test_device_names(self):
        spec = ClusterSpec({"training": 3})
        assert (
            spec.device_name("training", 2, "GPU", 0)
            == "/job:training/replica:0/task:2/device:GPU:0"
        )

    def test_explicit_endpoints(self):
        spec = ClusterSpec({"workers": ["hostA:1111", "hostB:2222"]})
        assert spec.task_address("workers", 1) == "hostB:2222"

    def test_unknown_job_raises(self):
        with pytest.raises(InvalidArgumentError):
            ClusterSpec({"a": 1}).num_tasks("b")

    def test_out_of_range_task_raises(self):
        with pytest.raises(InvalidArgumentError):
            ClusterSpec({"a": 1}).task_address("a", 5)


class TestRemoteExecution:
    def test_same_syntax_as_local_devices(self, cluster):
        """Paper: 'the user uses the same syntax as for local devices'."""
        with repro.device("/job:training/task:1/device:GPU:0"):
            out = repro.add(repro.constant(1.0), repro.constant(2.0))
        assert float(out.cpu()) == 3.0
        assert "job:training" in out.device and "task:1" in out.device

    def test_results_stay_remote(self, cluster):
        with repro.device("/job:training/task:0/device:CPU:0"):
            a = repro.constant([1.0, 2.0])
        b = a * 2.0  # follows its input's device
        assert "job:training" in b.device
        c = b.cpu()  # explicit copy to the coordinator
        assert "localhost" in c.device
        np.testing.assert_allclose(c.numpy(), [2.0, 4.0])

    def test_whole_graph_functions_run_remotely(self, cluster):
        @repro.function
        def step(x):
            return repro.reduce_sum(repro.tanh(x) * x)

        served_before = cluster[0].ops_served
        with repro.device("/job:training/task:0/device:CPU:0"):
            out = step(repro.constant([1.0, 2.0, 3.0]))
        assert "job:training" in out.device
        assert cluster[0].ops_served > served_before

    def test_remote_variables(self, cluster):
        with repro.device("/job:training/task:1/device:CPU:0"):
            v = repro.Variable([1.0])
        assert "job:training" in v.device
        v.assign_add([2.0])
        assert float(v.read_value().cpu()) == 3.0

    def test_concurrent_workers(self, cluster):
        """Paper: computations on remote devices run concurrently."""
        results = {}

        def run_on(task):
            with repro.device(f"/job:training/task:{task}/device:CPU:0"):
                acc = repro.constant(0.0)
                for i in range(20):
                    acc = acc + float(i)
                results[task] = float(acc.cpu())

        threads = [threading.Thread(target=run_on, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert results == {0: 190.0, 1: 190.0}

    def test_cross_worker_data_flow(self, cluster):
        with repro.device("/job:training/task:0/device:CPU:0"):
            a = repro.constant([1.0, 1.0])
        with repro.device("/job:training/task:1/device:CPU:0"):
            b = a + 1.0  # input transferred between workers
        assert "task:1" in b.device
        np.testing.assert_allclose(b.cpu().numpy(), [2.0, 2.0])


class TestSharedKernelPath:
    """Remote ops run the dispatch core's kernel path on the worker
    thread, so what holds locally holds behind the queue."""

    def test_tracked_backend_crosses_the_remote_boundary(self, cluster):
        x_np = np.arange(4, dtype=np.float32).reshape(2, 2)
        calls = {}
        # Sync: a lazy segment may come from the process-wide cache,
        # bound before the kernels were swapped.
        with tracked_kernels(("MatMul", "Add")) as counts, repro.execution_mode("sync"):
            for where in ("/cpu:0", "/job:training/task:0/device:CPU:0"):
                counts.clear()
                with repro.device(where):
                    x = repro.constant(x_np)
                    out = repro.matmul(x, x) + x
                calls[where] = dict(counts)
                np.testing.assert_allclose(out.cpu().numpy(), x_np @ x_np + x_np)
        local, remote = calls.values()
        assert local == remote == {"MatMul": 1, "Add": 1}
        assert "job:training" in out.device

    def test_remote_function_body_dispatches_on_the_worker_thread(self, cluster):
        """An op inside a remote PartitionedCall runs directly on the
        serve thread — re-enqueueing it would deadlock the worker."""
        seen = []

        def where_am_i(x):
            seen.append(threading.current_thread())
            return x

        @repro.function
        def step(x):
            return repro.py_func(where_am_i, [x * 2.0], repro.float32) + 1.0

        worker = cluster[0]
        before = worker.ops_served
        with repro.device("/job:training/task:0/device:CPU:0"):
            out = step(repro.constant([1.0, 2.0]))
        np.testing.assert_allclose(out.cpu().numpy(), [3.0, 5.0])
        assert seen == [worker._thread]
        # The call itself plus each body op, counted once each.
        assert worker.ops_served - before >= 3


class TestLifecycle:
    def test_shutdown_rejects_new_work(self):
        workers = connect_to_cluster(ClusterSpec({"temp": 1}))
        shutdown_cluster()
        with pytest.raises(UnavailableError, match="shut down"):
            workers[0].run_op(
                list(workers[0].devices.values())[0], "Add", [], {}
            )

    def test_devices_unresolvable_after_shutdown(self):
        connect_to_cluster(ClusterSpec({"temp": 1}))
        shutdown_cluster()
        from repro.framework.errors import NotFoundError
        from repro.runtime.context import context

        with pytest.raises(NotFoundError):
            context.get_device("/job:temp/task:0/device:CPU:0")
