"""Counter concurrency and multi-worker stress for worker servers.

The shutdown races the seed had (a request enqueued concurrently with
``shutdown()`` was never served and its reply hung forever) are rows of
the lifecycle contract in ``tests/runtime/test_workqueue.py`` now; what
stays here is what only a worker server has:

* ``ops_served`` (and ``Device`` launch counters) stay exact under
  concurrent clients;
* many client threads spraying eager ops across two workers.
"""

import threading
import time

import repro
from repro.distribute import ClusterSpec, connect_to_cluster, shutdown_cluster
from repro.runtime.context import context


def _join_all(threads, timeout=10.0):
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"client threads hung: {stuck}"


class TestCounterConcurrency:
    def test_ops_served_is_exact_under_concurrency(self):
        workers = connect_to_cluster(ClusterSpec({"count": 1}))
        worker = workers[0]
        device = next(iter(worker.devices.values()))
        device.reset_stats()
        base_served = worker.ops_served
        x = repro.constant(1.0)
        n_threads, n_ops = 8, 50

        def client():
            for _ in range(n_ops):
                worker.run_op(device, "Add", [x, x], {}, deadline_ms=5000)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(n_threads)]
        for t in threads:
            t.start()
        _join_all(threads)
        assert worker.ops_served - base_served == n_threads * n_ops
        assert device.memory_stats()["kernel_launches"] == n_threads * n_ops
        shutdown_cluster(workers)

    def test_device_launch_counter_thread_safe_locally(self):
        device = context.cpu_device()
        device.reset_stats()
        n_threads, n_incr = 8, 2000

        def bump():
            for _ in range(n_incr):
                device.count_kernel_launch()

        threads = [threading.Thread(target=bump, daemon=True) for _ in range(n_threads)]
        for t in threads:
            t.start()
        _join_all(threads)
        assert device.memory_stats()["kernel_launches"] == n_threads * n_incr
        device.reset_stats()


class TestMultiWorkerStress:
    def test_concurrent_clients_across_workers(self):
        """Many client threads spraying eager ops across two workers."""
        connect_to_cluster(ClusterSpec({"stress": 2}))
        saved = context.rpc_deadline_ms
        context.rpc_deadline_ms = 10000.0
        results: dict[int, float] = {}
        lock = threading.Lock()

        def client(idx):
            task = idx % 2
            with repro.device(f"/job:stress/task:{task}/device:CPU:0"):
                acc = repro.constant(0.0)
                for i in range(25):
                    acc = acc + float(i)
            with lock:
                results[idx] = float(acc.cpu())

        try:
            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(8)
            ]
            for t in threads:
                t.start()
            _join_all(threads, timeout=30.0)
            assert results == {i: 300.0 for i in range(8)}
        finally:
            context.rpc_deadline_ms = saved
            shutdown_cluster()
