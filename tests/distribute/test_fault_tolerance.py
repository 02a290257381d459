"""The distributed fault-tolerance layer: deadlines, retries, chaos.

Every test here encodes a no-hang guarantee: a dead, stalled, or
dropped worker must surface a typed error (or a recovered result)
within a bounded time, never block a client thread forever.
"""

import time

import numpy as np
import pytest

import repro
from repro.distribute import (
    ClusterSpec,
    DataParallelStrategy,
    FaultInjector,
    RetryPolicy,
    connect_to_cluster,
    get_retry_policy,
    set_retry_policy,
    shutdown_cluster,
)
from repro.framework.errors import (
    AbortedError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ReproError,
    UnavailableError,
)
from repro.runtime.context import context


@pytest.fixture
def cluster():
    workers = connect_to_cluster(ClusterSpec({"ft": 2}))
    saved = context.rpc_deadline_ms
    context.rpc_deadline_ms = 2000.0  # a hang fails fast, not at 30 s
    yield workers
    context.rpc_deadline_ms = saved
    shutdown_cluster()


def _first_device(worker):
    return next(iter(worker.devices.values()))


def _add_op(worker, deadline_ms=None):
    x = repro.constant(1.0)
    return worker.run_op(
        _first_device(worker), "Add", [x, x], {}, deadline_ms=deadline_ms
    )


class TestErrorTaxonomy:
    def test_rpc_errors_are_repro_errors(self):
        for err in (UnavailableError, DeadlineExceededError, AbortedError):
            assert issubclass(err, ReproError)

    def test_stdlib_mappings(self):
        # So generic client code catching stdlib categories keeps working.
        assert issubclass(UnavailableError, ConnectionError)
        assert issubclass(DeadlineExceededError, TimeoutError)


class TestDeadlines:
    def test_delayed_worker_hits_deadline(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.delay(0.5, times=1)
            with pytest.raises(DeadlineExceededError, match="deadline"):
                _add_op(cluster[0], deadline_ms=50)

    def test_context_default_deadline_applies(self, cluster):
        context.rpc_deadline_ms = 60.0
        with FaultInjector(cluster[0]) as chaos:
            chaos.drop(times=1)
            with pytest.raises(DeadlineExceededError, match="60"):
                _add_op(cluster[0])

    def test_deadline_validation(self):
        with pytest.raises(InvalidArgumentError):
            context.rpc_deadline_ms = -5

    def test_healthy_op_unaffected(self, cluster):
        (out,) = _add_op(cluster[0], deadline_ms=5000)
        assert float(out.cpu()) == 2.0


class TestRetries:
    def test_transient_failures_recover(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.fail(times=2)  # fewer than max_attempts
            with repro.device("/job:ft/task:0/device:CPU:0"):
                out = repro.add(repro.constant(2.0), repro.constant(3.0))
            assert float(out.cpu()) == 5.0
            assert chaos.injected["fail"] == 2

    def test_transient_delays_recover(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.delay(0.2, times=1)  # first attempt deadlines, retry wins
            context.rpc_deadline_ms = 80.0
            with repro.device("/job:ft/task:0/device:CPU:0"):
                out = repro.add(repro.constant(1.0), repro.constant(1.0))
            assert float(out.cpu()) == 2.0

    def test_profiler_observes_retries(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.fail(times=2)
            with repro.profiler.Profile() as prof:
                with repro.device("/job:ft/task:0/device:CPU:0"):
                    repro.add(repro.constant(1.0), repro.constant(1.0))
        assert prof.retries.get("Add") == 2
        assert "remote retries" in prof.summary()

    def test_exhausted_retries_surface_error(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.fail(times=10)
            with pytest.raises(AbortedError, match="Injected fault"):
                with repro.device("/job:ft/task:0/device:CPU:0"):
                    repro.add(repro.constant(1.0), repro.constant(1.0))

    def test_stateful_ops_never_retried(self, cluster):
        with repro.device("/job:ft/task:1/device:CPU:0"):
            v = repro.Variable([1.0])
        with FaultInjector(cluster[1]) as chaos:
            chaos.fail(times=1, ops={"AssignAddVariableOp"})
            # AssignAddVariableOp is stateful: one injected abort must
            # propagate rather than risk applying the update twice.
            with pytest.raises(AbortedError):
                v.assign_add([1.0])
        np.testing.assert_allclose(v.read_value().cpu().numpy(), [1.0])

    def test_no_retry_against_dead_worker(self, cluster):
        cluster[1].kill()
        start = time.perf_counter()
        with pytest.raises(UnavailableError):
            with repro.device("/job:ft/task:1/device:CPU:0"):
                repro.add(repro.constant(1.0), repro.constant(1.0))
        # Fail-fast: no backoff sleeps against a permanently-dead worker.
        assert time.perf_counter() - start < 1.0

    def test_policy_validation_and_swap(self):
        with pytest.raises(InvalidArgumentError):
            RetryPolicy(max_attempts=0)
        previous = set_retry_policy(None)
        try:
            assert get_retry_policy() is None
        finally:
            set_retry_policy(previous)

    def test_backoff_grows_and_jitters(self):
        policy = RetryPolicy(initial_backoff_ms=10, multiplier=2, jitter=0.25)
        b1 = [policy.backoff_seconds(1) for _ in range(50)]
        b3 = [policy.backoff_seconds(3) for _ in range(50)]
        assert all(0.0075 <= b <= 0.0125 for b in b1)
        assert all(0.030 <= b <= 0.050 for b in b3)
        assert len(set(b1)) > 1  # jitter decorrelates


class TestHealthChecks:
    def test_healthy_worker_pings(self, cluster):
        assert cluster[0].ping()

    def test_killed_worker_fails_ping(self, cluster):
        cluster[0].kill()
        assert not cluster[0].ping()

    def test_stalled_worker_fails_ping(self, cluster):
        with FaultInjector(cluster[0]) as chaos:
            chaos.delay(0.5, times=1)
            assert not cluster[0].ping(timeout_ms=50)


class TestKilledWorkers:
    def test_kill_surfaces_unavailable_not_hang(self, cluster):
        cluster[1].kill()
        start = time.perf_counter()
        with pytest.raises(UnavailableError, match="killed"):
            _add_op(cluster[1])
        assert time.perf_counter() - start < 1.0

    def test_dispatch_after_cluster_shutdown_is_clear(self):
        connect_to_cluster(ClusterSpec({"tmp": 1}))
        with repro.device("/job:tmp/task:0/device:CPU:0"):
            a = repro.constant([1.0, 2.0])
        shutdown_cluster()
        # The tensor still references the dead remote device; placing an
        # op there must raise a clear UnavailableError, not an opaque
        # queue error.
        with pytest.raises(UnavailableError, match="shut down"):
            a + 1.0


class TestStrategyDegradation:
    def test_fail_fast_names_the_task(self, cluster):
        devices = [
            "/job:ft/task:0/device:CPU:0",
            "/job:ft/task:1/device:CPU:0",
        ]
        strategy = DataParallelStrategy(devices, on_replica_failure="fail")
        cluster[1].kill()
        with pytest.raises(UnavailableError, match=r"task:1"):
            strategy.run(lambda: repro.constant(1.0) * 2.0)

    def test_reshard_recovers_mid_run_kill(self, cluster):
        devices = [
            "/job:ft/task:0/device:CPU:0",
            "/job:ft/task:1/device:CPU:0",
        ]
        strategy = DataParallelStrategy(devices, on_replica_failure="reshard")
        chaos = FaultInjector(cluster[1])
        chaos.kill_worker(ops={"Mul"})
        shards = strategy.split_batch(repro.constant(np.arange(8, dtype=np.float32)))
        start = time.perf_counter()
        out = strategy.run(lambda t: repro.reduce_sum(t * 2.0), shards)
        elapsed = time.perf_counter() - start
        chaos.remove()
        assert [float(o.cpu()) for o in out] == [12.0, 44.0]
        assert strategy.reshard_events == 1
        # "Within the deadline": well under the 2 s fixture deadline.
        assert elapsed < 2.0

    def test_reshard_with_no_survivors_raises(self, cluster):
        devices = [
            "/job:ft/task:0/device:CPU:0",
            "/job:ft/task:1/device:CPU:0",
        ]
        strategy = DataParallelStrategy(devices, on_replica_failure="reshard")
        cluster[0].kill()
        cluster[1].kill()
        with pytest.raises(UnavailableError):
            strategy.run(lambda: repro.constant(1.0) * 2.0)

    def test_non_availability_errors_still_propagate(self, cluster):
        devices = ["/job:ft/task:0/device:CPU:0", "/job:ft/task:1/device:CPU:0"]
        strategy = DataParallelStrategy(devices, on_replica_failure="reshard")

        def boom():
            raise RuntimeError("replica bug")

        with pytest.raises(RuntimeError, match="replica bug"):
            strategy.run(boom)

    def test_mode_validation(self, cluster):
        with pytest.raises(InvalidArgumentError):
            DataParallelStrategy(["/cpu:0"], on_replica_failure="retry")


class TestResolverLifetime:
    def test_partial_shutdown_keeps_other_cluster_resolvable(self):
        first = connect_to_cluster(ClusterSpec({"alpha": 1}))
        second = connect_to_cluster(ClusterSpec({"beta": 1}))
        try:
            shutdown_cluster(first)
            # beta still resolves and serves...
            with repro.device("/job:beta/task:0/device:CPU:0"):
                out = repro.add(repro.constant(1.0), repro.constant(1.0))
            assert float(out.cpu()) == 2.0
            # ...while alpha's devices are gone.
            with pytest.raises(NotFoundError):
                context.get_device("/job:alpha/task:0/device:CPU:0")
        finally:
            shutdown_cluster()
        with pytest.raises(NotFoundError):
            context.get_device("/job:beta/task:0/device:CPU:0")

    def test_shutdown_unknown_workers_is_noop(self, cluster):
        other = connect_to_cluster(ClusterSpec({"other": 1}))
        shutdown_cluster(other)
        shutdown_cluster(other)  # already removed: no-op
        assert cluster[0].ping()
