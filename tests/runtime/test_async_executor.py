"""The asynchronous eager executor: streams, sync points, deferred errors.

Async mode's contract (ISSUE 3 tentpole, paper §4.1/§4.4): ``execute``
returns immediately with a pending tensor; per-device program order is
preserved; the Python thread blocks only where a value is observed; a
kernel error raised on a stream worker is delivered — with the op name
attached, original type preserved — at the next synchronization point
and never lost.  These tests drive that contract hard, including from
many threads at once.
"""

import importlib.util
import threading
import time

import numpy as np
import pytest

import repro
from repro.framework.errors import InvalidArgumentError
from repro.runtime import dispatch
from repro.runtime.context import context
from repro.runtime.stream import ExecutionStream, PendingHandle
from repro.tensor import AsyncTensor

# pytest-timeout is installed in CI but optional locally; the no-hang
# assertions degrade to plain (unbounded) runs without it.
if importlib.util.find_spec("pytest_timeout") is not None:
    timeout_marker = pytest.mark.timeout(60, method="thread")
else:

    def timeout_marker(cls):
        return cls


@pytest.fixture
def async_mode():
    with repro.execution_mode("async"):
        yield


class TestExecutionModeKnob:
    def test_env_default_is_respected(self):
        # The conftest fixture resets to the env-derived default.
        import os

        expected = os.environ.get("REPRO_ASYNC_EAGER", "0").lower() in (
            "1",
            "true",
            "yes",
            "on",
        )
        assert (context.executor_mode == "async") is expected

    def test_setter_validates(self):
        with pytest.raises(InvalidArgumentError):
            context.executor_mode = "turbo"

    def test_scoped_mode_restores(self):
        before = context.executor_mode
        with repro.execution_mode("async"):
            assert context.executor_mode == "async"
            with repro.execution_mode("sync"):
                assert context.executor_mode == "sync"
            assert context.executor_mode == "async"
        assert context.executor_mode == before

    def test_leaving_async_synchronizes(self, async_mode):
        x = repro.constant(np.ones(8, dtype=np.float32))
        y = x + 1.0
        assert isinstance(y, AsyncTensor)
        context.executor_mode = "sync"
        # The mode switch drained the streams: y settled without any
        # value observation.
        assert y.is_ready()


class TestAsyncSemantics:
    def test_chain_returns_pending_then_correct(self, async_mode):
        x = repro.constant(np.arange(8, dtype=np.float32))
        y = x
        for _ in range(32):
            y = y * 1.0 + 1.0
        assert isinstance(y, AsyncTensor)
        np.testing.assert_allclose(y.numpy(), np.arange(8) + 32.0)

    def test_shape_query_does_not_block(self, async_mode):
        x = repro.constant(np.ones((4, 3), dtype=np.float32))
        y = repro.matmul(x, repro.constant(np.ones((3, 5), dtype=np.float32)))
        assert tuple(y.shape) == (4, 5)  # inferred, no sync needed
        assert y.dtype == repro.float32

    def test_every_observation_is_a_sync_point(self, async_mode):
        x = repro.constant([2.0])
        assert float(x * 3.0) == 6.0  # __float__
        assert bool(repro.reduce_sum(x) > 1.0)  # __bool__
        assert (x + x).numpy()[0] == 4.0  # numpy()
        assert repro.reduce_sum(x * 5.0).item() == 10.0  # item()
        assert len((repro.concat([x, x], axis=0))) == 2  # __len__

    def test_context_sync_is_a_barrier(self, async_mode):
        x = repro.constant(np.ones(4, dtype=np.float32))
        ys = [x * float(i) for i in range(8)]
        repro.sync()
        assert all(y.is_ready() for y in ys)

    def test_gradients_match_sync_mode(self):
        x_np = np.random.randn(3, 3).astype(np.float32)

        def compute():
            x = repro.constant(x_np)
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = repro.reduce_sum(repro.tanh(repro.matmul(x, x)))
            return tape.gradient(y, x).numpy()

        with repro.execution_mode("sync"):
            ref = compute()
        with repro.execution_mode("async"):
            got = compute()
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_py_func_synchronizes(self, async_mode):
        seen = []

        def observe(a):
            seen.append(np.asarray(a.numpy()).copy())
            return a * 2.0

        x = repro.constant(np.ones(3, dtype=np.float32))
        y = x + 1.0
        (out,) = repro.py_func(observe, [y], [repro.float32])
        # py_func saw the settled value of the pending input.
        np.testing.assert_allclose(seen[0], 2.0)
        np.testing.assert_allclose(out.numpy(), 4.0)


class TestDeferredErrors:
    def test_error_carries_op_name_and_type(self, async_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        with pytest.raises(IndexError, match="Gather"):
            bad.numpy()

    def test_failed_tensor_keeps_raising(self, async_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        for _ in range(3):
            with pytest.raises(IndexError):
                bad.numpy()

    def test_sync_delivers_unobserved_error_once(self, async_mode):
        x = repro.constant([1.0, 2.0])
        repro.gather(x, repro.constant([7], dtype=repro.int32))  # discarded
        with pytest.raises(IndexError, match="asynchronously"):
            repro.sync()
        repro.sync()  # delivered exactly once; the second sync is clean

    def test_observation_then_sync_does_not_double_deliver(self, async_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        with pytest.raises(IndexError):
            bad.numpy()
        repro.sync()  # already delivered through the tensor

    def test_dependent_op_propagates_producer_error(self, async_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        downstream = bad * 2.0 + 1.0
        with pytest.raises(IndexError, match="Gather"):
            downstream.numpy()

    def test_healthy_work_after_failure(self, async_mode):
        x = repro.constant([1.0, 2.0])
        with pytest.raises(IndexError):
            repro.gather(x, repro.constant([9], dtype=repro.int32)).numpy()
        np.testing.assert_allclose((x + x).numpy(), [2.0, 4.0])


class TestStreams:
    def test_fifo_order_within_stream(self):
        order = []
        stream = ExecutionStream("test-fifo", depth=4)
        try:
            for i in range(16):
                handle = PendingHandle(f"op{i}")
                stream.enqueue(f"op{i}", lambda i=i: order.append(i) or [], handle)
            stream.drain()
            assert order == list(range(16))
        finally:
            stream.shutdown()

    def test_backpressure_blocks_submitter(self):
        release = threading.Event()
        stream = ExecutionStream("test-backpressure", depth=2)
        try:
            for i in range(3):  # 1 executing + 2 queued = at capacity
                stream.enqueue("Slow", lambda: release.wait(10) and [], PendingHandle("Slow"))
            blocked = []

            def submit_one_more():
                stream.enqueue("Slow", lambda: [], PendingHandle("Slow"))
                blocked.append("done")

            t = threading.Thread(target=submit_one_more, daemon=True)
            t.start()
            t.join(timeout=0.2)
            assert not blocked  # the bounded queue held the submitter
            release.set()
            t.join(timeout=10)
            assert blocked == ["done"]
        finally:
            release.set()
            stream.shutdown()

    def test_pending_ops_counts_down(self, async_mode):
        x = repro.constant(np.ones(4, dtype=np.float32))
        for _ in range(8):
            x = x + 1.0
        device = x.device_object
        stream = device.execution_stream()
        stream.drain()
        assert stream.pending_ops == 0


@timeout_marker
class TestConcurrentSubmission:
    def test_many_threads_shared_input(self, async_mode):
        """Threads race op submission against a shared tensor; every
        result must be exact — no torn reads, no cross-thread mixups."""
        base = repro.constant(np.arange(16, dtype=np.float64))
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                y = base * float(k) + float(k)
                for _ in range(5):
                    y = y + base
                results[k] = y.numpy()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        expected_base = np.arange(16, dtype=np.float64)
        for k, got in results.items():
            np.testing.assert_allclose(
                got, expected_base * k + k + 5 * expected_base
            )

    def test_threads_with_private_chains_and_gradients(self, async_mode):
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                rng = np.random.default_rng(seed)
                x = repro.constant(rng.normal(size=(4, 4)), dtype=repro.float64)
                with repro.GradientTape() as tape:
                    tape.watch(x)
                    y = repro.reduce_sum(repro.tanh(repro.matmul(x, x)))
                g = tape.gradient(y, x)
                assert g is not None and g.numpy().shape == (4, 4)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_concurrent_failures_stay_attributed(self, async_mode):
        """Each thread's failed op raises in *that* thread's observation,
        with the failing op's name attached."""
        x = repro.constant([1.0, 2.0])
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker(k: int) -> None:
            if k % 2 == 0:
                bad = repro.gather(x, repro.constant([5 + k], dtype=repro.int32))
                try:
                    bad.numpy()
                    with lock:
                        outcomes.append("no-raise")
                except IndexError as exc:
                    with lock:
                        outcomes.append(
                            "labelled" if "Gather" in str(exc) else "unlabelled"
                        )
            else:
                np.testing.assert_allclose((x * 2.0).numpy(), [2.0, 4.0])
                with lock:
                    outcomes.append("healthy")

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["healthy"] * 4 + ["labelled"] * 4
        # Drain whatever deferred state is left so it cannot leak.
        for _ in range(4):
            try:
                repro.sync()
                break
            except IndexError:
                continue


class TestThroughputShape:
    def test_submission_is_faster_than_completion(self, async_mode):
        """The point of the mode: submitting N ops returns before the
        device finished them (dispatch latency is off the critical
        path).  Uses a deliberately slow py-side kernel via big inputs."""
        x = repro.constant(np.ones((256, 256), dtype=np.float32))
        start = time.perf_counter()
        y = x
        for _ in range(64):
            y = y + 1.0
        submitted = time.perf_counter() - start
        y.numpy()
        completed = time.perf_counter() - start
        # Submission must not have waited for every kernel; allow a
        # generous margin so the assertion is robust on loaded machines.
        assert submitted < completed
