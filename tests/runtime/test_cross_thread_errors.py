"""Deferred errors observed from a different thread than the producer.

Regression suite for the serving work: a server records/submits work on
one thread and a client blocks on the value in another, so the deferred
error protocol of lazy traces must deliver the failure at whichever
thread hits the sync point — exactly once, with the op name attached —
and never hang, drop the error, or return an unmaterialized value.
"""

import importlib.util
import threading

import numpy as np
import pytest

import repro

if importlib.util.find_spec("pytest_timeout") is not None:
    timeout_marker = pytest.mark.timeout(60, method="thread")
else:

    def timeout_marker(cls):
        return cls


@pytest.fixture
def lazy_mode():
    with repro.execution_mode("lazy"):
        yield


def bad_tensor():
    # Fails in the kernel (index out of range), not in shape inference,
    # so the failure genuinely rides the deferred path.
    x = repro.constant([1.0, 2.0, 3.0])
    return repro.gather(x, repro.constant([7], dtype=repro.int32))


def on_thread(fn):
    """Run ``fn`` on a fresh thread; return its result or raise its error."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as exc:
            box["error"] = exc

    t = threading.Thread(target=run)
    t.start()
    t.join(timeout=45.0)
    assert not t.is_alive(), "cross-thread observation hung"
    if "error" in box:
        raise box["error"]
    return box.get("result")


@timeout_marker
class TestLazyCrossThread:
    def test_error_delivered_at_other_threads_numpy(self, lazy_mode):
        bad = bad_tensor()
        with pytest.raises(IndexError, match="Gather") as ei:
            on_thread(bad.numpy)
        assert getattr(ei.value, "_repro_async_op", None) == "Gather"

    def test_sync_on_other_thread_delivers_once(self, lazy_mode):
        bad = bad_tensor()  # noqa: F841 -- kept live, never observed
        with pytest.raises(IndexError):
            on_thread(repro.sync)
        repro.sync()  # already delivered; main thread sees nothing

    def test_failed_tensor_raises_on_every_thread(self, lazy_mode):
        bad = bad_tensor()
        for _ in range(2):
            with pytest.raises(IndexError):
                on_thread(bad.numpy)
        with pytest.raises(IndexError):
            bad.numpy()

    def test_recorded_on_worker_resolved_on_main(self, lazy_mode):
        out = {}

        def record():
            x = repro.constant(np.arange(6, dtype=np.float32))
            out["y"] = x * 3.0

        t = threading.Thread(target=record)
        t.start()
        t.join(timeout=30.0)
        np.testing.assert_allclose(
            out["y"].numpy(), np.arange(6, dtype=np.float32) * 3.0
        )

    def test_concurrent_resolvers_agree(self, lazy_mode):
        # Many threads race _resolve_output on the same lazy tensor;
        # the flush-then-clear ordering means nobody can observe the
        # handle before the segment actually executed.
        for _ in range(20):
            x = repro.constant(np.arange(16, dtype=np.float32))
            y = x * 2.0 + 1.0
            expected = np.arange(16, dtype=np.float32) * 2.0 + 1.0
            barrier = threading.Barrier(6)
            errors = []

            def resolve():
                try:
                    barrier.wait()
                    np.testing.assert_allclose(y.numpy(), expected)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=resolve) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not errors, errors

    def test_concurrent_resolvers_all_see_failure(self, lazy_mode):
        bad = bad_tensor()
        barrier = threading.Barrier(4)
        outcomes = []

        def resolve():
            barrier.wait()
            try:
                bad.numpy()
                outcomes.append("ok")  # pragma: no cover
            except IndexError:
                outcomes.append("raised")

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert outcomes == ["raised"] * 4
