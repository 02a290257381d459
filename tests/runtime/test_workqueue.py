"""The request-queue lifecycle contract (DESIGN.md §7.1's failure table).

One test per row, parametrized over the two ``WorkQueue`` owners — a
``distribute.WorkerServer`` and a ``serving.ServedModel``.  Every wait
is bounded: a hang is a failure, never a stuck suite.
"""

import sys
import threading
import time

import pytest

import repro
from repro.core import saved_function
from repro.distribute import FaultInjector, WorkerServer
from repro.framework.errors import (
    DeadlineExceededError,
    InternalError,
    ResourceExhaustedError,
    UnavailableError,
)
from repro.runtime.workqueue import DROP_REQUEST, RequestFuture, WorkQueue
from repro.serving import ServedModel
from tests.serving.test_server import export_linear, x_batch


class _Owner:
    """One queue owner plus a uniform blocking ``call()`` against it."""

    def __init__(self, kind, tmp_path, timeout_ms):
        self.kind = kind
        if kind == "worker":
            self.queue = WorkerServer("contract", 0)
            device = next(iter(self.queue.devices.values()))
            x = repro.constant(1.0)
            self.call = lambda: self.queue.run_op(
                device, "Add", [x, x], {}, deadline_ms=timeout_ms
            )
        else:
            path, _ = export_linear(tmp_path)
            self.queue = ServedModel(
                "contract", saved_function.load(path), max_batch=1,
                timeout_ms=timeout_ms,
            )
            x = x_batch(1)
            self.call = lambda: self.queue.predict(x)

    def call_outcome(self):
        try:
            self.call()
            return "ok"
        except BaseException as exc:  # noqa: BLE001 - the outcome under test
            return type(exc).__name__


@pytest.fixture(params=["worker", "model"])
def make_owner(request, tmp_path):
    made = []

    def make(timeout_ms=5000.0):
        made.append(_Owner(request.param, tmp_path, timeout_ms))
        return made[-1]

    yield make
    for owner in made:
        owner.queue.install_fault_hook(None)
        owner.queue.kill()
        owner.queue._thread.join(5.0)


def _clients(owner, n):
    """Start ``n`` threads each making one blocking call."""
    outcomes = []
    threads = [
        threading.Thread(
            target=lambda: outcomes.append(owner.call_outcome()), daemon=True
        )
        for _ in range(n)
    ]
    for t in threads:
        t.start()
    return threads, outcomes


def _join_all(threads, timeout=10.0):
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not [t.name for t in threads if t.is_alive()], "client threads hung"


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


class _Gate:
    """A fault hook holding the serve thread until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, name):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10.0)


class TestShutdown:
    def test_submit_after_shutdown_is_unavailable(self, make_owner):
        owner = make_owner()
        owner.call()
        owner.queue.close()
        assert not owner.queue.is_running
        with pytest.raises(UnavailableError, match="shut down"):
            owner.call()

    def test_shutdown_twice_and_after_kill(self, make_owner):
        owner = make_owner()
        owner.queue.close()
        owner.queue.close()  # no error, no hang
        killed = make_owner()
        killed.queue.kill()
        killed.queue.close()  # joins the already-exiting thread
        assert not killed.queue._thread.is_alive()
        with pytest.raises(UnavailableError, match="killed"):
            killed.call()

    def test_every_request_pending_at_kill_fails(self, make_owner):
        owner = make_owner()
        gate = _Gate()
        owner.queue.install_fault_hook(gate)
        threads, outcomes = _clients(owner, 6)
        assert gate.entered.wait(5.0)
        _wait_until(lambda: len(owner.queue._queue) == 5)
        owner.queue.kill()
        gate.release.set()  # the in-flight one fails too: killed mid-request
        _join_all(threads)
        assert outcomes == ["UnavailableError"] * 6
        assert not owner.queue.alive and not owner.queue._queue

    def test_drain_serves_what_is_queued(self, make_owner):
        owner = make_owner()
        gate = _Gate()
        owner.queue.install_fault_hook(gate)
        threads, outcomes = _clients(owner, 4)
        assert gate.entered.wait(5.0)
        _wait_until(lambda: len(owner.queue._queue) == 3)
        closer = threading.Thread(
            target=lambda: owner.queue.close(drain=True), daemon=True
        )
        closer.start()
        _wait_until(lambda: not owner.queue.is_running)
        assert owner.call_outcome() == "UnavailableError"  # the door is shut
        gate.release.set()
        _join_all(threads + [closer])
        assert outcomes == ["ok"] * 4

    def test_request_racing_shutdown_is_served_or_failed(self, make_owner):
        """Hammer the queue from many threads while closing it: every
        call returns a result or a typed error, never hangs."""
        owner = make_owner()
        outcomes = []
        stop = threading.Event()

        def client():
            outcome = "ok"
            while outcome == "ok" and not stop.is_set():
                outcome = owner.call_outcome()
            outcomes.append(outcome)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # perturb the schedule: more interleavings
        try:
            for t in threads:
                t.start()
            time.sleep(0.05)  # let clients build up in-flight requests
            owner.queue.close()
            stop.set()
            _join_all(threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(outcomes) == 8
        assert set(outcomes) <= {"ok", "UnavailableError", "DeadlineExceededError"}

    def test_self_shutdown_from_the_serve_thread(self, make_owner):
        owner = make_owner()
        owner.queue.install_fault_hook(lambda name: owner.queue.close())
        # The request that closed its own queue is abandoned with it.
        assert owner.call_outcome() == "UnavailableError"
        owner.queue._thread.join(5.0)
        assert not owner.queue._thread.is_alive()

    def test_wedged_serve_thread_raises_internal_error(self, make_owner):
        """A serve thread stuck in a hook (or kernel) is an error naming
        its owner at the join deadline — not a silent leak."""
        owner = make_owner(timeout_ms=50.0)
        gate = _Gate()
        owner.queue.install_fault_hook(gate)
        assert owner.call_outcome() == "DeadlineExceededError"
        start = time.monotonic()
        stop = owner.queue.shutdown if owner.kind == "worker" else owner.queue.stop
        with pytest.raises(InternalError, match="contract.*did not terminate"):
            stop(timeout=0.2)
        assert time.monotonic() - start < 2.0
        gate.release.set()  # unwedge so the thread exits


class TestFaultHook:
    def test_dropped_request_hits_the_clients_deadline(self, make_owner):
        owner = make_owner(timeout_ms=100.0)
        owner.queue.install_fault_hook(lambda name: DROP_REQUEST)
        start = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="deadline"):
            owner.call()
        assert 0.09 < time.perf_counter() - start < 2.0  # the deadline, not a hang

    def test_raising_hook_fails_the_request(self, make_owner):
        owner = make_owner()

        def hook(name):
            raise ValueError("injected")

        owner.queue.install_fault_hook(hook)
        with pytest.raises(ValueError, match="injected"):
            owner.call()
        owner.queue.install_fault_hook(None)
        owner.call()  # one failed request does not poison the queue

    def test_hook_initiated_kill_fails_the_triggering_request(self, make_owner):
        owner = make_owner()
        chaos = FaultInjector(owner.queue)
        chaos.kill_worker()
        with pytest.raises(UnavailableError, match="killed"):
            owner.call()
        assert not owner.queue.is_running and not owner.queue.alive
        with pytest.raises(UnavailableError):
            owner.call()  # rejected at the door now
        assert chaos.injected["kill"] == 1

    def test_expired_request_is_skipped_not_executed(self, make_owner):
        owner = make_owner(timeout_ms=150.0)
        gate = _Gate()
        owner.queue.install_fault_hook(gate)
        threads, outcomes = _clients(owner, 1)
        assert gate.entered.wait(5.0)
        more, _ = _clients(owner, 1)  # queued behind the held request
        _join_all(threads + more)  # both clients gave up at their deadline
        gate.release.set()
        _wait_until(lambda: not owner.queue._queue)
        owner.queue.install_fault_hook(None)
        owner.call()  # the queue still serves
        assert gate.calls == 1  # the expired request never reached the hook


class TestBuildingBlocks:
    def test_depth_bound_refuses_with_resource_exhausted(self):
        queue = WorkQueue("Queue 'q'", "never-started", depth=2)  # nothing drains it

        class Request:
            def __init__(self):
                self.future = RequestFuture(None)

        first, second = Request(), Request()
        queue._enqueue(first)
        queue._enqueue(second)
        with pytest.raises(ResourceExhaustedError, match="Queue 'q'.*2 pending"):
            queue._enqueue(Request())
        queue.kill()
        for request in (first, second):
            with pytest.raises(UnavailableError, match="Queue 'q' is dead"):
                request.future.result(timeout=1.0)

    def test_future_result_is_repeatable_and_bounded(self):
        future = RequestFuture(timeout_ms=30.0)
        assert not future.done() and not future.expired()
        with pytest.raises(DeadlineExceededError):
            future.result()
        assert future.expired()
        future._settle(7)
        assert future.done() and future.result() == future.result() == 7
