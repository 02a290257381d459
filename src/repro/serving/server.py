"""The multi-tenant model server: per-model queues, workers, and SLOs.

Architecture (DESIGN.md §12): a :class:`ModelServer` is a registry of
:class:`ServedModel` instances.  Each served model owns

* a **bounded FIFO queue** of pending requests (admission control:
  :class:`~repro.framework.errors.ResourceExhaustedError` past the
  bound),
* one **worker thread** that drains the queue, coalescing up to
  ``max_batch`` compatible requests per staged call
  (:mod:`repro.serving.batching`), and
* a **latency histogram** fed at settle time (queue wait + execution),
  the per-model p50/p99 the SLO gates read.

Isolation is structural: nothing a model's worker does — stall, fail,
die — touches another model's queue or thread.  Transient failures
(:class:`UnavailableError`, :class:`DeadlineExceededError`,
:class:`AbortedError`) retry under the module retry policy from
:mod:`repro.distribute.worker`; a batch that still fails is re-executed
per request so one poisoned input cannot fail its batch neighbors.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Optional, Sequence, Union

from repro.framework.errors import (
    AlreadyExistsError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    UnavailableError,
)
from repro.core.saved_function import LoadedFunction, load
from repro.distribute.worker import DROP_REQUEST, get_retry_policy
from repro.runtime import profiler
from repro.tensor import TensorBase, convert_to_tensor
from repro.serving import batching

__all__ = ["ModelServer", "ServedModel", "ServingFuture"]

#: Sentinel distinguishing "use the module retry policy" from None.
_DEFAULT_RETRY = object()


class _DroppedRequest(Exception):
    """Internal control flow: an injected DROP_REQUEST — never answer."""


class ServingFuture:
    """The settled-later result of one submitted request.

    ``result()`` blocks until the worker settles the future or the
    request's deadline passes — the deadline covers queue wait *and*
    execution, so a dropped or stalled request surfaces as
    :class:`~repro.framework.errors.DeadlineExceededError` rather than
    a hang.  Futures settle exactly once; ``result()`` may be called
    from any thread, any number of times.
    """

    __slots__ = (
        "_lock",
        "_done",
        "_event",
        "_result",
        "_error",
        "enqueued_at",
        "deadline",
        "size",
    )

    def __init__(self, deadline: Optional[float], size: int) -> None:
        # The wake-up Event is allocated lazily, only by a result()
        # call that actually has to block: at saturation most futures
        # are settled before anyone waits, and Event construction is a
        # measurable per-request cost.  The (cheap, C-level) lock makes
        # the settle/create-event handoff race-free.
        self._lock = threading.Lock()
        self._done = False
        self._event: Optional[threading.Event] = None
        self._result = None
        self._error: Optional[BaseException] = None
        self.enqueued_at = time.perf_counter()
        self.deadline = deadline  # absolute perf_counter time, or None
        self.size = size  # this request's leading-dim contribution

    def _settle(self, result) -> None:
        with self._lock:
            self._result = result
            self._done = True
            event = self._event
        if event is not None:
            event.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            self._done = True
            event = self._event
        if event is not None:
            event.set()

    def done(self) -> bool:
        return self._done

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.perf_counter() if now is None else now) > self.deadline

    def result(self, timeout: Optional[float] = None):
        """The request's output structure (or its raised failure)."""
        if not self._done:
            with self._lock:
                settled = self._done
                if not settled:
                    event = self._event
                    if event is None:
                        event = self._event = threading.Event()
            if not settled:
                if timeout is not None:
                    wait = timeout
                elif self.deadline is not None:
                    wait = max(self.deadline - time.perf_counter(), 0.0)
                else:
                    wait = None
                if not event.wait(wait):
                    raise DeadlineExceededError(
                        "Serving request did not complete within its deadline"
                    )
        if self._error is not None:
            raise self._error
        return self._result


class _Request:
    __slots__ = ("args", "signature", "future")

    def __init__(self, args, signature, future: ServingFuture) -> None:
        self.args = args
        self.signature = signature
        self.future = future


class ServedModel:
    """One loaded model: its queue, its worker thread, its SLO books.

    Exposes the same fault surface as a
    :class:`~repro.distribute.worker.WorkerServer`
    (``install_fault_hook`` / ``kill`` / ``address``), so
    :class:`~repro.distribute.fault_injection.FaultInjector` injects
    delay/drop/fail/kill faults against a served model unchanged; hook
    rules match on the model name.

    ``max_batch`` is the most request rows the worker coalesces into one
    staged call (``1`` disables cross-request batching).  ``queue_depth``
    bounds the pending-request queue: submissions past it are rejected
    with :class:`~repro.framework.errors.ResourceExhaustedError` —
    admission control rather than unbounded memory growth.
    ``timeout_ms`` is the per-request deadline, queue wait included;
    ``None`` disables deadlines.
    """

    def __init__(
        self,
        name: str,
        fn: LoadedFunction,
        *,
        max_batch: int = 32,
        queue_depth: int = 128,
        timeout_ms: Optional[float] = 1000.0,
        batch_window_ms: float = 0.0,
        device: Optional[str] = None,
        retry_policy=_DEFAULT_RETRY,
    ) -> None:
        if max_batch < 1:
            raise InvalidArgumentError(f"max_batch must be >= 1, got {max_batch}")
        if queue_depth < 1:
            raise InvalidArgumentError(f"queue_depth must be >= 1, got {queue_depth}")
        if timeout_ms is not None and timeout_ms <= 0:
            raise InvalidArgumentError(
                f"timeout_ms must be positive or None, got {timeout_ms}"
            )
        self.name = name
        self.fn = fn
        self._max_batch = max_batch
        self._queue_depth = queue_depth
        self._timeout_ms = timeout_ms
        self._batch_window = max(batch_window_ms, 0.0) / 1000.0
        self._device = device
        self._retry_policy = retry_policy
        self._queue: collections.deque[_Request] = collections.deque()
        self._cond = threading.Condition()
        self._fault_hook: Optional[Callable] = None
        self._alive = True
        self._stopping = False
        self.latency = profiler.LatencyHistogram()
        self._stats_lock = threading.Lock()
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "rejected": 0,
            "expired": 0,
            "failed": 0,
            "dropped": 0,
            "batches": 0,
            "coalesced": 0,
            "max_batch_seen": 0,
            "retries": 0,
            "fallback_splits": 0,
        }
        self._worker = threading.Thread(
            target=self._serve_loop, name=f"serving-{name}", daemon=True
        )
        self._worker.start()

    # -- the WorkerServer-compatible fault surface -------------------------
    @property
    def address(self) -> str:
        return f"serving://{self.name}"

    def install_fault_hook(self, hook: Optional[Callable]) -> None:
        """Install ``hook(model_name)`` ahead of every batch execution.

        The hook may return ``None`` (proceed), return
        :data:`~repro.distribute.worker.DROP_REQUEST` (the batch is
        never answered; request deadlines fire), or raise (the batch
        fails with that error — retried when the type is retryable).
        """
        self._fault_hook = hook

    def kill(self) -> None:
        """Crash the model: fail queued and future requests immediately."""
        with self._cond:
            self._alive = False
            pending = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for request in pending:
            request.future._fail(
                UnavailableError(f"Model {self.name!r} was killed")
            )
        self._count("failed", len(pending))

    @property
    def alive(self) -> bool:
        return self._alive

    # -- submission --------------------------------------------------------
    def submit(self, *args) -> ServingFuture:
        """Enqueue one request; returns immediately with its future."""
        tensors = [convert_to_tensor(a) for a in args]
        if len(tensors) != self.fn.num_explicit_inputs:
            raise InvalidArgumentError(
                f"Model {self.name!r} takes {self.fn.num_explicit_inputs} "
                f"inputs, got {len(tensors)}"
            )
        signature = batching.request_signature(tensors)
        deadline = None
        if self._timeout_ms is not None:
            deadline = time.perf_counter() + self._timeout_ms / 1000.0
        size = batching.leading_size(tensors) if signature is not None else 1
        future = ServingFuture(deadline, size)
        with self._cond:
            if not self._alive or self._stopping:
                raise UnavailableError(
                    f"Model {self.name!r} is not serving"
                )
            if len(self._queue) >= self._queue_depth:
                self._count("rejected")
                raise ResourceExhaustedError(
                    f"Model {self.name!r} queue is full "
                    f"({self._queue_depth} pending); shed load or retry later"
                )
            self._queue.append(_Request(tensors, signature, future))
            self._count("submitted")
            self._cond.notify()
        return future

    def predict(self, *args):
        """Submit and block for the result."""
        return self.submit(*args).result()

    # -- the worker loop ---------------------------------------------------
    def _serve_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            if batch:
                self._execute_batch(batch)

    def _next_batch(self) -> Optional[list]:
        """Dequeue the next coalesced batch (None: worker should exit)."""
        with self._cond:
            while not self._queue:
                if self._stopping or not self._alive:
                    return None
                self._cond.wait(0.1)
            first = self._queue.popleft()
            now = time.perf_counter()
            if first.future.expired(now):
                self._expire(first)
                return []
            batch = [first]
            if first.signature is None or self._max_batch == 1:
                return batch
            deadline = now + self._batch_window
            while True:
                self._gather_compatible(batch)
                if len(batch) >= self._max_batch:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return batch

    def _gather_compatible(self, batch: list) -> None:
        """Pull queued requests matching ``batch[0]`` (caller holds lock)."""
        signature = batch[0].signature
        budget = self._max_batch - sum(r.future.size for r in batch)
        kept: list[_Request] = []
        now = time.perf_counter()
        while self._queue and budget > 0:
            request = self._queue.popleft()
            if request.future.expired(now):
                self._expire(request)
            elif request.signature == signature and request.future.size <= budget:
                batch.append(request)
                budget -= request.future.size
            else:
                kept.append(request)
        for request in reversed(kept):
            self._queue.appendleft(request)

    def _expire(self, request: _Request) -> None:
        request.future._fail(
            DeadlineExceededError(
                f"Request to model {self.name!r} expired in queue "
                f"(deadline {self._timeout_ms} ms)"
            )
        )
        self._count("expired")

    def _execute_batch(self, batch: list) -> None:
        self._count("batches")
        if len(batch) > 1:
            self._count("coalesced", len(batch))
        with self._stats_lock:
            self._counters["max_batch_seen"] = max(
                self._counters["max_batch_seen"], len(batch)
            )
        if len(batch) == 1:
            self._run_single(batch[0])
            return
        merged, sizes = batching.coalesce_requests([r.args for r in batch])
        try:
            result = self._call(merged)
        except _DroppedRequest:
            # Never answer: each request's own deadline fires at its
            # result() call, exactly like a dropped RPC.
            self._count("dropped", len(batch))
            return
        except BaseException as exc:
            self._fail_or_split(batch, exc)
            return
        try:
            per_request = batching.split_results(result, sizes)
        except batching.NotSplittableError:
            # The model's outputs do not carry the batch dim (e.g. a
            # scalar reduction): serve each request on its own.
            self._count("fallback_splits")
            for request in batch:
                self._run_single(request)
            return
        for request, value in zip(batch, per_request):
            self._settle(request, value)

    def _call(self, args: Sequence[TensorBase]):
        """One staged call, retried for transient (retryable) failures.

        Every attempt — the first and each retry — passes through the
        installed fault hook, matching the worker-server convention:
        consumable injected rules (``fail(times=2)``) are spent by
        retries, so a transient injected fault recovers via the policy
        while a persistent one fails after ``max_attempts``.
        """
        policy = (
            get_retry_policy()
            if self._retry_policy is _DEFAULT_RETRY
            else self._retry_policy
        )
        attempt = 0
        while True:
            attempt += 1
            try:
                hook = self._fault_hook
                if hook is not None:
                    if hook(self.name) is DROP_REQUEST:
                        raise _DroppedRequest()
                if not self._alive:  # the hook killed us mid-request
                    raise UnavailableError(f"Model {self.name!r} was killed")
                if self._device is not None:
                    from repro.runtime.context import device as device_scope

                    with device_scope(self._device):
                        return self.fn(*args)
                return self.fn(*args)
            except _DroppedRequest:
                raise
            except BaseException as exc:
                retryable = (
                    self._alive
                    and policy is not None
                    and isinstance(exc, policy.retryable)
                )
                if not retryable or attempt >= policy.max_attempts:
                    raise
                self._count("retries")
                prof = profiler.active
                if prof is not None:
                    prof.add_retry(f"serving/{self.name}")
                time.sleep(policy.backoff_seconds(attempt))

    def _run_single(self, request: _Request) -> None:
        try:
            result = self._call(request.args)
        except _DroppedRequest:
            self._count("dropped")
            return
        except BaseException as exc:
            request.future._fail(exc)
            self._count("failed")
            return
        self._settle(request, result)

    def _fail_or_split(self, batch: list, exc: BaseException) -> None:
        """A batch failed terminally: isolate the blast radius.

        A coalesced batch is re-executed per request so one poisoned
        input only fails its own future; a single request just fails.
        """
        if len(batch) == 1:
            batch[0].future._fail(exc)
            self._count("failed")
            return
        for request in batch:
            self._run_single(request)

    def _settle(self, request: _Request, value) -> None:
        request.future._settle(value)
        elapsed = time.perf_counter() - request.future.enqueued_at
        self.latency.add(elapsed)
        profiler.record(f"serving/{self.name}", elapsed)
        self._count("completed")

    # -- lifecycle / observability ----------------------------------------
    def stop(self, drain: bool = True) -> None:
        """Stop the worker; by default serve out the queued requests."""
        with self._cond:
            self._stopping = True
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
            else:
                pending = []
            self._cond.notify_all()
        for request in pending:
            request.future._fail(
                UnavailableError(f"Model {self.name!r} is shutting down")
            )
        if threading.current_thread() is not self._worker:
            self._worker.join(timeout=30.0)

    def _count(self, key: str, by: int = 1) -> None:
        with self._stats_lock:
            self._counters[key] += by

    def stats(self) -> dict:
        """Counters plus the latency snapshot (p50/p99 in milliseconds)."""
        with self._stats_lock:
            stats = dict(self._counters)
        stats["queue_depth"] = len(self._queue)
        batches = stats["batches"]
        stats["mean_batch_size"] = (
            (stats["completed"] + stats["failed"]) / batches if batches else 0.0
        )
        stats.update(self.latency.snapshot())
        return stats

    def __repr__(self) -> str:
        return (
            f"<ServedModel {self.name!r}: max_batch={self._max_batch}, "
            f"queue_depth={self._queue_depth}, alive={self._alive}>"
        )


class ModelServer:
    """A registry of concurrently served models behind one process.

    ``load()`` accepts a saved-artifact path (anything
    :func:`repro.saved_function.load` reads) or an already-loaded
    :class:`LoadedFunction`; per-model keyword overrides win over the
    server-wide defaults given here (see :class:`ServedModel` for their
    meaning).
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        queue_depth: int = 128,
        timeout_ms: Optional[float] = 1000.0,
        batch_window_ms: float = 0.0,
    ) -> None:
        self._defaults = {
            "max_batch": max_batch,
            "queue_depth": queue_depth,
            "timeout_ms": timeout_ms,
            "batch_window_ms": batch_window_ms,
        }
        self._models: dict[str, ServedModel] = {}
        self._lock = threading.Lock()

    def load(
        self,
        name: str,
        source: Union[str, LoadedFunction],
        **overrides,
    ) -> ServedModel:
        """Load and start serving a model under ``name``."""
        fn = load(source) if isinstance(source, str) else source
        if not isinstance(fn, LoadedFunction):
            raise InvalidArgumentError(
                f"load() takes a saved-artifact path or LoadedFunction, "
                f"got {source!r}"
            )
        with self._lock:
            if name in self._models:
                raise AlreadyExistsError(f"Model {name!r} is already served")
            model = ServedModel(name, fn, **{**self._defaults, **overrides})
            self._models[name] = model
        return model

    def model(self, name: str) -> ServedModel:
        with self._lock:
            model = self._models.get(name)
        if model is None:
            raise NotFoundError(f"No served model named {name!r}")
        return model

    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def submit(self, name: str, *args) -> ServingFuture:
        return self.model(name).submit(*args)

    def predict(self, name: str, *args):
        return self.model(name).predict(*args)

    def unload(self, name: str, drain: bool = True) -> None:
        with self._lock:
            model = self._models.pop(name, None)
        if model is None:
            raise NotFoundError(f"No served model named {name!r}")
        model.stop(drain=drain)

    def stats(self) -> dict:
        with self._lock:
            models = dict(self._models)
        return {name: model.stats() for name, model in models.items()}

    def stop(self, drain: bool = True) -> None:
        with self._lock:
            models = list(self._models.values())
            self._models.clear()
        for model in models:
            model.stop(drain=drain)

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"<ModelServer serving {len(self._models)} models>"
