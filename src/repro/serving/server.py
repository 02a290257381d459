"""The multi-tenant model server: per-model queues, workers, and SLOs.

Architecture (DESIGN.md §12): a :class:`ModelServer` is a registry of
:class:`ServedModel` instances.  Each served model is a
:class:`~repro.runtime.workqueue.WorkQueue` — a **bounded FIFO queue**
of pending requests (admission control:
:class:`~repro.framework.errors.ResourceExhaustedError` past the
bound) and one **worker thread** draining it — that adds

* coalescing of up to ``max_batch`` compatible requests per staged call
  (:mod:`repro.serving.batching`), and
* a **latency histogram** fed at settle time (queue wait + execution),
  the per-model p50/p99 the SLO gates read.

Isolation is structural: nothing a model's worker does — stall, fail,
die — touches another model's queue or thread.  Transient failures
(:class:`UnavailableError`, :class:`DeadlineExceededError`,
:class:`AbortedError`) retry under the retry policy of
:mod:`repro.runtime.workqueue`; a batch that still fails is re-executed
per request so one poisoned input cannot fail its batch neighbors.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence, Union

from repro.framework.errors import (
    AlreadyExistsError,
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
)
from repro.core.saved_function import LoadedFunction, load
from repro.runtime import profiler
from repro.runtime.context import device as device_scope
from repro.runtime.workqueue import RequestFuture as ServingFuture
from repro.runtime.workqueue import WorkQueue, call_with_retries
from repro.tensor import TensorBase, convert_to_tensor
from repro.serving import batching

__all__ = ["ModelServer", "ServedModel", "ServingFuture"]


class _DroppedRequest(Exception):
    """Internal control flow: an injected DROP_REQUEST — never answer."""


class _Request:
    __slots__ = ("args", "signature", "size", "future", "enqueued_at")

    def __init__(self, args, signature, size: int, future: ServingFuture) -> None:
        self.args = args
        self.signature = signature
        self.size = size  # this request's leading-dim contribution
        self.future = future
        self.enqueued_at = time.perf_counter()


class ServedModel(WorkQueue):
    """One loaded model: its queue, its worker thread, its SLO books.

    The queue, future, fault hook, ``kill`` and shutdown escalation are
    :class:`~repro.runtime.workqueue.WorkQueue`'s — the fault surface a
    cluster worker has, so the distribution layer's ``FaultInjector``
    injects delay/drop/fail/kill faults against a served model
    unchanged; hook rules match on the model name, and the hook runs
    ahead of every attempt of a staged call.

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
    ) -> None:
        if max_batch < 1:
            raise InvalidArgumentError(f"max_batch must be >= 1, got {max_batch}")
        if queue_depth < 1:
            raise InvalidArgumentError(f"queue_depth must be >= 1, got {queue_depth}")
        if timeout_ms is not None and timeout_ms <= 0:
            raise InvalidArgumentError(
                f"timeout_ms must be positive or None, got {timeout_ms}"
            )
        super().__init__(f"Model {name!r}", f"serving-{name}", depth=queue_depth)
        self.name = name
        self.fn = fn
        self._max_batch = max_batch
        self._timeout_ms = timeout_ms
        self._batch_window = max(batch_window_ms, 0.0) / 1000.0
        self._device = device
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
        self._thread.start()

    @property
    def address(self) -> str:
        return f"serving://{self.name}"

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
        size = batching.leading_size(tensors) if signature is not None else 1
        future = ServingFuture(self._timeout_ms)
        try:
            self._enqueue(_Request(tensors, signature, size, future))
        except ResourceExhaustedError:
            self._count("rejected")
            raise
        self._count("submitted")
        return future

    def predict(self, *args):
        """Submit and block for the result."""
        return self.submit(*args).result()

    # -- the worker loop ---------------------------------------------------
    def _next_batch(self) -> Optional[list]:
        """Dequeue the next coalesced batch (None: worker should exit)."""
        with self._cond:
            first = self._take()
            if first is None:
                return None
            batch = [first]
            if first.signature is None or self._max_batch == 1:
                return batch
            deadline = time.perf_counter() + self._batch_window
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
        budget = self._max_batch - sum(r.size for r in batch)
        kept: list[_Request] = []
        now = time.perf_counter()
        while self._queue and budget > 0:
            request = self._queue.popleft()
            if request.future.expired(now):
                self._expire(request)
            elif request.signature == signature and request.size <= budget:
                batch.append(request)
                budget -= request.size
            else:
                kept.append(request)
        for request in reversed(kept):
            self._queue.appendleft(request)

    def _expire(self, request: _Request) -> None:
        super()._expire(request)
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
        except BaseException:
            # Isolate the blast radius: re-execute per request, so one
            # poisoned input only fails its own future.
            for request in batch:
                self._run_single(request)
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

    def _attempt(self, args: Sequence[TensorBase]):
        if not self._fault_step(self.name):
            raise _DroppedRequest()
        if self._device is not None:
            with device_scope(self._device):
                return self.fn(*args)
        return self.fn(*args)

    def _note_retry(self, attempt: int, exc: BaseException) -> None:
        self._count("retries")
        prof = profiler.active
        if prof is not None:
            prof.add_retry(f"serving/{self.name}")

    def _call(self, args: Sequence[TensorBase]):
        """One staged call, retried for transient (retryable) failures.

        Every attempt — the first and each retry — passes through the
        installed fault hook, as every attempt of a remote op does:
        consumable injected rules (``fail(times=2)``) are spent by
        retries, so a transient injected fault recovers via the policy
        while a persistent one fails after ``max_attempts``.
        """
        return call_with_retries(
            lambda: self._attempt(args), lambda: self.alive, self._note_retry
        )

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

    def _settle(self, request: _Request, value) -> None:
        request.future._settle(value)
        elapsed = time.perf_counter() - request.enqueued_at
        self.latency.add(elapsed)
        profiler.record(f"serving/{self.name}", elapsed)
        self._count("completed")

    # -- lifecycle / observability ----------------------------------------
    def kill(self) -> None:
        """Crash the model: fail queued and future requests immediately."""
        self._count("failed", len(self._close("dead (killed)", drain=False)))

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the worker; by default serve out the queued requests.

        Raises :class:`~repro.framework.errors.InternalError` naming the
        model when its worker is still alive ``timeout`` seconds later.
        """
        self.close(drain, timeout)

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
            f"queue_depth={self._depth}, alive={self.alive}>"
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
        wedged = []
        for model in models:
            try:
                model.stop(drain=drain)
            except InternalError as exc:  # still stop the others
                wedged.append(exc)
        if wedged:
            raise wedged[0]

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"<ModelServer serving {len(self._models)} models>"
