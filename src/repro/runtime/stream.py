"""Per-device execution streams for asynchronous eager execution.

The paper's runtime "executes operations asynchronously, only forcing
the Python thread to wait when a value is observed" (§4.1, §4.4).
Streams back the ``"async"`` submission policy — one of the three
pluggable policies (sync / async / lazy) behind
:func:`repro.runtime.executor.execute`; the ``"lazy"`` policy
(:mod:`repro.runtime.lazy`) reuses this module's pending-handle and
deferred-error machinery for recorded segments.  This module supplies
the two mechanisms behind the async mode:

* :class:`ExecutionStream` — one ordered worker thread per
  :class:`~repro.runtime.device.Device`.  Ops enqueued on a stream run
  in FIFO order, so per-device program order is preserved without any
  locking in kernels.  Because a pending value can only be consumed by
  ops submitted *after* the op that produces it, the cross-stream
  dependency graph is acyclic and a stream worker can never deadlock
  waiting on another stream.

* :class:`PendingHandle` — the future-like object backing an
  :class:`~repro.tensor.AsyncTensor`.  A handle is completed by a
  stream worker (local devices) or by a worker server's reply future
  (remote devices).  Observing a value blocks on the handle;
  synchronization points therefore need no special cases — they are
  exactly the places that touch a tensor's buffer.

**Deferred errors.**  A kernel that raises does so on a worker thread,
after the submitting ``execute()`` call already returned.  The error is
captured on the handle (so the failed tensor re-raises whenever it is
observed) and on the stream's *deferred* slot, and is re-raised — with
the op name attached, original exception type preserved — at the next
synchronization point: a value observation, :func:`sync_all_streams`
(``context.sync()``), a side-effecting op, or a tape gradient
computation.  A deferred error is delivered through the stream at most
once; the failed tensors themselves stay failed.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Optional

from repro.framework.errors import DeadlineExceededError, InternalError
from repro.runtime.context import context

__all__ = [
    "ExecutionStream",
    "PendingHandle",
    "attach_op_name",
    "drain_all_streams",
    "sync_all_streams",
]


def _attach_op_name(exc: BaseException, op_name: str) -> BaseException:
    """Return ``exc`` labelled with the op that raised it asynchronously.

    The exception *type* is preserved (callers assert on types), the
    message gains the op name, and the original exception is chained as
    ``__cause__``.  An exception that already carries a label — an error
    propagating through dependent ops — passes through unchanged.
    """
    if getattr(exc, "_repro_async_op", None) is not None:
        return exc
    try:
        labelled = type(exc)(f"{exc} [raised asynchronously by op {op_name!r}]")
        labelled.__cause__ = exc
    except BaseException:
        labelled = exc  # exotic constructor signature: label in place
    try:
        labelled._repro_async_op = op_name  # type: ignore[attr-defined]
    except BaseException:
        pass
    return labelled


#: Public alias: the deferred-error labelling protocol is shared by the
#: async streams, the lazy-trace flush path, and fused-region replay.
attach_op_name = _attach_op_name


# Handles of in-flight *remote* ops (completed by worker-server futures
# rather than by a local stream): sync_all_streams must wait on these
# too, and must surface errors nobody observed through a tensor.
_remote_lock = threading.Lock()
_remote_handles: dict[int, "PendingHandle"] = {}


def _register_remote(handle: "PendingHandle") -> None:
    with _remote_lock:
        _remote_handles[id(handle)] = handle


def _deregister_remote(handle: "PendingHandle") -> None:
    with _remote_lock:
        _remote_handles.pop(id(handle), None)


class PendingHandle:
    """The completion state of one asynchronously executing operation.

    Completed exactly once, either with the op's output tensors or with
    an exception.  ``result()`` blocks until completion and either
    returns the outputs or raises the (op-name-labelled) error; for
    future-backed remote handles it also enforces the submission-time
    deadline and runs the optional ``recover`` callback (the remote
    retry path) before giving up.
    """

    __slots__ = (
        "op_name",
        "_event",
        "_lock",
        "_outputs",
        "_error",
        "_future",
        "_recover",
        "_deadline_at",
        "_deadline_ms",
    )

    def __init__(self, op_name: str) -> None:
        self.op_name = op_name
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._outputs: Optional[list] = None
        self._error: Optional[BaseException] = None
        self._future = None
        self._recover: Optional[Callable] = None
        self._deadline_at: Optional[float] = None
        self._deadline_ms: Optional[float] = None

    @classmethod
    def from_future(
        cls,
        op_name: str,
        future,
        deadline_ms: Optional[float] = None,
        recover: Optional[Callable] = None,
    ) -> "PendingHandle":
        """Wrap a worker server's reply future as a pending handle.

        Args:
            future: a ``concurrent.futures.Future`` resolving to the
                op's output tensors.
            deadline_ms: end-to-end deadline counted from *submission*
                (queue wait included), enforced lazily at the first
                synchronization point that needs the value.
            recover: called with the failure when the future resolves to
                an error; may return replacement outputs (the remote
                retry path re-executes idempotent ops synchronously) or
                re-raise.
        """
        handle = cls(op_name)
        handle._future = future
        handle._recover = recover
        handle._deadline_ms = deadline_ms
        if deadline_ms is not None:
            handle._deadline_at = time.monotonic() + deadline_ms / 1000.0
        _register_remote(handle)
        future.add_done_callback(handle._on_future_done)
        return handle

    # -- completion (worker side) ------------------------------------------
    def _settle_result(self, outputs) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._outputs = list(outputs)
            self._event.set()
        if self._future is not None:
            _deregister_remote(self)  # nothing left to wait for or deliver

    def _settle_error(self, exc: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._error = _attach_op_name(exc, self.op_name)
            self._event.set()
        # Errored remote handles stay registered until delivered, so an
        # unobserved failure still surfaces at the next sync point.

    def _on_future_done(self, future) -> None:
        # Runs on the worker's serve thread.  If the handle already
        # settled (its deadline fired first), return *without touching
        # the lock*: ``result()`` holds it while running ``recover``,
        # and recovery retries need this very thread free to serve them.
        if self._event.is_set():
            return
        try:
            outputs = future.result()
        except BaseException as exc:  # noqa: BLE001 - crosses threads
            self._settle_error(exc)
        else:
            self._settle_result(outputs)

    # -- observation (client side) -----------------------------------------
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self) -> None:
        """Drive the handle to its final state without delivering errors.

        Blocks until the op completes (or its deadline fires) and runs
        the recovery callback if the outcome was an error.  Never
        raises: a surviving error stays on the handle — and, for remote
        handles, in the registry — for the next real synchronization
        point.  Used by barriers that must not erupt (profiler exit).
        """
        if not self._event.is_set():
            deadline_at = self._deadline_at
            if deadline_at is None:
                self._event.wait()
            elif not self._event.wait(max(0.0, deadline_at - time.monotonic())):
                future = self._future
                if future is not None:
                    future.cancel()
                self._settle_error(
                    DeadlineExceededError(
                        f"Operation {self.op_name!r} did not complete within "
                        f"its {self._deadline_ms:g} ms deadline"
                    )
                )
        with self._lock:
            if self._error is not None and self._recover is not None:
                recover, self._recover = self._recover, None
                original = self._error.__cause__ or self._error
                try:
                    self._outputs = list(recover(original))
                    self._error = None
                except BaseException as exc:  # noqa: BLE001
                    self._error = _attach_op_name(exc, self.op_name)
        if self._error is None and self._future is not None:
            _deregister_remote(self)

    def result(self) -> list:
        """Block until completion; return outputs or raise the error."""
        self.wait()
        with self._lock:
            error = self._error
        if self._future is not None:
            _deregister_remote(self)
        if error is not None:
            error._repro_delivered = True  # type: ignore[attr-defined]
            raise error
        return self._outputs  # type: ignore[return-value]

    def output(self, index: int):
        """The ``index``-th output tensor (blocks until available)."""
        outputs = self.result()
        if index >= len(outputs):
            raise InternalError(
                f"Async op {self.op_name!r} produced {len(outputs)} outputs "
                f"but output {index} was inferred at submission"
            )
        return outputs[index]


# All live streams, so context.sync() can drain every device at once.
_streams_lock = threading.Lock()
_streams: list["ExecutionStream"] = []


class ExecutionStream:
    """An ordered, single-worker op queue for one device.

    Work items run strictly in submission order on a dedicated daemon
    thread.  A bounded queue (``context.stream_depth``) provides
    backpressure; ``drain()``/``sync()`` are the barrier operations.
    """

    def __init__(self, name: str, depth: Optional[int] = None) -> None:
        self.name = name
        self._queue: queue.Queue = queue.Queue(maxsize=depth or context.stream_depth)
        self._deferred_lock = threading.Lock()
        self._deferred: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-stream-{name}", daemon=True
        )
        self._thread.start()
        with _streams_lock:
            _streams.append(self)

    # -- worker -------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is None:
                    return
                op_name, fn, handle = item
                try:
                    outputs = fn()
                except BaseException as exc:  # noqa: BLE001 - crosses threads
                    labelled = _attach_op_name(exc, op_name)
                    handle._settle_error(labelled)
                    with self._deferred_lock:
                        if self._deferred is None:
                            self._deferred = labelled
                else:
                    handle._settle_result(outputs)
            finally:
                self._queue.task_done()

    # -- submission ---------------------------------------------------------
    def enqueue(self, op_name: str, fn: Callable, handle: PendingHandle) -> None:
        """Append one op; blocks when the stream is ``depth`` ops ahead."""
        self._queue.put((op_name, fn, handle))

    # -- synchronization ----------------------------------------------------
    def drain(self) -> None:
        """Block until every op enqueued so far has finished executing."""
        self._queue.join()

    def take_deferred(self) -> Optional[BaseException]:
        """Pop the stream's deferred error, if one is still undelivered.

        An error already delivered through a tensor observation is not
        delivered a second time here.
        """
        with self._deferred_lock:
            deferred, self._deferred = self._deferred, None
        if deferred is not None and getattr(deferred, "_repro_delivered", False):
            return None
        return deferred

    def sync(self) -> None:
        """Drain, then re-raise the deferred error if one is pending."""
        self.drain()
        deferred = self.take_deferred()
        if deferred is not None:
            deferred._repro_delivered = True  # type: ignore[attr-defined]
            raise deferred

    @property
    def pending_ops(self) -> int:
        """Approximate number of ops submitted but not yet completed."""
        return self._queue.unfinished_tasks

    def shutdown(self) -> None:
        """Stop the worker thread (used by tests; streams are daemonic)."""
        self._queue.put(None)
        self._thread.join(timeout=5)
        with _streams_lock:
            if self in _streams:
                _streams.remove(self)


def sync_all_streams() -> None:
    """Drain every execution stream and every in-flight remote op.

    This is the global synchronization point behind ``context.sync()``:
    after it returns, no asynchronously submitted op is still running.
    The first undelivered deferred error (local or remote) is re-raised;
    like TF's async executor, later errors from the same window are
    dropped once one has surfaced.
    """
    with _streams_lock:
        streams = list(_streams)
    with _remote_lock:
        remote = list(_remote_handles.values())
    for stream in streams:
        stream.drain()
    errors: list[BaseException] = []
    _collect_sync_errors(streams, remote, errors)
    if errors:
        first = errors[0]
        first._repro_delivered = True  # type: ignore[attr-defined]
        raise first


def drain_all_streams() -> None:
    """Wait for every stream's queue without delivering deferred errors.

    Used where a barrier is needed but an error eruption would be wrong
    (e.g. profiler shutdown); deferred errors stay queued for the next
    real synchronization point.  Remote handles are settled — their
    deadlines and retries run to completion here, so interceptors (the
    profiler's retry counts) observe them — but their errors, too, stay
    registered rather than raising.
    """
    with _streams_lock:
        streams = list(_streams)
    for stream in streams:
        stream.drain()
    with _remote_lock:
        remote = list(_remote_handles.values())
    for handle in remote:
        handle.wait()


def _collect_sync_errors(streams, remote, errors: list) -> None:
    for stream in streams:
        deferred = stream.take_deferred()
        if deferred is not None:
            errors.append(deferred)
    for handle in remote:
        try:
            handle.result()
        except BaseException as exc:  # noqa: BLE001 - re-raised by caller
            errors.append(exc)
