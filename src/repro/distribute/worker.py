"""Worker servers, remote devices, and the fault-tolerance layer.

A :class:`WorkerServer` owns the devices of one cluster task and
processes operation requests on a dedicated thread.  Placing an op on a
remote device name routes it through :meth:`RemoteDevice.execute_op`:
the request (op name, inputs, attrs) crosses the worker's queue, the
worker dispatches the kernel on its own thread, and the outputs come
back as tensors *resident on the remote device* — "tensors produced as
the result of running an operation on a remote device stay on the
remote device.  Users can then either perform more operations on these
tensors or copy them to the central server" (paper §4.5).

Whole graph functions execute remotely the same way, because a graph
function call is just the ``PartitionedCall`` operation.  Concurrent
computations on different workers proceed in parallel (each worker has
its own request loop), matching §4.5's note that developers start
communicating computations concurrently, e.g. with Python threads.

The remote-execution boundary is also where robustness lives (the same
stance as gRPC-based TensorFlow):

* every request carries a **deadline** (``context.rpc_deadline_ms``,
  overridable per call); a request that does not complete in time
  raises :class:`~repro.framework.errors.DeadlineExceededError` on the
  client, never hangs;
* **idempotent** ops (ops not marked stateful in the registry) are
  retried with exponential backoff + jitter under the module's
  :class:`RetryPolicy`; each retry is announced through
  ``dispatch.core.notify_retry`` so interceptors (the profiler) observe
  it;
* ``shutdown()`` / ``kill()`` **drain** the request queue and fail
  pending futures with :class:`~repro.framework.errors.UnavailableError`
  — a request racing a shutdown gets a clear error instead of waiting
  on a future nobody will complete;
* :meth:`WorkerServer.ping` is a queue-crossing **health check**: a
  stalled or dead worker reports unhealthy within the ping timeout;
* a fault hook (see :mod:`repro.distribute.fault_injection`) lets tests
  and chaos benchmarks drop, delay, or fail requests and kill workers.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from concurrent.futures import CancelledError, Future, InvalidStateError
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import (
    AbortedError,
    DeadlineExceededError,
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
)
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context
from repro.runtime.device import Device, DeviceSpec
from repro.tensor import Tensor

__all__ = [
    "WorkerServer",
    "RemoteDevice",
    "RetryPolicy",
    "connect_to_cluster",
    "shutdown_cluster",
    "get_retry_policy",
    "set_retry_policy",
]

#: Pseudo-op name used by health-check requests.  Fault hooks see it
#: like any other op, so an injected stall makes pings fail too.
HEALTH_CHECK_OP = "__health_check__"

#: Sentinel returned by a fault hook to drop the request (the future is
#: never completed; the client's deadline converts that into
#: DeadlineExceededError).
DROP_REQUEST = "drop"


# -- retry policy -----------------------------------------------------------

_jitter_rng = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient remote failures.

    Applied only to idempotent ops — ops whose registry definition is
    not stateful.  Variable mutations, random ops, and graph-function
    calls (conservatively stateful) are never retried: a retry after a
    deadline could apply their side effect twice.

    Attributes:
        max_attempts: total attempts, including the first.
        initial_backoff_ms: sleep before the first retry.
        multiplier: backoff growth factor per attempt.
        max_backoff_ms: backoff ceiling.
        jitter: each backoff is scaled by a uniform factor in
            ``[1 - jitter, 1 + jitter]`` to decorrelate retry storms.
        retryable: exception types worth retrying.
    """

    max_attempts: int = 3
    initial_backoff_ms: float = 2.0
    multiplier: float = 2.0
    max_backoff_ms: float = 1000.0
    jitter: float = 0.25
    retryable: tuple = (UnavailableError, DeadlineExceededError, AbortedError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidArgumentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0 <= self.jitter <= 1:
            raise InvalidArgumentError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff before the retry following failed attempt ``attempt``."""
        base = min(
            self.initial_backoff_ms * self.multiplier ** (attempt - 1),
            self.max_backoff_ms,
        )
        scale = 1.0 + self.jitter * _jitter_rng.uniform(-1.0, 1.0)
        return base * scale / 1000.0


_retry_policy: Optional[RetryPolicy] = RetryPolicy()


def get_retry_policy() -> Optional[RetryPolicy]:
    """The retry policy applied to idempotent remote ops (None: no retries)."""
    return _retry_policy


def set_retry_policy(policy: Optional[RetryPolicy]) -> Optional[RetryPolicy]:
    """Install ``policy`` for remote-op retries; returns the previous one."""
    global _retry_policy
    previous, _retry_policy = _retry_policy, policy
    return previous


def _is_idempotent(op_name: str) -> bool:
    try:
        return not registry.get_op_def(op_name).is_stateful
    except NotFoundError:
        return False


# -- remote devices ---------------------------------------------------------


def _remote_op_runner(device: "RemoteDevice", op_name: str, inputs, attrs: dict):
    """The Device.dispatch protocol hook shipping ops to the worker."""
    return device.execute_op(op_name, list(inputs), attrs)


class RemoteDevice(Device):
    """A device owned by a worker; operations are shipped to its server."""

    def __init__(self, spec: DeviceSpec, server: "WorkerServer") -> None:
        super().__init__(spec)
        self._server = server
        self.set_op_runner(_remote_op_runner)

    @property
    def server(self) -> "WorkerServer":
        return self._server

    def execute_op(self, op_name: str, inputs: Sequence[Tensor], attrs: dict):
        """Ship the op to the owning worker and wait for its outputs.

        Ops issued *from* the worker's own thread (the body of a remote
        graph-function call) dispatch directly — re-enqueueing would
        deadlock the single-threaded request loop.

        Idempotent ops are retried under the module retry policy when
        the worker is still up and the failure was transient; each
        retry is reported to the dispatch core's interceptors.
        """
        server = self._server
        if threading.current_thread() is server._thread:
            return server._dispatch(self, op_name, list(inputs), attrs)
        inputs = list(inputs)
        policy = _retry_policy
        if policy is None or policy.max_attempts <= 1 or not _is_idempotent(op_name):
            return server.run_op(self, op_name, inputs, attrs)
        attempt = 1
        while True:
            try:
                return server.run_op(self, op_name, inputs, attrs)
            except policy.retryable as exc:
                # Retrying a worker that is gone for good cannot help;
                # surface the failure to the caller (e.g. the strategy's
                # degradation logic) immediately.
                if attempt >= policy.max_attempts or not server.is_running:
                    raise
                dispatch.core.notify_retry(op_name, attrs, inputs, self, attempt, exc)
                time.sleep(policy.backoff_seconds(attempt))
                attempt += 1


# -- worker servers ---------------------------------------------------------


@dataclass
class _Request:
    """One queue-crossing request: a thunk plus its reply future."""

    op_name: str
    fn: Callable
    future: Future = field(default_factory=Future)


def _fail_future(future: Future, exc: BaseException) -> None:
    """Complete ``future`` with ``exc``, tolerating a client that already
    cancelled it (its deadline fired while the request sat in the queue)."""
    if future.cancelled():
        return
    try:
        future.set_exception(exc)
    except InvalidStateError:
        pass  # lost the race with a concurrent cancel


class WorkerServer:
    """One cluster task: a device set plus a request-processing thread."""

    def __init__(
        self,
        job: str,
        task: int,
        num_gpus: int = 0,
        address: Optional[str] = None,
    ) -> None:
        self.job = job
        self.task = task
        self.address = address or f"local://{job}/{task}"
        self.devices: dict[str, RemoteDevice] = {}
        self._add_device("CPU", 0)
        for i in range(num_gpus):
            self._add_device("GPU", i)
        self._requests: queue.Queue = queue.Queue()
        self._ops_served = 0
        self._stats_lock = threading.Lock()
        # Serializes submissions against shutdown: `_running` may only
        # flip to False under this lock, so a request admitted under it
        # is either served or failed by the shutdown drain — never left
        # on the queue with nobody to complete its future.
        self._lifecycle_lock = threading.Lock()
        self._fault_hook: Optional[Callable[[str], Optional[str]]] = None
        self._shutdown_reason: Optional[str] = None
        self._thread = threading.Thread(
            target=self._serve, name=f"worker-{job}-{task}", daemon=True
        )
        self._running = True
        self._thread.start()

    def _add_device(self, device_type: str, index: int) -> None:
        spec = DeviceSpec(
            job=self.job,
            replica=0,
            task=self.task,
            device_type=device_type,
            device_index=index,
        )
        self.devices[spec.to_string()] = RemoteDevice(spec, self)

    # -- request loop -------------------------------------------------------
    def _serve(self) -> None:
        while True:
            item = self._requests.get()
            if item is None:
                return
            if not item.future.set_running_or_notify_cancel():
                continue  # the client's deadline fired; skip the work
            if not self._running:
                # Picked up while a kill/shutdown drain is in progress.
                item.future.set_exception(self._unavailable_error())
                continue
            hook = self._fault_hook
            if hook is not None:
                try:
                    action = hook(item.op_name)
                except BaseException as exc:  # noqa: BLE001 - crosses threads
                    item.future.set_exception(exc)
                    continue
                if action == DROP_REQUEST:
                    continue  # never answered; the client's deadline fires
                if not self._running:
                    # The hook killed this worker (chaos testing).
                    item.future.set_exception(self._unavailable_error())
                    continue
            try:
                item.future.set_result(item.fn())
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                item.future.set_exception(exc)

    def _submit(self, op_name: str, fn: Callable) -> Future:
        request = _Request(op_name, fn)
        with self._lifecycle_lock:
            if not self._running:
                raise self._unavailable_error()
            self._requests.put(request)
        return request.future

    def run_op(
        self,
        device: RemoteDevice,
        op_name: str,
        inputs: list[Tensor],
        attrs: dict,
        deadline_ms: Optional[float] = None,
    ) -> list[Tensor]:
        """Enqueue one operation; blocks until the worker replies.

        Args:
            deadline_ms: per-request deadline; defaults to
                ``context.rpc_deadline_ms``.  When the worker does not
                answer in time, raises
                :class:`~repro.framework.errors.DeadlineExceededError`
                instead of hanging.  Pass ``0`` (or set the context
                default to ``None``) to wait without a deadline.
        """
        if deadline_ms is None:
            deadline_ms = context.rpc_deadline_ms
        elif deadline_ms <= 0:
            deadline_ms = None
        future = self._submit(
            op_name, lambda: self._dispatch(device, op_name, inputs, attrs)
        )
        timeout = None if deadline_ms is None else deadline_ms / 1000.0
        try:
            return future.result(timeout)
        except DeadlineExceededError:
            raise  # a nested remote call timed out; keep its message
        except _FutureTimeoutError:
            future.cancel()
            raise DeadlineExceededError(
                f"Operation {op_name!r} on worker {self.address!r} did not "
                f"complete within its {deadline_ms:g} ms deadline"
            ) from None
        except CancelledError:
            raise self._unavailable_error() from None

    def _dispatch(
        self, device: RemoteDevice, op_name: str, inputs: list[Tensor], attrs: dict
    ) -> list[Tensor]:
        with self._stats_lock:
            self._ops_served += 1
        if registry.has_kernel(op_name, device.device_type):
            kernel = registry.get_kernel(op_name, device.device_type)
        elif registry.has_kernel(op_name, "CPU"):
            kernel = registry.get_kernel(op_name, "CPU")
        else:
            raise NotFoundError(
                f"Worker {self.address!r} has no kernel for {op_name!r}"
            )
        arrays = []
        for t in inputs:
            if t.device_object is not device and t.dtype not in (
                dtypes.resource,
                dtypes.variant,
            ):
                # Input transfer onto the worker's device.
                buf = device.allocate(np.asarray(t.numpy()))
                t = Tensor._from_buffer(buf, t.dtype, device)
            arrays.append(t._array)
        device.count_kernel_launch()
        results = kernel(arrays, attrs, device)
        if results is None:
            results = []
        elif isinstance(results, (Tensor, np.ndarray)) or np.isscalar(results):
            results = [results]
        outputs = []
        for r in results:
            if isinstance(r, Tensor):
                outputs.append(r)
            else:
                arr = r if isinstance(r, np.ndarray) else np.asarray(r)
                buf = device.wrap_output(arr)
                outputs.append(
                    Tensor._from_buffer(buf, dtypes.as_dtype(arr.dtype), device)
                )
        return outputs

    @property
    def ops_served(self) -> int:
        with self._stats_lock:
            return self._ops_served

    @property
    def is_running(self) -> bool:
        return self._running

    # -- health -------------------------------------------------------------
    def ping(self, timeout_ms: float = 1000.0) -> bool:
        """Round-trip a no-op request through the worker's queue.

        Returns False when the worker is shut down, killed, stalled, or
        otherwise unable to answer within ``timeout_ms``.  The ping
        passes through any installed fault hook, so injected stalls and
        drops make the worker report unhealthy — exactly what a health
        check is for.
        """
        if not self._running:
            return False
        try:
            future = self._submit(HEALTH_CHECK_OP, lambda: True)
            return future.result(timeout_ms / 1000.0) is True
        except BaseException:  # noqa: BLE001 - health checks never raise
            return False

    # -- fault injection ----------------------------------------------------
    def install_fault_hook(
        self, hook: Optional[Callable[[str], Optional[str]]]
    ) -> None:
        """Install (or with ``None`` remove) a per-request fault hook.

        The hook runs on the worker thread before each request with the
        op name; it may sleep (inject latency), raise (fail the
        request), return :data:`DROP_REQUEST` (never answer), or call
        :meth:`kill` (simulate a crash).  See
        :mod:`repro.distribute.fault_injection` for the high-level API.
        """
        self._fault_hook = hook

    # -- lifecycle ----------------------------------------------------------
    def _unavailable_error(self) -> UnavailableError:
        reason = self._shutdown_reason or "shut down"
        return UnavailableError(f"Worker {self.address!r} is {reason}")

    def _terminate(self, reason: str) -> bool:
        """Stop accepting work and fail everything pending.

        Returns True for the call that performed the termination, False
        for idempotent repeats.
        """
        with self._lifecycle_lock:
            if not self._running:
                return False
            self._running = False
            self._shutdown_reason = reason
            # Drain pending requests: each future gets a clear error
            # instead of waiting forever on a dead server.  The serve
            # thread may race us for individual items; whichever side
            # gets an item completes its future (for the serve thread,
            # also with UnavailableError once `_running` is False).
            while True:
                try:
                    item = self._requests.get_nowait()
                except queue.Empty:
                    break
                if item is not None:
                    _fail_future(item.future, self._unavailable_error())
            self._requests.put(None)  # stop the serve loop
        return True

    def shutdown(self) -> None:
        """Stop the worker; idempotent, and never leaves callers hanging.

        Pending and concurrently-submitted requests fail with
        :class:`~repro.framework.errors.UnavailableError`.  Raises
        :class:`~repro.framework.errors.InternalError` if the serve
        thread does not terminate within 5 seconds (e.g. a wedged
        kernel), so deadlocks surface instead of leaking threads.
        """
        self._terminate("shut down")
        if threading.current_thread() is self._thread:
            return  # self-shutdown from a served op; the loop exits next
        self._thread.join(timeout=5)
        if self._thread.is_alive():
            raise InternalError(
                f"Worker {self.address!r} serve thread did not terminate "
                "within 5 s of shutdown; a kernel is likely wedged"
            )

    def kill(self) -> None:
        """Simulate an abrupt worker crash (fault injection).

        Like :meth:`shutdown` but does not wait for the serve thread:
        pending requests fail with ``UnavailableError`` and in-flight
        clients see their deadline expire or an error, the same
        observable behaviour as a remote task dying.
        """
        self._terminate("dead (killed)")

    def __repr__(self) -> str:
        return f"<WorkerServer /job:{self.job}/task:{self.task} ({len(self.devices)} devices)>"


# -- cluster wiring ---------------------------------------------------------

_active_workers: list[WorkerServer] = []
_worker_lock = threading.Lock()


def connect_to_cluster(cluster_spec, gpus_per_worker: int = 0) -> list[WorkerServer]:
    """Bring up a worker server per task and expose their devices.

    After this call, remote device names like
    ``/job:training/task:2/device:GPU:0`` resolve through the runtime's
    device lookup, so ``with repro.device(name):`` places operations on
    the worker (paper §4.5: "the user uses the same syntax as for local
    devices").
    """
    workers: list[WorkerServer] = []
    for job in cluster_spec.jobs:
        for task in range(cluster_spec.num_tasks(job)):
            workers.append(
                WorkerServer(
                    job,
                    task,
                    num_gpus=gpus_per_worker,
                    address=cluster_spec.task_address(job, task),
                )
            )
    with _worker_lock:
        _active_workers.extend(workers)
    context.set_remote_device_resolver(_resolve_remote_device)
    return workers


def _resolve_remote_device(full_name: str) -> Optional[Device]:
    with _worker_lock:
        for worker in _active_workers:
            device = worker.devices.get(full_name)
            if device is not None:
                return device
    return None


def shutdown_cluster(workers: Optional[Sequence[WorkerServer]] = None) -> None:
    """Stop workers and remove their devices from the runtime.

    Args:
        workers: the servers to stop (e.g. one ``connect_to_cluster``
            result when several clusters are up); ``None`` stops every
            active worker.  The remote-device resolver stays installed
            until the last active worker is gone, so other clusters keep
            resolving.
    """
    with _worker_lock:
        if workers is None:
            stopping = list(_active_workers)
            _active_workers.clear()
        else:
            stopping = [w for w in workers if w in _active_workers]
            for w in stopping:
                _active_workers.remove(w)
        last_cluster_gone = not _active_workers
    for worker in stopping:
        worker.shutdown()
    if last_cluster_gone:
        context.set_remote_device_resolver(None)
