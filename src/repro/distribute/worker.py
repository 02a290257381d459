"""Worker servers and remote devices.

A :class:`WorkerServer` owns the devices of one cluster task and
processes operation requests on a dedicated thread.  Placing an op on a
remote device name routes it through the devices' ``Device.dispatch``
runner: the request (op name, inputs, attrs) crosses the worker's
queue, the worker thread runs the dispatch core's shared kernel path,
and the outputs come back as tensors *resident on the remote device* —
"tensors produced as the result of running an operation on a remote
device stay on the remote device.  Users can then either perform more
operations on these tensors or copy them to the central server" (paper
§4.5).

Whole graph functions execute remotely the same way, because a graph
function call is just the ``PartitionedCall`` operation.  Concurrent
computations on different workers proceed in parallel (each worker has
its own request loop), matching §4.5's note that developers start
communicating computations concurrently, e.g. with Python threads.

The remote-execution boundary is also where robustness lives (the same
stance as gRPC-based TensorFlow).  The queue, deadline-carrying future,
fault hook, ``kill`` and shutdown escalation are
:class:`repro.runtime.workqueue.WorkQueue`'s (DESIGN.md §7.1); what is
added here:

* the request **deadline** defaults to ``context.rpc_deadline_ms`` and
  is overridable per call;
* **idempotent** ops (ops not marked stateful in the registry) are
  retried under the :class:`~repro.runtime.workqueue.RetryPolicy`; each
  retry is announced through ``dispatch.core.notify_retry`` so
  interceptors (the profiler) observe it;
* :meth:`WorkerServer.ping` is a queue-crossing **health check**: a
  stalled or dead worker reports unhealthy within the ping timeout.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from repro.framework.errors import DeadlineExceededError, NotFoundError
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context
from repro.runtime.device import Device, DeviceSpec
from repro.runtime.workqueue import (
    RequestFuture,
    RetryPolicy,
    WorkQueue,
    call_with_retries,
    get_retry_policy,
    set_retry_policy,
)
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


def _is_idempotent(op_name: str) -> bool:
    try:
        return not registry.get_op_def(op_name).is_stateful
    except NotFoundError:
        return False


# -- remote devices ---------------------------------------------------------


def _remote_op_runner(device: "RemoteDevice", op_name: str, inputs, attrs: dict):
    """The ``Device.dispatch`` hook of a worker's devices.

    From a client thread the op is shipped to the owning worker, which
    runs it on its serve thread.  Idempotent ops are retried under the
    retry policy while the worker is still up; each retry is reported
    to the dispatch core's interceptors.

    Called *on* that serve thread — the shipped op itself, or an op in
    the body of a remote graph-function call — it answers ``None``: run
    the shared kernel path right here (re-enqueueing would deadlock the
    single-threaded request loop).
    """
    server = device.server
    if threading.current_thread() is server._thread:
        server.ops_served += 1  # single writer: only the serve thread
        return None
    inputs = list(inputs)
    if not _is_idempotent(op_name):
        return server.run_op(device, op_name, inputs, attrs)
    return call_with_retries(
        lambda: server.run_op(device, op_name, inputs, attrs),
        lambda: server.alive,
        lambda attempt, exc: dispatch.core.notify_retry(
            op_name, attrs, inputs, device, attempt, exc
        ),
    )


class RemoteDevice(Device):
    """A device owned by a worker; operations are shipped to its server."""

    def __init__(self, spec: DeviceSpec, server: "WorkerServer") -> None:
        super().__init__(spec)
        self.server = server
        self.set_op_runner(_remote_op_runner)


# -- worker servers ---------------------------------------------------------


class _Request:
    """One queue-crossing request: a thunk plus its reply future."""

    __slots__ = ("op_name", "fn", "future")

    def __init__(self, op_name: str, fn: Callable, future: RequestFuture) -> None:
        self.op_name = op_name
        self.fn = fn
        self.future = future


class WorkerServer(WorkQueue):
    """One cluster task: a device set plus a request-processing thread.

    The queue, future, fault hook, ``kill`` and shutdown escalation are
    :class:`~repro.runtime.workqueue.WorkQueue`'s.  The queue is
    unbounded because each client thread blocks on its one reply: its
    length never exceeds the client count.
    """

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
        super().__init__(f"Worker {self.address!r}", f"worker-{job}-{task}")
        self.devices: dict[str, RemoteDevice] = {}
        self._add_device("CPU", 0)
        for i in range(num_gpus):
            self._add_device("GPU", i)
        #: Ops executed on this worker's devices (health checks excluded).
        self.ops_served = 0
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

    # -- requests -----------------------------------------------------------
    def _execute_batch(self, batch: list) -> None:
        (request,) = batch
        try:
            if self._fault_step(request.op_name):
                request.future._settle(request.fn())
        except BaseException as exc:  # noqa: BLE001 - crosses threads
            request.future._fail(exc)

    def _request(
        self, op_name: str, fn: Callable, timeout_ms: Optional[float]
    ) -> RequestFuture:
        future = RequestFuture(timeout_ms)
        self._enqueue(_Request(op_name, fn, future))
        return future

    def run_op(
        self,
        device: RemoteDevice,
        op_name: str,
        inputs: list[Tensor],
        attrs: dict,
        deadline_ms: Optional[float] = None,
    ) -> list[Tensor]:
        """Enqueue one operation; blocks until the worker replies.

        The worker thread runs the op through the dispatch core's shared
        kernel path — the cached, soft-placement-aware resolution local
        ops get.

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
        future = self._request(
            op_name,
            lambda: dispatch.core._dispatch_on(op_name, inputs, attrs, device, None),
            deadline_ms,
        )
        try:
            return future.result()
        except DeadlineExceededError:
            if future.done():
                raise  # the request's own failure (e.g. a nested remote call)
            raise DeadlineExceededError(
                f"Operation {op_name!r} on worker {self.address!r} did not "
                f"complete within its {deadline_ms:g} ms deadline"
            ) from None

    # -- health -------------------------------------------------------------
    def ping(self, timeout_ms: float = 1000.0) -> bool:
        """Round-trip a no-op request through the worker's queue.

        Returns False when the worker is shut down, killed, stalled, or
        otherwise unable to answer within ``timeout_ms``.  The ping
        passes through any installed fault hook, so injected stalls and
        drops make the worker report unhealthy — exactly what a health
        check is for.
        """
        try:
            return self._request(HEALTH_CHECK_OP, lambda: True, timeout_ms).result()
        except Exception:  # noqa: BLE001 - health checks never raise
            return False

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker; idempotent, and never leaves callers hanging.

        Pending and concurrently-submitted requests fail with
        :class:`~repro.framework.errors.UnavailableError`.  Raises
        :class:`~repro.framework.errors.InternalError` if the serve
        thread does not terminate within ``timeout`` seconds (e.g. a
        wedged kernel), so deadlocks surface instead of leaking threads.
        """
        self.close(drain=False, timeout=timeout)

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
