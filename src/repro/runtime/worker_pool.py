"""Shared-memory multiprocess device workers: kernels off the GIL.

The paper's eager runtime overlaps kernels because its C++ executor
runs them off the Python thread; a NumPy reproduction cannot — every
kernel holds the GIL, so threads inside one process serialize (which is
why eager ops and graph nodes both run on the calling thread; DESIGN.md
§8).  This module gives each simulated GPU device a *worker process*
running its kernel loop: the dispatching thread blocks on pipe IPC (GIL
released) while the child computes.  The overlap comes from the paper's
own §4.5 recipe — one Python thread per device, as
``DataParallelStrategy`` runs its replicas — so two user threads pinned
to two GPU devices buy real wall-clock time on multi-core hosts.

Mechanics
---------
* One forked worker process per GPU device, spawned lazily on first
  dispatch and keyed by device name.  One in-flight request per worker
  (a per-worker lock); parallelism comes from multiple devices.
* Tensors cross the boundary as ``multiprocessing.shared_memory``
  views; small arrays (< 64 KiB) are inlined in the pickled message
  where a segment would cost more than it saves.  The parent always
  creates *and* unlinks every segment, so abnormal exits cannot leak
  past the dispatching call.
* The child resolves kernels from its fork-inherited registry under
  the dispatching backend, so per-backend kernels work cross-process.
* Only *shippable* ops cross: stateless, side-effect-free, numeric
  inputs, pickle-safe attrs.  Everything else (variable ops, random
  ops, ``py_func``, fused regions with compiled closures) returns
  ``None`` from the runner and falls back to the in-parent kernel path
  — the ``Device.dispatch`` protocol's existing delegation.  Stateful
  ordering is therefore preserved for free: shipped ops complete
  synchronously within their dispatch, and program order / control
  edges already order the parent-side stateful ops around them.
* Errors are marshalled as ``(module, qualname, message)`` and
  re-raised in the parent at the dispatch site with their original
  type.
* Teardown keeps the wedged-join row of the request-queue lifecycle
  (:mod:`repro.runtime.workqueue`, DESIGN.md §7.1) without being one —
  there is no queue and no serve thread here, the caller blocks on the
  pipe: idempotent shutdown, ``terminate()`` as the last resort, and
  :class:`InternalError` when even that cannot reap the child in time,
  so an abnormal exit can never hang pytest.

Gate: ``context.process_devices`` / ``REPRO_PROCESS_DEVICES``
(default off).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import traceback
from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InternalError, UnavailableError
from repro.ops import registry

__all__ = [
    "apply_process_devices",
    "maybe_install_runner",
    "shutdown_workers",
    "worker_stats",
]

# Arrays below this many bytes ride inside the pickled message; above
# it they go through a shared-memory segment (one copy in, zero-copy
# map in the child).
INLINE_BYTES = 1 << 16

_HANDLE_DTYPES = (dtypes.resource, dtypes.variant)

_ATTR_SCALARS = (type(None), bool, int, float, str, bytes)

_pool_lock = threading.Lock()
_workers: dict[str, "DeviceWorker"] = {}
# (op_name, input_dtypes) -> bool, plus ops the child reported it
# cannot marshal back (object-dtype outputs).
_ship_cache: dict = {}
_child_deny: set[str] = set()


# With fork (Linux), parent and children share one resource-tracker
# process, so segment accounting balances naturally: whoever creates a
# segment registers it, and the parent's unlink unregisters it — even
# for child-created output segments.  Under spawn each side has its own
# tracker, so the child must untrack segments the parent will unlink
# (and the parent registers before unlinking child-created ones).
_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _untrack(shm: shared_memory.SharedMemory) -> None:
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
    except Exception:
        pass


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without perturbing resource-tracker books.

    Python ≤3.11 registers with the resource tracker on *attach* as well
    as on create.  With fork the attaching side shares the creator's
    tracker, whose name cache is a set — the duplicate add is a no-op
    and the single ``unlink`` balances it, so nothing to undo.  Under
    spawn the attach pollutes the attaching side's *own* tracker (which
    will never see the unlink), so there the spurious entry is removed
    by hand.  3.12+ exposes ``track=False`` and sidesteps all of this.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        shm = shared_memory.SharedMemory(name=name)
        if not _HAS_FORK:
            _untrack(shm)
        return shm


def _marshal_array(arr: np.ndarray, segments: list, in_child: bool = False):
    # NOT ascontiguousarray: that would silently promote 0-d to 1-d.
    arr = np.asarray(arr, order="C")
    if arr.nbytes < INLINE_BYTES:
        # Strip backend array subclasses: the child rebuilds plain
        # buffers and the parent re-adopts outputs through the backend.
        return ("inline", np.asarray(arr).view(np.ndarray))
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    if in_child and not _HAS_FORK:
        _untrack(shm)  # the parent's tracker owns it from here
    segments.append(shm)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    del view
    return ("shm", shm.name, arr.dtype.str, arr.shape)


def _open_array(msg, opened: list) -> np.ndarray:
    """Child side: map a marshalled input without copying."""
    if msg[0] == "inline":
        return msg[1]
    _, name, dtype_str, shape = msg
    shm = _attach(name)
    opened.append(shm)
    return np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)


def _copy_out(msg) -> np.ndarray:
    """Parent side: materialize a marshalled output, then free it."""
    if msg[0] == "inline":
        arr = msg[1]
        if arr.base is not None:
            # Unpickled arrays may view a `bytes` buffer; downstream
            # aliasing checks expect ndarray (or None) bases.
            arr = arr.copy()
        return arr
    _, name, dtype_str, shape = msg
    shm = _attach(name)
    if not _HAS_FORK:
        try:
            from multiprocessing import resource_tracker

            resource_tracker.register(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    try:
        out = np.array(
            np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        )
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
    return out


def _rebuild_error(module: str, qualname: str, message: str, tb: str):
    """Reconstruct a child-side exception type in the parent.

    Keeps error-type parity with in-process execution (ValueError from a
    kernel stays a ValueError); anything that cannot be rebuilt becomes
    InternalError carrying the child traceback.
    """
    try:
        import importlib

        cls = importlib.import_module(module)
        for part in qualname.split("."):
            cls = getattr(cls, part)
        exc = cls(message)
        if isinstance(exc, BaseException):
            return exc
    except Exception:
        pass
    return InternalError(
        f"device worker raised {module}.{qualname}: {message}\n{tb}"
    )


# ---------------------------------------------------------------------------
# Child process
# ---------------------------------------------------------------------------

def _serve_one(msg, conn) -> bool:
    """Handle one request; returns False when the loop should exit."""
    if msg is None or msg[0] == "exit":
        return False
    if msg[0] == "ping":
        conn.send(("pong", os.getpid()))
        return True
    _, op_name, device_name, backend_name, payload, attrs = msg
    opened: list = []
    segments: list = []
    arrays = outs = results = None
    reply = None
    try:
        try:
            from repro.runtime.context import context

            device = context.get_device(device_name)
            kernel = registry.resolve_kernel(
                op_name, device.device_type, backend=backend_name
            )
            arrays = [_open_array(m, opened) for m in payload]
            results = kernel(arrays, attrs, device)
            if results is None:
                outs = []
            elif isinstance(results, np.ndarray) or np.isscalar(results):
                outs = [results]
            else:
                outs = list(results)
            outs = [np.asarray(o, order="C") for o in outs]
            if any(o.dtype == object for o in outs):
                reply = ("unsup", "object-dtype output")
            else:
                marshalled = [
                    _marshal_array(o, segments, in_child=True) for o in outs
                ]
                # The parent copies out and unlinks; the child's handles
                # close as soon as the reply is on the wire.
                reply = ("ok", os.getpid(), marshalled)
        except BaseException as exc:
            reply = (
                "err",
                type(exc).__module__,
                type(exc).__qualname__,
                str(exc),
                traceback.format_exc(),
            )
        # Drop array views before closing their segments (a mapped
        # buffer with exported views refuses to close).
        del payload, msg
        arrays = outs = results = None  # noqa: F841
        conn.send(reply)
        if reply[0] == "ok":
            for shm in segments:
                shm.close()
    finally:
        for shm in opened:
            try:
                shm.close()
            except BufferError:
                pass
    return True


def _worker_main(conn, device_name: str) -> None:
    """Kernel loop of one device worker (runs in the forked child)."""
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if not _serve_one(msg, conn):
                break
    finally:
        try:
            conn.close()
        except OSError:
            pass
        # Skip atexit handlers: they belong to the parent (this
        # module's own shutdown hook, worker servers).
        os._exit(0)


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

class DeviceWorker:
    """Parent-side handle to one device's kernel-loop process."""

    def __init__(self, device_name: str) -> None:
        self.device_name = device_name
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._request_lock = threading.Lock()  # one in-flight request
        self._lifecycle_lock = threading.Lock()
        self._shutdown = False
        self._dead = False
        self.ops_shipped = 0
        self.last_exec_pid: Optional[int] = None
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, device_name),
            name=f"repro-device-worker-{device_name}",
            daemon=True,
        )
        if _HAS_FORK:
            # Start the resource tracker *before* forking so the child
            # inherits its pipe: segment registration then balances in a
            # single tracker regardless of which side creates a segment.
            # Forked after the fact, the child would lazily spawn a
            # second tracker whose books never reconcile with ours.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.ensure_running()
            except Exception:
                pass
        self._proc.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    def _recv(self):
        """Receive a reply, failing fast if the child died.

        Polling with a liveness check means a killed worker raises
        UnavailableError instead of hanging the dispatching thread (and
        pytest) forever.
        """
        while True:
            if self._conn.poll(0.05):
                return self._conn.recv()
            if not self._proc.is_alive():
                self._dead = True
                raise UnavailableError(
                    f"Device worker for {self.device_name} died "
                    f"(exit code {self._proc.exitcode}) while executing"
                )

    def run_op(self, op_name: str, arrays: Sequence[np.ndarray], attrs: dict):
        """Execute one op in the worker; returns output arrays.

        Returns ``None`` when the child judged the op unsupported (the
        caller falls back to the in-parent kernel path — the op is
        stateless, so re-execution is safe).
        """
        from repro.runtime.context import context

        segments: list = []
        with self._request_lock:
            if self._shutdown or self._dead:
                raise UnavailableError(
                    f"Device worker for {self.device_name} is not running"
                )
            try:
                payload = [_marshal_array(a, segments) for a in arrays]
                self._conn.send(
                    (
                        "op",
                        op_name,
                        self.device_name,
                        context._kernel_backend,
                        payload,
                        attrs,
                    )
                )
                reply = self._recv()
            except (BrokenPipeError, EOFError, OSError):
                self._dead = True
                raise UnavailableError(
                    f"Device worker for {self.device_name} disconnected "
                    f"during {op_name!r}"
                ) from None
            finally:
                for shm in segments:
                    try:
                        shm.close()
                        shm.unlink()
                    except Exception:
                        pass
        if reply[0] == "ok":
            self.ops_shipped += 1
            self.last_exec_pid = reply[1]
            return [_copy_out(m) for m in reply[2]]
        if reply[0] == "unsup":
            _child_deny.add(op_name)
            return None
        _, module, qualname, message, tb = reply
        raise _rebuild_error(module, qualname, message, tb)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Idempotent teardown with a hard join deadline.

        A wedged child is terminated, and if even SIGTERM cannot reap it
        within the timeout an :class:`InternalError` names the worker
        instead of letting pytest hang on interpreter exit.
        """
        with self._lifecycle_lock:
            if self._shutdown:
                return
            self._shutdown = True
        with self._request_lock:
            try:
                self._conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(timeout)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout)
            try:
                self._conn.close()
            except OSError:
                pass
        if self._proc.is_alive():
            raise InternalError(
                f"Device worker for {self.device_name} did not exit within "
                f"{timeout} s of shutdown; a kernel is likely wedged"
            )


def _worker_for(device) -> DeviceWorker:
    name = device.name
    with _pool_lock:
        worker = _workers.get(name)
        if worker is not None and (worker._dead or worker._shutdown):
            # Crashed or explicitly stopped: reap and respawn so one
            # lost worker degrades a single dispatch, not the device.
            try:
                worker.shutdown(timeout=1.0)
            except InternalError:
                pass
            worker = None
            _workers.pop(name, None)
        if worker is None:
            worker = DeviceWorker(name)
            _workers[name] = worker
        return worker


def _attrs_shippable(value) -> bool:
    if isinstance(value, _ATTR_SCALARS):
        return True
    if isinstance(value, (list, tuple)):
        return all(_attrs_shippable(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype != object
    if isinstance(value, (np.generic, dtypes.DType)):
        return True
    from repro.framework.tensor_shape import TensorShape

    return isinstance(value, TensorShape)


def _shippable(op_name: str, inputs, attrs: dict) -> bool:
    """Can this op run in a worker process?  Stateful and side-effecting
    ops (function calls, py_func, variables) stay in program order in
    the parent, and so do ops whose attrs are not plain data (a fused
    region carries its ``FusionRegion``)."""
    from repro.tensor import Tensor

    if op_name in _child_deny:
        return False
    in_dtypes = []
    for t in inputs:
        # Pending (lazy) tensors pass: reading `_array` later forces
        # them, exactly as the in-parent kernel path would.
        if not isinstance(t, Tensor):
            return False
        if t._dtype in _HANDLE_DTYPES:
            return False
        in_dtypes.append(t._dtype)
    key = (op_name, tuple(in_dtypes))
    cached = _ship_cache.get(key)
    if cached is None:
        try:
            op_def = registry.get_op_def(op_name)
        except Exception:
            op_def = None
        cached = (
            op_def is not None
            and not op_def.is_stateful
            and not op_def.has_side_effects
        )
        _ship_cache[key] = cached
    if not cached:
        return False
    return all(_attrs_shippable(v) for v in attrs.values())


def _process_runner(device, op_name: str, inputs, attrs):
    """The ``Device.dispatch`` runner for process-backed devices.

    Returns ``None`` to delegate non-shippable ops back to the shared
    in-parent kernel path.
    """
    if not _shippable(op_name, inputs, attrs):
        return None
    worker = _worker_for(device)
    arrays = [t._array for t in inputs]
    device.count_kernel_launch()
    outs = worker.run_op(op_name, arrays, attrs)
    if outs is None:
        return None
    from repro.runtime.context import context
    from repro.runtime.dispatch import wrap_outputs

    if context._kernel_backend != "numpy":
        backend = context.array_backend()
        outs = [backend.from_host(o) for o in outs]
    return wrap_outputs(outs, device)


def _eligible(device) -> bool:
    return (
        device.device_type == "GPU"
        and not device.requires_compilation
        and getattr(device.spec, "job", None) == "localhost"
    )


def maybe_install_runner(device) -> bool:
    """Make ``device`` process-backed if it is a local GPU without its
    own runner already (remote devices keep their worker runner)."""
    if not _eligible(device) or (
        device.op_runner is not None and device.op_runner is not _process_runner
    ):
        return False
    device.set_op_runner(_process_runner)
    return True


def _uninstall_runner(device) -> None:
    if device.op_runner is _process_runner:
        device.set_op_runner(None)


def apply_process_devices(enable: bool) -> None:
    """Install or remove the process runner on every local GPU device.

    Workers spawn lazily on first dispatch; disabling shuts them down.
    """
    from repro.runtime.context import context

    for dev in context.devices():
        if enable:
            maybe_install_runner(dev)
        else:
            _uninstall_runner(dev)
    if not enable:
        shutdown_workers()


def shutdown_workers(timeout: float = 5.0) -> None:
    """Stop every worker process.  Idempotent; raises InternalError
    (after attempting all of them) if any worker refused to die."""
    with _pool_lock:
        workers = list(_workers.values())
        _workers.clear()
    failures = []
    for worker in workers:
        try:
            worker.shutdown(timeout)
        except InternalError as exc:
            failures.append(exc)
    if failures:
        raise failures[0]


def worker_stats() -> dict:
    """Per-device worker diagnostics (pids, shipped-op counts)."""
    with _pool_lock:
        return {
            name: {
                "pid": w.pid,
                "alive": w._proc.is_alive(),
                "ops_shipped": w.ops_shipped,
                "last_exec_pid": w.last_exec_pid,
            }
            for name, w in _workers.items()
        }


@atexit.register
def _shutdown_at_exit() -> None:
    try:
        shutdown_workers(timeout=2.0)
    except Exception:
        pass
