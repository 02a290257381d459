"""The unified op-dispatch core shared by eager and graph execution.

The paper's central claim (§4.1) is that imperative and staged
execution share one runtime: the same APIs and kernels serve both
modes, and staging wins only by amortizing per-op Python overhead.
This module is that shared runtime boundary.  Both the eager executor
(:mod:`repro.runtime.executor`) and the graph executor
(:mod:`repro.graph.executor`) funnel every kernel launch through
:meth:`DispatchCore.dispatch`, which

1. resolves the target device once via the shared placement rule
   (explicit request wins, else the device of the first non-CPU tensor
   input, else the CPU),
2. resolves the kernel through a cache keyed by ``(op_name,
   device_kind, input_dtypes)`` so the hot path is a single dict hit
   instead of registry probing per op, and
3. runs a small **interceptor stack** — the profiler, perf spans,
   test probes — as registered hooks rather than inlined ``if``
   checks.  With no interceptor registered the per-op cost of the
   whole mechanism is one emptiness check.

Gradient tapes are not interceptors: :func:`repro.runtime.executor.execute`
offers every op to the thread's active recorders by a direct
:func:`repro.runtime.records.record_operation` call, made only when the
recorder stack is non-empty (one more emptiness check).

Devices with their own execution path (remote devices, compilation-only
accelerators) participate through the uniform :meth:`Device.dispatch`
protocol instead of ad-hoc attribute probing.

Registering an interceptor::

    from repro.runtime import dispatch

    class CountOps(dispatch.OpInterceptor):
        name = "count-ops"
        modes = ("eager", "graph")   # which dispatch paths to observe

        def on_complete(self, op_name, attrs, inputs, outputs, device, token):
            ...

    interceptor = CountOps()
    dispatch.core.register_interceptor(interceptor)
    try:
        ...
    finally:
        dispatch.core.unregister_interceptor(interceptor)

``on_start`` runs immediately before the op executes and its return
value is passed back as ``token``; ``on_complete`` runs after outputs
exist (in registration-reverse order); ``on_error`` runs instead of
``on_complete`` when the op raises.  ``on_staged`` observes operations
being *staged* into a graph under construction (mode ``"stage"``),
where there is no device or kernel.
"""

from __future__ import annotations

import operator
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import (
    AlreadyExistsError,
    FailedPreconditionError,
    InternalError,
    NotFoundError,
)
from repro.ops import registry
from repro.runtime.context import context
from repro.runtime.device import Device
from repro.tensor import Tensor, TensorBase

__all__ = ["DispatchCore", "OpInterceptor", "core", "wrap_outputs"]

EAGER = "eager"
GRAPH = "graph"
STAGE = "stage"

_HANDLE_DTYPES = (dtypes.resource, dtypes.variant)
_NP_TO_DTYPE = dtypes._NP_TO_DTYPE
_new_tensor = object.__new__
_array_of = operator.attrgetter("_array")


class OpInterceptor:
    """Base class for dispatch hooks.  Override only what you need.

    ``modes`` selects which dispatch paths the interceptor observes:
    ``"eager"`` (imperative ops), ``"graph"`` (nodes of an executing
    graph), ``"stage"`` (ops being staged into a graph being built).
    """

    name: str = "interceptor"
    modes: tuple = (EAGER, GRAPH)

    def on_start(self, op_name: str, attrs: dict, inputs: Sequence, device: Device):
        """Called before the op executes; the return value is the token."""
        return None

    def on_complete(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        outputs: list,
        device: Device,
        token,
    ) -> None:
        """Called after the op's outputs exist."""

    def on_error(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        device: Device,
        token,
        exc: BaseException,
    ) -> None:
        """Called instead of ``on_complete`` when the op raises."""

    def on_staged(
        self, op_name: str, attrs: dict, inputs: Sequence, outputs: Sequence
    ) -> None:
        """Called when an op is staged into a graph under construction."""

    def on_retry(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        device: Device,
        attempt: int,
        exc: BaseException,
    ) -> None:
        """Called when a remote op failed transiently and will be retried.

        ``attempt`` is the 1-based number of the attempt that just
        failed with ``exc``; the next attempt follows after backoff.
        Observed regardless of ``modes`` — retries happen below the
        eager/graph split, inside the remote-execution layer.
        """


class DispatchCore:
    """The single kernel-dispatch implementation (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._interceptors: list[OpInterceptor] = []
        # Hot-path snapshots, swapped atomically on (un)registration.
        self.eager_interceptors: tuple = ()
        self.graph_interceptors: tuple = ()
        self.stage_interceptors: tuple = ()
        self.all_interceptors: tuple = ()
        # (op_name, device_kind, input_dtypes) -> kernel
        self._kernel_cache: dict = {}
        self._compilation_runner: Optional[Callable] = None
        self._cpu = context.cpu_device()  # fixed for the process
        registry.add_kernel_registration_listener(self.clear_kernel_cache)

    # -- interceptors ------------------------------------------------------
    def register_interceptor(self, interceptor: OpInterceptor) -> OpInterceptor:
        with self._lock:
            if interceptor in self._interceptors:
                raise AlreadyExistsError(
                    f"Interceptor {interceptor.name!r} is already registered"
                )
            self._interceptors.append(interceptor)
            self._rebuild_snapshots()
        return interceptor

    def unregister_interceptor(self, interceptor: OpInterceptor) -> None:
        with self._lock:
            try:
                self._interceptors.remove(interceptor)
            except ValueError:
                raise NotFoundError(
                    f"Interceptor {interceptor.name!r} is not registered"
                ) from None
            self._rebuild_snapshots()

    def _rebuild_snapshots(self) -> None:
        its = self._interceptors
        self.eager_interceptors = tuple(i for i in its if EAGER in i.modes)
        self.graph_interceptors = tuple(i for i in its if GRAPH in i.modes)
        self.stage_interceptors = tuple(i for i in its if STAGE in i.modes)
        self.all_interceptors = tuple(its)

    def interceptor_names(self, mode: Optional[str] = None) -> list[str]:
        if mode is None:
            return [i.name for i in self._interceptors]
        return [i.name for i in getattr(self, f"{mode}_interceptors")]

    # -- kernel resolution -------------------------------------------------
    def resolve_kernel(self, op_name: str, device_type: str, input_dtypes: tuple = ()):
        """Resolve (and cache) the kernel for one op signature."""
        key = (op_name, device_type, input_dtypes)
        kernel = self._kernel_cache.get(key)
        if kernel is None:
            kernel = registry.resolve_kernel(
                op_name,
                device_type,
                allow_soft_placement=context.soft_device_placement,
            )
            self._kernel_cache[key] = kernel
        return kernel

    def resolve_kernel_or_none(
        self, op_name: str, device_type: str, input_dtypes: tuple = ()
    ):
        try:
            return self.resolve_kernel(op_name, device_type, input_dtypes)
        except NotFoundError:
            return None

    def clear_kernel_cache(self) -> None:
        self._kernel_cache.clear()

    def kernel_cache_size(self) -> int:
        return len(self._kernel_cache)

    # -- device resolution -------------------------------------------------
    def resolve_device(self, explicit: Optional[str], inputs: Sequence) -> Device:
        """The shared placement rule for eager ops and graph nodes.

        An explicit request (a ``device(...)`` block eagerly, the node's
        pinned device in a graph) wins; otherwise the op runs where its
        first non-CPU tensor input lives; otherwise on the CPU.
        """
        if explicit is not None:
            return context.get_device(explicit)
        cpu = context.cpu_device()
        for t in inputs:
            if isinstance(t, Tensor) and t._device is not cpu:
                return t._device
        return cpu

    # -- compilation devices -----------------------------------------------
    @property
    def compilation_runner(self) -> Optional[Callable]:
        return self._compilation_runner

    def install_compilation_runner(self, runner: Optional[Callable]) -> None:
        """Install ``runner`` as the op runner of every compilation-only
        device (current and future).  ``None`` uninstalls.

        The XLA bridge calls it once, and both executors then reach
        compiled execution through the uniform :meth:`Device.dispatch`
        protocol.
        """
        self._compilation_runner = runner
        for dev in context.devices():
            if dev.requires_compilation:
                dev.set_op_runner(runner)

    # -- the dispatch path -------------------------------------------------
    def dispatch(
        self,
        op_name: str,
        inputs: Sequence,
        attrs: dict,
        device: Optional[Device] = None,
        explicit_device: Optional[str] = None,
        mode: str = EAGER,
    ) -> list:
        """Execute one primitive op; returns its outputs as a list.

        The only kernel-dispatch implementation in the system: eager
        ops, graph nodes, remote placements, and compiled accelerators
        all come through here.  An eager op is one frame: one loop over
        the inputs validates them, builds the dtype signature and finds
        the first non-CPU device; then the device scope, the kernel
        cache, the kernel and the output wrapping.  Gradient tapes are
        offered the op by the caller, ``execute``, not here.
        """
        if mode != EAGER:
            if device is None:
                device = self.resolve_device(explicit_device, inputs)
            interceptors = self.graph_interceptors
            if not interceptors:
                return self._dispatch_on(op_name, inputs, attrs, device, None)
            return self._intercepted(op_name, inputs, attrs, device, None, interceptors)

        cpu = self._cpu
        placed = None
        in_dtypes = []
        for t in inputs:
            if not isinstance(t, Tensor):
                raise self._not_eager(op_name, t)
            in_dtypes.append(t._dtype)
            if placed is None and t._device is not cpu:
                placed = t._device
        in_dtypes = tuple(in_dtypes)
        if device is None:
            scope = context._local.device_stack
            if scope and scope[-1] is not None:
                device = context.get_device(scope[-1])
            else:
                device = placed or cpu
        interceptors = self.eager_interceptors
        if interceptors:
            return self._intercepted(op_name, inputs, attrs, device, in_dtypes, interceptors)
        if device is not cpu or placed is not None or cpu._special_dispatch:
            return self._dispatch_on(op_name, inputs, attrs, device, in_dtypes)
        # Every input already lives on the CPU the op runs on.
        kernel = self._kernel_cache.get((op_name, cpu.device_type, in_dtypes))
        if kernel is None:
            kernel = self.resolve_kernel(op_name, cpu.device_type, in_dtypes)
        return wrap_outputs(kernel(list(map(_array_of, inputs)), attrs, cpu), cpu)

    def _intercepted(
        self,
        op_name: str,
        inputs: Sequence,
        attrs: dict,
        device: Device,
        in_dtypes: Optional[tuple],
        interceptors: tuple,
    ) -> list:
        """Dispatch with the interceptors' full contract around the op."""
        tokens = [it.on_start(op_name, attrs, inputs, device) for it in interceptors]
        try:
            outputs = self._dispatch_on(op_name, inputs, attrs, device, in_dtypes)
        except BaseException as exc:
            for it, token in zip(reversed(interceptors), reversed(tokens)):
                it.on_error(op_name, attrs, inputs, device, token, exc)
            raise
        for it, token in zip(reversed(interceptors), reversed(tokens)):
            it.on_complete(op_name, attrs, list(inputs), outputs, device, token)
        return outputs

    def _dispatch_on(
        self,
        op_name: str,
        inputs: Sequence,
        attrs: dict,
        device: Device,
        in_dtypes: Optional[tuple],
    ) -> list:
        # Devices with their own execution path (remote, compiled).
        if device._special_dispatch:
            outputs = device.dispatch(op_name, inputs, attrs)
            if outputs is not None:
                return list(outputs)

        if in_dtypes is None:
            in_dtypes = tuple(t._dtype for t in inputs)
        kernel = self.resolve_kernel(op_name, device.device_type, in_dtypes)

        arrays = []
        for t in inputs:
            if t._device is not device and t._dtype not in _HANDLE_DTYPES:
                # Transparent cross-device input copy (paper Listing 5);
                # resource/variant handles pass by reference, never copied.
                buf = device.allocate(t._array)
                t = Tensor._from_buffer(buf, t._dtype, device)
            arrays.append(t._array)

        return wrap_outputs(kernel(arrays, attrs, device), device)

    @staticmethod
    def _not_eager(op_name: str, value) -> Exception:
        """The error for a non-concrete input to an eager op."""
        if isinstance(value, TensorBase):
            # A symbolic tensor leaking into eager execution means the
            # user returned a traced value out of its graph context.
            return FailedPreconditionError(
                f"Operation {op_name!r} received the symbolic tensor {value!r} "
                "outside of its graph-building context. Symbolic tensors "
                "are only usable inside the function being traced."
            )
        return InternalError(
            f"Operation {op_name!r} received non-tensor input {value!r}; "
            "API functions must convert inputs before calling execute()"
        )

    # -- staging -----------------------------------------------------------
    def notify_staged(
        self, op_name: str, attrs: dict, inputs: Sequence, outputs: Sequence
    ) -> None:
        """Offer a just-staged op to the ``"stage"``-mode interceptors."""
        for it in self.stage_interceptors:
            it.on_staged(op_name, attrs, inputs, outputs)

    # -- retries -----------------------------------------------------------
    def notify_retry(
        self,
        op_name: str,
        attrs: dict,
        inputs: Sequence,
        device: Device,
        attempt: int,
        exc: BaseException,
    ) -> None:
        """Tell interceptors a remote op is being retried after ``exc``.

        Called by the distribution layer's retry loop so cross-cutting
        observers (the profiler) see retries without the retry policy
        knowing about any of them.
        """
        for it in self.all_interceptors:
            it.on_retry(op_name, attrs, inputs, device, attempt, exc)


def wrap_outputs(results, device: Device) -> list:
    """Normalize one kernel launch's return value into a list of Tensors.

    The launch and its output buffers are accounted on ``device`` under
    one lock acquisition (:meth:`Device.adopt`).
    """
    if type(results) is np.ndarray or isinstance(results, Tensor):
        results = [results]
    elif results is None:
        results = []
    elif isinstance(results, (np.ndarray, np.generic)) or np.isscalar(results):
        results = [np.asarray(results)]
    else:
        results = list(results)
        for i, r in enumerate(results):
            if type(r) is not np.ndarray and not isinstance(r, Tensor):
                results[i] = np.asarray(r)
    device.adopt(results, launches=1)
    outputs = []
    for r in results:
        if isinstance(r, Tensor):
            outputs.append(r)
            continue
        dtype = _NP_TO_DTYPE.get(r.dtype)
        t = _new_tensor(Tensor)
        t._array = r
        t._dtype = dtype if dtype is not None else dtypes.as_dtype(r.dtype)
        t._device = device
        outputs.append(t)
    return outputs


core = DispatchCore()
