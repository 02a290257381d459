"""The global runtime context.

"During program startup, the runtime detects the devices that are
available to the machine, and makes it possible to both execute
operations on them and store data on them" (paper §4.4).

The :class:`Context` singleton owns:

* the device registry (one CPU, plus simulated GPUs and TPUs),
* the thread-local *device stack* pushed by the ``device(...)``
  context manager,
* the thread-local *graph-building stack* used by the tracer (§4.6) —
  when non-empty, operations are staged into the innermost graph
  instead of executed,
* per-device random number generators with a global seed,
* a resolver hook through which the distribution layer
  (:mod:`repro.distribute`) exposes remote devices by name, and
* the process-global configuration knobs, declared once in
  :data:`KNOBS`.
"""

from __future__ import annotations

import os
import sys
import threading
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from repro.framework.errors import InvalidArgumentError, NotFoundError
from repro.runtime.device import Device, DeviceSpec, local_device_spec

__all__ = [
    "Context",
    "KNOBS",
    "Knob",
    "context",
    "device",
    "executing_eagerly",
    "execution_mode",
    "list_devices",
    "set_random_seed",
    "sync",
]


class _ThreadLocalStacks(threading.local):
    def __init__(self) -> None:
        self.device_stack: list[str] = []
        self.graph_stack: list = []  # innermost graph builder last
        # Graph-stack depths at each active init_scope entry: graphs
        # pushed *after* entering the scope are still visible.
        self.init_scope_marks: list[int] = []


def _dispatch_core():
    """The dispatch core, if its module has finished importing.

    Lazy (and bootstrap-safe): :mod:`repro.runtime.dispatch` imports this
    module, so we must not import it back at module level.
    """
    mod = sys.modules.get("repro.runtime.dispatch")
    return getattr(mod, "core", None)


# -- the knob table ---------------------------------------------------------
class Knob(NamedTuple):
    """One process-global setting ``context.<name>``, kept in the plain
    attribute ``context._<name>`` so hot paths read it with one load."""

    name: str
    env: tuple  # variables read once, when the Context is constructed
    kind: str  # "bool", "int", "float" or "mode": see _validated
    default: object
    doc: str
    #: ``on_change(context, old_value)`` runs after a setter changed the
    #: value; if it raises, the old value is put back.
    on_change: Optional[Callable] = None


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


def _env_bool(env: str) -> bool:
    """A boolean variable; strict, so a typo cannot silently mean "off"."""
    raw = os.environ.get(env, "")
    word = raw.strip().lower()
    if word not in _TRUE + _FALSE:
        raise InvalidArgumentError(
            f"{env} must be one of 1/true/yes/on or 0/false/no/off, got {raw!r}"
        )
    return word in _TRUE


def _number(cast, value, source: str):
    try:
        return cast(value)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise InvalidArgumentError(f"{source} must be {kind}, got {value!r}") from None


def _validated(knob: Knob, value, source: str):
    """``value`` coerced to the knob's kind; ``source`` names it in errors."""
    if knob.kind == "bool":
        return bool(value)
    if knob.kind == "mode":
        if value not in ("sync", "lazy"):
            raise InvalidArgumentError(
                f'{source} must be "sync" or "lazy", got {value!r}'
            )
    elif knob.kind == "int":  # a count: >= 1
        value = _number(int, value, source)
        if value < 1:
            raise InvalidArgumentError(f"{source} must be >= 1, got {value}")
    elif value is not None:  # "float": a positive duration, None for none
        value = _number(float, value, source)
        if value <= 0:
            raise InvalidArgumentError(f"{source} must be positive or None, got {value}")
    return value


def _from_env(knob: Knob):
    """The knob's startup value: its environment variable, else its default."""
    if knob.kind == "mode":  # its variable is a boolean selecting lazy
        return "lazy" if _env_bool(knob.env[0]) else knob.default
    if not knob.env or knob.env[0] not in os.environ:
        return knob.default
    env = knob.env[0]
    if knob.kind == "bool":
        return _env_bool(env)
    raw = os.environ[env]
    if knob.kind == "float":  # a non-positive variable means None
        value = _number(float, raw, env)
        return value if value > 0 else None
    return _validated(knob, raw, env)


def _sync_on_leaving_lazy_mode(ctx: "Context", old: str) -> None:
    if old == "lazy":
        ctx.sync()


def _clear_kernel_cache(ctx: "Context", old: bool) -> None:
    core = _dispatch_core()
    if core is not None:
        # Cached kernel resolutions embed the placement policy.
        core.clear_kernel_cache()


KNOBS = (
    Knob(
        "executor_mode", ("REPRO_LAZY_EAGER",), "mode", "sync",
        """``"sync"`` or ``"lazy"`` eager execution.

        Selects the eager policy behind ``execute()`` (paper §4.1;
        :mod:`repro.runtime.executor` describes the two): run each op's
        kernel before returning, or record it into a lazy trace that
        runs as one compiled, fused segment when a value is observed.
        Process-global, like TF's ``executor``: switch it between
        training phases, not per-thread.  Leaving lazy mode first
        flushes recorded segments (raising any deferred error).
        """,
        _sync_on_leaving_lazy_mode,
    ),
    Knob(
        "soft_device_placement", (), "bool", True,
        "Fall back to CPU kernels for ops without an accelerator kernel.",
        _clear_kernel_cache,
    ),
    Knob(
        "rpc_deadline_ms", ("REPRO_RPC_DEADLINE_MS",), "float", 30000.0,
        """Default per-request deadline for remote-worker operations.

        ``None`` disables deadlines: remote requests wait forever, the
        pre-fault-tolerance behaviour.  Individual requests can override
        it via the ``deadline_ms`` argument of ``WorkerServer.run_op``.
        """,
    ),
    Knob(
        "trace_cache_size", ("REPRO_TRACE_CACHE_SIZE",), "int", 256,
        """LRU bound on every trace cache, both levels counted.

        Bounds each ``Function``'s exact and relaxed traces together,
        and the artifact cache's compiled segments and traces likewise.  Keeps
        shape-diverse serving traffic from growing a cache (and the
        compiled artifacts hanging off each trace) without limit.
        Applies on each cache's next insert.
        """,
    ),
    Knob(
        "graph_fusion", ("REPRO_GRAPH_FUSION",), "bool", True,
        """Whether the default graph pipeline fuses elementwise regions.

        When on, the optimizer's ``fuse`` pass collapses elementwise
        chains/DAGs into single-dispatch ``FusedElementwise`` nodes and
        the executor's static memory plan donates dying input buffers
        in place.  Applies to traces and execution plans built
        afterwards; planned functions keep the plan they were built with.
        """,
    ),
    Knob(
        "recompute", ("REPRO_RECOMPUTE",), "bool", True,
        """Whether ``recompute_grad`` wrappers actually checkpoint.

        When off every wrapper is an identity, so one flip A/Bs the
        memory/compute trade on an unmodified model.  Applies to calls
        made afterwards; a staged trace keeps what it was traced with.
        """,
    ),
)


def _knob_property(knob: Knob) -> property:
    attr = "_" + knob.name

    def setter(self: "Context", value) -> None:
        value = _validated(knob, value, knob.name)
        old = getattr(self, attr)
        if value == old:
            return
        setattr(self, attr, value)
        if knob.on_change is not None:
            try:
                knob.on_change(self, old)
            except BaseException:
                setattr(self, attr, old)
                raise

    origin = " / ".join(f"``{env}``" for env in knob.env)
    doc = f"{knob.doc.rstrip()}\n\n        Default {knob.default!r}"
    doc += f", initialised from {origin}." if origin else "."
    return property(attrgetter(attr), setter, doc=doc)


class Context:
    """Process-global runtime state.  Use the :data:`context` singleton."""

    def __init__(self, num_gpus: int = 1, num_tpus: int = 1) -> None:
        self._devices: dict[str, Device] = {}
        self._local = _ThreadLocalStacks()
        self._seed: Optional[int] = None
        self._rngs: dict[str, np.random.Generator] = {}
        self._rng_lock = threading.Lock()
        self._remote_resolver: Optional[Callable[[str], Optional[Device]]] = None
        self._uid_lock = threading.Lock()
        self._uid = 0
        for knob in KNOBS:
            setattr(self, "_" + knob.name, _from_env(knob))
        self._initialize_local_devices(num_gpus=num_gpus, num_tpus=num_tpus)

    def reset_knobs(self) -> None:
        """Set every knob back to its startup value (environment, else
        default) through its setter, so ``on_change`` effects apply."""
        for knob in KNOBS:
            setattr(self, knob.name, _from_env(knob))

    def sync(self) -> None:
        """Run every op recorded in lazy mode to completion.

        Flushes the pending lazy traces of all threads and re-raises the
        first undelivered deferred error, with the op name attached.  A
        no-op when nothing was ever recorded.
        """
        lazy_mod = sys.modules.get("repro.runtime.lazy")
        if lazy_mod is not None:
            lazy_mod.sync_lazy()

    # -- devices -----------------------------------------------------------
    def _initialize_local_devices(self, num_gpus: int, num_tpus: int) -> None:
        self.add_device(Device(local_device_spec("CPU", 0)))
        for i in range(num_gpus):
            self.add_device(Device(local_device_spec("GPU", i)))
        for i in range(num_tpus):
            self.add_device(Device(local_device_spec("TPU", i)))

    def add_device(self, dev: Device) -> None:
        self._devices[dev.name] = dev
        if dev.requires_compilation and dev.op_runner is None:
            core = _dispatch_core()
            if core is not None and core.compilation_runner is not None:
                dev.set_op_runner(core.compilation_runner)

    def list_devices(self) -> list[str]:
        """Names of all devices the runtime is aware of (paper §4.4)."""
        return sorted(self._devices)

    def devices(self) -> list[Device]:
        """All Device objects the runtime is aware of."""
        return list(self._devices.values())

    def set_remote_device_resolver(
        self, resolver: Optional[Callable[[str], Optional[Device]]]
    ) -> None:
        """Installed by the distribution layer to resolve remote names."""
        self._remote_resolver = resolver

    def get_device(self, name: str) -> Device:
        """Resolve a (possibly partial) device name to a Device."""
        spec = DeviceSpec.from_string(name) if isinstance(name, str) else name
        merged = spec.make_merged_spec(self.default_device_spec())
        full = merged.to_string()
        if full in self._devices:
            return self._devices[full]
        if self._remote_resolver is not None:
            dev = self._remote_resolver(full)
            if dev is not None:
                return dev
        raise NotFoundError(f"Unknown device: {name!r} (resolved to {full!r})")

    def default_device_spec(self) -> DeviceSpec:
        return local_device_spec("CPU", 0)

    def cpu_device(self) -> Device:
        cached = self.__dict__.get("_cpu_device")
        if cached is None:
            cached = self._devices[local_device_spec("CPU", 0).to_string()]
            self.__dict__["_cpu_device"] = cached
        return cached

    # -- device stack ----------------------------------------------------
    def current_device_name(self) -> Optional[str]:
        """Innermost explicitly-requested device name, if any."""
        stack = self._local.device_stack
        return stack[-1] if stack else None

    def push_device(self, name: Optional[str]) -> None:
        self._local.device_stack.append(name)  # type: ignore[arg-type]

    def pop_device(self) -> None:
        self._local.device_stack.pop()

    # -- graph-building stack ---------------------------------------------
    def current_graph(self):
        """Innermost graph builder, or None when executing eagerly.

        An active ``init_scope`` (paper §4.7) pauses the traces that
        were active when it was entered; graph-building contexts opened
        *inside* the scope still apply.
        """
        stack = self._local.graph_stack
        if not stack:
            return None
        marks = self._local.init_scope_marks
        if marks and len(stack) <= marks[-1]:
            return None
        return stack[-1]

    def graph_stack(self) -> list:
        return self._local.graph_stack

    def push_graph(self, graph) -> None:
        self._local.graph_stack.append(graph)

    def pop_graph(self) -> None:
        self._local.graph_stack.pop()

    def executing_eagerly(self) -> bool:
        return self.current_graph() is None

    def enter_init_scope(self) -> None:
        self._local.init_scope_marks.append(len(self._local.graph_stack))

    def exit_init_scope(self) -> None:
        self._local.init_scope_marks.pop()

    # -- randomness -------------------------------------------------------
    def set_random_seed(self, seed: Optional[int]) -> None:
        """Set the global seed; resets every device's generator."""
        self._seed = seed
        with self._rng_lock:
            self._rngs.clear()

    def rng_for_device(self, device_name: str) -> np.random.Generator:
        with self._rng_lock:
            if device_name not in self._rngs:
                if self._seed is None:
                    self._rngs[device_name] = np.random.default_rng()
                else:
                    # Derive a distinct, deterministic stream per device.
                    self._rngs[device_name] = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=self._seed,
                            spawn_key=(hash(device_name) & 0xFFFFFFFF,),
                        )
                    )
            return self._rngs[device_name]

    # -- misc ---------------------------------------------------------------
    def unique_id(self) -> int:
        with self._uid_lock:
            self._uid += 1
            return self._uid


for _knob in KNOBS:
    setattr(Context, _knob.name, _knob_property(_knob))

context = Context()


class device:
    """Context manager pinning operations to a device (Listing 5).

    Accepts shorthand (``"/gpu:0"``) or full names, including remote
    names like ``"/job:training/task:2/device:GPU:0"`` (§4.5).  ``None``
    pushes an "unspecified" frame that re-enables automatic placement
    inside an outer pinned block.
    """

    def __init__(self, name: Optional[str]) -> None:
        if name is not None:
            # Validate eagerly so typos fail at the `with` statement.
            DeviceSpec.from_string(name)
        self._name = name

    def __enter__(self) -> "device":
        context.push_device(self._name)
        graph = context.current_graph()
        if graph is not None and hasattr(graph, "push_device"):
            graph.push_device(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        graph = context.current_graph()
        if graph is not None and hasattr(graph, "pop_device"):
            graph.pop_device()
        context.pop_device()


def executing_eagerly() -> bool:
    """True when ops run immediately rather than being staged."""
    return context.executing_eagerly()


def list_devices() -> list[str]:
    """List the names of all devices known to the runtime (§4.4)."""
    return context.list_devices()


def set_random_seed(seed: Optional[int]) -> None:
    """Set the global random seed for all stateful random operations."""
    context.set_random_seed(seed)


def sync() -> None:
    """Run every op recorded in lazy eager mode to completion.

    The explicit synchronization point of lazy mode: flushes the
    recorded segments of all threads and re-raises the first deferred
    kernel error nobody observed.  A no-op in sync mode.
    """
    context.sync()


class execution_mode:
    """Context manager running a block under ``"sync"`` or ``"lazy"``.

    ::

        with execution_mode("lazy"):
            y = model(x)          # ops are recorded; flushed when observed
        # exiting restores the previous mode (flushing first when
        # leaving lazy mode)

    The underlying knob is process-global (see
    :attr:`Context.executor_mode`); use this from the coordinating
    thread only.
    """

    def __init__(self, mode: str) -> None:
        self._mode = mode
        self._previous: Optional[str] = None

    def __enter__(self) -> "execution_mode":
        self._previous = context.executor_mode
        context.executor_mode = self._mode
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            context.executor_mode = self._previous
            if self._mode == "lazy" and self._previous == "lazy":
                # Restoring lazy over lazy makes the setter a no-op, but
                # leaving the block is still a synchronization point.
                context.sync()
        except BaseException:
            if exc_type is None:
                raise
            # An error is already propagating out of the block; the
            # flush-on-exit deferred error must not mask it.
