"""The TPU execution path.

The simulated TPU "expects" compiled programs only, so this module
bridges the runtime to the compiler:

* **Per-operation execution** — "It is possible to run single
  operations on a TPU using TensorFlow Eager ... but the overhead of
  compiling operations for TPU and dispatching the generated code is
  significant" (paper §4.4).  Each distinct (op, signature) becomes a
  one-op graph function (cached) that compiles once, but *every
  execution* pays the program-launch overhead — the mechanism behind
  Table 1's slow imperative rows.

* **Whole-function execution** — a ``PartitionedCall`` landing on the
  TPU compiles the callee into a single program; one launch then covers
  the entire training step ("when amortized over a large graph
  function, this overhead becomes negligible").

Both reach the compiler through
:func:`repro.xla.compiler.executable_for`, so the executables sit on the
graph functions they were compiled from, not in this module.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.framework.errors import UnimplementedError
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.device import Device
from repro.tensor import TensorSpec
from repro.graph.function import GraphFunction
from repro.xla.compiler import executable_for

__all__ = ["install", "uninstall", "compile_cache_stats"]

_op_cache: dict = {}  # (op, signature, attrs) -> one-op GraphFunction
_cache_lock = threading.Lock()
_stats = {"op_compiles": 0, "launches": 0}


def compile_cache_stats() -> dict:
    return dict(_stats)


def _signature(inputs) -> tuple:
    return tuple((t.dtype, t.shape.as_tuple()) for t in inputs)


def _attr_cache_key(attrs: dict) -> tuple:
    items = []
    for k in sorted(attrs):
        v = attrs[k]
        if isinstance(v, np.ndarray):
            items.append((k, ("ndarray", v.shape, str(v.dtype), v.tobytes())))
        elif callable(v) or hasattr(v, "graph"):
            # Sound as a key: the cached one-op function's node holds
            # ``v``, so its address is not reused while the entry lives.
            items.append((k, ("object", id(v))))
        else:
            items.append((k, repr(v)))
    return tuple(items)


def _single_op_function(op_name: str, inputs, attrs: dict) -> GraphFunction:
    """Build (or fetch) the one-op function for an eager TPU dispatch."""
    key = (op_name, _signature(inputs), _attr_cache_key(attrs))
    with _cache_lock:
        fn = _op_cache.get(key)
    if fn is not None:
        return fn
    from repro.core.tracing import FuncGraph
    from repro.runtime.executor import execute

    graph = FuncGraph(name=f"tpu_{op_name}")
    with graph.as_default():
        phs = [
            graph.add_input(TensorSpec(t.shape, t.dtype), name=f"arg_{i}")
            for i, t in enumerate(inputs)
        ]
        outputs = execute(op_name, phs, attrs)
    if not isinstance(outputs, tuple):
        outputs = (outputs,) if outputs is not None else ()
    fn = GraphFunction(f"tpu_{op_name}", graph, inputs=phs, outputs=list(outputs))
    with _cache_lock:
        fn = _op_cache.setdefault(key, fn)
        _stats["op_compiles"] += 1
    return fn


def run_op_on_tpu(device: Device, op_name: str, inputs: Sequence, attrs: dict) -> list:
    """The compiled-op runner installed into the eager executor."""
    inputs = list(inputs)
    if op_name == "PartitionedCall":
        fn = attrs["f"]
    else:
        if not registry.has_kernel(op_name, "CPU"):
            raise UnimplementedError(
                f"Operation {op_name!r} has no compilable kernel"
            )
        fn = _single_op_function(op_name, inputs, attrs)
    outputs = executable_for(fn, inputs).run(inputs, device)
    _stats["launches"] += 1
    return outputs


def install() -> None:
    """Register the TPU bridge as the op runner of every compilation
    device — the device-level hook both executors reach through the
    uniform :meth:`Device.dispatch` protocol."""
    dispatch.core.install_compilation_runner(run_op_on_tpu)


def uninstall() -> None:
    dispatch.core.install_compilation_runner(None)


def reset_caches() -> None:
    with _cache_lock:
        _op_cache.clear()
        _stats.update({"op_compiles": 0, "launches": 0})
