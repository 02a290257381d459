"""Compilation of graph functions to executable accelerator programs.

There is one road from a staged function to a program, whoever asks —
``function(jit_compile=True)`` or a ``PartitionedCall`` placed on a
compilation-only device: :func:`executable_for` looks the executable up
in the cache the :class:`~repro.graph.function.GraphFunction` itself
owns, and compiles on a miss.

A :class:`CompiledExecutable` is the analogue of an XLA executable: a
flat schedule of (fused) instructions, printed as straight-line code
(:mod:`repro.graph.printer`).  Executing one computes real values with
NumPy on the host (our "accelerator" is simulated) and charges the
device's **simulated clock** one launch overhead plus the program's
roofline cost, ``max(flops/throughput, bytes/bandwidth)`` summed over
its instructions (the :class:`~repro.xla.hlo.HloComputation` it keeps).

Per the paper's methodology (§6), compilation itself is a one-time cost
"usually amortized over a number of runs"; it is tracked on the
executable (``compile_time_us``) but never charged to the clock.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import UnimplementedError
from repro.runtime.device import Device
from repro.tensor import Tensor, TensorSpec
from repro.graph import fusion as graph_fusion
from repro.graph import printer
from repro.graph.function import GraphFunction
from repro.xla import hlo

__all__ = ["CompiledExecutable", "compile_function", "executable_for"]

_HANDLE_DTYPES = (dtypes.resource, dtypes.variant)


def _listed(kernel):
    """``kernel``'s result as a list of arrays (a printed ``n`` step)."""

    def run(arrays, device):
        results = kernel(arrays, device)
        if isinstance(results, (np.ndarray, Tensor)) or np.isscalar(results):
            results = [results]
        return [r._array if isinstance(r, Tensor) else np.asarray(r) for r in results or ()]

    return run


class CompiledExecutable:
    """An executable program for a simulated accelerator."""

    def __init__(self, computation: hlo.HloComputation, compile_time_us: float) -> None:
        self.computation = computation
        self.compile_time_us = compile_time_us
        self._schedule = [
            i for i in computation.instructions if i.opcode != "Parameter"
        ]
        self.num_launch_instructions = len(self._schedule)
        self._root_dtypes = [
            computation.instructions[i].output_specs[slot].dtype
            for i, slot in computation.roots
        ]
        params = [i for i in computation.instructions if i.opcode == "Parameter"]
        stmts = []
        for i in self._schedule:
            outs = tuple((i.index, slot) for slot in range(len(i.output_specs)))
            binding = (None, None, None, _listed(i.kernel))
            stmts.append(("n", i.opcode, tuple(i.operands), outs, None, binding))
        fed = [(i.index, 0) for i in params]
        self._fns, self._size, index = printer.print_pieces(
            stmts, fed, computation.roots, {}, {}
        )
        self._params = [(i.attrs["parameter_number"], index[(i.index, 0)]) for i in params]
        self._roots = [index[root] for root in computation.roots]
        self._cost_us: dict = {}  # device -> launch overhead + Σ program_cost_us

    def execute(self, arrays: Sequence[np.ndarray], device: Device) -> list[np.ndarray]:
        """Run the program; charges one launch on the device's clock."""
        s = [None] * self._size
        for pnum, i in self._params:
            s[i] = arrays[pnum]
        for fn in self._fns:
            fn(s, device)
        cost = self._cost_us.get(device)
        if cost is None:
            cm = device.cost_model
            cost = cm.launch_overhead_us
            for i in self._schedule:
                cost += cm.program_cost_us(i.flops, i.bytes_accessed)
            self._cost_us[device] = cost
        device.charge_simulated_time(cost)
        device.count_kernel_launch()
        return [s[i] for i in self._roots]

    def run(self, inputs: Sequence[Tensor], device: Device) -> list[Tensor]:
        """:meth:`execute` over tensors: inputs held elsewhere are copied
        to ``device`` (handles pass by reference), outputs live on it."""
        arrays = [
            t._array
            if t._device is device or t._dtype in _HANDLE_DTYPES
            else device.allocate(t._array)
            for t in inputs
        ]
        return [
            Tensor._from_buffer(
                arr if dtype in _HANDLE_DTYPES else device.wrap_output(arr),
                dtype,
                device,
            )
            for arr, dtype in zip(self.execute(arrays, device), self._root_dtypes)
        ]

    def __repr__(self) -> str:
        return (
            f"<CompiledExecutable {self.computation.name!r}: "
            f"{self.num_launch_instructions} instructions, "
            f"{self.computation.total_flops:.0f} flops>"
        )


def compile_function(fn: GraphFunction, name: Optional[str] = None) -> CompiledExecutable:
    """Compile a graph function into an accelerator executable.

    Operation fusion (paper §4.4) is the graph clusterer's: ``fn``'s
    fused regions are lowered as they are, and a function with none
    (fusion off, or built by hand) is fused on a private clone, so
    ``fn`` and its plan are never touched.  Compilation is
    *shape-monomorphic* (the roofline model needs every dimension): a
    symbolic trace is specialized to concrete shapes first
    (:meth:`repro.core.pipeline.CompilationPipeline.compile`), one
    executable per shape (:func:`executable_for`).
    """
    for spec in fn.input_specs:
        if not spec.is_fully_defined:
            raise UnimplementedError(
                f"Cannot compile {fn.name!r}: input {spec} has unknown "
                "dimensions. XLA requires static shapes; specialize the "
                "function to concrete shapes first (see "
                "CompilationPipeline.compile(fn, input_specs=...))."
            )
    start = time.perf_counter()
    if not graph_fusion.has_fused_nodes(fn):
        fn = graph_fusion.defuse_function(fn)  # a replay clone
        graph_fusion.fuse_function(fn)
    computation = hlo.lower(fn, name=name)
    compile_time_us = (time.perf_counter() - start) * 1e6
    return CompiledExecutable(computation, compile_time_us=compile_time_us)


def executable_for(fn: GraphFunction, inputs: Sequence[Tensor]) -> CompiledExecutable:
    """The executable that runs ``fn`` on ``inputs``, compiled on first use.

    Executables live in ``fn.executables`` only, dying with the function
    and going with its plan: key ``None`` for a static signature, else
    the concrete input shapes.  A function XLA-sim cannot compile (e.g.
    a ``py_func`` inside) stores the reason, raised as
    ``UnimplementedError`` on every request without compiling again.
    """
    key = None
    if not all(spec.is_fully_defined for spec in fn.input_specs):
        key = tuple(t.shape.as_tuple() for t in inputs)
    exe = fn.executables.get(key)
    if exe is None:
        from repro.core.pipeline import CompilationPipeline

        with fn._build_lock:
            exe = fn.executables.get(key)
            if exe is None:
                try:
                    exe = CompilationPipeline().compile(
                        fn,
                        input_specs=[TensorSpec(t.shape, t.dtype) for t in inputs],
                    )
                except UnimplementedError as exc:
                    exe = str(exc)
                fn.executables[key] = exe
    if isinstance(exe, str):
        raise UnimplementedError(exe)
    return exe
