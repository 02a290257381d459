"""Compilation of graph functions to executable accelerator programs.

There is one road from a staged function to a program, whoever asks —
``function(jit_compile=True)`` or a ``PartitionedCall`` placed on a
compilation-only device: :func:`executable_for` looks the executable up
in the cache the :class:`~repro.graph.function.GraphFunction` itself
owns, and compiles on a miss.

A :class:`CompiledExecutable` is the analogue of an XLA executable: a
flat schedule of (fused) instructions with all graph analysis done at
compile time.  Executing one:

* computes real values with NumPy on the host (our "accelerator" is
  simulated), and
* charges the owning device's **simulated clock** one program-launch
  overhead plus the program's modelled compute time
  (``max(flops/throughput, bytes/bandwidth)`` per instruction — a
  roofline model).

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
from repro.graph.function import GraphFunction
from repro.xla import hlo

__all__ = ["CompiledExecutable", "compile_function", "executable_for"]

_HANDLE_DTYPES = (dtypes.resource, dtypes.variant)


class CompiledExecutable:
    """An executable program for a simulated accelerator."""

    def __init__(self, computation: hlo.HloComputation, compile_time_us: float) -> None:
        self.computation = computation
        self.compile_time_us = compile_time_us
        self._schedule = [
            i for i in computation.instructions if i.opcode != "Parameter"
        ]
        self._param_slots = {
            i.attrs["parameter_number"]: i.index
            for i in computation.instructions
            if i.opcode == "Parameter"
        }
        self.num_launch_instructions = len(self._schedule)
        self._root_dtypes = [
            computation.instructions[i].output_specs[slot].dtype
            for i, slot in computation.roots
        ]

        # Last-use analysis: free each intermediate buffer right after
        # its final consumer (the buffer-reuse benefit of §4.1, same as
        # the graph executor).  Root values are never freed.
        roots = set(computation.roots)
        last_use: dict[tuple[int, int], int] = {}
        for pos, instr in enumerate(self._schedule):
            for operand in instr.operands:
                last_use[operand] = pos
        self._dies_at: list[tuple[tuple[int, int], ...]] = [
            () for _ in self._schedule
        ]
        for operand, pos in last_use.items():
            if operand not in roots:
                self._dies_at[pos] = self._dies_at[pos] + (operand,)

    @property
    def name(self) -> str:
        return self.computation.name

    def simulated_run_time_us(self, device: Device) -> float:
        """Modelled execution time for one launch (excl. launch overhead)."""
        cm = device.cost_model
        return sum(
            cm.program_cost_us(i.flops, i.bytes_accessed) for i in self._schedule
        )

    def execute(self, arrays: Sequence[np.ndarray], device: Device) -> list[np.ndarray]:
        """Run the program; charges one launch on the device's clock."""
        env: dict[tuple[int, int], np.ndarray] = {}
        for pnum, index in self._param_slots.items():
            env[(index, 0)] = arrays[pnum]
        cm = device.cost_model
        elapsed = cm.launch_overhead_us
        for pos, instr in enumerate(self._schedule):
            args = [env[op] for op in instr.operands]
            results = instr.kernel(args, device)
            if results is None:
                results = []
            elif isinstance(results, (np.ndarray, Tensor)) or np.isscalar(results):
                results = [results]
            for slot, r in enumerate(results):
                env[(instr.index, slot)] = (
                    r._array if isinstance(r, Tensor) else np.asarray(r)
                )
            elapsed += cm.program_cost_us(instr.flops, instr.bytes_accessed)
            for dead in self._dies_at[pos]:
                env.pop(dead, None)
        device.charge_simulated_time(elapsed)
        device.count_kernel_launch()
        return [env[root] for root in self.computation.roots]

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
            f"<CompiledExecutable {self.name!r}: "
            f"{self.num_launch_instructions} instructions, "
            f"{self.computation.total_flops:.0f} flops>"
        )


def compile_function(fn: GraphFunction, name: Optional[str] = None) -> CompiledExecutable:
    """Compile a graph function into an accelerator executable.

    Operation fusion (paper §4.4) is the graph clusterer's: the fused
    regions ``fn`` already has are lowered as they are, and a function
    that has none (``context.graph_fusion`` off, or built by hand) is
    fused on a private clone, so ``fn`` and its plan are never touched.

    Compilation is *shape-monomorphic*: the roofline cost model consumes
    per-instruction flop/byte counts, which require every dimension to
    be known.  A symbolic (relaxed) trace must be specialized to
    concrete input shapes first —
    :meth:`repro.core.pipeline.CompilationPipeline.compile` does this,
    and :func:`executable_for` keeps one executable per shape under the
    one symbolic trace.
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

    Executables live in ``fn.executables`` and nowhere else, so they die
    with the function and go when its plan is released.  A static
    signature has one entry (key ``None``); a symbolic one is
    specialized per concrete input-shape tuple it is called with.  A
    function XLA-sim cannot compile (e.g. a ``py_func`` inside) stores
    the reason instead, raised as ``UnimplementedError`` on every
    request without compiling again.
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
