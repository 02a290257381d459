"""An HLO-like intermediate representation.

The compiler lowers a :class:`~repro.graph.function.GraphFunction` into
an :class:`HloComputation` — a flat, topologically-ordered list of
:class:`HloInstruction` values.  Each instruction carries

* a kernel closure (the same NumPy kernel the graph executor runs),
* output specs, and
* a cost estimate (FLOPs and bytes accessed) used by the simulated TPU
  clock.

Fusion is not decided here: a ``FusedElementwise`` node, clustered by
:mod:`repro.graph.fusion`, lowers to one ``Fusion`` instruction whose
kernel is the node's :class:`~repro.graph.fusion.FusionRegion`.

Multi-output operations are modelled directly (one instruction, several
outputs) rather than through tuples + GetTupleElement; the difference
is immaterial for cost modelling and keeps the executor simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import UnimplementedError
from repro.framework.tensor_shape import TensorShape
from repro.ops import registry
from repro.tensor import TensorSpec
from repro.graph.function import GraphFunction
from repro.graph.fusion import FUSED_OP
from repro.graph.graph import Node, SymbolicTensor

__all__ = ["HloInstruction", "HloComputation", "lower"]

# Ops the TPU backend refuses to compile (host-only semantics).
UNCOMPILABLE = frozenset({"EagerPyFunc"})


@dataclass
class HloInstruction:
    """One lowered operation."""

    index: int
    opcode: str
    operands: list[tuple[int, int]]  # (producer instruction index, output slot)
    attrs: dict
    output_specs: list[TensorSpec]
    kernel: Optional[Callable] = None
    flops: float = 0.0
    bytes_accessed: float = 0.0

    def __repr__(self) -> str:
        ops = ", ".join(f"%{i}.{s}" for i, s in self.operands)
        return f"%{self.index} = {self.opcode}({ops})"


@dataclass
class HloComputation:
    """A lowered program: parameters, instructions, and root outputs."""

    name: str
    num_parameters: int
    instructions: list[HloInstruction]
    roots: list[tuple[int, int]]  # (instruction index, output slot)

    @property
    def total_flops(self) -> float:
        return sum(i.flops for i in self.instructions)

    @property
    def total_bytes(self) -> float:
        return sum(i.bytes_accessed for i in self.instructions)

    def __repr__(self) -> str:
        return (
            f"<HloComputation {self.name!r}: {self.num_parameters} params, "
            f"{len(self.instructions)} instructions>"
        )


def _num_elements(spec: TensorSpec, default: int = 1) -> int:
    n = spec.shape.num_elements()
    return default if n is None else max(n, 1)


def _spec_bytes(spec: TensorSpec) -> int:
    if spec.dtype in (dtypes.resource, dtypes.variant):
        return 8
    return _num_elements(spec) * spec.dtype.size


def estimate_cost(node_op: str, input_specs: Sequence[TensorSpec],
                  output_specs: Sequence[TensorSpec], attrs: dict) -> tuple[float, float]:
    """(flops, bytes) estimate for one operation.

    Contractions are costed by formula; a ``REDUCTION`` (and the
    softmax-cross-entropy reduction) at one flop per input element;
    everything else — ``ELEMENTWISE`` ops above all — at one flop per
    output element.
    """
    in_bytes = sum(_spec_bytes(s) for s in input_specs)
    out_bytes = sum(_spec_bytes(s) for s in output_specs)
    bytes_accessed = float(in_bytes + out_bytes)
    out_elems = sum(_num_elements(s) for s in output_specs)

    if node_op == "MatMul":
        a, b = input_specs
        ashape = a.shape
        ta = attrs.get("transpose_a", False)
        k = ashape[-2] if ta else ashape[-1]
        k = 1 if k is None else k
        flops = 2.0 * out_elems * k
    elif node_op == "Conv2D":
        f = input_specs[1].shape
        kh = f[0] or 1
        kw = f[1] or 1
        cin = f[2] or 1
        flops = 2.0 * out_elems * kh * kw * cin
    elif node_op.startswith("Conv2DBackprop"):
        flops = 2.0 * sum(_num_elements(s) for s in input_specs) * 9  # approx
    elif (
        registry.REDUCTION in registry.get_op_def(node_op).traits
        or node_op == "SoftmaxCrossEntropyWithLogits"
    ):
        flops = float(sum(_num_elements(s) for s in input_specs))
    else:
        flops = float(out_elems)
    return flops, bytes_accessed


def lower(fn: GraphFunction, name: Optional[str] = None) -> HloComputation:
    """Lower a graph function into an HLO computation."""
    instructions: list[HloInstruction] = []
    slot_of: dict[int, tuple[int, int]] = {}  # id(symbolic tensor) -> (instr, slot)

    # Parameters first, in calling order.
    for i, ph in enumerate(fn.inputs):
        instr = HloInstruction(
            index=len(instructions),
            opcode="Parameter",
            operands=[],
            attrs={"parameter_number": i},
            output_specs=[TensorSpec(ph.shape, ph.dtype)],
        )
        instructions.append(instr)
        slot_of[id(ph)] = (instr.index, 0)

    param_node_ids = {id(ph.node) for ph in fn.inputs}

    for node in fn.graph.nodes:
        if id(node) in param_node_ids:
            continue
        if node.op_name == "Placeholder":
            raise UnimplementedError(
                f"Cannot compile graph with unfed placeholder {node.name!r}"
            )
        if node.op_name in UNCOMPILABLE:
            raise UnimplementedError(
                f"Operation {node.op_name!r} cannot be compiled for "
                "accelerators (host-only semantics, paper §4.7)"
            )
        operands = [slot_of[id(t)] for t in node.inputs]
        in_specs = [TensorSpec(t.shape, t.dtype) for t in node.inputs]
        out_specs = [TensorSpec(t.shape, t.dtype) for t in node.outputs]
        opcode, attrs = node.op_name, node.attrs
        if opcode == "PartitionedCall":
            kernel = _call_kernel(attrs["f"])
            inner = lower(attrs["f"], name=f"{attrs['f'].name}_inner")
            flops, bytes_accessed = inner.total_flops, inner.total_bytes
        elif opcode == FUSED_OP:
            # One launch running every member's flops, with memory
            # traffic only for what enters and leaves the region.
            region = attrs["region"]
            opcode, kernel, attrs = "Fusion", region, {"ops": region.op_names}
            slots = region.slot_specs(node.inputs)
            flops = 0.0
            for out, step in enumerate(region.steps, region.num_inputs):
                op_name, _k, _ik, step_attrs, in_refs, _d, _dies = step
                flops += estimate_cost(
                    op_name, [slots[r] for r in in_refs], [slots[out]], step_attrs
                )[0]
            bytes_accessed = float(sum(map(_spec_bytes, in_specs + out_specs)))
        else:
            kernel = _node_kernel(node)
            flops, bytes_accessed = estimate_cost(
                node.op_name, in_specs, out_specs, node.attrs
            )
        instr = HloInstruction(
            index=len(instructions),
            opcode=opcode,
            operands=operands,
            attrs=dict(attrs),
            output_specs=out_specs,
            kernel=kernel,
            flops=flops,
            bytes_accessed=bytes_accessed,
        )
        instructions.append(instr)
        for slot, out in enumerate(node.outputs):
            slot_of[id(out)] = (instr.index, slot)

    roots = [slot_of[id(t)] for t in fn.outputs]
    return HloComputation(
        name=name or fn.name,
        num_parameters=len(fn.inputs),
        instructions=instructions,
        roots=roots,
    )


def _node_kernel(node: Node) -> Callable:
    kernel = registry.get_kernel(node.op_name, "CPU")
    attrs = node.attrs

    def run(arrays, device):
        return kernel(arrays, attrs, device)

    return run


def _call_kernel(fn: GraphFunction) -> Callable:
    from repro.tensor import Tensor

    def run(arrays, device):
        tensors = [
            Tensor._from_buffer(arr, spec.dtype, device)
            for arr, spec in zip(arrays, fn.input_specs)
        ]
        return [np.asarray(t.numpy()) if t.dtype not in (dtypes.resource, dtypes.variant) else t._array for t in fn.run(tensors)]

    return run
