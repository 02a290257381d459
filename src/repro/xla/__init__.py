"""XLA-sim: a compiler from graph functions to accelerator programs.

"Graph functions can serve as a unit of compilation for accelerators;
we use this to efficiently execute code on TPUs.  When a staged
computation is placed on a TPU, TensorFlow Eager automatically invokes
XLA to compile the graph and produce a TPU-compatible executable"
(paper §4.4).

This package rebuilds that pipeline over the simulated TPU device:

* :mod:`repro.xla.hlo` — a small HLO-like IR with per-instruction
  FLOP/byte cost estimates, lowered from graph functions.  Operation
  fusion ("compiling staged computations through XLA provides us more
  opportunities for optimization, including ... operation fusion") is
  the graph clusterer's (:mod:`repro.graph.fusion`): each
  ``FusedElementwise`` node lowers to one ``Fusion`` instruction that
  is charged no memory traffic for its internal values.
* :mod:`repro.xla.compiler` — produces :class:`CompiledExecutable`
  objects that run the program (values computed with NumPy on the
  host) while charging the TPU's *simulated clock* one launch overhead
  per program plus modelled compute time; :func:`executable_for` is
  the one cache of them, kept on the graph function itself.
* :mod:`repro.xla.tpu` — wires the TPU device into the runtime: single
  operations compile to one-op programs (each execution pays a launch
  — why "training the model in a per-operation fashion is slow", §6),
  while ``PartitionedCall`` compiles the whole callee into one program
  whose launch cost is amortized (Table 1's staged rows).

Importing this package installs the TPU hook.
"""

from repro.xla import hlo
from repro.xla.compiler import CompiledExecutable, compile_function, executable_for
from repro.xla import tpu

tpu.install()

__all__ = ["hlo", "CompiledExecutable", "compile_function", "executable_for", "tpu"]
