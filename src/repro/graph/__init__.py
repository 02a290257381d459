"""The dataflow-graph substrate.

TensorFlow proper — the system the paper extends — represents
computations as dataflow graphs executed by a C++ runtime (paper §2,
§5).  This subpackage rebuilds that substrate: the graph IR
(:mod:`repro.graph.graph`), graph functions with named inputs and
outputs (:mod:`repro.graph.function`), a topological executor that
frees buffers at their last use (:mod:`repro.graph.executor`), a
grappler-style optimizer (:mod:`repro.graph.optimize`), and GraphDef
serialization (:mod:`repro.graph.serialization`).
"""

from repro.graph.graph import Graph, Node, SymbolicTensor
from repro.graph.function import GraphFunction

__all__ = ["Graph", "Node", "SymbolicTensor", "GraphFunction"]
