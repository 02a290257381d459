"""Classic graph-mode TensorFlow: the paper's "TF" baseline.

"In TensorFlow, the dataflow graph defines the union of all the
computations that the author of the graph might be interested in; the
actual computation to execute is defined when the programmer requests
the runtime to fetch the concrete values of some set of tensors
resident in the graph" (paper §5).

This module provides that workflow over the same graph substrate the
tracer uses: build a default :class:`~repro.graph.graph.Graph` with
placeholders and variables, then repeatedly ``Session.run(fetches,
feed_dict)`` — the session prunes the graph to what the fetches need
(per fetch-set execution plans are cached) and executes it.  Because
both execution paths share one op set and one executor, the TF-vs-
TFE+function comparison in Figures 3–4 measures exactly what the paper
measured: per-step Python overhead, not different kernels.
"""

from __future__ import annotations

from typing import Optional

from repro.framework import nest
from repro.framework.errors import InvalidArgumentError
from repro.tensor import Tensor, TensorBase, convert_to_tensor
from repro.graph.executor import GraphRunner
from repro.graph.function import placeholder as _graph_placeholder
from repro.graph.graph import Graph, SymbolicTensor

__all__ = ["GraphBuilder", "Session", "gradients"]


class GraphBuilder:
    """A classic TF program under construction.

    Usage::

        g = v1.GraphBuilder()
        with g.building():
            x = g.placeholder(repro.float32, [None, 4])
            w = repro.Variable(...)        # variables stay eager objects
            loss = ...
            train_op = ...
        with v1.Session(g) as sess:
            sess.run(train_op, feed_dict={x: batch})
    """

    def __init__(self, name: str = "v1_graph") -> None:
        self.graph = Graph(name=name)

    def building(self):
        """Context manager: ops execute symbolically into this graph."""
        return self.graph.as_default()

    def placeholder(self, dtype, shape=None, name: str = "Placeholder") -> SymbolicTensor:
        """A graph input to be fed at ``Session.run`` time."""
        return _graph_placeholder(self.graph, dtype, shape, name=name)


class Session:
    """Executes fetches from a graph, TensorFlow-1 style.

    Each distinct fetch set gets a cached execution plan (the analogue
    of TF's per-signature executors), so steady-state ``run`` calls do
    no graph analysis.
    """

    def __init__(self, graph_or_builder) -> None:
        self.graph: Graph = (
            graph_or_builder.graph
            if isinstance(graph_or_builder, GraphBuilder)
            else graph_or_builder
        )
        self._runners: dict[tuple, GraphRunner] = {}

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._runners.clear()

    def run(self, fetches, feed_dict: Optional[dict] = None):
        """Compute ``fetches``, feeding placeholders from ``feed_dict``.

        Only the subgraph the fetches depend on executes — the classic
        fetch-driven pruning behaviour.
        """
        from repro.graph.graph import Node

        flat_fetches = nest.flatten(fetches)
        sym_fetches = []
        for f in flat_fetches:
            if f is None:
                continue
            if not isinstance(f, (SymbolicTensor, Node)):
                raise InvalidArgumentError(
                    f"Session.run fetches must be graph tensors or operation "
                    f"nodes, got {f!r}"
                )
            if f.graph is not self.graph:
                raise InvalidArgumentError(
                    f"Fetch {f!r} is not from this session's graph"
                )
            sym_fetches.append(f)

        key = tuple(id(f) for f in sym_fetches)
        runner = self._runners.get(key)
        if runner is None:
            # Classic semantics: run only what the fetches need.
            runner = GraphRunner(self.graph, sym_fetches, include_side_effects=False)
            self._runners[key] = runner

        feeds = []
        if feed_dict:
            for ph, value in feed_dict.items():
                if not isinstance(ph, SymbolicTensor):
                    raise InvalidArgumentError(
                        f"feed_dict keys must be placeholders, got {ph!r}"
                    )
                if not isinstance(value, Tensor):
                    value = convert_to_tensor(value, dtype=ph.dtype)
                feeds.append((ph, value))
        results = runner.run(feeds)

        it = iter(results)
        flat_out = [None if f is None else next(it) for f in flat_fetches]
        return nest.pack_sequence_as(fetches, flat_out)


def gradients(ys, xs, grad_ys=None) -> list:
    """Symbolic gradients inside a graph (``tf.gradients``).

    Replays the graph's construction order through the same reverse-mode
    engine the tape uses; must be called while the graph is still the
    default (so the gradient ops land in it).
    """
    from repro.core.backprop import imperative_grad
    from repro.core.tape import OpRecord
    from repro.runtime.context import context

    graph = context.current_graph()
    if graph is None:
        raise InvalidArgumentError(
            "v1.gradients must be called inside a graph-building context"
        )
    ys_flat = nest.flatten(ys)
    xs_flat = []
    for x in nest.flatten(xs):
        handle = getattr(x, "handle", None)
        if handle is not None and not isinstance(x, TensorBase):
            # A Variable: gradients accumulate on its in-graph handle node.
            sym = graph._const_cache.get(id(handle))
            if sym is None:
                raise InvalidArgumentError(
                    f"Variable {x.name!r} is not used in this graph"
                )
            xs_flat.append(sym)
        else:
            xs_flat.append(x)
    records = [
        OpRecord(n.op_name, n.attrs, list(n.inputs), list(n.outputs))
        for n in graph.nodes
    ]
    if grad_ys is None:
        seeds = [None] * len(ys_flat)
    else:
        seeds = nest.flatten(grad_ys)
    return imperative_grad(records, ys_flat, xs_flat, seeds)
