"""The dataflow graph executor.

A :class:`GraphRunner` plans a (graph, fetches) pair once — schedule,
last uses, in-place donation, memory plan, hoisted constants, each
node's kernel resolved through the dispatch core's cache — and runs it
as generated straight-line code (:mod:`repro.graph.printer`): one
statement per node, values in locals, each dropped after its last
consumer.  What eager dispatch decides per op is decided at print time:
paper §4.1's claim that staging runs "the same APIs and kernels" and
wins only by amortizing per-op Python overhead, made structural.

A node with no plan-time kernel (pinned, remote, calling a graph
function, producing handles) prints as a :func:`_dispatch_node` call,
the dispatch core's instrumented path; a kernel node it feeds checks
that its inputs are on the CPU.  While a ``"graph"``-mode interceptor
is registered (:mod:`repro.runtime.dispatch`), or a feed is off the
CPU, runs take a second print in which every node is a
``_dispatch_node`` call, so hooks see graph nodes as they see eager ops
and placement follows the inputs.  One scheduler: the calling thread
(DESIGN.md §8).
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import FailedPreconditionError, InvalidArgumentError
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context
from repro.tensor import Tensor
from repro.graph import printer
from repro.graph.fusion import FUSED_OP, _spec_bytes
from repro.graph.graph import Graph, Node, SymbolicTensor

__all__ = ["GraphRunner"]


def _is_function(value) -> bool:
    return hasattr(value, "plan") and hasattr(value, "graph")


def _callee_peak_bytes(value) -> Optional[tuple[int, bool]]:
    """(peak_live_bytes, lower_bound) of a graph-function attr (else None);
    a callee plan that cannot be built contributes nothing."""
    if not _is_function(value):
        return None
    try:
        inner = value.plan().memory_plan or {}
    except Exception:
        return None
    return inner.get("peak_live_bytes", 0), bool(inner.get("lower_bound", False))


def _tensor(value, dtype, device) -> Tensor:
    """A raw kernel result escaping printed code, as a Tensor: frozen,
    and copied first if it is a view of writable memory."""
    if isinstance(value, Tensor):
        return value
    if type(value) is np.ndarray:
        if value.flags.writeable:
            base = value.base
            if base is not None and base.flags.writeable:
                value = value.copy()
            value.flags.writeable = False
        return Tensor._from_buffer(value, dtype, device)
    arr = value if isinstance(value, np.ndarray) else np.asarray(value)
    (arr,) = device.adopt([arr])
    return Tensor._from_buffer(arr, dtypes.as_dtype(arr.dtype), device)


def _tensors(result, device, out_dtypes) -> list[Tensor]:
    """A kernel's result (one output bare) as one Tensor per output."""
    result = (result,) if len(out_dtypes) == 1 else result or ()
    return [_tensor(v, dt, device) for v, dt in zip(result, out_dtypes)]


def _dispatch_node(node: Node, values, device) -> list[Tensor]:
    """Run one node through the unified dispatch core."""
    inputs = [_tensor(v, t.dtype, device) for v, t in zip(values, node.inputs)]
    return dispatch.core.dispatch(
        node.op_name, inputs, node.attrs, explicit_device=node.device, mode=dispatch.GRAPH
    )


class GraphRunner:
    """A reusable execution plan for one (graph, fetches) pair: repeated
    runs (a staged training step runs thousands of times) do no graph
    analysis at all."""

    def __init__(
        self,
        graph: Graph,
        fetches: Sequence,
        include_side_effects: bool = True,
    ) -> None:
        """Plan execution of ``fetches`` (symbolic tensors, or Nodes for
        pure side-effect operations like variable assignment).

        ``include_side_effects=True`` (traced functions) runs every
        side-effecting node; ``False`` (classic Session semantics) only
        what the fetches reach — fetch-driven pruning, paper §5.  A node
        failing at run time raises named after its op
        (:func:`~repro.graph.printer.raise_labelled`).
        """
        self.graph = graph
        self.fetches = list(fetches)
        self._include_side_effects = include_side_effects
        self._build_schedule()

    def _build_schedule(self) -> None:
        # Live set: reverse reachability from fetches (plus, for traced
        # functions, every side-effecting node).
        live: set[int] = set()
        stack = [t if isinstance(t, Node) else t.node for t in self.fetches]
        if self._include_side_effects:
            stack.extend(n for n in self.graph.nodes if n.op_def.has_side_effects)
        while stack:
            node = stack.pop()
            if id(node) in live:
                continue
            live.add(id(node))
            stack.extend(t.node for t in node.inputs)
        self.schedule: list[Node] = [n for n in self.graph.nodes if id(n) in live]

        # Consumer counts (a fetch counts as one) for buffer freeing.
        fetched = [id(t) for t in self.fetches if not isinstance(t, Node)]
        self.consumers = Counter(id(t) for node in self.schedule for t in node.inputs)
        self.consumers.update(fetched)
        fetched = set(fetched)

        # Symbolic placeholders (unknown dims — a relaxed or
        # input_signature trace) keep their specs so feeds are validated
        # per run, failing with a clear error rather than deep inside a
        # kernel.  Exact traces pay nothing.
        self.placeholders = [n for n in self.schedule if n.op_name == "Placeholder"]
        self.feed_specs = {
            id(n): n.outputs[0].spec
            for n in self.placeholders
            if not n.outputs[0].spec.shape.is_fully_defined
        }

        # The plan: per node, ``[node, kernel, input ids, output ids (None
        # when nothing consumes or fetches it), dies, donation]``.  The
        # kernel resolves once through the dispatch core's cache.  It is
        # None for placeholders, for ops without one and for nodes that
        # always take the dispatch core: pinned ones, those calling a graph
        # function (calls, control flow) or producing resource/variant
        # handles (their kernels return Tensors).
        core = dispatch.core
        self.plan = []
        last_use: dict[int, int] = {}
        consumed = self.consumers.get
        for pos, node in enumerate(self.schedule):
            kernel = None
            if not (
                node.op_name == "Placeholder"
                or node.device is not None
                or any(t.dtype in (dtypes.resource, dtypes.variant) for t in node.outputs)
                or any(map(_is_function, node.attrs.values()))
            ):
                in_dtypes = tuple(t.dtype for t in node.inputs)
                kernel = core.resolve_kernel_or_none(node.op_name, "CPU", in_dtypes)
            in_ids = tuple(id(t) for t in node.inputs)
            out_ids = tuple(id(t) if consumed(id(t)) else None for t in node.outputs)
            self.plan.append([node, kernel, in_ids, out_ids, [], None])
            last_use.update(dict.fromkeys(in_ids, pos))
        # Last-use analysis: each intermediate is freed right after its
        # final consumer.
        for tensor_id, pos in last_use.items():
            if tensor_id not in fetched:
                self.plan[pos][4].append(tensor_id)

        # In-place donation slots (static): a node may overwrite an input
        # whose buffer dies here, when that input is the node's *only*
        # consumer, was freshly allocated by its producer (never aliases
        # anything), and matches the output's static shape and dtype.
        # Gated, at plan-build time, with the fusion knob (the two
        # together are the "static memory plan").
        if context.graph_fusion:
            for pos, entry in enumerate(self.plan):
                node = entry[0]
                if entry[1] is None or len(node.outputs) != 1:
                    continue
                inplace = registry.get_inplace_kernel(node.op_name)
                out_spec = node.outputs[0].spec
                if inplace is None or not out_spec.shape.is_fully_defined:
                    continue
                for j, t in enumerate(node.inputs):
                    if (
                        self.consumers.get(id(t)) == 1
                        and id(t) not in fetched
                        and last_use.get(id(t)) == pos
                        and t.dtype == out_spec.dtype
                        and t.shape.is_fully_defined
                        and t.shape == out_spec.shape
                        and self._producer_allocates_fresh(t)
                    ):
                        entry[5] = (j, inplace)
                        break
        self.plan = [tuple(entry) for entry in self.plan]
        self._build_memory_plan()

        # Hoisting: an unpinned nullary pure node (a Const, a classic
        # graph's variable handle) computes a constant, so it runs once,
        # here, and its value is bound into the printed code
        # (`const_store`) if it lives on the CPU.  Consumers never donate
        # these buffers: such ops register no in-place kernel.
        self.const_store: dict[int, Tensor] = {}
        cpu = context.cpu_device()
        kept = []
        for entry in self.plan:
            node, kernel, in_ids, out_ids = entry[:4]
            op_def, value = node.op_def, None
            if not (in_ids or node.device or op_def.is_stateful or op_def.has_side_effects):
                kernel = kernel or core.resolve_kernel_or_none(node.op_name, "CPU", ())
                if kernel is not None and out_ids == (None,):
                    continue  # dead: neither consumed nor fetched
                if kernel is not None and len(out_ids) == 1:
                    value = kernel([], node.attrs, cpu)
                    value = value[0] if isinstance(value, list) else value
            if value is not None and not isinstance(value, Tensor):
                value = value if isinstance(value, np.ndarray) else np.asarray(value)
                value.flags.writeable = False
                value = Tensor._from_buffer(value, node.outputs[0].dtype, cpu)
            if value is not None and value._device is cpu:
                self.const_store[out_ids[0]] = value
            else:
                kept.append(entry)
        self.plan = kept
        self._programs: dict[bool, tuple] = {}  # printed on first run

    @staticmethod
    def _producer_allocates_fresh(t: SymbolicTensor) -> bool:
        """Does ``t``'s producing kernel always return a fresh buffer?  An
        op registers an in-place kernel only if its kernel never returns
        (a view of) an input; fused regions track freshness per output."""
        node = t.node
        if node.op_name == FUSED_OP:
            return node.attrs["region"].fresh_outputs[t.index]
        return registry.has_inplace_kernel(node.op_name)

    def _build_memory_plan(self) -> None:
        """``self.memory_plan``: peak bytes of executor-produced values
        live at once (feeds count zero), each freed at its planned death;
        unknown dimensions count as 1 (a flagged lower bound)."""
        live = peak = donated = fused = 0
        lower = False
        bytes_of: dict[int, int] = {}
        for node, _k, in_ids, out_ids, dies, donate in self.plan:
            if node.op_name == "Placeholder":
                continue
            if node.op_name == FUSED_OP:
                fused += 1
                region = node.attrs["region"]
                peak = max(peak, live + region.internal_peak_bytes)
                lower |= region.peak_is_lower_bound
            else:
                # A node running a nested graph function (a staged call,
                # a rematerialized segment, a branch or loop body) holds
                # the callee's working set on top of ours — the recompute
                # cost of a checkpointed graph the plan exists to report.
                for value in (node.attrs or {}).values():
                    inner = _callee_peak_bytes(value)
                    if inner is not None:
                        peak = max(peak, live + inner[0])
                        lower |= inner[1]
            transferred = 0
            if donate is not None:
                donated += 1
                transferred = bytes_of.get(in_ids[donate[0]], 0)
                bytes_of[in_ids[donate[0]]] = 0
            for sym, out_id in zip(node.outputs, out_ids):
                if out_id is None:
                    continue
                nbytes, lb = _spec_bytes(sym.spec)
                lower |= lb
                if donate is not None and sym.index == 0:
                    bytes_of[out_id] = transferred
                else:
                    bytes_of[out_id] = nbytes
                    live += nbytes
                    peak = max(peak, live)
            for i in dies:
                live -= bytes_of.pop(i, 0)
        self.memory_plan = {
            "peak_live_bytes": peak,
            "lower_bound": lower,
            "donated_nodes": donated,
            "fused_nodes": fused,
            "num_nodes": len(self.plan),
        }

    # -- printing --------------------------------------------------------
    def _print(self, dispatch_all: bool) -> tuple:
        """``(functions, store template, feeds, fetch slots, escaping
        fetches, kernel launches)`` of the printed plan.  Kernel steps
        pass raw arrays; a Tensor is built only where a value escapes
        (into ``_dispatch_node``, or a fetch).  ``dispatch_all``: every
        node is a ``_dispatch_node`` call."""
        stmts, reps, fed, fast, anywhere = [], {}, [], 0, set()
        for node, kernel, in_ids, out_ids, _dies, donate in self.plan:
            if node.op_name == "Placeholder":
                fed.append(id(node.outputs[0]))
                reps[fed[-1]] = "a"  # run() checks that feeds live on the CPU
                continue
            if dispatch_all or kernel is None:
                form = "n"
            elif not anywhere.isdisjoint(in_ids):
                form = "g"
            else:
                form = "k" if donate is None else "q"
                fast += 1
            binding = (kernel, node.attrs, donate[1] if form == "q" else None)
            if form in "ng":
                anywhere.update(o for o in out_ids if o is not None)
                dts = tuple(t.dtype for t in node.outputs)
                wrap = functools.partial(_tensors, out_dtypes=dts)
                binding += (functools.partial(_dispatch_node, node), wrap)
            donated = in_ids[donate[0]] if form == "q" else None
            stmts.append((form, node.op_name, in_ids, out_ids, donated, binding))
        fetched = [id(t) for t in self.fetches if not isinstance(t, Node)]
        consts = self.const_store
        fed += [i for i in fetched if i in consts]
        reps.update(dict.fromkeys(anywhere, "t"))
        arrays = {i: t._array for i, t in consts.items()}
        fns, size, index = printer.print_pieces(stmts, fed, fetched, arrays, reps)
        template = [None] * (size + 1)  # the last slot answers operation fetches
        for i in fed:
            template[index[i]] = consts.get(i)
        escapes = {
            index[i]: t.dtype
            for t, i in zip(self.fetches, map(id, self.fetches))
            if not isinstance(t, Node) and i not in consts and reps.get(i) != "a"
        }
        feeds = [(id(n), index[id(n.outputs[0])], n) for n in self.placeholders]
        slots = [size if isinstance(t, Node) else index[id(t)] for t in self.fetches]
        return fns, template, feeds, slots, tuple(escapes.items()), fast

    def _program(self, dispatch_all: bool) -> tuple:
        program = self._programs.get(dispatch_all)
        if program is None:
            if self.graph is None:
                raise FailedPreconditionError(
                    "this plan was compacted to its CPU program: it cannot run "
                    "with a \"graph\" interceptor registered or a feed off the CPU"
                )
            program = self._programs[dispatch_all] = self._print(dispatch_all)
        return program

    def compact(self) -> None:
        """Print the CPU program now and release what printing needed.

        For a plan that is only ever run from the CPU (the eager tape's
        staged backward): the graph and the plan entries go, and
        ``plan`` becomes each step's op name.  A later run that needs
        the dispatch program raises ``FailedPreconditionError``.
        """
        for _, _, node in self._program(False)[2]:
            node.graph = None  # a placeholder, kept to take its feed
        self.plan = tuple(entry[0].op_name for entry in self.plan)
        self.graph = self.fetches = self.schedule = self.consumers = None
        self.placeholders = self.const_store = None

    # -- execution -------------------------------------------------------
    # `parallel` stays only because benchmarks/perf/spans.py forwards it positionally.
    def run(self, feeds, parallel: bool = False) -> list[Tensor]:
        """Execute with the given feeds.

        ``feeds`` is a sequence of (placeholder, value) pairs (or a dict
        with hashable keys); placeholders may be the symbolic output or
        the Placeholder node itself.
        """
        if parallel:
            raise InvalidArgumentError(
                "GraphRunner.run(parallel=True): the thread-parallel "
                "scheduler was removed; graphs run on the calling thread"
            )
        items = feeds.items() if isinstance(feeds, dict) else feeds
        feed_values: dict[int, Tensor] = {}
        for key, value in items:
            node = key.node if isinstance(key, SymbolicTensor) else key
            feed_values[id(node)] = value
        cpu = context.cpu_device()
        program = self._program(False)
        s = program[1].copy()
        on_cpu = True
        for node_id, i, node in program[2]:
            try:
                value = s[i] = feed_values[node_id]
            except KeyError:
                msg = f"Placeholder {node.name!r} was not fed"
                raise InvalidArgumentError(msg) from None
            on_cpu = on_cpu and value._device is cpu
            spec = self.feed_specs.get(node_id) if self.feed_specs else None
            if spec is not None and (
                value.dtype != spec.dtype or not value.shape.is_subtype_of(spec.shape)
            ):
                raise InvalidArgumentError(
                    f"Placeholder {node.name!r} expects {spec.dtype.name}"
                    f"{spec.shape}, got {value.dtype.name}{value.shape} "
                    "(incompatible with this trace's symbolic signature)"
                )
        if not on_cpu or dispatch.core.graph_interceptors:
            program = self._program(True)  # same store layout: same wiring
        fns, _template, _feeds, fetch_slots, escapes, fast = program
        cpu._kernel_launches += fast
        try:
            for fn in fns:
                fn(s, cpu)
        except BaseException as exc:  # noqa: BLE001 - relabelled, re-raised
            printer.raise_labelled(exc, [fn.__globals__ for fn in fns])
        for i, dtype in escapes:
            s[i] = _tensor(s[i], dtype, cpu)
        return [s[i] for i in fetch_slots]
