"""The dataflow graph executor.

Executes a graph's nodes over concrete tensors.  Per-node kernel
dispatch is NOT implemented here: every node runs through the unified
dispatch core (:data:`repro.runtime.dispatch.core`) — the same device
resolution, kernel cache, interceptor stack (profiler, op records, …),
and :meth:`Device.dispatch` protocol that serves eager execution.
That is the paper's §4.1 claim made structural: imperative and staged
computations "use the same APIs and kernels", and staging wins only by
amortizing per-op Python overhead, not by running different code.

One scheduler: a single pass over the nodes in topological order, on
the calling thread.  (The paper's runtime "runs kernels in parallel when
possible", §5; NumPy kernels hold the GIL, so a thread-pool scheduler
here only added overhead — see DESIGN.md §8.)  The :class:`GraphRunner`
plan pre-resolves each node's kernel through the dispatch core's
``(op, device_kind, input_dtypes)`` cache at plan time, so the loop
invokes cached kernels directly with no per-op registry probing, tape
probing, or device-stack walks (which is precisely why staged execution
outruns the imperative path on small ops, reproducing Figures 3–4).
When any ``"graph"``-mode interceptor is registered — a single emptiness
check per node — the node takes the instrumented ``core.dispatch`` path
instead, so cross-cutting hooks observe graph nodes exactly as they
observe eager ops.  To observe nodes here, register an interceptor with
``dispatch.core.register_interceptor`` (see the
:mod:`repro.runtime.dispatch` docstring); do not add inline checks to
the loop.

Intermediate buffers are freed as soon as their last consumer has run
(a static last-use analysis), mirroring the buffer-reuse benefit the
paper attributes to graphs (§4.1).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InternalError, InvalidArgumentError, attach_op_name
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context
from repro.tensor import Tensor
from repro.graph.fusion import FUSED_OP, _spec_bytes
from repro.graph.graph import Graph, Node, SymbolicTensor

__all__ = ["GraphRunner"]


def _callee_peak_bytes(value) -> Optional[tuple[int, bool]]:
    """(peak_live_bytes, lower_bound) of a graph-function-valued attr.

    Returns None for attr values that are not graph functions.  The
    callee's plan is built on demand and cached on the callee, so this
    costs one plan build per distinct function; a callee whose plan
    cannot be built (e.g. an unexecutable branch under symbolic shapes)
    contributes nothing rather than failing the caller's plan.
    """
    if not (hasattr(value, "plan") and hasattr(value, "graph")):
        return None
    try:
        inner = value.plan().memory_plan or {}
    except Exception:
        return None
    return inner.get("peak_live_bytes", 0), bool(inner.get("lower_bound", False))


def _dispatch_node(node: Node, inputs: Sequence[Tensor]) -> list[Tensor]:
    """Run one node through the unified dispatch core."""
    return dispatch.core.dispatch(
        node.op_name,
        inputs,
        node.attrs,
        explicit_device=node.device,
        mode=dispatch.GRAPH,
    )


class GraphRunner:
    """A reusable execution plan for one (graph, fetches) pair.

    Precomputes the executable node schedule, per-tensor consumer
    counts, and placeholder bindings so that repeated executions (the
    common case: a staged training step runs thousands of times) do no
    graph analysis at all.
    """

    def __init__(
        self,
        graph: Graph,
        fetches: Sequence,
        include_side_effects: bool = True,
        label_errors: bool = False,
    ) -> None:
        """Plan execution of ``fetches`` (symbolic tensors, or Nodes for
        pure side-effect operations like variable assignment).

        ``include_side_effects=True`` (traced functions) runs every
        side-effecting node in the graph; ``False`` (classic Session
        semantics) runs only what the fetches reach — fetch-driven
        pruning, paper §5.

        ``label_errors=True`` (flushed lazy segments) attaches the
        failing node's op name to kernel exceptions via
        :func:`~repro.framework.errors.attach_op_name`, preserving the
        deferred-error contract: an error surfacing long after the op
        was recorded still names the op that raised it.
        """
        self.graph = graph
        self.fetches = list(fetches)
        self._include_side_effects = include_side_effects
        self.label_errors = label_errors
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
            stack.extend(node.control_inputs)
        self.schedule: list[Node] = [n for n in self.graph.nodes if id(n) in live]

        # Consumer counts for buffer freeing.
        self.consumers: dict[int, int] = {}
        for node in self.schedule:
            for t in node.inputs:
                self.consumers[id(t)] = self.consumers.get(id(t), 0) + 1
        for t in self.fetches:
            if not isinstance(t, Node):
                self.consumers[id(t)] = self.consumers.get(id(t), 0) + 1

        self.placeholders = [n for n in self.schedule if n.op_name == "Placeholder"]

        # Symbolic placeholders (unknown dims — a relaxed or
        # input_signature trace): remember their specs so feeds are
        # validated per run.  Exact traces pay nothing (empty dict);
        # feeding a symbolic plan an incompatible shape fails with a
        # clear error here rather than deep inside a kernel.
        self.feed_specs: dict[int, tuple[Node, object]] = {}
        for node in self.placeholders:
            spec = node.outputs[0].spec
            if not spec.shape.is_fully_defined:
                self.feed_specs[id(node)] = (node, spec)

        # Precomputed execution plan: per node, the kernel resolved once
        # through the dispatch core's (op, device_kind, input_dtypes)
        # cache (when one exists and the node is not pinned elsewhere),
        # input tensor ids, and output bookkeeping.  The serial loop
        # then runs with no registry lookups or device-stack walks per
        # node — the low per-op overhead that gives staged execution
        # its edge.
        core = dispatch.core
        # Kernels below resolve under the backend active at plan-build
        # time; `run` rebuilds the plan if the backend has changed since
        # (plans are cached per GraphFunction and must not pin a stale
        # backend's kernels).
        self.plan_backend = context.kernel_backend
        self.plan = []
        for node in self.schedule:
            kernel = None
            if node.device is None:
                in_dtypes = tuple(t.dtype for t in node.inputs)
                kernel = core.resolve_kernel_or_none(node.op_name, "CPU", in_dtypes)
            in_ids = tuple(id(t) for t in node.inputs)
            out_entries = tuple(
                (id(sym), self.consumers.get(id(sym), 0) > 0, sym.dtype)
                for sym in node.outputs
            )
            single = out_entries[0] if len(out_entries) == 1 else None
            self.plan.append(
                [
                    node,
                    node.op_name == "Placeholder",
                    kernel,
                    node.attrs,
                    in_ids,
                    out_entries,
                    single,
                    (),  # dies: filled by last-use analysis below
                    None,  # donation slot: filled below
                ]
            )

        # Last-use analysis: free each intermediate right after its final
        # consumer instead of maintaining per-run reference counts.
        fetched = {id(t) for t in self.fetches if not isinstance(t, Node)}
        last_use: dict[int, int] = {}
        for pos, entry in enumerate(self.plan):
            for i in entry[4]:
                last_use[i] = pos
        dies_at: dict[int, list[int]] = {}
        for tensor_id, pos in last_use.items():
            if tensor_id not in fetched:
                dies_at.setdefault(pos, []).append(tensor_id)
        for pos, dead in dies_at.items():
            self.plan[pos][7] = tuple(dead)

        # In-place donation slots (static): a node may overwrite an input
        # whose buffer dies here, when that input is the node's *only*
        # remaining consumer-reference, was freshly allocated by its
        # producer (never aliases anything), and matches the output's
        # static shape and dtype.  Gated with the fusion knob — the two
        # together are the "static memory plan".  The knob is captured at
        # plan-build time; flipping it later only affects new plans.
        # Donation additionally requires the active backend's buffers to
        # honor NumPy's `out=` protocol.
        if context.graph_fusion and context.array_backend().supports_inplace:
            for pos, entry in enumerate(self.plan):
                node = entry[0]
                if entry[1] or entry[2] is None or entry[6] is None:
                    continue
                inplace = registry.get_inplace_kernel(node.op_name)
                if inplace is None:
                    continue
                out_spec = node.outputs[0].spec
                if not out_spec.shape.is_fully_defined:
                    continue
                for j, t in enumerate(node.inputs):
                    if self.consumers.get(id(t)) != 1 or id(t) in fetched:
                        continue
                    if last_use.get(id(t)) != pos:
                        continue
                    if t.dtype != out_spec.dtype:
                        continue
                    if not t.shape.is_fully_defined or t.shape != out_spec.shape:
                        continue
                    if not self._producer_allocates_fresh(t):
                        continue
                    entry[8] = (j, inplace)
                    break
        self.plan = [tuple(entry) for entry in self.plan]
        self._build_memory_plan()
        self._hoist_constants()

    def _hoist_constants(self) -> None:
        """Materialize Const nodes once, at plan-build time.

        A Const kernel is pure and hands out the graph-owned array, so
        dispatching it every run only pays per-node overhead.  The plan
        runs each unpinned Const here instead and seeds the run-local
        value store with the result (``self.const_store``).  Pinned
        constants (explicit device placement) keep their plan entry and
        dispatch normally.  Consumers can never donate these buffers —
        Const registers no in-place kernel, so the freshness check in
        the donation planner already rejects them.
        """
        self.const_store: dict[int, Tensor] = {}
        cpu = context.cpu_device()
        kept = []
        for entry in self.plan:
            _n, _ph, kernel, attrs, in_ids, _out, single, _d, _don = entry
            if (
                entry[0].op_name != "Const"
                or kernel is None
                or in_ids
                or single is None
            ):
                kept.append(entry)
                continue
            out_id, keep, out_dtype = single
            if not keep:
                continue  # dead constant: neither consumed nor fetched
            r = kernel([], attrs, cpu)
            arr = r if isinstance(r, np.ndarray) else np.asarray(r)
            if arr.flags.writeable:
                arr.flags.writeable = False
            self.const_store[out_id] = Tensor._from_buffer(arr, out_dtype, cpu)
        self.plan = kept

    @staticmethod
    def _producer_allocates_fresh(t: SymbolicTensor) -> bool:
        """Does ``t``'s producing kernel always return a fresh buffer?

        The in-place kernel registry doubles as the whitelist: an op only
        registers one if its normal kernel never returns (a view of) an
        input.  Fused regions track freshness per output.
        """
        node = t.node
        if node.op_name == FUSED_OP:
            return node.attrs["region"].fresh_outputs[t.index]
        return registry.has_inplace_kernel(node.op_name)

    def _build_memory_plan(self) -> None:
        """Static walk of the schedule, tracking live intermediate bytes.

        Produces ``self.memory_plan``: the peak number of bytes of
        *executor-produced* values live at once (placeholder feeds are
        caller-owned and count zero), assuming every intermediate is
        freed at its planned death.  Unknown dimensions count as 1, so
        symbolic plans report a lower bound (flagged).
        """
        live = 0
        peak = 0
        lower = False
        donated = 0
        fused = 0
        bytes_of: dict[int, int] = {}
        for node, is_ph, _k, attrs, in_ids, out_entries, _s, dies, donate in self.plan:
            if is_ph:
                bytes_of[out_entries[0][0]] = 0
                continue
            if node.op_name == FUSED_OP:
                fused += 1
                region = attrs["region"]
                peak = max(peak, live + region.internal_peak_bytes)
                lower |= region.peak_is_lower_bound
            else:
                # A node that runs a nested graph function (a staged
                # call, a rematerialized segment, a control-flow branch
                # or body) holds that callee's working set live on top
                # of ours while it executes.  Without this, the plan
                # would claim a checkpointed graph has no recompute
                # cost — the peak the planner exists to report.
                for value in (attrs or {}).values():
                    inner = _callee_peak_bytes(value)
                    if inner is not None:
                        peak = max(peak, live + inner[0])
                        lower |= inner[1]
            transferred = 0
            if donate is not None:
                donated += 1
                donated_id = in_ids[donate[0]]
                transferred = bytes_of.get(donated_id, 0)
                bytes_of[donated_id] = 0
            for sym, (out_id, keep, _dt) in zip(node.outputs, out_entries):
                if not keep:
                    continue
                nbytes, lb = _spec_bytes(sym.spec)
                lower |= lb
                if donate is not None and sym.index == 0:
                    bytes_of[out_id] = transferred
                else:
                    bytes_of[out_id] = nbytes
                    live += nbytes
                    if live > peak:
                        peak = live
            for i in dies:
                live -= bytes_of.pop(i, 0)
        self.memory_plan = {
            "peak_live_bytes": peak,
            "lower_bound": lower,
            "donated_nodes": donated,
            "fused_nodes": fused,
            "num_nodes": len(self.plan),
        }

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
        if self.plan_backend != context._kernel_backend:
            # The active array backend changed after this plan bound its
            # kernels; rebind so cached plans follow the knob.
            self._build_schedule()
        items = feeds.items() if isinstance(feeds, dict) else feeds
        feed_values: dict[int, Tensor] = {}
        for key, value in items:
            node = key.node if isinstance(key, SymbolicTensor) else key
            feed_values[id(node)] = value
        if self.feed_specs:
            self._validate_feeds(feed_values)
        return self._run_serial(feed_values)

    def _validate_feeds(self, feed_values: dict[int, Tensor]) -> None:
        """Check fed values against symbolic placeholder specs."""
        for node_id, (node, spec) in self.feed_specs.items():
            value = feed_values.get(node_id)
            if value is None:
                continue  # "not fed" is diagnosed by the run loop
            if value.dtype != spec.dtype or not value.shape.is_subtype_of(
                spec.shape
            ):
                raise InvalidArgumentError(
                    f"Placeholder {node.name!r} expects {spec.dtype.name}"
                    f"{spec.shape}, got {value.dtype.name}{value.shape} "
                    "(incompatible with this trace's symbolic signature)"
                )

    def _run_serial(self, feed_values: dict[int, Tensor]) -> list[Tensor]:
        if not self.label_errors:
            return self._run_serial_loop(feed_values)
        state: list = [None]  # the node being executed, for error labels
        try:
            return self._run_serial_loop(feed_values, state)
        except BaseException as exc:  # noqa: BLE001 - relabelled, re-raised
            node = state[0]
            if node is None:
                raise
            labelled = attach_op_name(exc, node.op_name)
            if labelled is exc:
                raise
            raise labelled

    def _run_serial_loop(
        self, feed_values: dict[int, Tensor], state: Optional[list] = None
    ) -> list[Tensor]:
        store: dict[int, Tensor] = dict(self.const_store)
        cpu = context.cpu_device()
        core = dispatch.core
        from_buffer = Tensor._from_buffer
        as_dtype = dtypes.as_dtype
        ndarray = np.ndarray
        for node, is_placeholder, kernel, attrs, in_ids, out_entries, single, dies, donate in self.plan:
            if state is not None:
                state[0] = node
            if is_placeholder:
                try:
                    value = feed_values[id(node)]
                except KeyError:
                    raise InvalidArgumentError(
                        f"Placeholder {node.name!r} was not fed"
                    ) from None
                store[out_entries[0][0]] = value
                continue
            try:
                inputs = [store[i] for i in in_ids]
            except KeyError:
                missing = [t.name for t in node.inputs if id(t) not in store]
                raise InternalError(
                    f"Value(s) {missing} consumed before being produced"
                ) from None

            # Fast path: unpinned single-output node, inputs on local
            # CPU, no graph-mode interceptor registered.
            arrays = None
            if kernel is not None and not core.graph_interceptors:
                arrays = []
                for t in inputs:
                    if t._device is not cpu:
                        arrays = None
                        break
                    arrays.append(t._array)
            if arrays is not None:
                cpu._kernel_launches += 1
                r = None
                if donate is not None:
                    # Planned buffer donation: overwrite the dying input
                    # in place.  Runtime guards (owned buffer, thawable,
                    # kernel accepts the out= shape) fall back to the
                    # allocating kernel — a polymorphic caller may have
                    # fed shapes the static plan did not anticipate.
                    buf = arrays[donate[0]]
                    if buf.base is None:
                        try:
                            buf.flags.writeable = True
                            r = donate[1](arrays, attrs, cpu, buf)
                        except (ValueError, TypeError):
                            r = None
                if r is None:
                    r = kernel(arrays, attrs, cpu)
                if single is not None and type(r) is ndarray:
                    out_id, keep, out_dtype = single
                    if keep:
                        if r.flags.writeable:
                            base = r.base
                            if base is not None and base.flags.writeable:
                                r = r.copy()
                            r.flags.writeable = False
                        store[out_id] = from_buffer(r, out_dtype, cpu)
                else:
                    if r is None:
                        r = ()
                    elif isinstance(r, (Tensor, ndarray)) or np.isscalar(r):
                        r = (r,)
                    for (out_id, keep, out_dtype), value in zip(out_entries, r):
                        if not keep:
                            continue
                        if isinstance(value, Tensor):
                            store[out_id] = value
                        else:
                            arr = value if isinstance(value, ndarray) else np.asarray(value)
                            store[out_id] = from_buffer(
                                cpu.wrap_output(arr), as_dtype(arr.dtype), cpu
                            )
            else:
                outputs = _dispatch_node(node, inputs)
                for (out_id, keep, _dt), out_val in zip(out_entries, outputs):
                    if keep:
                        store[out_id] = out_val

            # Buffer freeing: drop values after their last consumer.
            for i in dies:
                store.pop(i, None)
        if state is not None:
            state[0] = None  # fetch errors are not any node's fault
        return [self._fetch(store, t) for t in self.fetches]

    def _fetch(self, store: dict[int, Tensor], t) -> Optional[Tensor]:
        if isinstance(t, Node):
            return None  # an operation fetch (e.g. a training op)
        try:
            return store[id(t)]
        except KeyError:
            raise InternalError(f"Fetch {t.name!r} was not computed") from None
