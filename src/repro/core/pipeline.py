"""The staged-compilation pipeline: trace → infer → optimize → plan → compile.

Before this module existed, the path from a Python function to
executable code was an ad-hoc chain of calls buried in
:mod:`repro.core.function`: trace into a graph, optimize in place,
lazily build an execution plan, lazily compile for XLA.  The pipeline
makes those stages explicit, ordered, and reusable:

* **trace** — run the Python function under a graph-building context,
  producing a :class:`~repro.core.tracing.FuncGraph` (paper §4.6).  The
  trace's input signature may be *symbolic*: `TensorSpec`s with unknown
  (``None``) dimensions, produced either by an explicit
  ``input_signature`` or by the trace cache's relaxation policy.
* **infer** — re-propagate shape information through the graph
  (:func:`refine_shapes`).  Shape inference first runs node-by-node at
  trace time; this stage re-runs it after rewrites so sharpened input
  specs flow through the whole body.
* **optimize** — the grappler-style passes of
  :mod:`repro.graph.optimize`, which are conservative under unknown
  dimensions (a ``Shape`` op over a symbolic tensor stays dynamic).
* **plan** — the :class:`~repro.graph.executor.GraphRunner` execution
  schedule.  Plans are shape-polymorphic: kernels compute output shapes
  from the actual buffers, so one symbolic trace needs only one plan.
* **compile** — the XLA-sim executable.  Compilation *does* require
  static shapes (the roofline cost model consumes byte counts), so a
  symbolic trace is **specialized** per concrete shape first:
  :func:`CompilationPipeline.specialize` replays the traced graph under
  concrete input specs — re-running shape inference and constant
  propagation, *without* re-executing any Python — and
  :func:`repro.xla.compiler.executable_for` keeps the per-shape
  executables on the one symbolic trace's graph function.

This is the binding-time structure LazyTensor-style systems converge
on: bind Python early (one trace), bind shapes late (per-shape
artifacts only where a backend demands them).

**One artifact cache** (:func:`artifact_cache`) holds the planned graph
function of every lazy segment (by ``segment_key``, relaxed) and trace
(by ``trace_key`` plus the context the stages read), so a fresh trace
equal to a compiled one skips optimize → fuse → plan.  Its third tenant
is the eager tape's backward (:class:`TapeBackward`, keyed by
:class:`~repro.graph.structural.TapeStructure`): a tape structure seen
once is walked, seen twice is staged.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Callable, Optional, Sequence

from repro.graph.structural import trace_key
from repro.runtime import dispatch, records
from repro.runtime.context import context
from repro.tensor import TensorSpec

__all__ = [
    "CompilationPipeline",
    "TapeBackward",
    "TraceCache",
    "artifact_cache",
    "eager_cause",
    "refine_shapes",
    "tape_backward",
]


class TraceCache:
    """The two-level trace cache (§4.6): every ``Function``'s, and the artifact cache.

    Keys are ``(pattern, shapes)``: ``pattern`` is everything that must
    match exactly (device, dtype and rank per tensor, encoded static
    values, or a lazy segment's or a trace's structure), ``shapes`` the
    tensor shapes.

    * **Exact level**: ``(pattern, shapes) → artifact``.
    * **Relaxed level**: one artifact per pattern, traced at symbolic
      shapes and served to every call whose shapes are subtypes of them.
      With ``relax=True``, a miss whose shapes differ from the pattern's
      first seen shapes traces at their ``most_general`` merge (only the
      dims that varied become ``None``); a later miss the relaxed shapes
      do not cover widens them once more.

    Both levels share one LRU order bounded by
    ``context.trace_cache_size``; ``release`` is called on every
    artifact that leaves the cache.  Thread-safe.
    """

    def __init__(self, release: Callable) -> None:
        # (pattern, shapes) for an exact entry, (pattern, None) for the
        # relaxed one; most recently used last.
        self._entries: collections.OrderedDict = collections.OrderedDict()
        self._relaxed: dict = {}  # pattern -> shapes its entry was traced at
        self._seen: dict = {}  # pattern -> first shapes that missed
        self._release = release
        self._lock = threading.Lock()
        self._stats = {"hits": 0, "misses": 0, "relaxations": 0, "evictions": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def artifacts(self) -> list:
        with self._lock:
            return list(self._entries.values())

    def lookup(self, pattern, shapes: tuple, relax: bool = False) -> tuple:
        """``(artifact, slot, None)`` on a hit, ``(None, slot, relaxed)`` on a miss.

        On a miss the caller builds the artifact, at ``relaxed`` when it
        is not None (a symbolic trace) and at ``shapes`` otherwise, then
        stores it with ``insert(slot, artifact, relaxed)``.
        """
        with self._lock:
            slot = (pattern, shapes)
            artifact = self._entries.get(slot)
            if artifact is None:
                relaxed = self._relaxed.get(pattern)
                if relaxed is not None and all(
                    s.is_subtype_of(r) for s, r in zip(shapes, relaxed)
                ):
                    slot = (pattern, None)
                    artifact = self._entries[slot]
            if artifact is not None:
                self._entries.move_to_end(slot)
                self._stats["hits"] += 1
                return artifact, slot, None
            self._stats["misses"] += 1
            if not relax:
                return None, slot, None
            base = relaxed
            if base is None:
                base = self._seen.setdefault(pattern, shapes)
                if len(self._seen) > context.trace_cache_size:
                    del self._seen[next(iter(self._seen))]
            merged = tuple(b.most_general(s) for b, s in zip(base, shapes))
            if merged == shapes:  # nothing varied: an exact trace
                return None, slot, None
            return None, (pattern, None), merged

    def lookup_specs(self, pattern, shapes: tuple) -> tuple:
        """``lookup`` for shapes a caller asked for, not ones it was called with.

        Serves only an artifact built at exactly ``shapes``: the exact
        entry, or the relaxed one when it was traced at them.  On a
        miss, symbolic ``shapes`` become the pattern's relaxed entry if
        it has none.
        """
        with self._lock:
            slot = (pattern, shapes)
            if slot not in self._entries and self._relaxed.get(pattern) == shapes:
                slot = (pattern, None)
            artifact = self._entries.get(slot)
            if artifact is not None:
                self._entries.move_to_end(slot)
                self._stats["hits"] += 1
                return artifact, slot, None
            self._stats["misses"] += 1
            if pattern in self._relaxed or all(s.is_fully_defined for s in shapes):
                return None, slot, None
            return None, (pattern, None), shapes

    def insert(self, slot, artifact, relaxed: Optional[tuple] = None, yields: bool = False):
        """Store an artifact in ``slot``, evict past the bound; returns the slot's artifact.

        ``relaxed`` is the third value ``lookup`` returned for the slot.  An
        equal artifact another thread stored first stays and is returned.
        A ``yields`` artifact evicts the least recently used one of its own
        type when the cache holds another, so a stream of them cannot
        flush the other tenants' artifacts.
        """
        with self._lock:
            pattern, exact = slot
            old = self._entries.pop(slot, None)
            if old is not None and (exact is not None or self._relaxed[pattern] == relaxed):
                artifact = old  # lost a race: keep the one that may be running
            elif exact is None:
                if old is not None:  # widened: replaces the narrower artifact
                    self._release(old)
                self._relaxed[pattern] = relaxed
                self._seen.pop(pattern, None)
                self._stats["relaxations"] += 1
            self._entries[slot] = artifact
            while len(self._entries) > context.trace_cache_size:
                victim = next(iter(self._entries))
                if yields:
                    kind = type(artifact)
                    victim = next(
                        (s for s, a in self._entries.items() if type(a) is kind and s != slot),
                        victim,
                    )
                pattern, exact = victim
                evicted = self._entries.pop(victim)
                if exact is None:
                    del self._relaxed[pattern]
                self._release(evicted)
                self._stats["evictions"] += 1
            return artifact

    def clear(self) -> None:
        with self._lock:
            for artifact in self._entries.values():
                self._release(artifact)
            self._entries.clear()
            self._relaxed.clear()
            self._seen.clear()
            for key in self._stats:
                self._stats[key] = 0

    def stats(self) -> dict:
        """Hit/miss/relaxation/eviction counters plus the current size."""
        with self._lock:
            return dict(self._stats, size=len(self._entries))


# Lazy segments, traces and tape backwards: a trace's pattern starts
# "trace", a tape's "tape", never a segment's.
_artifacts = TraceCache(lambda fn: fn.release_plan())


def artifact_cache() -> TraceCache:
    """The process-wide artifact cache (lazy segments, traced functions, tape backwards)."""
    return _artifacts


class TapeBackward:
    """The artifact of one eager tape structure: walked once, then a planned backward.

    Stored unbuilt on the structure's first sighting, whose gradient
    walks.  The second sighting sets ``built`` to ``(runner, inputs,
    feeds, mask)``: the compacted plan of the backward graph function,
    its input placeholders, the positions of the tape values fed to
    them, and which sources its outputs are the gradients of.
    ``failed``: the build or a run raised, so the structure walks.
    ``key``: the structure's key, stored by the second sighting.
    """

    __slots__ = ("built", "failed", "key")

    def __init__(self) -> None:
        self.built: Optional[tuple] = None
        self.failed = False
        self.key: Optional[tuple] = None

    def run(self, values: Sequence) -> Optional[list]:
        """One gradient (or None) per source, from the tape ``values``;
        None if the entry holds no plan (evicted meanwhile)."""
        built = self.built
        if built is None:
            return None
        runner, inputs, feeds, mask = built
        produced = iter(runner.run([(ph, values[p]) for ph, p in zip(inputs, feeds)]))
        return [next(produced) if has else None for has in mask]

    def release_plan(self) -> None:
        self.built = None


def tape_backward(key: tuple) -> Optional[TapeBackward]:
    """The entry for tape structure ``key``; None to walk without one.

    Entries are slotted by ``hash(key)``.  The first sighting stores an
    unbuilt entry that holds nothing else, so a structure seen once
    costs a few hundred bytes, not its key.  The second sighting stores
    the key in the entry, and every later one must equal it (a hash
    collision walks, as a first sighting).  A full cache evicts another
    tape's entry for a new one, when it holds one: tapes whose structure
    never repeats then leave the traced and lazy artifacts alone.
    """
    entry, slot, _ = _artifacts.lookup(("tape", hash(key)), ())
    if entry is None:
        _artifacts.insert(slot, TapeBackward(), yields=True)
    elif entry.key is None:
        entry.key = key
    elif entry.key != key:
        return None
    return entry


def eager_cause(values: Sequence, recorder=None) -> Optional[str]:
    """Why an eager block cannot run a staged artifact here, or None if it can.

    The policy of every site that stages an eager block (a tape's
    backward, an optimizer's update); each counts the cause under its
    own site.  ``lazy`` or ``symbolic``: the block is recorded or
    staged with its caller.  ``recorder``: an active recorder other
    than ``recorder`` must see the block op by op.  ``intercepted``: a
    graph-mode interceptor would see the artifact's ops, not the
    block's.  ``off_cpu``: a device scope names another device, or one
    of ``values`` lives off the CPU (an artifact runs as CPU code).
    """
    if context.executor_mode != "sync":
        return "lazy"
    if not context.executing_eagerly():
        return "symbolic"
    if any(r is not recorder for r in records.active_recorders()):
        return "recorder"
    if dispatch.core.graph_interceptors:
        return "intercepted"
    cpu = context.cpu_device()
    scope = context.current_device_name()
    if scope is not None and context.get_device(scope) is not cpu:
        return "off_cpu"
    if any(getattr(v, "_device", cpu) is not cpu for v in values):
        return "off_cpu"
    return None


def refine_shapes(fn) -> int:
    """Re-run shape inference over a graph function, sharpening specs.

    Walks the nodes in topological order, re-invokes each op's inference
    function on its (possibly rewritten) inputs, and merges the result
    into the recorded output specs — the *most specific* shape
    compatible with both wins.  Inference failures and inconsistencies
    are treated conservatively: the existing spec is kept.

    A graph in which no node was ever created with an unknown dimension
    (an exact trace) has nothing to sharpen, so it returns without
    visiting a node.

    Returns the number of tensors whose spec became more specific.
    """
    if not fn.graph.has_unknown_dims:
        return 0
    refined = 0
    for node in fn.graph.nodes:
        if node.op_name == "Placeholder":
            continue
        op_def = node.op_def
        if op_def.infer_fn is None:
            continue
        try:
            new_specs = op_def.infer(node.inputs, node.attrs)
        except Exception:
            continue  # conservative: inference may not handle unknown dims
        if len(new_specs) != len(node.outputs):
            continue
        for out, spec in zip(node.outputs, new_specs):
            if out.refine_spec(spec):
                refined += 1
    if refined:
        fn.input_specs = [TensorSpec(t.shape, t.dtype) for t in fn.inputs]
        fn.output_specs = [TensorSpec(t.shape, t.dtype) for t in fn.outputs]
        fn.release_plan()
    return refined


class CompilationPipeline:
    """Orchestrates the stages that turn a trace into executable code.

    One pipeline is shared by all of a ``Function``'s concrete traces;
    it is stateless apart from configuration (the optimization pass
    list), so stages can also be invoked individually — the ablation
    benchmarks and the specialization cache both do.
    """

    #: Stage names, in execution order (introspection / reporting).
    STAGES = ("trace", "infer", "optimize", "plan", "compile")

    def __init__(self, passes: Optional[Sequence[str]] = None) -> None:
        self.passes = None if passes is None else tuple(passes)

    # -- stage 1: trace ---------------------------------------------------
    def trace(
        self,
        python_fn: Callable,
        input_specs: Sequence[TensorSpec],
        name: str,
        structured_args=None,
    ):
        """Trace ``python_fn`` into a fresh FuncGraph (paper §4.6).

        Returns ``(func_graph, flat_outputs, output_structure)`` exactly
        as :func:`repro.core.tracing.trace_into_graph` does.
        """
        from repro.core import tracing

        return tracing.trace_into_graph(
            python_fn, input_specs, name=name, structured_args=structured_args
        )

    # -- stages 2-4 behind the artifact cache --------------------------------
    def compile_trace(self, fn, num_explicit: int) -> tuple:
        """``(artifact, reused)``: a compiled trace equal to ``fn``, or ``fn`` finalized.

        A trace with an unhashable attr is finalized uncached.
        """
        key = trace_key(fn, num_explicit)
        artifact = slot = None
        if key is not None:
            key = ("trace", key, context.graph_fusion, context.current_device_name(), self.passes)
            artifact, slot, _ = _artifacts.lookup(key, ())
        if artifact is None:
            self.finalize(fn)
            artifact = fn if slot is None else _artifacts.insert(slot, fn)
        if artifact is not fn:  # unlink the dropped trace: freed now, not at a full collection
            for node in fn.graph.nodes:
                node.graph = node.outputs = None
        return artifact, artifact is not fn

    # -- stages 2+3: infer + optimize -------------------------------------
    def finalize(self, fn) -> dict:
        """Run the post-trace analysis stages on a graph function.

        Optimization first (rewrites may replace symbolic chains with
        constants), then a shape-refinement sweep so the sharpened specs
        are visible to later stages.  Returns the merged report: the
        per-pass counts, ``infer:refined``, and every ``*_ms`` stage
        time recorded on ``fn.stage_ms`` so far.
        """
        report = self.optimize(fn)
        start = time.perf_counter()
        report["infer:refined"] = refine_shapes(fn)
        fn.stage_ms["infer_ms"] = (time.perf_counter() - start) * 1e3
        report.update(fn.stage_ms)
        return report

    def optimize(self, fn) -> dict:
        from repro.graph.optimize import optimize_function

        return optimize_function(fn, self.passes)

    # -- stage 4: plan -----------------------------------------------------
    def plan(self, fn):
        """The (cached) shape-polymorphic execution plan for ``fn``."""
        return fn.plan()

    # -- stage 5: compile (with per-shape specialization) ------------------
    def specialize(self, fn, input_specs: Sequence[TensorSpec]):
        """Clone ``fn`` with its inputs refined to ``input_specs``.

        The graph is symbolically replayed node-by-node
        (:func:`repro.core.tracing.replay_into`), which re-runs shape
        inference and constant propagation: ``Shape`` ops over
        now-static tensors become foldable again, and the optimization
        passes then clean up behind them.  No Python is re-executed —
        specialization is cheap relative to a retrace, which is the
        whole point of keeping one symbolic trace.
        """
        from repro.core.tracing import ReplayGraph, replay_into
        from repro.graph.function import GraphFunction

        graph = ReplayGraph(name=f"{fn.name}_spec")
        new_inputs, _, new_outputs = replay_into(fn, graph, input_specs=input_specs)
        specialized = GraphFunction(
            name=f"{fn.name}_spec",
            graph=graph,
            inputs=new_inputs,
            outputs=new_outputs,
        )
        self.finalize(specialized)
        return specialized

    # -- lazy segments -----------------------------------------------------
    def compile_segment(
        self,
        name: str,
        input_specs: Sequence[TensorSpec],
        ops: Sequence[tuple],
        fetches: Sequence[tuple],
    ):
        """Lower one recorded lazy-trace segment to a planned graph function.

        The lazy executor (:mod:`repro.runtime.lazy`) hands over the
        recorded segment in a graph-free form and gets back an
        executable artifact that went through the same pipeline stages
        as a traced ``function``: build → optimize (incl. the ``fuse``
        pass when ``context.graph_fusion`` is on) → shape refinement →
        plan (with the static memory plan and in-place donation).

        Args:
            name: artifact name (diagnostics only).
            input_specs: one :class:`TensorSpec` per external input, in
                feed order.  Relaxed (``None``-dimension) specs produce
                a shape-polymorphic artifact.
            ops: recorded operations in program order, each a tuple
                ``(op_name, attrs, in_refs)`` where every input ref is
                ``("e", i)`` (external input ``i``) or ``("o", k, j)``
                (output ``j`` of recorded op ``k``).
            fetches: ``(k, j)`` pairs selecting the live outputs, in the
                order the caller wants them back from ``run()``.

        Returns:
            A planned :class:`~repro.graph.function.GraphFunction`.
        """
        from repro.framework.tensor_shape import TensorShape
        from repro.graph.function import GraphFunction
        from repro.graph.graph import Graph

        graph = Graph(name=name)
        inputs = [
            graph.add_operation(
                "Placeholder",
                [],
                {"dtype": spec.dtype, "shape": TensorShape(spec.shape)},
                name=f"seg_arg_{i}",
            )[0]
            for i, spec in enumerate(input_specs)
        ]
        produced: list = []
        for op_name, attrs, in_refs in ops:
            sym_inputs = [
                inputs[ref[1]] if ref[0] == "e" else produced[ref[1]][ref[2]]
                for ref in in_refs
            ]
            produced.append(graph.add_operation(op_name, sym_inputs, attrs))
        outputs = [produced[k][j] for k, j in fetches]
        fn = GraphFunction(name=name, graph=graph, inputs=inputs, outputs=outputs)
        self.finalize(fn)
        self.plan(fn)
        return fn

    def compile(
        self,
        fn,
        input_specs: Optional[Sequence[TensorSpec]] = None,
    ):
        """Compile ``fn`` to an XLA-sim executable.

        When ``input_specs`` is given and the function's own signature
        is not fully static, the function is specialized to those
        concrete shapes first.  Uncached; callers that run the result
        go through :func:`repro.xla.compiler.executable_for`.
        """
        from repro.xla.compiler import compile_function

        target = fn
        if input_specs is not None and not all(
            spec.is_fully_defined for spec in fn.input_specs
        ):
            target = self.specialize(fn, input_specs)
        return compile_function(target)
