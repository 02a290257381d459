"""The polymorphic ``function`` decorator — the tracing JIT (paper §4.6).

``function(f)`` returns a callable that is "an opt-in, JIT compiler
that generates an optimized polymorphic function for a Python function,
creating concrete functions backed by dataflow graphs via a
straightforward binding-time analysis at run-time" (§4.1).

The moving parts, each mirroring a paragraph of §4.6:

* **Polymorphism** — a trace cache maps inferred input signatures
  (tensors abstracted to dtype/shape, non-tensor values encoded by
  value or identity, plus the requested device) to monomorphic
  :class:`ConcreteFunction` objects.
* **Input signatures** — an explicit ``input_signature`` pins a single
  trace with relaxed shapes.
* **Lexical closure** — tensors and variables the Python function
  closes over are captured as silent extra inputs; variables by
  reference (Listing 7).
* **Composition** — calling a traced function inside another trace
  stages a single call operation (Listing 8 / Figure 2).
* **State creation** — variables may only be created on the first
  trace; when that happens the function is traced a second time, and
  any later creation raises (the two-trace contract).
* **Tape integration** — calling a concrete function under a watching
  tape runs the *forward* variant (outputs + intermediates) and records
  a custom backward that invokes a staged backward function (§4.2).
* **Shape relaxation** — the trace cache is two-level.  The first level
  is an exact LRU map over concrete signatures.  On repeated shape-only
  misses of the same dtype/rank pattern, the second level installs a
  single *symbolic* trace whose varying dimensions are generalized to
  ``None`` (per function, ``experimental_relax_shapes=True``);
  further calls with any compatible shape hit that one trace.  Each
  trace flows through the staged-compilation pipeline
  (:mod:`repro.core.pipeline`): trace → infer → optimize → plan →
  compile, with per-concrete-shape XLA specialization under a symbolic
  trace.
"""

from __future__ import annotations

import collections
import functools
import inspect
import threading
import time
import warnings
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from repro.framework import dtypes, nest
from repro.framework.errors import (
    FailedPreconditionError,
    InvalidArgumentError,
)
from repro.runtime import records
from repro.runtime.context import context
from repro.tensor import Tensor, TensorBase, TensorSpec, convert_to_tensor
from repro.core import tracing
from repro.core.pipeline import CompilationPipeline
from repro.core.variables import Variable, variable_creation_observer
from repro.graph.function import GraphFunction

__all__ = [
    "function",
    "Function",
    "ConcreteFunction",
    "RetraceWarning",
    "SegmentCache",
    "reset_retrace_warning_state",
]


class SegmentCache:
    """Two-level cache of compiled lazy-trace segments.

    The lazy executor (:mod:`repro.runtime.lazy`) hashes every flushed
    segment — op list, attributes, dataflow references, fetch mask, and
    external-input signature — and looks the artifact up here, reusing
    the ``Function`` trace cache's two-level policy:

    * **Exact level**: ``(structural key, concrete external shapes) →
      artifact``, LRU-ordered and bounded by
      ``context.trace_cache_size``; evicted artifacts have ``release()``
      called so their execution plans are dropped.
    * **Relaxed level**: one shape-relaxed artifact per structural key,
      installed after :data:`RELAX_RETRACES` shape-only misses of
      the same structure.  Execution plans are shape-polymorphic, so a
      single relaxed artifact (placeholder dims generalized to ``None``)
      serves every concrete shape the structure admits — the
      steady-state training loop with varying batch sizes compiles
      once.

    Artifacts are planned graph functions, released by
    ``release_plan()``; the cache never inspects them.  Thread-safe.
    """

    def __init__(self) -> None:
        self._exact: collections.OrderedDict = collections.OrderedDict()
        self._relaxed: dict = {}
        self._shape_misses: dict = {}
        self._lock = threading.Lock()
        self._stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "relaxations": 0,
        }

    def lookup(self, structural_key, shapes) -> tuple:
        """Return ``(artifact or None, build_relaxed)``.

        ``build_relaxed`` asks the caller to compile the miss with
        relaxed (``None``-dimension) external specs and insert it via
        ``insert(..., relaxed=True)``: the structure has now missed on
        shapes alone :data:`RELAX_RETRACES` times.
        """
        with self._lock:
            artifact = self._exact.get((structural_key, shapes))
            if artifact is not None:
                self._exact.move_to_end((structural_key, shapes))
                self._stats["hits"] += 1
                return artifact, False
            artifact = self._relaxed.get(structural_key)
            if artifact is not None:
                self._stats["hits"] += 1
                return artifact, False
            self._stats["misses"] += 1
            seen = self._shape_misses.get(structural_key, 0) + 1
            self._shape_misses[structural_key] = seen
            return None, seen > RELAX_RETRACES

    def insert(self, structural_key, shapes, artifact, relaxed: bool = False) -> None:
        """Add a compiled artifact, evicting LRU entries past the bound."""
        with self._lock:
            if relaxed:
                old = self._relaxed.pop(structural_key, None)
                if old is not None:
                    old.release_plan()
                self._relaxed[structural_key] = artifact
                self._shape_misses.pop(structural_key, None)
                self._stats["relaxations"] += 1
                return
            self._exact[(structural_key, shapes)] = artifact
            limit = context.trace_cache_size
            while len(self._exact) > limit:
                _, evicted = self._exact.popitem(last=False)
                evicted.release_plan()
                self._stats["evictions"] += 1

    def clear(self) -> None:
        with self._lock:
            for artifact in self._exact.values():
                artifact.release_plan()
            for artifact in self._relaxed.values():
                artifact.release_plan()
            self._exact.clear()
            self._relaxed.clear()
            self._shape_misses.clear()
            for key in self._stats:
                self._stats[key] = 0

    def stats(self) -> dict:
        """Hit/miss/eviction/relaxation counters plus current size."""
        with self._lock:
            stats = dict(self._stats)
            stats["size"] = len(self._exact) + len(self._relaxed)
            return stats


class RetraceWarning(UserWarning):
    """Issued when a Function keeps retracing on recent calls.

    Retracing re-runs the Python function and all compilation stages;
    a high retrace rate usually means tensor shapes (or Python-value
    arguments) vary call-to-call.  The warning names the cache-key leaf
    that differed so the offending argument is identifiable.
    """


#: Shape-only misses of one dtype/rank pattern (``Function``) or segment
#: structure (``SegmentCache``) tolerated before the varying dimensions
#: generalize to ``None``: the second distinct shape traces symbolically.
RELAX_RETRACES = 1

#: Sliding window of recent calls inspected for retrace churn.
_RETRACE_WINDOW = 10
#: Number of traces within the window that triggers a warning.
_RETRACE_THRESHOLD = 5
#: Minimum calls between two warnings for the same Function.
_RETRACE_WARN_INTERVAL = 32

#: Bound on the level-0 (fast call path) route map; cleared wholesale
#: when exceeded — routes re-record lazily on the next slow-path call.
_FAST_KEY_LIMIT = 1024

#: How many distinct concrete input-shape tuples a symbolic trace
#: remembers for per-specialization memory-plan reporting.
_SEEN_SHAPE_LIMIT = 8

#: Every live Function, so test harnesses can reset the rate-limited
#: RetraceWarning state between tests (the warn interval otherwise
#: suppresses warnings across test boundaries).
_LIVE_FUNCTIONS: "weakref.WeakSet" = weakref.WeakSet()


def reset_retrace_warning_state() -> None:
    """Reset every live Function's retrace-churn warning state.

    The RetraceWarning machinery is deliberately rate-limited
    (``_RETRACE_WARN_INTERVAL`` calls between warnings, a sliding
    window of recent traces): correct for a long-lived program, wrong
    across test boundaries, where one test's churn can suppress — or
    trigger — another test's warning.  Harnesses call this alongside
    the context-knob resets.
    """
    for fn in list(_LIVE_FUNCTIONS):
        with fn._lock:
            fn._recent_traces.clear()
            fn._call_index = 0
            fn._last_warn_index = None
            fn._last_trace_key = None


def _describe_key_leaf(leaf) -> str:
    if isinstance(leaf, tuple) and leaf and leaf[0] == "tensor":
        dtype, shape = leaf[1], leaf[2]
        return f"tensor<{getattr(dtype, 'name', dtype)}, shape={shape}>"
    return repr(leaf)


def _diff_cache_keys(prev: tuple, new: tuple) -> str:
    """Human-readable first difference between two trace-cache keys."""
    if prev[0] != new[0]:
        return f"device changed: {prev[0]!r} -> {new[0]!r}"
    for i, (a, b) in enumerate(zip(prev[1:], new[1:])):
        if a != b:
            return (
                f"argument leaf #{i} changed: "
                f"{_describe_key_leaf(a)} -> {_describe_key_leaf(b)}"
            )
    return f"argument count changed: {len(prev) - 1} -> {len(new) - 1}"


class ConcreteFunction:
    """A single traced instantiation: fixed signature, executable graph."""

    def __init__(
        self,
        name: str,
        graph: "tracing.FuncGraph",
        flat_outputs: list,
        output_structure,
        num_explicit_inputs: int,
        jit_compile: bool = False,
        pipeline: Optional[CompilationPipeline] = None,
    ) -> None:
        self.name = name
        self.func_graph = graph
        self.captured_externals = list(graph.captured_externals)
        self.graph_function = GraphFunction(
            name=name,
            graph=graph,
            inputs=list(graph.inputs) + list(graph.capture_placeholders),
            outputs=flat_outputs,
        )
        self.output_structure = output_structure
        self.num_explicit_inputs = num_explicit_inputs
        self.jit_compile = jit_compile
        self.pipeline = pipeline if pipeline is not None else CompilationPipeline()
        self._shapes_lock = threading.Lock()
        self._forward_backward = None
        self._fb_lock = threading.Lock()
        # Concrete input-shape tuples this trace has actually run with,
        # LRU-bounded; only populated when the signature has symbolic
        # dims.  ``execution_stats`` builds a specialized memory plan
        # per remembered shape (cached in ``_specialized_plans``) so a
        # symbolic trace still reports concrete peak-live-bytes.
        self._symbolic: Optional[bool] = None
        self._seen_shapes: collections.OrderedDict = collections.OrderedDict()
        self._specialized_plans: dict = {}

    # -- introspection --------------------------------------------------------
    @property
    def graph(self):
        return self.func_graph

    @property
    def num_nodes(self) -> int:
        return len(self.func_graph.nodes)

    def definition(self) -> dict:
        return self.graph_function.definition()

    # -- execution ---------------------------------------------------------
    def __call__(self, *flat_tensor_args):
        """Invoke with flat tensor inputs (structure handled by Function)."""
        full_inputs = list(flat_tensor_args) + self.captured_externals
        if self._symbolic is not False:
            self._note_shapes(full_inputs)
        if records.could_record(full_inputs):
            flat_results = self._call_with_tape(full_inputs)
        else:
            flat_results = self._call_plain(full_inputs)
        return self._pack_outputs(flat_results)

    def _call_plain(self, full_inputs: list) -> list:
        if self.jit_compile:
            from repro.framework.errors import UnimplementedError
            from repro.xla.compiler import executable_for

            try:
                exe = executable_for(self.graph_function, full_inputs)
            except UnimplementedError:
                pass  # e.g. py_func inside: remembered; run the plan
            else:
                explicit = context.current_device_name()
                return exe.run(
                    full_inputs,
                    context.get_device(explicit) if explicit else context.cpu_device(),
                )
        from repro.ops.functional_ops import call_graph_function

        return list(call_graph_function(self.graph_function, full_inputs))

    def _note_shapes(self, full_inputs: list) -> None:
        """Remember the concrete shapes a symbolic trace runs with."""
        if self._symbolic is None:
            self._symbolic = not all(
                spec.is_fully_defined
                for spec in self.graph_function.input_specs
            )
        if not self._symbolic:
            return
        try:
            key = tuple(t.shape.as_tuple() for t in full_inputs)
        except Exception:
            return  # e.g. a pending tensor whose shape is unresolved
        with self._shapes_lock:
            if key in self._seen_shapes:
                self._seen_shapes.move_to_end(key)
                return
            self._seen_shapes[key] = True
            while len(self._seen_shapes) > _SEEN_SHAPE_LIMIT:
                evicted, _ = self._seen_shapes.popitem(last=False)
                self._specialized_plans.pop(evicted, None)

    def specialized_memory_plan(self, shapes: tuple) -> Optional[dict]:
        """The static memory plan at one concrete input-shape tuple.

        Specializes the (symbolic) trace to ``shapes`` through the
        pipeline — no Python re-execution — and returns the resulting
        plan's memory report, cached per shape tuple.  Returns None when
        specialization fails (e.g. the shapes are incompatible).
        """
        with self._shapes_lock:
            plan = self._specialized_plans.get(shapes)
        if plan is not None:
            return plan
        gf = self.graph_function
        if len(shapes) != len(gf.input_specs):
            return None
        specs = [
            TensorSpec(shape, spec.dtype)
            for shape, spec in zip(shapes, gf.input_specs)
        ]
        try:
            specialized = self.pipeline.specialize(gf, specs)
            plan = dict(specialized.plan().memory_plan or {})
        except Exception:
            return None
        with self._shapes_lock:
            self._specialized_plans[shapes] = plan
        return plan

    def release(self) -> None:
        """Drop derived artifacts so an evicted trace frees its memory.

        Clears the forward/backward gradient graphs, the rematerializing
        backward, and the execution plan together with the executables
        compiled from it (``graph_function.executables``).  All are
        rebuilt lazily if the trace is ever called again, so releasing
        is safe even while callers hold a reference.
        """
        with self._shapes_lock:
            self._specialized_plans.clear()
        with self._fb_lock:
            if not isinstance(self._forward_backward, Exception):
                self._forward_backward = None
        gf = self.graph_function
        gf.release_plan()
        if hasattr(gf, "_remat_backward"):
            del gf._remat_backward

    def _call_with_tape(self, full_inputs: list) -> list:
        """Run the forward variant and record a staged backward (§4.2)."""
        from repro.framework.errors import UnimplementedError
        from repro.ops.functional_ops import call_graph_function

        try:
            fb = self._get_forward_backward()
        except UnimplementedError as exc:
            # The function contains an op with no gradient (e.g. a staged
            # While).  The forward pass still runs; asking for the
            # gradient surfaces the error.
            message = str(exc)
            with records.suspend():
                results = self._call_plain(full_inputs)

            def failing_backward(*out_grads):
                raise UnimplementedError(message)

            records.record_operation(
                "PartitionedCall",
                {"f": self.graph_function},
                full_inputs,
                results,
                backward_function=failing_backward,
            )
            return results
        with records.suspend():
            results = list(call_graph_function(fb.forward_fn, full_inputs))
        user_outputs = results[: fb.num_outputs]

        def backward_function(*out_grads):
            from repro.core import backprop
            from repro.ops import array_ops

            user_grads = out_grads[: fb.num_outputs]
            extra_grads = out_grads[fb.num_outputs :]
            if any(g is not None for g in extra_grads):
                # Higher-order case: an outer tape differentiated through
                # the saved intermediates.  Fall back to a backward that
                # accepts gradients for every forward output.
                return backprop.graph_function_backward(
                    fb.forward_fn, full_inputs, results, list(out_grads)
                )
            if fb.backward_fn is None:
                return [None] * len(full_inputs)
            seeds = []
            for i in fb.diff_output_indices:
                g = user_grads[i]
                if g is None:
                    g = backprop.zero_seed(user_outputs[i])
                seeds.append(g)
            saved = [results[j] for j in fb.boundary_indices]
            produced = list(
                call_graph_function(fb.backward_fn, saved + seeds)
            )
            grads = []
            it = iter(produced)
            for has_grad in fb.input_grad_mask:
                grads.append(next(it) if has_grad else None)
            return grads

        # The tape sees every forward output — named outputs *and*
        # intermediates — so gradients that flow into the intermediates
        # (higher-order differentiation) stay connected (§4.2).
        records.record_operation(
            "PartitionedCall",
            {"f": fb.forward_fn},
            full_inputs,
            results,
            backward_function=backward_function,
        )
        return user_outputs

    def _get_forward_backward(self):
        with self._fb_lock:
            if isinstance(self._forward_backward, Exception):
                raise self._forward_backward
            if self._forward_backward is None:
                from repro.core import backprop
                from repro.framework.errors import UnimplementedError

                try:
                    self._forward_backward = backprop.build_forward_backward(
                        self.graph_function
                    )
                except UnimplementedError as exc:
                    self._forward_backward = exc
                    raise
            return self._forward_backward

    def _pack_outputs(self, flat_results: list):
        structure = self.output_structure
        if structure is None:
            return None

        def restore(leaf):
            return None if leaf is None else flat_results[leaf]

        if not nest.is_nested(structure):
            return restore(structure)
        return nest.map_structure(restore, structure)

    def __repr__(self) -> str:
        return (
            f"<ConcreteFunction {self.name!r}: "
            f"{self.num_explicit_inputs} args + "
            f"{len(self.captured_externals)} captures, "
            f"{self.num_nodes} nodes>"
        )


def _leaf_key(leaf):
    """Cache-key encoding for one argument leaf (binding-time analysis).

    Tensors become abstract types; variables specialize by identity (they
    are bound into the trace by reference); other Python values by value
    when hashable, by identity otherwise — "non-tensor values are encoded
    by object identity" (§4.6).
    """
    if isinstance(leaf, TensorBase):
        return ("tensor", leaf.dtype, leaf.shape)
    if isinstance(leaf, TensorSpec):
        # A spec leaf (get_concrete_function/save) keys exactly like a
        # tensor of that abstract type, symbolic dims included.
        return ("tensor", leaf.dtype, leaf.shape)
    if isinstance(leaf, Variable):
        return ("variable", id(leaf))
    if isinstance(leaf, np.ndarray):
        return ("tensor", dtypes.as_dtype(leaf.dtype), tuple(leaf.shape))
    try:
        hash(leaf)
    except TypeError:
        return ("id", id(leaf))
    return ("value", type(leaf).__name__, leaf)


def _is_tensor_leaf(leaf) -> bool:
    # TensorSpec counts: a spec leaf stands in for a tensor argument at
    # trace time (get_concrete_function with symbolic shapes).
    return isinstance(leaf, (TensorBase, np.ndarray, Tensor, TensorSpec))


def _contains_spec(structure) -> bool:
    return any(isinstance(leaf, TensorSpec) for leaf in nest.flatten(structure))


class _RelaxedTrace:
    """A symbolic trace plus the (possibly widened) specs it was traced at."""

    __slots__ = ("specs", "concrete")

    def __init__(self, specs: list, concrete: ConcreteFunction) -> None:
        self.specs = specs
        self.concrete = concrete


class Function:
    """The polymorphic callable returned by the ``function`` decorator."""

    def __init__(
        self,
        python_function: Callable,
        name: Optional[str] = None,
        input_signature: Optional[Sequence[TensorSpec]] = None,
        jit_compile: bool = False,
        experimental_relax_shapes: bool = False,
        autograph: bool = True,
    ) -> None:
        self._python_function = python_function
        self._autograph = autograph
        # Converted on the first trace, then cached: conversion parses
        # and recompiles source, which must not re-run per trace.
        self._converted_function: Optional[Callable] = None
        self._jit_compile = bool(jit_compile)
        self._name = name or getattr(python_function, "__name__", "fn")
        self._input_signature = (
            None if input_signature is None else list(input_signature)
        )
        self._experimental_relax_shapes = experimental_relax_shapes
        self._pipeline = CompilationPipeline()
        # Level 1: exact concrete signatures, LRU-ordered (most recently
        # used last).  Bounded by ``context.trace_cache_size``.
        self._cache: collections.OrderedDict = collections.OrderedDict()
        # Level 2: one symbolic trace per dtype/rank pattern, installed
        # by the relaxation policy.  Bounded by pattern diversity.
        self._relaxed: dict = {}
        # Shape-only misses per pattern, with the running most-general
        # merge of the concrete specs seen so far.
        self._pattern_seen: dict = {}
        # Level 0: (device, dtype/shape per arg) -> where the full
        # binding-time analysis routed that call.  Serves the common
        # steady-state call — all-positional eager tensors, no kwargs —
        # without flatten/bind/key construction (§4.6's lookup cost).
        self._fast_keys: dict = {}
        self._stats = {
            "hits": 0,
            "misses": 0,
            "traces": 0,
            "relaxations": 0,
            "evictions": 0,
        }
        self._recent_traces: collections.deque = collections.deque(
            maxlen=_RETRACE_WINDOW
        )
        self._call_index = 0
        self._last_warn_index: Optional[int] = None
        self._last_trace_key: Optional[tuple] = None
        # Wall-clock cost of the most recent trace + optimize + infer,
        # quoted by RetraceWarning.
        self._last_trace_ms = 0.0
        self._lock = threading.RLock()
        self._trace_count = 0
        self._created_variables: list[Variable] = []
        self._lifted_initializer_done = False
        functools.update_wrapper(self, python_function)
        try:
            self._signature = inspect.signature(python_function)
        except (TypeError, ValueError):
            self._signature = None
        _LIVE_FUNCTIONS.add(self)

    # -- public surface -------------------------------------------------------
    @property
    def python_function(self) -> Callable:
        return self._python_function

    @property
    def trace_count(self) -> int:
        """How many times the Python function has been traced (for tests)."""
        return self._trace_count

    def cache_stats(self) -> dict:
        """Trace-cache counters: hits, misses, traces, relaxations, evictions.

        ``hits`` counts calls served from either cache level without
        tracing; ``misses`` counts calls that required one; ``traces``
        counts actual traces of the Python function (a state-creating
        first call contributes two, per the two-trace contract);
        ``relaxations`` counts symbolic traces installed or widened by
        the relaxation policy; ``evictions`` counts exact traces dropped
        by the LRU bound.  ``size`` is the current number of live traces
        across both levels.
        """
        with self._lock:
            stats = dict(self._stats)
            stats["size"] = len(self._cache) + len(self._relaxed)
            return stats

    def execution_stats(self, profile=None) -> dict:
        """Graph-execution statistics for every live trace.

        Returns a dict with one entry per trace (exact and relaxed
        cache levels), each reporting the fusion outcome (node counts
        before/after the ``fuse`` pass, fused-region sizes from largest
        to smallest, how many regions reused a cached code object), the
        wall-clock cost of each compilation stage (``stage_ms``: ``trace_ms``, one
        ``<i>:<pass>_ms`` per optimize pass including ``fuse``,
        ``infer_ms``, ``plan_ms``), and the executor's static memory plan (peak
        planned live bytes, in-place donation count, plus the byte size
        of the trace's own input signature — inputs are caller-held and
        count zero inside the plan).  A symbolic (shape-relaxed) trace
        reports its plan as a lower bound and additionally lists a
        ``specializations`` entry with the concrete peak-live-bytes for
        every input-shape tuple it has actually run with (built on
        demand via pipeline specialization, cached per shape).  When
        the concrete function has already built its staged
        forward/backward pair, those graphs are reported too — the
        backward function runs through the same fusion pass.

        Per-op wall times come from the existing dispatch-interceptor
        hooks: pass a :class:`repro.runtime.profiler.Profile` that was
        active while the function ran (or call this inside an active
        ``with Profile()`` block) and the report includes its per-op
        timing table; fused regions appear under ``FusedElementwise``.
        """
        from repro.graph.fusion import _spec_bytes
        from repro.runtime import profiler as _profiler

        def describe(role: str, gf) -> dict:
            fstats = getattr(gf, "_fusion_stats", None)
            plan = gf.plan().memory_plan or {}
            input_bytes = 0
            input_lb = False
            for spec in gf.input_specs:
                nbytes, lb = _spec_bytes(spec)
                input_bytes += nbytes
                input_lb |= lb
            return {
                "role": role,
                "name": gf.name,
                "nodes_before_fusion": (
                    fstats["nodes_before"] if fstats else gf.num_nodes
                ),
                "nodes_after_fusion": (
                    fstats["nodes_after"] if fstats else gf.num_nodes
                ),
                "fused_regions": list(fstats["regions"]) if fstats else [],
                "fused_ops": fstats["fused_ops"] if fstats else 0,
                "fusion_code_cache": (
                    dict(fstats["code_cache"]) if fstats else {"hits": 0, "misses": 0}
                ),
                "stage_ms": dict(gf.stage_ms),
                "peak_live_bytes": plan.get("peak_live_bytes", 0),
                "peak_is_lower_bound": plan.get("lower_bound", False),
                "donated_nodes": plan.get("donated_nodes", 0),
                # Inputs are caller-held buffers the plan itself counts
                # as zero-byte placeholders; reporting them lets callers
                # compare configurations whose split between "saved by
                # the caller" and "live inside the graph" differs (e.g.
                # checkpointed vs not).
                "input_bytes": input_bytes,
                "input_bytes_is_lower_bound": input_lb,
            }

        with self._lock:
            concretes = list(self._cache.values()) + [
                entry.concrete for entry in self._relaxed.values()
            ]
        traces = []
        for concrete in concretes:
            trace = describe("forward", concrete.graph_function)
            trace["trace"] = concrete.name
            with concrete._shapes_lock:
                seen_shapes = list(concrete._seen_shapes)
            if seen_shapes:
                # Symbolic trace: the plan above is a lower bound over
                # unknown dims.  Report the concrete number for every
                # shape this trace has actually run with.
                specializations = []
                for shape_key in seen_shapes:
                    plan = concrete.specialized_memory_plan(shape_key)
                    if plan is None:
                        continue
                    specializations.append(
                        {
                            "input_shapes": [list(s) for s in shape_key],
                            "peak_live_bytes": plan.get("peak_live_bytes", 0),
                            "peak_is_lower_bound": plan.get(
                                "lower_bound", False
                            ),
                            "donated_nodes": plan.get("donated_nodes", 0),
                        }
                    )
                if specializations:
                    trace["specializations"] = specializations
            fb = concrete._forward_backward
            if fb is not None and not isinstance(fb, Exception):
                trace["staged_forward"] = describe("staged_forward", fb.forward_fn)
                if fb.backward_fn is not None:
                    trace["staged_backward"] = describe(
                        "staged_backward", fb.backward_fn
                    )
            traces.append(trace)
        prof = profile if profile is not None else _profiler.active
        per_op_time = {}
        if prof is not None:
            per_op_time = {
                name: {
                    "count": stats.count,
                    "total_ms": stats.total_seconds * 1e3,
                    "mean_us": stats.mean_us,
                }
                for name, stats in prof.ops.items()
            }
        return {
            "traces": traces,
            "per_op_time": per_op_time,
            "cache": self.cache_stats(),
        }

    def __get__(self, instance, owner=None):
        """Support decorating methods: bind like a normal function would."""
        if instance is None:
            return self
        bound = functools.partial(self.__call__, instance)
        bound.get_concrete_function = functools.partial(
            self.get_concrete_function, instance
        )
        return bound

    def __call__(self, *args, **kwargs):
        concrete = None
        fast_key = None
        if not kwargs and self._input_signature is None:
            fast_key = self._fast_call_key(args)
            if fast_key is not None:
                concrete = self._lookup_fast(fast_key)
                if concrete is not None:
                    return concrete(*args)
        concrete, flat_tensors, route = self._maybe_trace(args, kwargs)
        if (
            fast_key is not None
            and route is not None
            and len(flat_tensors) == len(args)
            and all(t is a for t, a in zip(flat_tensors, args))
        ):
            with self._lock:
                if len(self._fast_keys) > _FAST_KEY_LIMIT:
                    self._fast_keys.clear()
                self._fast_keys[fast_key] = route
        return concrete(*flat_tensors)

    @staticmethod
    def _fast_call_key(args) -> Optional[tuple]:
        """Cheap exact key for an all-eager-Tensor positional call.

        Anything else — variables, ndarrays, nested structures, pending
        tensors (whose shape may not be resolved yet) — returns None and
        takes the full binding-time analysis path.
        """
        parts = [context.current_device_name()]
        for a in args:
            if type(a) is not Tensor:
                return None
            parts.append(a._dtype)
            parts.append(a._array.shape)
        return tuple(parts)

    def _lookup_fast(self, fast_key) -> Optional[ConcreteFunction]:
        """Serve a previously-routed call shape without rebuilding keys.

        Routes point into the exact or relaxed cache rather than at a
        concrete directly, so eviction and relaxed-trace widening keep
        working: a dangling route simply falls back to the slow path,
        which re-records it.
        """
        with self._lock:
            route = self._fast_keys.get(fast_key)
            if route is None:
                return None
            kind, key = route
            if kind == "exact":
                concrete = self._cache.get(key)
                if concrete is None:
                    return None
                self._cache.move_to_end(key)
            else:
                entry = self._relaxed.get(key)
                if entry is None:
                    return None
                concrete = entry.concrete
            self._call_index += 1
            self._stats["hits"] += 1
            self._recent_traces.append(False)
            return concrete

    def get_concrete_function(self, *args, **kwargs) -> ConcreteFunction:
        """The monomorphic function this call signature binds to.

        Tensor arguments may be replaced by :class:`TensorSpec` leaves —
        including symbolic (``None``-dimension) specs — to select or
        force a shape-polymorphic trace without materializing example
        data, e.g. for export via :func:`repro.saved_function.save`.
        """
        if _contains_spec(args) or _contains_spec(kwargs):
            return self._concrete_from_specs(args, kwargs)
        concrete, _, _ = self._maybe_trace(args, kwargs)
        return concrete

    def _concrete_from_specs(self, args, kwargs) -> ConcreteFunction:
        """Trace (or fetch) the concrete function for spec-typed arguments.

        TensorSpec leaves stand in for tensors at their declared
        dtype/shape; any concrete tensor leaves mixed in are abstracted
        to their specs.  A symbolic spec installs the resulting trace in
        the relaxed cache level too, so later *calls* with compatible
        concrete shapes are served by the same trace.
        """
        if self._input_signature is not None:
            raise InvalidArgumentError(
                f"Function {self._name!r} has an input_signature; call "
                "get_concrete_function() without spec arguments"
            )
        args, kwargs = self._canonicalize(args, kwargs)
        flat = nest.flatten((list(args), kwargs))
        specs = []
        for leaf in flat:
            if isinstance(leaf, TensorSpec):
                specs.append(leaf)
            elif _is_tensor_leaf(leaf):
                t = leaf if isinstance(leaf, TensorBase) else convert_to_tensor(leaf)
                specs.append(TensorSpec.from_tensor(t))
        key = self._cache_key(flat)
        with self._lock:
            self._call_index += 1
            concrete = self._cache.get(key)
            if concrete is not None:
                self._cache.move_to_end(key)
                self._stats["hits"] += 1
                return concrete
            self._stats["misses"] += 1
            concrete = self._trace(args, kwargs, [], override_specs=specs)
            self._insert_exact(key, concrete)
            self._last_trace_key = key
            if any(not s.is_fully_defined for s in specs):
                pk = self._pattern_key(key)
                if pk not in self._relaxed:
                    self._relaxed[pk] = _RelaxedTrace(list(specs), concrete)
                    self._stats["relaxations"] += 1
        return concrete

    # -- binding-time analysis ----------------------------------------------
    def _canonicalize(self, args, kwargs):
        if self._signature is not None:
            try:
                bound = self._signature.bind(*args, **kwargs)
            except TypeError:
                return args, kwargs
            bound.apply_defaults()
            return tuple(bound.arguments.values()), {}
        return args, kwargs

    def _split_leaves(self, args, kwargs):
        """Separate tensor leaves from static Python leaves."""
        flat = nest.flatten((list(args), kwargs))
        tensor_leaves = []
        for leaf in flat:
            if isinstance(leaf, TensorSpec):
                raise InvalidArgumentError(
                    f"Function {self._name!r} was called with a TensorSpec "
                    f"argument ({leaf}); specs select traces via "
                    "get_concrete_function()/save(), they cannot be executed"
                )
            if _is_tensor_leaf(leaf):
                tensor_leaves.append(
                    leaf
                    if isinstance(leaf, TensorBase)
                    else convert_to_tensor(leaf)
                )
        return flat, tensor_leaves

    def _cache_key(self, flat_leaves) -> tuple:
        key = [context.current_device_name()]
        for leaf in flat_leaves:
            key.append(_leaf_key(leaf))
        return tuple(key)

    def _pattern_key(self, key: tuple) -> tuple:
        """The cache key with tensor leaves abstracted to (dtype, rank).

        Two exact keys with the same pattern differ only in tensor
        *shapes* — exactly the retraces the relaxation policy is allowed
        to collapse into one symbolic trace.
        """
        pattern = [key[0]]  # device
        for leaf in key[1:]:
            if isinstance(leaf, tuple) and leaf and leaf[0] == "tensor":
                dtype, shape = leaf[1], leaf[2]
                rank = shape.rank if hasattr(shape, "rank") else len(shape)
                pattern.append(("tensor", dtype, rank))
            else:
                pattern.append(leaf)
        return tuple(pattern)

    def _relax_enabled(self) -> bool:
        # An input_signature already pins one relaxed trace.
        return self._experimental_relax_shapes and self._input_signature is None

    def _maybe_trace(self, args, kwargs):
        """Resolve a call to ``(concrete, tensor_leaves, route)``.

        ``route`` names the cache slot that served the call (for the
        level-0 fast-key map) or is None when the call is not routable.
        It is *returned*, never stored on the instance: concurrent
        callers each get their own route, so one thread's miss cannot
        cross-wire another thread's fast-key recording.
        """
        args, kwargs = self._canonicalize(args, kwargs)
        if self._input_signature is not None:
            return self._trace_with_signature(args, kwargs)
        flat_leaves, tensor_leaves = self._split_leaves(args, kwargs)
        key = self._cache_key(flat_leaves)
        with self._lock:
            self._call_index += 1
            concrete = self._cache.get(key)
            if concrete is not None:
                self._cache.move_to_end(key)
                self._stats["hits"] += 1
                self._recent_traces.append(False)
                return concrete, tensor_leaves, ("exact", key)
            if self._relax_enabled() or self._relaxed:
                concrete = self._lookup_relaxed(key, args, kwargs, tensor_leaves)
                if concrete is not None:
                    return concrete, tensor_leaves, ("relaxed", self._pattern_key(key))
            self._stats["misses"] += 1
            self._recent_traces.append(True)
            self._maybe_warn_retrace(key)
            concrete = self._trace(args, kwargs, tensor_leaves)
            self._insert_exact(key, concrete)
            self._last_trace_key = key
        return concrete, tensor_leaves, ("exact", key)

    def _lookup_relaxed(
        self, key, args, kwargs, tensor_leaves
    ) -> Optional[ConcreteFunction]:
        """Second cache level: serve, widen, or install a symbolic trace.

        Called under the lock on an exact-cache miss.  Returns None when
        the relaxation policy decides an exact trace should happen
        instead (pattern not yet seen often enough).
        """
        pk = self._pattern_key(key)
        entry = self._relaxed.get(pk)
        if entry is not None:
            if len(tensor_leaves) == len(entry.specs) and all(
                t.shape.is_subtype_of(spec.shape)
                for t, spec in zip(tensor_leaves, entry.specs)
            ):
                self._stats["hits"] += 1
                self._recent_traces.append(False)
                return entry.concrete
            if not self._relax_enabled():
                # The entry was installed explicitly (a symbolic
                # get_concrete_function); incompatible shapes take a
                # normal exact trace rather than widening it.
                return None
            # Incompatible with the current symbolic specs (e.g. a dim
            # that had been stable so far started varying): widen and
            # retrace once; the evicted trace releases its artifacts.
            widened = [
                spec.most_general(TensorSpec.from_tensor(t))
                for spec, t in zip(entry.specs, tensor_leaves)
            ]
            self._stats["misses"] += 1
            self._recent_traces.append(True)
            concrete = self._trace(args, kwargs, tensor_leaves, override_specs=widened)
            entry.concrete.release()
            self._relaxed[pk] = _RelaxedTrace(widened, concrete)
            self._stats["relaxations"] += 1
            return concrete
        if not self._relax_enabled():
            return None
        seen = self._pattern_seen.get(pk)
        current = [TensorSpec.from_tensor(t) for t in tensor_leaves]
        if seen is None:
            # First sighting of this pattern: remember it; the caller
            # performs a normal exact trace.
            self._pattern_seen[pk] = [0, current]
            return None
        seen[0] += 1
        seen[1] = [old.most_general(new) for old, new in zip(seen[1], current)]
        if seen[0] < RELAX_RETRACES:
            return None
        # K shape-only retraces of this pattern: generalize the varying
        # dimensions to None and trace once, symbolically.
        relaxed_specs = seen[1]
        self._stats["misses"] += 1
        self._recent_traces.append(True)
        concrete = self._trace(
            args, kwargs, tensor_leaves, override_specs=relaxed_specs
        )
        self._relaxed[pk] = _RelaxedTrace(relaxed_specs, concrete)
        self._stats["relaxations"] += 1
        del self._pattern_seen[pk]
        return concrete

    def _insert_exact(self, key, concrete: ConcreteFunction) -> None:
        """Add to the exact level, evicting LRU entries past the bound."""
        self._cache[key] = concrete
        limit = context.trace_cache_size
        while len(self._cache) > limit:
            _, evicted = self._cache.popitem(last=False)
            evicted.release()
            self._stats["evictions"] += 1

    def _maybe_warn_retrace(self, key: tuple) -> None:
        """Rate-limited churn warning, naming the differing key leaf."""
        if self._last_trace_key is None:
            return
        if sum(self._recent_traces) < _RETRACE_THRESHOLD:
            return
        if (
            self._last_warn_index is not None
            and self._call_index - self._last_warn_index < _RETRACE_WARN_INTERVAL
        ):
            return
        self._last_warn_index = self._call_index
        warnings.warn(
            f"Function {self._name!r} retraced {sum(self._recent_traces)} times "
            f"in its last {len(self._recent_traces)} calls; retracing is "
            f"expensive (the last trace took {self._last_trace_ms:.1f} ms to "
            "trace and optimize, before planning). "
            f"Last retrace: {_diff_cache_keys(self._last_trace_key, key)}. "
            "Consider an input_signature, or experimental_relax_shapes=True "
            "to generalize varying dimensions.",
            RetraceWarning,
            stacklevel=4,
        )

    def _trace_with_signature(self, args, kwargs):
        if kwargs:
            raise InvalidArgumentError(
                "Functions with an input_signature take positional tensor "
                "arguments only"
            )
        flat_args = nest.flatten(list(args))
        specs = self._input_signature
        if len(flat_args) != len(specs):
            raise InvalidArgumentError(
                f"Function {self._name!r} expects {len(specs)} tensor "
                f"arguments (from its input_signature), got {len(flat_args)}"
            )
        tensors = []
        for value, spec in zip(flat_args, specs):
            t = convert_to_tensor(value, dtype=spec.dtype)
            if not spec.is_compatible_with(t):
                raise InvalidArgumentError(
                    f"Argument {t.shape}/{t.dtype} is incompatible with the "
                    f"input signature entry {spec}"
                )
            tensors.append(t)
        key = ("signature", context.current_device_name())
        with self._lock:
            self._call_index += 1
            concrete = self._cache.get(key)
            if concrete is None:
                self._stats["misses"] += 1
                concrete = self._trace(
                    tuple(tensors), {}, tensors, override_specs=list(specs)
                )
                self._cache[key] = concrete
            else:
                self._cache.move_to_end(key)
                self._stats["hits"] += 1
        return concrete, tensors, None

    # -- tracing -----------------------------------------------------------
    def _trace(
        self,
        args,
        kwargs,
        tensor_leaves,
        override_specs: Optional[list[TensorSpec]] = None,
    ) -> ConcreteFunction:
        specs = override_specs or [TensorSpec.from_tensor(t) for t in tensor_leaves]
        created: list[Variable] = []
        with variable_creation_observer(created.append):
            concrete = self._trace_once(args, kwargs, specs)
        if created:
            if self._trace_count > 1 or self._cache or self._relaxed:
                raise FailedPreconditionError(
                    f"Function {self._name!r} created new variables on a "
                    "non-initial trace. State must only be created the first "
                    "time the function is called (paper §4.6)."
                )
            self._created_variables.extend(created)
            # The two-trace contract: re-trace to record post-creation
            # behaviour, and verify no further state is created.
            recheck: list[Variable] = []
            with variable_creation_observer(recheck.append):
                concrete = self._trace_once(args, kwargs, specs)
            if recheck:
                raise FailedPreconditionError(
                    f"Function {self._name!r} created variables on its second "
                    "trace; functions must create state only on their first "
                    "call (paper §4.6)."
                )
        return concrete

    def _traced_callable(self) -> Callable:
        """The function to trace: autograph-converted unless opted out."""
        if not self._autograph:
            return self._python_function
        if self._converted_function is None:
            from repro.autograph import convert

            self._converted_function = convert(self._python_function)
        return self._converted_function

    def _trace_once(self, args, kwargs, specs) -> ConcreteFunction:
        self._trace_count += 1
        self._stats["traces"] += 1
        marked_args, marked_kwargs = self._mark_tensors(args, kwargs)
        name = f"{self._name}_{context.unique_id()}"
        start = time.perf_counter()
        graph, flat_outputs, structure = self._pipeline.trace(
            self._traced_callable(),
            specs,
            name=name,
            structured_args=(marked_args, marked_kwargs),
        )
        trace_ms = (time.perf_counter() - start) * 1e3
        concrete = ConcreteFunction(
            name=name,
            graph=graph,
            flat_outputs=flat_outputs,
            output_structure=structure,
            num_explicit_inputs=len(specs),
            jit_compile=self._jit_compile,
            pipeline=self._pipeline,
        )
        concrete.graph_function.stage_ms["trace_ms"] = trace_ms
        self._pipeline.finalize(concrete.graph_function)
        self._last_trace_ms = (time.perf_counter() - start) * 1e3
        return concrete

    @staticmethod
    def _mark_tensors(args, kwargs):
        def mark(leaf):
            return tracing.TENSOR_MARKER if _is_tensor_leaf(leaf) else leaf

        marked_args = nest.map_structure(mark, list(args))
        marked_kwargs = nest.map_structure(mark, kwargs)
        return tuple(marked_args), marked_kwargs

    def __repr__(self) -> str:
        return (
            f"<repro.function {self._name!r} with "
            f"{len(self._cache) + len(self._relaxed)} traces>"
        )


def function(
    func: Optional[Callable] = None,
    *,
    input_signature: Optional[Sequence[TensorSpec]] = None,
    name: Optional[str] = None,
    jit_compile: bool = False,
    experimental_relax_shapes: bool = False,
    autograph: bool = True,
):
    """Decorator staging a Python function as graph functions (§4.1, §4.6).

    Usage::

        @repro.function
        def step(x):
            return repro.matmul(x, x)

    or with an explicit signature to pin a single, shape-polymorphic
    trace::

        @repro.function(input_signature=[repro.TensorSpec([None, 8])])
        def step(batch): ...

    ``jit_compile=True`` additionally lowers each trace through the
    XLA-sim compiler (paper §4.4: "the function decorator supports code
    generation via XLA"): elementwise chains fuse into single dispatches
    and, on the simulated TPU, the whole step becomes one program.
    Functions containing ``py_func`` silently fall back to the graph
    executor.

    ``experimental_relax_shapes=True`` enables the trace cache's
    relaxation policy for this function: after one shape-only retrace
    of the same dtype/rank pattern, the varying dimensions are
    generalized to ``None`` and a single symbolic trace serves all
    compatible shapes.  It is off by default.  ``autograph=False``
    traces the Python function as written instead of converting it with
    :func:`repro.autograph.convert` first.
    """
    if func is not None:
        return Function(
            func,
            name=name,
            input_signature=input_signature,
            jit_compile=jit_compile,
            experimental_relax_shapes=experimental_relax_shapes,
            autograph=autograph,
        )

    def decorator(f: Callable) -> Function:
        return Function(
            f,
            name=name,
            input_signature=input_signature,
            jit_compile=jit_compile,
            experimental_relax_shapes=experimental_relax_shapes,
            autograph=autograph,
        )

    return decorator
