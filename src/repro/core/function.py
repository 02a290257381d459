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
* **Shape relaxation** — the trace cache (:class:`TraceCache`, the
  class of the pipeline's artifact cache too) is two-level.  The first level is an exact LRU map
  over concrete signatures.  On a shape-only miss of the same
  dtype/rank pattern, the second level installs a single *symbolic*
  trace whose varying dimensions are generalized to ``None`` (per
  function, ``experimental_relax_shapes=True``); further calls with any
  compatible shape hit that one trace.  Each
  trace flows through the staged-compilation pipeline
  (:mod:`repro.core.pipeline`): trace → infer → optimize → plan →
  compile, with per-concrete-shape XLA specialization under a symbolic
  trace.  A trace whose structure equals one already compiled in this
  process reuses that artifact and skips optimize → plan.
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

from repro.framework import nest
from repro.framework.errors import (
    FailedPreconditionError,
    InvalidArgumentError,
)
from repro.runtime import records
from repro.runtime.context import context
from repro.tensor import TensorBase, TensorSpec, convert_to_tensor
from repro.core import tracing
from repro.core.pipeline import CompilationPipeline, TraceCache
from repro.core.variables import Variable, variable_creation_observer
from repro.graph.function import GraphFunction
from repro.graph.structural import Identity, Unhashable, value_key

__all__ = [
    "function",
    "Function",
    "ConcreteFunction",
    "RetraceWarning",
    "TraceCache",
    "reset_retrace_warning_state",
]


class RetraceWarning(UserWarning):
    """Issued when a Function keeps retracing on recent calls.

    Retracing re-runs the Python function and all compilation stages;
    a high retrace rate usually means tensor shapes (or Python-value
    arguments) vary call-to-call.  The warning names the cache-key leaf
    that differed so the offending argument is identifiable.
    """


#: Sliding window of recent calls inspected for retrace churn.
_RETRACE_WINDOW = 10
#: Number of traces within the window that triggers a warning.
_RETRACE_THRESHOLD = 5
#: Minimum calls between two warnings for the same Function.
_RETRACE_WARN_INTERVAL = 32

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


def _key_leaves(key: tuple) -> list:
    """One description per argument leaf of a ``(pattern, shapes)`` key."""
    pattern, shapes = key
    shapes = iter(shapes)
    leaves = []
    for leaf in pattern[1:]:
        if type(leaf) is tuple and leaf[0] == "tensor":
            leaf = f"tensor<{leaf[1].name}, shape={next(shapes)}>"
        leaves.append(leaf)
    return leaves


def _diff_cache_keys(prev: tuple, new: tuple) -> str:
    """Human-readable first difference between two trace-cache keys."""
    if prev[0][0] != new[0][0]:
        return f"device changed: {prev[0][0]!r} -> {new[0][0]!r}"
    prev, new = _key_leaves(prev), _key_leaves(new)
    for i, (a, b) in enumerate(zip(prev, new)):
        if a != b:
            return f"argument leaf #{i} changed: {a} -> {b}"
    return f"argument count changed: {len(prev)} -> {len(new)}"


class ConcreteFunction:
    """A single traced instantiation; its graph function may be shared with equal traces."""

    def __init__(
        self,
        name: str,
        graph_function: GraphFunction,
        captured_externals: list,
        output_structure,
        num_explicit_inputs: int,
        jit_compile: bool = False,
        pipeline: Optional[CompilationPipeline] = None,
        trace_ms: float = 0.0,
        artifact_reused: bool = False,
    ) -> None:
        self.name = name
        self.graph_function = graph_function
        self.func_graph = graph_function.graph
        self.captured_externals = captured_externals
        self.trace_ms = trace_ms
        self.artifact_reused = artifact_reused
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
        """Drop the forward/backward graphs and per-shape memory plans (rebuilt lazily).

        The shared ``graph_function``'s plan goes only when the artifact cache evicts it.
        """
        with self._shapes_lock:
            self._specialized_plans.clear()
        with self._fb_lock:
            if not isinstance(self._forward_backward, Exception):
                self._forward_backward = None

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


# TensorSpec counts: a spec leaf stands in for a tensor argument at
# trace time (get_concrete_function with symbolic shapes).
_TENSOR_LEAVES = (TensorBase, np.ndarray, TensorSpec)


def _contains_spec(structure) -> bool:
    return any(isinstance(leaf, TensorSpec) for leaf in nest.flatten(structure))


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
        self._traces = TraceCache(ConcreteFunction.release)
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
        # A call passing this many positionals to an all-positional
        # signature is already bound, so ``_canonicalize`` skips ``bind``.
        self._positional_arity = None
        if self._signature is not None and all(
            p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            for p in self._signature.parameters.values()
        ):
            self._positional_arity = len(self._signature.parameters)
        _LIVE_FUNCTIONS.add(self)

    # -- public surface -------------------------------------------------------
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
        the relaxation policy; ``evictions`` counts traces dropped by
        the LRU bound.  ``size`` is the current number of live traces
        across both levels.
        """
        return dict(self._traces.stats(), traces=self._trace_count)

    def execution_stats(self, profile=None) -> dict:
        """Graph-execution statistics for every live trace.

        Returns a dict with one entry per trace (exact and relaxed
        cache levels), each reporting the fusion outcome (node counts
        before/after the ``fuse`` pass, fused-region sizes from largest
        to smallest, how many regions reused a cached code object), the
        wall-clock cost of each compilation stage (``stage_ms``: this trace's
        ``trace_ms``, then the artifact's ``<i>:<pass>_ms`` per optimize pass
        including ``fuse``, ``infer_ms``, ``plan_ms``; ``artifact_reused``
        says whether an equal trace compiled them), and the executor's static memory plan (peak
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

        traces = []
        for concrete in self._traces.artifacts():
            trace = describe("forward", concrete.graph_function)
            trace["trace"] = concrete.name
            trace["stage_ms"]["trace_ms"] = concrete.trace_ms
            trace["artifact_reused"] = concrete.artifact_reused
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
        concrete, flat_tensors = self._maybe_trace(args, kwargs)
        return concrete(*flat_tensors)

    def get_concrete_function(self, *args, **kwargs) -> ConcreteFunction:
        """The monomorphic function this call signature binds to.

        Tensor arguments may be replaced by :class:`TensorSpec` leaves —
        including symbolic (``None``-dimension) specs — to select or
        force a shape-polymorphic trace without materializing example
        data, e.g. for export via :func:`repro.saved_function.save`.
        """
        if _contains_spec(args) or _contains_spec(kwargs):
            return self._concrete_from_specs(args, kwargs)
        concrete, _ = self._maybe_trace(args, kwargs)
        return concrete

    def lookup_concrete(self, *args, **kwargs) -> Optional[ConcreteFunction]:
        """The concrete function a call with these arguments would run,
        or None where the call would trace; traces nothing (the probe
        counts in :meth:`cache_stats` as a lookup).  For a function
        without an ``input_signature``."""
        args, kwargs = self._canonicalize(args, kwargs)
        key, _ = self._call_key(args, kwargs)
        with self._lock:
            return self._traces.lookup(*key)[0]

    def _concrete_from_specs(self, args, kwargs) -> ConcreteFunction:
        """Trace (or fetch) the concrete function for spec-typed arguments.

        TensorSpec leaves stand in for tensors at their declared
        dtype/shape; any concrete tensor leaves mixed in are abstracted
        to their specs.  Only a trace at exactly these specs is served.  A
        symbolic spec installs the resulting trace as the pattern's
        relaxed entry (unless it has one), so later *calls* with
        compatible concrete shapes are served by the same trace.
        """
        if self._input_signature is not None:
            raise InvalidArgumentError(
                f"Function {self._name!r} has an input_signature; call "
                "get_concrete_function() without spec arguments"
            )
        args, kwargs = self._canonicalize(args, kwargs)
        key, leaves = self._call_key(args, kwargs, specs_allowed=True)
        specs = [t if isinstance(t, TensorSpec) else TensorSpec.from_tensor(t) for t in leaves]
        with self._lock:
            self._call_index += 1
            concrete, slot, relaxed = self._traces.lookup_specs(*key)
            if concrete is None:
                concrete = self._trace(args, kwargs, [], override_specs=specs)
                self._traces.insert(slot, concrete, relaxed)
                self._last_trace_key = key
        return concrete

    # -- binding-time analysis ----------------------------------------------
    def _canonicalize(self, args, kwargs):
        if self._signature is None or (
            not kwargs and len(args) == self._positional_arity
        ):
            return args, kwargs
        try:
            bound = self._signature.bind(*args, **kwargs)
        except TypeError:
            return args, kwargs
        bound.apply_defaults()
        return tuple(bound.arguments.values()), {}

    def _call_key(self, args, kwargs, specs_allowed: bool = False):
        """One walk over a call's leaves: ``((pattern, shapes), tensor_leaves)``.

        Tensors key by dtype and rank, shapes split out for relaxation; other
        values by ``value_key``, else identity.  Specs count only if allowed.
        """
        pattern = [context.current_device_name()]
        shapes = []
        tensors = []
        for leaf in nest.flatten((args, kwargs) if kwargs else args):
            if not isinstance(leaf, _TENSOR_LEAVES):
                try:
                    pattern.append(value_key(leaf))
                except Unhashable:
                    pattern.append(Identity(leaf))
                continue
            if isinstance(leaf, TensorSpec):
                if not specs_allowed:
                    raise InvalidArgumentError(
                        f"Function {self._name!r} was called with a TensorSpec "
                        f"argument ({leaf}); specs select traces via "
                        "get_concrete_function()/save(), they cannot be executed"
                    )
            elif not isinstance(leaf, TensorBase):
                leaf = convert_to_tensor(leaf)
            shape = leaf.shape
            pattern.append(("tensor", leaf.dtype, shape.rank))
            shapes.append(shape)
            tensors.append(leaf)
        return (tuple(pattern), tuple(shapes)), tensors

    def _maybe_trace(self, args, kwargs):
        """Resolve a call to ``(concrete, tensor_leaves)`` (§4.6's lookup)."""
        args, kwargs = self._canonicalize(args, kwargs)
        if self._input_signature is not None:
            return self._trace_with_signature(args, kwargs)
        key, tensor_leaves = self._call_key(args, kwargs)
        with self._lock:
            self._call_index += 1
            concrete, slot, relaxed = self._traces.lookup(
                *key, relax=self._experimental_relax_shapes
            )
            self._recent_traces.append(concrete is None)
            if concrete is None:
                specs = None
                if relaxed is not None:  # a relaxed (or widened) trace
                    specs = [
                        TensorSpec(shape, t.dtype)
                        for shape, t in zip(relaxed, tensor_leaves)
                    ]
                else:
                    self._maybe_warn_retrace(key)
                concrete = self._trace(args, kwargs, tensor_leaves, override_specs=specs)
                self._traces.insert(slot, concrete, relaxed)
                if specs is None:
                    self._last_trace_key = key
        return concrete, tensor_leaves

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
        key = (("signature", context.current_device_name()), ())
        with self._lock:
            self._call_index += 1
            concrete, slot, _ = self._traces.lookup(*key)
            if concrete is None:
                concrete = self._trace(
                    tuple(tensors), {}, tensors, override_specs=list(specs)
                )
                self._traces.insert(slot, concrete)
        return concrete, tensors

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
            if self._trace_count > 1 or len(self._traces):
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
        traced = GraphFunction(name, graph, graph.inputs + graph.capture_placeholders, flat_outputs)
        traced.stage_ms["trace_ms"] = trace_ms
        artifact, reused = self._pipeline.compile_trace(traced, len(specs))
        self._last_trace_ms = (time.perf_counter() - start) * 1e3
        return ConcreteFunction(
            name=name,
            graph_function=artifact,
            captured_externals=graph.captured_externals,
            output_structure=structure,
            num_explicit_inputs=len(specs),
            jit_compile=self._jit_compile,
            pipeline=self._pipeline,
            trace_ms=trace_ms,
            artifact_reused=reused,
        )

    @staticmethod
    def _mark_tensors(args, kwargs):
        def mark(leaf):
            return tracing.TENSOR_MARKER if isinstance(leaf, _TENSOR_LEAVES) else leaf

        marked_args = nest.map_structure(mark, list(args))
        marked_kwargs = nest.map_structure(mark, kwargs)
        return tuple(marked_args), marked_kwargs

    def __repr__(self) -> str:
        return (
            f"<repro.function {self._name!r} with "
            f"{len(self._traces)} traces>"
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
