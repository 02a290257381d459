"""Span recorder, and the hooks that put spans around each layer's entry points.

Nothing under ``src/`` knows about this file.  A traced run installs
timing wrappers from the outside — an ``OpInterceptor`` on the dispatch
core plus replacements for the public callables named in ``Hooks`` —
and removes them again.  Untraced runs never import this module, so the
end-to-end numbers are measured on unmodified code.

A span has a name, a start, an end, the span that caused it (its
parent on the same thread) and the id of the step it belongs to.  A
layer's *self* time is its span's duration minus the part its child
spans cover; *busy* time is the duration of its outermost spans (a
layer that re-enters itself is not counted twice).  Totals are kept per
thread and merged on read, so two threads never update one number.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

KEEP_STEPS = 50  # steps whose individual spans are kept for the Chrome trace

CALL_OP = "PartitionedCall"  # the kernel that runs a whole graph function


class _ThreadState:
    __slots__ = ("tid", "stack", "totals", "open", "counts", "events")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []  # [name, span id, child seconds, start]
        self.totals: dict = {}  # name -> [count, busy seconds, self seconds]
        self.open: dict = {}  # name -> how many spans of it are open
        self.counts: dict = {}  # counter name -> value
        self.events: list = []  # (id, parent, name, start, end, step, tid)


class Recorder:
    """In-memory span store with on-line self-time accounting."""

    def __init__(self, clock=time.perf_counter, detail_steps: int = KEEP_STEPS) -> None:
        self.clock = clock
        self.step = -1  # -1 is set-up; the harness numbers measured steps from 0
        self.detail_steps = detail_steps  # 0: totals only, no Chrome trace
        self.detail = detail_steps > 0  # keep each span; the harness switches it off
        self.count_bytes = True  # add up the bytes kernels read and write
        self.byte_steps = KEEP_STEPS  # closed loop: steps whose bytes are counted
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def begin(self, name: str) -> None:
        state = self._state()
        state.open[name] = state.open.get(name, 0) + 1
        state.stack.append([name, next(self._ids), 0.0, self.clock()])

    def end(self) -> None:
        now = self.clock()
        state = self._local.state
        name, span_id, child, start = state.stack.pop()
        duration = now - start
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[2] += duration - child
        depth = state.open[name] = state.open[name] - 1
        if depth == 0:
            total[1] += duration
        parent = -1
        if state.stack:
            outer = state.stack[-1]
            outer[2] += duration
            parent = outer[1]
        if self.detail:
            state.events.append(
                (span_id, parent, name, start, now, self.step, state.tid)
            )

    def add(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        """``fn`` with a span called ``name`` around every call."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return spanned

    # -- reading -------------------------------------------------------------
    def thread_totals(self) -> list[dict]:
        """Per thread: ``{name: (count, busy seconds, self seconds)}``."""
        return [
            {name: tuple(total) for name, total in list(state.totals.items())}
            for state in list(self._states)
        ]

    def totals(self) -> dict:
        """The same, merged over threads."""
        merged: dict = {}
        for totals in self.thread_totals():
            for name, (count, busy, self_s) in totals.items():
                have = merged.get(name, (0, 0.0, 0.0))
                merged[name] = (have[0] + count, have[1] + busy, have[2] + self_s)
        return merged

    def counts(self) -> dict:
        merged: dict = {}
        for state in list(self._states):
            for name, value in list(state.counts.items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def events(self) -> list:
        out = []
        for state in list(self._states):
            out.extend(state.events)
        out.sort(key=lambda e: e[3])
        return out


def subtract(after: dict, before: dict) -> dict:
    """Totals (or counts) accumulated between two reads."""
    out = {}
    for name, value in after.items():
        old = before.get(name)
        if isinstance(value, tuple):
            old = old or (0, 0.0, 0.0)
            out[name] = tuple(a - b for a, b in zip(value, old))
        else:
            out[name] = value - (old or 0)
    return out


def chrome_trace(events: list) -> dict:
    """Chrome trace-event JSON (``chrome://tracing`` / ui.perfetto.dev)."""
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(e[3] for e in events)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "step": step},
            }
            for span_id, parent, name, start, end, step, tid in events
        ],
    }


def _nbytes(value) -> int:
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return getattr(value, "nbytes", 0)


class Hooks:
    """Installs spans around the layers' public entry points.

    A target that no longer exists is skipped and listed in
    ``missing``; its metrics then read 0, and the benchmark survives
    the deletion of a layer it does not need.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self.missing: list[str] = []
        self._undo: list = []
        self._interceptor = None

    # -- patch primitives ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, had, old))

    def _replace_function(self, module, attr: str, make) -> None:
        """Replace ``module.attr`` in every ``repro`` namespace that holds it.

        ``from x import f`` copies the function into the importer's
        namespace, so the replacement goes where each caller looks the
        name up.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, replacement)

    def _span_function(self, module, attr: str, name: str) -> None:
        self._replace_function(module, attr, lambda f: self.rec.wrap(name, f))

    def _span_method(self, cls, attr: str, name: str) -> None:
        original = vars(cls).get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, self.rec.wrap(name, original))

    # -- the hooks ---------------------------------------------------------------
    def install(self) -> "Hooks":
        import repro.autograph
        from repro.core import backprop, pipeline, saved_function, tape
        from repro.graph import executor as graph_executor
        from repro.graph import fusion
        from repro.graph import optimize
        from repro.nn import layers, optimizers
        from repro.ops import registry
        from repro.runtime import dispatch, executor, lazy, records
        from repro.runtime.context import context
        from repro.serving import batching, server

        # ``repro.core.function`` the attribute is the decorator, not the module
        function = importlib.import_module("repro.core.function")
        rec = self.rec
        begin, end = rec.begin, rec.end

        # runtime.executor: one span per eager op request.  Ops staged
        # into a graph under construction are left inside the span of
        # whoever is building it (trace, backprop build, gradient).
        staging = context.graph_stack

        def span_execute(original):
            @functools.wraps(original)
            def execute(op_name, inputs, attrs=None, name=None):
                if staging():
                    return original(op_name, inputs, attrs, name)
                begin("runtime.executor")
                try:
                    return original(op_name, inputs, attrs, name)
                finally:
                    end()

            return execute

        self._replace_function(executor, "execute", span_execute)

        # runtime.dispatch: the interceptor seam, eager list only.  A
        # graph-mode interceptor would push every node of every plan off
        # the pre-resolved fast path (and switch buffer donation off), so
        # the traced run would time a path the untraced run never takes.
        class SpanInterceptor(dispatch.OpInterceptor):
            name = "perf_spans"
            modes = (dispatch.EAGER,)

            def on_start(self, op_name, attrs, inputs, device):
                begin("runtime.dispatch")

            def on_complete(self, op_name, attrs, inputs, outputs, device, token):
                end()

            def on_error(self, op_name, attrs, inputs, device, token, exc):
                end()

        self._interceptor = dispatch.core.register_interceptor(SpanInterceptor())
        self._span_function(records, "record_operation", "core.tape.record")

        # backend.kernel: every kernel the dispatch core hands out, and
        # the in-place kernels the graph plan binds for donated buffers.
        timed: dict = {}

        def timed_kernel(kernel, name):
            wrapped = timed.get(kernel)
            if wrapped is None:

                @functools.wraps(kernel)
                def wrapped(arrays, attrs, device, *out):
                    begin(name)
                    try:
                        result = kernel(arrays, attrs, device, *out)
                    finally:
                        end()
                    if rec.count_bytes:
                        rec.add("backend.kernel.bytes", _nbytes(arrays) + _nbytes(result))
                    return result

                timed[kernel] = wrapped
            return wrapped

        resolve = dispatch.core.resolve_kernel

        def resolve_kernel(op_name, device_type, input_dtypes=()):
            kernel = resolve(op_name, device_type, input_dtypes)
            if op_name == CALL_OP:
                return timed_kernel(kernel, "ops.function_call")
            return timed_kernel(kernel, "backend.kernel")

        self._set(dispatch.core, "resolve_kernel", resolve_kernel)

        def span_inplace(original):
            @functools.wraps(original)
            def get_inplace_kernel(op_name):
                kernel = original(op_name)
                return None if kernel is None else timed_kernel(kernel, "backend.kernel")

            return get_inplace_kernel

        self._replace_function(registry, "get_inplace_kernel", span_inplace)

        # core.function, graph.executor
        self._span_method(function.Function, "__call__", "core.function.call")
        self._span_method(function.ConcreteFunction, "__call__", "core.function.concrete")
        self._span_method(graph_executor.GraphRunner, "__init__", "graph.executor.plan")
        run = vars(graph_executor.GraphRunner)["run"]

        @functools.wraps(run)
        def counted_run(self, feeds, parallel=False):
            rec.add("graph.executor.nodes_run", len(self.plan))
            begin("graph.executor.run")
            try:
                return run(self, feeds, parallel)
            finally:
                end()

        self._set(graph_executor.GraphRunner, "run", counted_run)

        # autodiff, optimizer, model Python
        self._span_method(tape.GradientTape, "gradient", "core.tape.gradient")
        self._span_method(optimizers.Optimizer, "apply_gradients", "nn.optimizer.apply")
        self._span_method(layers.Layer, "__call__", "nn.model")

        # compilation stages; IR sizes are read where the stage runs
        self._span_function(repro.autograph, "convert", "autograph.convert")
        self._span_method(pipeline.CompilationPipeline, "trace", "core.tracing.trace")
        self._span_function(pipeline, "refine_shapes", "core.pipeline.infer")
        self._span_function(backprop, "build_forward_backward", "core.backprop.build")
        self._span_method(
            pipeline.CompilationPipeline, "compile_segment", "runtime.lazy.compile"
        )

        def span_optimize(original):
            @functools.wraps(original)
            def optimize_function(fn, passes=None):
                rec.add("graph.nodes_traced", len(fn.graph.nodes))
                begin("graph.optimize")
                try:
                    return original(fn, passes)
                finally:
                    end()
                    rec.add("graph.nodes_optimized", len(fn.graph.nodes))

            return optimize_function

        self._replace_function(optimize, "optimize_function", span_optimize)

        def span_fuse(original):
            @functools.wraps(original)
            def fuse_function(fn):
                before = len(fn.graph.nodes)
                begin("graph.fusion.fuse")
                try:
                    regions = original(fn)
                finally:
                    end()
                rec.add("graph.fusion.regions", regions)
                rec.add(
                    "graph.fusion.nodes_fused", before - len(fn.graph.nodes) + regions
                )
                return regions

            return fuse_function

        self._replace_function(fusion, "fuse_function", span_fuse)

        # runtime.lazy
        self._span_function(lazy, "submit", "runtime.lazy.record")
        self._span_method(lazy.LazyTrace, "flush", "runtime.lazy.flush")

        # serving.  The two underscore methods are the worker loop's only
        # two calls; without them the time between batches has no owner.
        self._span_method(server.ServedModel, "submit", "serving.submit")
        self._span_method(server.ServedModel, "_next_batch", "serving.queue")
        self._span_method(server.ServedModel, "_execute_batch", "serving.batch")
        self._span_function(batching, "coalesce_requests", "serving.batching.coalesce")
        self._span_function(batching, "split_results", "serving.batching.split")
        self._span_method(saved_function.LoadedFunction, "__call__", "serving.execute")
        return self

    def uninstall(self) -> None:
        from repro.runtime import dispatch

        if self._interceptor is not None:
            dispatch.core.unregister_interceptor(self._interceptor)
            self._interceptor = None
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()
