"""LazyTensor-mode eager execution: record now, compile and run at sync points.

The deferred eager policy behind :func:`repro.runtime.executor.execute`
(``context.executor_mode = "lazy"`` / ``REPRO_LAZY_EAGER``).  Where sync
mode dispatches each op's kernel immediately, lazy mode *records* the
op into a pending :class:`LazyTrace` and returns pending
:class:`~repro.tensor.LazyTensor` outputs built from the op's shape
inference — no kernel runs at all.  This is the LazyTensor recipe
(arXiv 2102.13267) grafted onto the paper's multi-stage machinery:
undecorated eager code gets the staged path's fusion, static memory
planning, and fast-plan execution implicitly, segment by segment.

**Flush points.**  Any observation of a pending value forces a flush of
the whole recorded segment: ``.numpy()`` / ``.item()`` /
``bool()/len()/float()``, kernels consuming the tensor from a
non-recordable op, cross-device copies, ``py_func``, tape gradients,
``context.sync()``, and side-effecting ops (which must observe all
previously recorded work).  A segment also auto-flushes at
``SEGMENT_LIMIT`` (256) recorded ops, bounding the memory pinned by the
recording.

**Flush = hash → cache → compile → run.**  The flush hashes the
recorded segment (op list, attributes, dataflow references, fetch mask,
external-input signature) and looks it up in a process-wide
:class:`~repro.core.function.SegmentCache` — the same two-level
exact/relaxed LRU policy as the ``Function`` trace cache.  On a miss
the segment is lowered through
:meth:`~repro.core.pipeline.CompilationPipeline.compile_segment`
(optimize → fuse → plan), so a steady-state training loop hits a
compiled, fused, memory-planned artifact on every step.  A segment
whose attrs cannot be hashed compiles and runs uncached.  Only *live*
outputs (Python references still exist — user variables, tape entries)
are fetched; dead intermediates are fused away or freed by the plan.
The compiled artifact is the only executor.

**Deferred errors.**  A flush fails as a unit, as a staged call does:
a kernel error (named after its op by the printed plan, original type
preserved) or a lowering error settles *every* live output of the
segment with that one exception object, and is delivered exactly once —
at the observation that forced the flush, or at the next
synchronization point for flushes nobody observed.  No op runs twice.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional, Sequence

import numpy as np

from repro.framework.errors import NotFoundError
from repro.ops import registry
from repro.runtime import records
from repro.runtime.context import context
from repro.runtime.dispatch import core
from repro.tensor import LazyTensor, Tensor, TensorSpec

__all__ = [
    "LazyTrace",
    "flush_all_pending",
    "lazy_stats",
    "reset_lazy_stats",
    "segment_cache",
    "submit",
    "sync_lazy",
    "take_deferred",
]


#: Auto-flush bound on recorded ops: bounds both the memory pinned by
#: recorded external inputs and the cost of a single flush.
SEGMENT_LIMIT = 256


class _Record:
    """One recorded op: everything a flush needs, nothing more.

    ``in_refs`` holds *structural* references — ``("e", i)`` for
    external input ``i`` (kept alive in the trace's ``ext`` list) or
    ``("o", k, j)`` for output ``j`` of recorded op ``k``.  Outputs are
    held by **weak** references: a recorded intermediate whose Python
    handle dies before the flush is never fetched, so fusion and the
    memory plan can elide its buffer entirely; the flush writes each
    live output's outcome through them.
    """

    __slots__ = ("op_name", "attrs", "in_refs", "out_refs")

    def __init__(self, op_name, attrs, in_refs, out_refs) -> None:
        self.op_name = op_name
        self.attrs = attrs
        self.in_refs = in_refs
        self.out_refs = out_refs


# All open traces (normally one: the recording thread's), so
# context.sync() / mode switches / the profiler can flush everything.
_traces_lock = threading.Lock()
_traces: dict[int, "LazyTrace"] = {}

# The first undelivered deferred error across all flushes (later errors
# in the window are dropped once one surfaces, as TF's eager executor does).
_deferred_lock = threading.Lock()
_deferred: Optional[BaseException] = None


def _note_deferred(exc: BaseException) -> None:
    global _deferred
    with _deferred_lock:
        if _deferred is None:
            _deferred = exc


def take_deferred() -> Optional[BaseException]:
    """Pop the deferred error, unless an observation already delivered it."""
    global _deferred
    with _deferred_lock:
        deferred, _deferred = _deferred, None
    if deferred is not None and getattr(deferred, "_repro_delivered", False):
        return None
    return deferred


class _ThreadTrace(threading.local):
    def __init__(self) -> None:
        self.trace: Optional[LazyTrace] = None


_local = _ThreadTrace()


def _current_trace() -> "LazyTrace":
    trace = _local.trace
    if trace is None or trace.closed:
        trace = _local.trace = LazyTrace()
        with _traces_lock:
            _traces[id(trace)] = trace
    return trace


class LazyTrace:
    """A pending segment of recorded ops awaiting a flush."""

    __slots__ = ("records", "ext", "ext_ids", "closed", "lock")

    def __init__(self) -> None:
        self.records: list[_Record] = []
        self.ext: list[Tensor] = []  # external inputs, strong refs, feed order
        self.ext_ids: dict[int, int] = {}
        self.closed = False
        self.lock = threading.RLock()

    # -- recording ---------------------------------------------------------
    def record(self, op_name: str, attrs: dict, inputs: Sequence, specs, device):
        """Append one op; returns its pending LazyTensor outputs.

        The per-op recording hot path: lazy mode only wins when
        recording costs less than the kernel dispatch it displaces.
        """
        ext_ids = self.ext_ids
        ext = self.ext
        in_refs = []
        for t in inputs:
            if isinstance(t, LazyTensor):
                trace = t._trace
                if trace is self:
                    in_refs.append(t._ref)
                    continue
                if trace is not None:
                    # Pending value of another trace (another thread's,
                    # or a just-auto-flushed one): materialize, then
                    # treat as a plain external input.
                    t._materialize()
            key = id(t)
            pos = ext_ids.get(key)
            if pos is None:
                pos = ext_ids[key] = len(ext)
                ext.append(t)
            in_refs.append(("e", pos))
        k = len(self.records)
        outputs = [
            LazyTensor._recorded(self, ("o", k, j), spec, device)
            for j, spec in enumerate(specs)
        ]
        self.records.append(
            _Record(op_name, attrs, tuple(in_refs), tuple(map(weakref.ref, outputs)))
        )
        return outputs

    # -- flushing ----------------------------------------------------------
    def flush(self) -> None:
        """Compile and run the recorded segment, settling its live outputs.

        Raises only interrupts: any other error settles every live
        output and parks in the module deferred slot for the next
        synchronization point.  Idempotent and thread-safe.
        """
        with self.lock:
            if self.closed:
                return
            self.closed = True
            with _traces_lock:
                _traces.pop(id(self), None)
            if _local.trace is self:
                _local.trace = None
            recs = self.records
            if recs:
                self._execute(recs)

    def _execute(self, recs: list) -> None:
        # Liveness: an output is fetched iff some Python reference —
        # user variable, tape entry, container — still holds it.
        live = []
        for rec in recs:
            for wr in rec.out_refs:
                t = wr()
                if t is not None:
                    live.append(t)
        _stats["flushes"] += 1
        _stats["flushed_ops"] += len(recs)
        if not live:
            # Dead code: nothing observable depends on the segment.
            _stats["dead_flushes"] += 1
            return
        fetches = [t._ref[1:] for t in live]
        cache_hit = False
        try:
            key = self._segment_key(recs, fetches)
            artifact, relaxed = None, False
            if key is not None:  # else unhashable attrs: run uncached
                artifact, relaxed = _segment_cache.lookup(*key)
                cache_hit = artifact is not None
            if artifact is None:
                artifact = self._compile(recs, fetches, relaxed)
                if key is not None:
                    _segment_cache.insert(*key, artifact, relaxed=relaxed)
            values = artifact.run(self.ext)
        except BaseException as exc:  # noqa: BLE001 - deferred, interrupts re-raised
            # The segment fails as a unit, as a staged call does: every
            # live output settles with the one (labelled) error.  Each
            # outcome is written before its trace reference is cleared.
            for t in live:
                t._error = exc
                t._trace = None
            if not isinstance(exc, Exception):
                raise
            _note_deferred(exc)
        else:
            seg_peak = artifact.plan().memory_plan["peak_live_bytes"]
            if seg_peak > _stats["max_segment_peak_bytes"]:
                # The high-water mark across flushed segments: the lazy
                # analogue of a staged trace's peak-live-bytes, and what
                # the checkpoint benchmark reads to show that dropping
                # tape references (recompute_grad) actually shrinks the
                # planned working set of the flushed graphs.
                _stats["max_segment_peak_bytes"] = seg_peak
            for t, value in zip(live, values):
                t._value = value._array
                t._trace = None
        prof = _profiler_mod().active
        if prof is not None:
            prof.add_lazy_flush(len(recs), cache_hit)

    def _compile(self, recs, fetches, relaxed: bool):
        specs = []
        for t in self.ext:
            spec = TensorSpec.from_tensor(t)
            specs.append(spec.relaxed() if relaxed else spec)
        fn = _pipeline.compile_segment(
            f"lazy_segment_{context.unique_id()}",
            specs,
            [(rec.op_name, rec.attrs, rec.in_refs) for rec in recs],
            fetches,
        )
        if relaxed:
            _stats["relaxed_segments"] += 1
        return fn

    def _segment_key(self, recs, fetches):
        """``(structural_key, shapes)`` for the cache, or None if unhashable."""
        struct = []
        for rec in recs:
            akey = _attrs_key(rec.attrs)
            if akey is _UNHASHABLE:
                return None
            struct.append((rec.op_name, akey, rec.in_refs))
        ext_struct = []
        shapes = []
        for t in self.ext:
            shape = t.shape
            ext_struct.append((t._dtype, shape.rank))
            shapes.append(shape)
        return (
            (tuple(struct), tuple(fetches), tuple(ext_struct)),
            tuple(shapes),
        )


# -- segment hashing helpers ------------------------------------------------

_UNHASHABLE = object()

#: Attribute ndarrays up to this size hash by content; larger ones make
#: the segment uncacheable (hashing them every flush would cost more
#: than the compiled artifact saves).
_MAX_HASHED_ATTR_BYTES = 256


def _attrs_key(attrs: dict):
    if not attrs:
        return ()
    items = []
    for key in sorted(attrs):
        value = _attr_value_key(attrs[key])
        if value is _UNHASHABLE:
            return _UNHASHABLE
        items.append((key, value))
    return tuple(items)


def _attr_value_key(value):
    if isinstance(value, np.ndarray):
        if value.nbytes <= _MAX_HASHED_ATTR_BYTES:
            return ("nd", value.dtype.str, value.shape, value.tobytes())
        return _UNHASHABLE
    if isinstance(value, (list, tuple)):
        parts = []
        for item in value:
            part = _attr_value_key(item)
            if part is _UNHASHABLE:
                return _UNHASHABLE
            parts.append(part)
        return (type(value).__name__, tuple(parts))
    if isinstance(value, dict):
        parts = []
        for key in sorted(value):
            part = _attr_value_key(value[key])
            if part is _UNHASHABLE:
                return _UNHASHABLE
            parts.append((key, part))
        return ("dict", tuple(parts))
    try:
        hash(value)
    except TypeError:
        return _UNHASHABLE
    return value


# -- module singletons -------------------------------------------------------

def _make_pipeline():
    from repro.core.pipeline import CompilationPipeline

    return CompilationPipeline()


def _make_cache():
    from repro.core.function import SegmentCache

    return SegmentCache()


def _profiler_mod():
    from repro.runtime import profiler

    return profiler


_pipeline = _make_pipeline()
_segment_cache = _make_cache()


def segment_cache():
    """The process-wide segment cache (tests, diagnostics)."""
    return _segment_cache


_stats = {
    "recorded_ops": 0,
    "fallback_ops": 0,
    "flushes": 0,
    "flushed_ops": 0,
    "dead_flushes": 0,
    "relaxed_segments": 0,
    "max_segment_peak_bytes": 0,
}


def lazy_stats() -> dict:
    """Recording/flush counters plus the segment cache's hit/miss stats."""
    stats = dict(_stats)
    for key, value in _segment_cache.stats().items():
        stats[f"cache_{key}"] = value
    return stats


def reset_lazy_stats(clear_cache: bool = False) -> None:
    for key in _stats:
        _stats[key] = 0
    if clear_cache:
        _segment_cache.clear()


# -- op-gate cache -----------------------------------------------------------

# op_name -> (op_def or None, recordable, shape_pure).  An op records
# only when its output metadata is inferable and running it later is
# unobservable: pure (not stateful, no side effects) with a registered
# inference fn.  ``shape_pure`` marks ops whose inference depends only
# on input dtypes/shapes (never on constant values) — the ELEMENTWISE
# and SHAPE_PURE traits — so their inferred specs may be memoized: the
# recording hot path must not pay a full broadcast-shape inference per
# op when the same op/signature repeats every training step.
_op_gate: dict[str, tuple] = {}


def _gate(op_name: str) -> tuple:
    entry = _op_gate.get(op_name)
    if entry is None:
        try:
            op_def = registry.get_op_def(op_name)
        except NotFoundError:
            op_def = None
        recordable = (
            op_def is not None
            and op_def.infer_fn is not None
            and not op_def.is_stateful
            and not op_def.has_side_effects
        )
        shape_pure = recordable and (
            registry.ELEMENTWISE in op_def.traits
            or registry.SHAPE_PURE in op_def.traits
        )
        entry = _op_gate[op_name] = (op_def, recordable, shape_pure)
    return entry


# (op_name, per-input (dtype, dims)) -> inferred output specs, for
# shape-pure ops with empty attrs.  Specs are immutable and shared.
_infer_cache: dict = {}
_INFER_CACHE_CAP = 4096


# -- the submission path -----------------------------------------------------

def submit(op_name: str, inputs: Sequence, attrs: dict) -> list:
    """Record one eager op (or fall back to synchronous dispatch).

    Stateful ops, ops without shape inference, explicit device
    placements, and non-CPU inputs run synchronously on the calling
    thread (side-effecting ops flush all recorded work first — program order must stay observable, and this
    makes them deferred-error delivery points).  Everything else is
    appended to the calling thread's pending trace.
    """
    op_def, recordable, shape_pure = _gate(op_name)
    if not recordable or context.current_device_name() is not None:
        return _fallback(op_name, inputs, attrs, op_def)
    cpu = context.cpu_device()
    inputs = list(inputs)
    specs = None
    memo_key = None
    if shape_pure and not attrs:
        # One pass does both the device gate and the memo signature: a
        # (dtype identity, dims) pair per input, computed without
        # forcing pending values.  dtypes are interned singletons, so
        # id() is a stable key that avoids DType.__hash__ (a
        # Python-level call) per dict probe.  Inputs with unknown
        # shapes disable the memo — their inference must run for real.
        sigs = []
        for t in inputs:
            if not isinstance(t, Tensor) or t._device is not cpu:
                return _fallback(op_name, inputs, attrs, op_def)
            if sigs is None:  # memo already skipped; still gate devices
                continue
            if isinstance(t, LazyTensor) and t._trace is not None:
                dims = t._shape._dims
                if dims is None or None in dims:
                    sigs = None  # unknown shape: skip the memo
                    continue
                sigs.append((id(t._dtype), dims))
            else:
                sigs.append((id(t._dtype), t._array.shape))
        if sigs is not None:
            memo_key = (op_name, tuple(sigs))
            specs = _infer_cache.get(memo_key)
    else:
        for t in inputs:
            if not isinstance(t, Tensor) or t._device is not cpu:
                return _fallback(op_name, inputs, attrs, op_def)
    if specs is None:
        try:
            specs = op_def.infer(inputs, attrs)
        except BaseException:  # noqa: BLE001 - sync path gives the real error
            return _fallback(op_name, inputs, attrs, op_def)
        if memo_key is not None:
            if len(_infer_cache) >= _INFER_CACHE_CAP:
                _infer_cache.clear()
            _infer_cache[memo_key] = specs
    while True:
        trace = _current_trace()
        with trace.lock:
            if trace.closed:  # lost a race with a cross-thread flush
                continue
            outputs = trace.record(op_name, attrs, inputs, specs, cpu)
            must_flush = len(trace.records) >= SEGMENT_LIMIT
        break
    _stats["recorded_ops"] += 1
    # Tapes are thread-local: recording happens caller-side with the
    # pending outputs.  The flush later executes via
    # the graph dispatch path, which the records interceptor does not
    # observe — ops are never recorded twice.
    records.record_operation(op_name, attrs, inputs, outputs)
    if must_flush:
        trace.flush()
    return outputs


def _fallback(op_name: str, inputs: Sequence, attrs: dict, op_def) -> list:
    _stats["fallback_ops"] += 1
    if op_def is None or op_def.has_side_effects:
        sync_lazy()
    return core.dispatch(op_name, inputs, attrs)


# -- synchronization ---------------------------------------------------------

def flush_all_pending() -> None:
    """Flush every open trace (all threads) without delivering errors."""
    with _traces_lock:
        traces = list(_traces.values())
    for trace in traces:
        trace.flush()


def sync_lazy() -> None:
    """Flush everything, then re-raise the first undelivered deferred error."""
    flush_all_pending()
    deferred = take_deferred()
    if deferred is not None:
        deferred._repro_delivered = True  # type: ignore[attr-defined]
        raise deferred
