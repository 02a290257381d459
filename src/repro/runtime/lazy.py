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
compiled, fused, memory-planned artifact on every step.  Only *live*
outputs (Python references still exist — user variables, tape entries)
are fetched; dead intermediates are fused away or freed by the plan.

**Deferred errors.**  A kernel error during a flush is attached to the
originating op's name with the original exception type preserved
(:func:`~repro.framework.errors.attach_op_name`), settles the failed
op's handle (and, via poison propagation, its dependents'), and is
delivered exactly once — at the observation that forced the flush, or
at the next synchronization point for flushes nobody observed.  On an
artifact failure the segment is replayed op-by-op through the sync
dispatch path, which assigns precise per-op outcomes.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional, Sequence

import numpy as np

from repro.framework.errors import InternalError, NotFoundError, attach_op_name
from repro.ops import registry
from repro.runtime import records
from repro.runtime.context import context
from repro.runtime.dispatch import core
from repro.tensor import LazyTensor, PendingTensor, Tensor

__all__ = [
    "LazyTrace",
    "LazyHandle",
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


class LazyHandle:
    """Completion state of one recorded op.

    The observation protocol :class:`~repro.tensor.PendingTensor` forces
    through (``done``/``result``/``output``/settle).  Records settle
    under their trace's lock, on whichever thread runs the flush, so
    plain attributes ordered by the GIL suffice — recording stays cheap
    per op.
    """

    __slots__ = ("op_name", "record_index", "_outputs", "_error", "_settled")

    def __init__(self, op_name: str, record_index: int) -> None:
        self.op_name = op_name
        self.record_index = record_index
        self._outputs: Optional[list] = None
        self._error: Optional[BaseException] = None
        self._settled = False

    def done(self) -> bool:
        return self._settled

    def _settle_result(self, outputs) -> None:
        if self._settled:
            return
        self._outputs = list(outputs)
        self._settled = True

    def _settle_error(self, exc: BaseException) -> None:
        if self._settled:
            return
        self._error = attach_op_name(exc, self.op_name)
        self._settled = True

    def result(self) -> list:
        if not self._settled:
            raise InternalError(
                f"Recorded op {self.op_name!r} was observed before its "
                "trace flushed (flush-ordering bug)"
            )
        error = self._error
        if error is not None:
            error._repro_delivered = True  # type: ignore[attr-defined]
            raise error
        return self._outputs  # type: ignore[return-value]

    def output(self, index: int):
        outputs = self.result()
        if index >= len(outputs) or outputs[index] is None:
            raise InternalError(
                f"Recorded op {self.op_name!r} has no computed output {index}"
            )
        return outputs[index]


class _Record:
    """One recorded op: everything a flush needs, nothing more.

    ``in_refs`` holds *structural* references — ``("e", i)`` for
    external input ``i`` (kept alive in the trace's ``ext`` list) or
    ``("o", k, j)`` for output ``j`` of recorded op ``k``.  Outputs are
    held by **weak** references: a recorded intermediate whose Python
    handle dies before the flush is never fetched, so fusion and the
    memory plan can elide its buffer entirely.
    """

    __slots__ = ("op_name", "attrs", "in_refs", "handle", "out_refs", "num_outputs")

    def __init__(self, op_name, attrs, in_refs, handle, out_refs) -> None:
        self.op_name = op_name
        self.attrs = attrs
        self.in_refs = in_refs
        self.handle = handle
        self.out_refs = out_refs
        self.num_outputs = len(out_refs)


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

        The body inlines :meth:`_ref_for` — this is the per-op recording
        hot path, and lazy mode only wins when recording costs less than
        the kernel dispatch it displaces.
        """
        ext_ids = self.ext_ids
        ext = self.ext
        in_refs = []
        for t in inputs:
            if isinstance(t, LazyTensor):
                handle = t._handle
                if handle is not None and not handle._settled:
                    if t._trace is self:
                        in_refs.append(("o", handle.record_index, t._index))
                        continue
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
        handle = LazyHandle(op_name, len(self.records))
        outputs = [
            LazyTensor._pending_in_trace(handle, i, spec, device, self)
            for i, spec in enumerate(specs)
        ]
        self.records.append(
            _Record(
                op_name,
                attrs,
                tuple(in_refs),
                handle,
                tuple(weakref.ref(t) for t in outputs),
            )
        )
        return outputs

    # -- flushing ----------------------------------------------------------
    def flush(self) -> None:
        """Compile and run the recorded segment, settling its handles.

        Never raises: errors settle on the failed ops' handles (poison
        propagating to dependents) and park in the module deferred slot
        for the next synchronization point.  Idempotent and thread-safe.
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
        fetches = []
        for k, rec in enumerate(recs):
            for j, wr in enumerate(rec.out_refs):
                if wr() is not None:
                    fetches.append((k, j))
        _stats["flushes"] += 1
        _stats["flushed_ops"] += len(recs)
        if not fetches:
            # Dead code: nothing observable depends on the segment.
            _stats["dead_flushes"] += 1
            return
        cache_hit = False
        try:
            key = self._segment_key(recs, fetches)
            if key is None:
                self._replay(recs)  # unhashable attrs: run uncached
                return
            structural, shapes = key
            artifact, build_relaxed = _segment_cache.lookup(structural, shapes)
            cache_hit = artifact is not None
            if artifact is None:
                artifact = self._compile(recs, fetches, build_relaxed)
                if artifact is None:
                    self._replay(recs)  # lowering failed: run uncached
                    return
                _segment_cache.insert(
                    structural, shapes, artifact, relaxed=build_relaxed
                )
            try:
                values = artifact.fn.run(self.ext)
            except BaseException:  # noqa: BLE001 - diagnosed by the replay
                # Per-op replay assigns precise outcomes: failed ops
                # settle with their own labelled error, independent ops
                # still produce values.
                self._replay(recs)
                return
            try:
                seg_peak = (artifact.fn.plan().memory_plan or {}).get(
                    "peak_live_bytes", 0
                )
            except Exception:
                seg_peak = 0
            if seg_peak > _stats["max_segment_peak_bytes"]:
                # The high-water mark across flushed segments: the lazy
                # analogue of a staged trace's peak-live-bytes, and what
                # the checkpoint benchmark reads to show that dropping
                # tape references (recompute_grad) actually shrinks the
                # planned working set of the flushed graphs.
                _stats["max_segment_peak_bytes"] = seg_peak
            per_record: dict[int, list] = {}
            for (k, j), value in zip(fetches, values):
                outs = per_record.get(k)
                if outs is None:
                    outs = per_record[k] = [None] * recs[k].num_outputs
                outs[j] = value
            for k, outs in per_record.items():
                recs[k].handle._settle_result(outs)
        finally:
            prof = _profiler_mod().active
            if prof is not None:
                prof.add_lazy_flush(len(recs), cache_hit)

    def _compile(self, recs, fetches, relaxed: bool):
        specs = []
        for t in self.ext:
            spec = _spec_mod().from_tensor(t)
            specs.append(spec.relaxed() if relaxed else spec)
        try:
            fn = _pipeline.compile_segment(
                f"lazy_segment_{context.unique_id()}",
                specs,
                [(rec.op_name, rec.attrs, rec.in_refs) for rec in recs],
                fetches,
            )
        except BaseException:  # noqa: BLE001 - replay surfaces the real error
            return None
        if relaxed:
            _stats["relaxed_segments"] += 1
        return _SegmentArtifact(fn)

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
            shape = t.shape  # may force an unknown-dim pending input
            ext_struct.append((t._dtype, shape.rank))
            shapes.append(shape)
        return (
            (tuple(struct), tuple(fetches), tuple(ext_struct)),
            tuple(shapes),
        )

    def _replay(self, recs: list) -> None:
        """Run the segment op-by-op through the sync dispatch path.

        The error path (and the fallback for uncacheable/unlowerable
        segments): every record settles with its real outputs or with
        the labelled error of the op that raised (dependents inherit the
        originating op's label via poison propagation).  Tape recording
        is suppressed — these ops were already offered to the tapes at
        record time.
        """
        _stats["replays"] += 1
        cpu = context.cpu_device()
        vals: list = [None] * len(recs)
        errs: list = [None] * len(recs)
        with records.stop_recording():
            for k, rec in enumerate(recs):
                poisoned = None
                ins = []
                for ref in rec.in_refs:
                    if ref[0] == "e":
                        ins.append(self.ext[ref[1]])
                        continue
                    producer = ref[1]
                    if errs[producer] is not None:
                        poisoned = errs[producer]
                        break
                    ins.append(vals[producer][ref[2]])
                if poisoned is not None:
                    rec.handle._settle_error(poisoned)  # label passes through
                    errs[k] = poisoned
                    continue
                try:
                    outs = core.dispatch(rec.op_name, ins, rec.attrs, device=cpu)
                except BaseException as exc:  # noqa: BLE001 - deferred
                    labelled = attach_op_name(exc, rec.op_name)
                    rec.handle._settle_error(labelled)
                    errs[k] = labelled
                    _note_deferred(labelled)
                else:
                    vals[k] = outs
                    rec.handle._settle_result(outs)


class _SegmentArtifact:
    """Cache entry: a planned segment function (release = drop the plan)."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        self.fn = fn

    def release(self) -> None:
        self.fn.release_plan()


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


def _spec_mod():
    from repro.tensor import TensorSpec

    return TensorSpec


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
    "replays": 0,
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
            if isinstance(t, PendingTensor) and t._handle is not None:
                dims = t._pending_shape._dims
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
