"""A per-operation profiler for the multi-stage workflow's Analysis step.

Paper §4.1, step 2: "Using any profiling tool the user is familiar
with, identify performance-critical blocks of operations".  The
profiler is a dispatch **interceptor**
(:class:`repro.runtime.dispatch.OpInterceptor`) registered with the
shared dispatch core for the duration of the ``with`` block, so one
context manager covers imperative ops and the nodes of executing graph
functions — both executors funnel through the same dispatch path:

    with repro.profiler.Profile() as prof:
        train_step(batch)
    print(prof.summary())

While no profiler is active the interceptor is not registered at all,
so the inactive overhead is the dispatch core's single
interceptor-stack emptiness check per op.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.runtime import dispatch

__all__ = ["Profile", "LatencyHistogram", "active", "record"]

# The currently active profiler, or None.  Read on the hot path.
active: Optional["Profile"] = None
_lock = threading.Lock()


class _ProfilerInterceptor(dispatch.OpInterceptor):
    """Times every dispatched op for the active :class:`Profile`."""

    name = "profiler"
    modes = (dispatch.EAGER, dispatch.GRAPH)

    def on_start(self, op_name, attrs, inputs, device):
        return time.perf_counter()

    def on_complete(self, op_name, attrs, inputs, outputs, device, token) -> None:
        prof = active
        if prof is not None:
            prof.add(op_name, time.perf_counter() - token)
            if op_name == "FusedElementwise":
                region = attrs.get("region")
                prof.add_fused(getattr(region, "size", 0))

    def on_retry(self, op_name, attrs, inputs, device, attempt, exc) -> None:
        prof = active
        if prof is not None:
            prof.add_retry(op_name)


_interceptor = _ProfilerInterceptor()


@dataclass
class OpStats:
    """Aggregate statistics for one operation type."""

    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_us(self) -> float:
        return 0.0 if not self.count else self.total_seconds / self.count * 1e6


class LatencyHistogram:
    """Sliding-window latency percentiles for SLO accounting.

    Keeps the most recent ``window`` samples (seconds) and answers
    percentile queries over them — the serving layer's per-model
    p50/p99.  A bounded window rather than full history: an SLO is a
    statement about *current* behaviour, and a fault injected ten
    minutes ago must eventually stop dominating p99.  Thread-safe;
    ``add`` is O(1) on the submit/settle hot path, percentile queries
    sort on demand.
    """

    __slots__ = ("_samples", "_count", "_total", "_lock")

    def __init__(self, window: int = 8192) -> None:
        import collections

        self._samples: "collections.deque[float]" = collections.deque(maxlen=window)
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def add(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._total += seconds

    @property
    def count(self) -> int:
        """Lifetime sample count (not capped by the window)."""
        return self._count

    @property
    def mean_ms(self) -> float:
        with self._lock:
            return 0.0 if not self._count else self._total / self._count * 1e3

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100) over the window, in seconds."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        rank = (len(ordered) - 1) * p / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def snapshot(self) -> dict:
        """``{count, mean_ms, p50_ms, p99_ms}`` over the current window."""
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p99_ms": self.percentile(99.0) * 1e3,
        }


class Profile:
    """Collects per-op-name timing while active."""

    def __init__(self) -> None:
        self.ops: dict[str, OpStats] = {}
        # Remote-op retry counts by op name (fault-tolerance layer).
        self.retries: dict[str, int] = {}
        # Elementwise primitives covered by FusedElementwise dispatches
        # (each fused kernel executes region.size staged ops in one call).
        self.fused_covered_ops = 0
        # Lazy-mode flush accounting: every segment flush reports how
        # many recorded ops it covered and whether it hit the
        # trace-hash segment cache.
        self.lazy_flushes = 0
        self.lazy_cache_hits = 0
        self.lazy_recorded_ops = 0
        self._entered = 0.0
        # on_complete runs on whichever thread dispatched the op (replica
        # threads, serving workers), so several can add samples at once.
        self._stats_lock = threading.Lock()

    # -- context manager --------------------------------------------------
    def __enter__(self) -> "Profile":
        global active
        with _lock:
            if active is not None:
                raise RuntimeError("A profiler is already active")
            active = self
        dispatch.core.register_interceptor(_interceptor)
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        global active
        # Run recorded lazy ops before closing the books so their
        # kernel timings land in this profile.  This only flushes;
        # deferred errors stay queued for the next sync point rather
        # than erupting out of the `with` block.
        import sys

        lazy_mod = sys.modules.get("repro.runtime.lazy")
        if lazy_mod is not None:
            lazy_mod.flush_all_pending()
        self.wall_seconds = time.perf_counter() - self._entered
        dispatch.core.unregister_interceptor(_interceptor)
        with _lock:
            active = None

    # -- collection --------------------------------------------------------
    def add(self, op_name: str, seconds: float) -> None:
        with self._stats_lock:
            stats = self.ops.get(op_name)
            if stats is None:
                stats = self.ops[op_name] = OpStats()
            stats.count += 1
            stats.total_seconds += seconds

    def add_retry(self, op_name: str) -> None:
        with self._stats_lock:
            self.retries[op_name] = self.retries.get(op_name, 0) + 1

    def add_fused(self, covered: int) -> None:
        with self._stats_lock:
            self.fused_covered_ops += covered

    def add_lazy_flush(self, recorded_ops: int, cache_hit: bool) -> None:
        with self._stats_lock:
            self.lazy_flushes += 1
            self.lazy_recorded_ops += recorded_ops
            if cache_hit:
                self.lazy_cache_hits += 1

    # -- reporting ----------------------------------------------------------
    @property
    def total_op_seconds(self) -> float:
        return sum(s.total_seconds for s in self.ops.values())

    @property
    def total_ops(self) -> int:
        return sum(s.count for s in self.ops.values())

    def top(self, n: int = 10) -> list[tuple[str, OpStats]]:
        return sorted(
            self.ops.items(), key=lambda kv: kv[1].total_seconds, reverse=True
        )[:n]

    def summary(self, n: int = 10) -> str:
        lines = [
            f"{'op':<28}{'calls':>8}{'total ms':>12}{'mean us':>12}",
            "-" * 60,
        ]
        for name, stats in self.top(n):
            lines.append(
                f"{name:<28}{stats.count:>8}"
                f"{stats.total_seconds * 1e3:>12.2f}{stats.mean_us:>12.1f}"
            )
        lines.append("-" * 60)
        lines.append(
            f"{'total':<28}{self.total_ops:>8}"
            f"{self.total_op_seconds * 1e3:>12.2f}"
        )
        fused = self.ops.get("FusedElementwise")
        if fused is not None:
            covered = self.fused_covered_ops
            avg = covered / fused.count if fused.count else 0.0
            lines.append(
                f"fused kernels: {fused.count} dispatches covering "
                f"{covered} elementwise ops ({avg:.1f} ops/dispatch)"
            )
        if self.lazy_flushes:
            hit_pct = self.lazy_cache_hits / self.lazy_flushes * 100.0
            lines.append(
                f"lazy eager: {self.lazy_flushes} flushes covering "
                f"{self.lazy_recorded_ops} recorded ops; trace-hash cache "
                f"hit rate {hit_pct:.0f}%"
            )
        if self.retries:
            total_retries = sum(self.retries.values())
            detail = ", ".join(
                f"{name} x{count}" for name, count in sorted(self.retries.items())
            )
            lines.append(f"remote retries: {total_retries} ({detail})")
        return "\n".join(lines)


def record(op_name: str, seconds: float) -> None:
    """Hot-path hook used by the executors."""
    profiler = active
    if profiler is not None:
        profiler.add(op_name, seconds)
