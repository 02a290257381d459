"""Metric declarations, and the arithmetic that turns samples and spans into them.

``BENCHMARK.json`` lists the same names, units, directions and bounds;
``tests/test_contract.py`` holds the two together.
"""

from __future__ import annotations

import math
import statistics

MIN_SAMPLES = 100  # a percentile needs ten samples beyond it to repeat

# End-to-end numbers are computed per block of the window and the median
# block is reported.  On a shared box interference comes in bursts of
# seconds: pooled over the window, a burst covering a tenth of it *is* the
# 90th percentile; per block, it moves one block and the median ignores it.
BLOCKS = 8
MIN_BLOCK = 20  # samples; fewer blocks rather than smaller ones

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("step_ms_p50", "ms", "lower", 0.25),
    ("items_per_s", "items/s", "higher", 0.25),
    ("cpu_ms_per_step", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

# Measured and reported by every untraced run, but not declared in
# BENCHMARK.json and not bounded: on this box the run-to-run spread of a
# 90th percentile reaches 29 %, above the widest bound the contract allows.
INFORMATIONAL = (("step_ms_p90", "ms", "lower"),)

# name, unit, better
PER_LAYER = (
    # eager op path
    ("runtime.executor.calls", "count", "lower"),
    ("runtime.executor.submit.self_us", "us", "lower"),
    ("runtime.dispatch.calls", "count", "lower"),
    ("runtime.dispatch.self_us", "us", "lower"),
    ("runtime.dispatch.busy_ms", "ms", "lower"),
    ("core.tape.record.self_us", "us", "lower"),
    ("backend.kernel.calls", "count", "lower"),
    ("backend.kernel.busy_ms", "ms", "lower"),
    ("backend.kernel.bytes_mb", "MiB", "lower"),
    ("core.tape.gradient.busy_ms", "ms", "lower"),
    ("core.tape.gradient.self_ms", "ms", "lower"),
    ("nn.optimizer.apply.busy_ms", "ms", "lower"),
    ("nn.model.self_ms", "ms", "lower"),
    # staged call path
    ("core.function.call.self_us", "us", "lower"),
    ("core.function.concrete.self_us", "us", "lower"),
    ("core.function.cache.hits", "count", "higher"),
    ("core.function.cache.misses", "count", "lower"),
    ("core.function.cache.traces", "count", "lower"),
    ("ops.function_call.self_us", "us", "lower"),
    ("graph.executor.run.busy_ms", "ms", "lower"),
    ("graph.executor.nodes_run", "count", "lower"),
    ("graph.executor.node.self_us", "us", "lower"),
    ("graph.executor.peak_live_mb", "MiB", "lower"),
    # compilation stages
    ("autograph.convert_ms", "ms", "lower"),
    ("core.tracing.trace_ms", "ms", "lower"),
    ("core.pipeline.infer_ms", "ms", "lower"),
    ("graph.optimize.pass_ms", "ms", "lower"),
    ("graph.fusion.fuse_ms", "ms", "lower"),
    ("core.backprop.build_ms", "ms", "lower"),
    ("graph.executor.plan_ms", "ms", "lower"),
    ("graph.nodes_traced", "count", "lower"),
    ("graph.nodes_optimized", "count", "lower"),
    ("graph.fusion.regions", "count", "higher"),
    ("graph.fusion.nodes_fused", "count", "higher"),
    # lazy mode
    ("runtime.lazy.ops_recorded", "count", "lower"),
    ("runtime.lazy.record.self_us", "us", "lower"),
    ("runtime.lazy.flushes", "count", "lower"),
    ("runtime.lazy.flush.busy_ms", "ms", "lower"),
    ("runtime.lazy.flush.self_ms", "ms", "lower"),
    ("runtime.lazy.cache.hit_ratio", "ratio", "higher"),
    ("runtime.lazy.compile_ms", "ms", "lower"),
    # serving
    ("serving.submit.self_us", "us", "lower"),
    ("serving.queue.wait_ms", "ms", "lower"),
    ("serving.batches", "count", "lower"),
    ("serving.batch.mean_size", "count", "higher"),
    ("serving.batch.self_us", "us", "lower"),
    ("serving.batching.coalesce_us", "us", "lower"),
    ("serving.batching.split_us", "us", "lower"),
    ("serving.execute.busy_ms", "ms", "lower"),
    ("serving.rejected", "count", "lower"),
    ("serving.deadline_missed", "count", "lower"),
    # floors, timed in isolation
    ("backend.kernel.numpy_add_us", "us", "lower"),
    ("runtime.dispatch.eager_add_us", "us", "lower"),
    ("graph.executor.node_add_us", "us", "lower"),
    ("core.function.empty_call_us", "us", "lower"),
    # validity of the other numbers
    ("loadgen.lag_ms_p90", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.coverage_ratio", "ratio", "higher"),
    ("trace.span_cost_us", "us", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + INFORMATIONAL + PER_LAYER}

# Compilation stages: per cold step when the measured window compiles
# (staging_cold), else the total spent during set-up.  (span, field):
# field 1 is busy, 2 is self.  Tracing is the one inclusive stage: running
# the user's Python *is* the trace, so the model code, the symbolic
# gradient and the optimizer that run inside it count towards it.  The
# lazy compile is inclusive too (it wraps optimize, fuse and plan).
_STAGE_TIMES = {
    "autograph.convert_ms": ("autograph.convert", 2),
    "core.tracing.trace_ms": ("core.tracing.trace", 1),
    "core.pipeline.infer_ms": ("core.pipeline.infer", 2),
    "graph.optimize.pass_ms": ("graph.optimize", 2),
    "graph.fusion.fuse_ms": ("graph.fusion.fuse", 2),
    "core.backprop.build_ms": ("core.backprop.build", 2),
    "graph.executor.plan_ms": ("graph.executor.plan", 2),
    "runtime.lazy.compile_ms": ("runtime.lazy.compile", 1),
}
_STAGE_COUNTS = (
    "graph.nodes_traced",
    "graph.nodes_optimized",
    "graph.fusion.regions",
    "graph.fusion.nodes_fused",
)


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def block_bounds(count: int) -> list[tuple[int, int]]:
    """``count`` consecutive samples cut into up to ``BLOCKS`` equal blocks."""
    blocks = max(1, min(BLOCKS, count // MIN_BLOCK))
    return [(j * count // blocks, (j + 1) * count // blocks) for j in range(blocks)]


def block_median(samples, q: float) -> float:
    """Median over the blocks of each block's ``q``-th percentile."""
    return statistics.median(
        percentile(samples[lo:hi], q) for lo, hi in block_bounds(len(samples))
    )


def with_units(values: dict) -> dict:
    """``{name: value}`` → ``{name: {"value": ..., "unit": ...}}``."""
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}


def ledger(setup: dict, window: dict, setup_counts: dict, window_counts: dict,
           steps: int, byte_steps: int) -> dict:
    """Per-layer numbers from span totals ``{name: (count, busy_s, self_s)}``.

    ``setup``/``window`` are the totals before and during the measured
    steps; ``steps`` is how many steps the window ran and ``byte_steps``
    how many of them had kernel bytes counted.
    """
    steps = max(steps, 1)
    zero = (0, 0.0, 0.0)

    def per_call_us(name):
        count, _busy, self_s = window.get(name, zero)
        return self_s / count * 1e6 if count else 0.0

    def per_step(name, field):
        return window.get(name, zero)[field] / steps

    out = {
        "runtime.executor.calls": per_step("runtime.executor", 0),
        "runtime.executor.submit.self_us": per_call_us("runtime.executor"),
        "runtime.dispatch.calls": per_step("runtime.dispatch", 0),
        "runtime.dispatch.self_us": per_call_us("runtime.dispatch"),
        "runtime.dispatch.busy_ms": per_step("runtime.dispatch", 1) * 1e3,
        "core.tape.record.self_us": per_call_us("core.tape.record"),
        "backend.kernel.calls": per_step("backend.kernel", 0),
        "backend.kernel.busy_ms": per_step("backend.kernel", 2) * 1e3,
        "backend.kernel.bytes_mb": window_counts.get("backend.kernel.bytes", 0)
        / max(byte_steps, 1) / 2**20,
        "core.tape.gradient.busy_ms": per_step("core.tape.gradient", 1) * 1e3,
        "core.tape.gradient.self_ms": per_step("core.tape.gradient", 2) * 1e3,
        "nn.optimizer.apply.busy_ms": per_step("nn.optimizer.apply", 1) * 1e3,
        "nn.model.self_ms": per_step("nn.model", 2) * 1e3,
        "core.function.call.self_us": per_call_us("core.function.call"),
        "core.function.concrete.self_us": per_call_us("core.function.concrete"),
        "ops.function_call.self_us": per_call_us("ops.function_call"),
        "graph.executor.run.busy_ms": per_step("graph.executor.run", 1) * 1e3,
        "graph.executor.nodes_run": window_counts.get("graph.executor.nodes_run", 0) / steps,
        "runtime.lazy.record.self_us": per_call_us("runtime.lazy.record"),
        "runtime.lazy.flush.busy_ms": per_step("runtime.lazy.flush", 1) * 1e3,
        "runtime.lazy.flush.self_ms": per_step("runtime.lazy.flush", 2) * 1e3,
        "serving.submit.self_us": per_call_us("serving.submit"),
        "serving.batch.self_us": per_call_us("serving.batch"),
        "serving.batching.coalesce_us": per_call_us("serving.batching.coalesce"),
        "serving.batching.split_us": per_call_us("serving.batching.split"),
    }
    nodes = window_counts.get("graph.executor.nodes_run", 0)
    run_self = window.get("graph.executor.run", zero)[2]
    out["graph.executor.node.self_us"] = run_self / nodes * 1e6 if nodes else 0.0
    batches = window.get("serving.batch", zero)[0]
    out["serving.queue.wait_ms"] = (
        window.get("serving.queue", zero)[1] / batches * 1e3 if batches else 0.0
    )
    out["serving.execute.busy_ms"] = (
        window.get("serving.execute", zero)[1] / batches * 1e3 if batches else 0.0
    )
    for metric, (span, field) in _STAGE_TIMES.items():
        if window.get(span, zero)[0]:
            out[metric] = window[span][field] / steps * 1e3
        else:
            out[metric] = setup.get(span, zero)[field] * 1e3
    compiles_in_window = bool(window_counts.get("graph.nodes_traced"))
    for name in _STAGE_COUNTS:
        if compiles_in_window:
            out[name] = window_counts.get(name, 0) / steps
        else:
            out[name] = setup_counts.get(name, 0)
    return out


def coverage(window: dict, root: str) -> float:
    """Share of the ``root`` spans' time that named layer spans account for."""
    root_busy = window.get(root, (0, 0.0, 0.0))[1]
    if not root_busy:
        return 0.0
    covered = sum(self_s for name, (_c, _b, self_s) in window.items() if name != root)
    return covered / root_busy
