"""What runs inside one workload's process: set-up, the measured window, the ledger.

``measure`` is the untraced run that yields the end-to-end metrics;
``measure_traced`` runs the workload twice in one process — a short
untraced window, then a fresh instance with the spans of ``spans.py``
installed — and yields the per-layer metrics.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import time

from benchmarks.perf import metrics
from benchmarks.perf.workloads import WORKLOADS, Window

UNTRACED_SHARE = 0.25  # of a traced run's seconds: the overhead yardstick
TRACED_SHARE = 0.6


def closed_loop(workload, seconds: float, recorder=None) -> Window:
    """One caller, next step only after the previous one completed.

    Output checks run between steps; their wall and CPU time is taken
    out of the window so that a slower check is not a slower system.
    """
    clock, cpu_clock = time.perf_counter, time.process_time
    samples: list[float] = []
    errors: list[str] = []
    ok: list[bool] = []
    # wall and CPU seconds since the window opened, net of checks, at each
    # step's start (and once more when the window closes)
    net_wall: list[float] = []
    net_cpu: list[float] = []
    check_wall = check_cpu = 0.0
    i = 1  # step 0 ran in set-up
    gc.collect()
    wall0, cpu0 = clock(), cpu_clock()
    while True:
        mark_wall, mark_cpu = clock(), cpu_clock()
        if mark_wall - wall0 - check_wall >= seconds:
            net_wall.append(mark_wall - wall0 - check_wall)
            net_cpu.append(mark_cpu - cpu0 - check_cpu)
            break
        before = workload.before_step(i)
        if recorder is not None:
            recorder.step = i - 1
            recorder.detail = i <= recorder.detail_steps
            recorder.count_bytes = i <= recorder.byte_steps
        start, start_cpu = clock(), cpu_clock()
        check_wall += start - mark_wall
        check_cpu += start_cpu - mark_cpu
        net_wall.append(start - wall0 - check_wall)
        net_cpu.append(start_cpu - cpu0 - check_cpu)
        if recorder is not None:
            recorder.begin("step")
        try:
            out = workload.step(i)
            error = None
        except Exception as exc:  # boundary: a step that raises is a failed step
            error = f"step {i}: {type(exc).__name__}: {exc}"
        finally:
            if recorder is not None:
                recorder.end()
        done, done_cpu = clock(), cpu_clock()
        ok.append(error is None and workload.check(i, out, before))
        if ok[-1]:
            samples.append((done - start) * 1e3)
        else:
            errors.append(error or f"step {i}: wrong output")
        check_wall += clock() - done
        check_cpu += cpu_clock() - done_cpu
        i += 1
    steps = len(ok)
    rates, cpu_ms = [], []
    for lo, hi in metrics.block_bounds(steps) if steps else ():
        wall = net_wall[hi] - net_wall[lo]
        rates.append(sum(ok[lo:hi]) * workload.items_per_step / wall)
        cpu_ms.append((net_cpu[hi] - net_cpu[lo]) / (hi - lo) * 1e3)
    return Window(
        latencies_ms=samples,
        rates=rates,
        cpu_ms=cpu_ms,
        attempted=steps,
        failed=steps - len(samples),
        errors=errors[:5],
    )


def _window(workload, seconds: float, recorder=None) -> Window:
    if workload.closed_loop:
        return closed_loop(workload, seconds, recorder)
    return workload.run(seconds, recorder)


def end_to_end(window: Window) -> dict:
    """Each number is the median over the window's consecutive blocks."""
    return {
        "step_ms_p50": metrics.block_median(window.latencies_ms, 50),
        "step_ms_p90": metrics.block_median(window.latencies_ms, 90),
        "items_per_s": statistics.median(window.rates),
        "cpu_ms_per_step": statistics.median(window.cpu_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _verdict(workload, window: Window) -> dict:
    failed = window.failed + workload.deferred_failures
    return {
        "attempted": window.attempted + 1,  # the set-up step was verified too
        "failed": failed,
        "correct": failed == 0,
        "reference": workload.reference,
        "samples": len(window.latencies_ms),
        "errors": window.errors,
        "phases": {k: v for k, v in window.extra.items() if k.startswith("phase_")},
    }


def measure(name: str, seed: int, seconds: float, setup_only: bool = False,
            smoke: bool = False) -> dict:
    """The untraced run: end-to-end metrics (all but ``setup_s``, the parent's).

    ``smoke`` waives the sample floor; its numbers are for tests only.
    """
    workload = WORKLOADS[name](seed)
    workload.setup()
    result = {"workload": name, "seed": seed, "ready_at": time.time()}
    try:
        if setup_only:
            return result
        window = _window(workload, seconds)
        # peak RSS is read here, before the cross-mode replay builds a second model
        numbers = end_to_end(window) if window.latencies_ms else None
        workload.finish()
    finally:
        workload.close()
    result.update(_verdict(workload, window))
    if result["samples"] < metrics.MIN_SAMPLES and not smoke:
        result["refused"] = (
            f"{result['samples']} samples in {seconds} s; "
            f"percentiles need {metrics.MIN_SAMPLES}"
        )
        return result
    informational = [name for name, *_ in metrics.INFORMATIONAL]
    result["informational"] = {name: numbers.pop(name) for name in informational}
    result["metrics"] = numbers
    return result


def measure_traced(name: str, seed: int, seconds: float, trace_path=None) -> dict:
    """The traced run: per-layer metrics; the first steps' spans go to ``trace_path``."""
    from repro.runtime import lazy

    from benchmarks.perf import spans

    # 1. the same workload, untraced, as the yardstick for tracing overhead
    plain = WORKLOADS[name](seed)
    plain.setup()
    try:
        plain_window = _window(plain, seconds * UNTRACED_SHARE)
        plain.finish()
    finally:
        plain.close()
    floors = measure_floors()

    # 2. a fresh instance with spans installed before it is built, so the
    #    compilation stages of its set-up are on the record
    lazy.reset_lazy_stats(clear_cache=True)
    recorder = spans.Recorder(detail_steps=spans.KEEP_STEPS if trace_path else 0)
    hooks = spans.Hooks(recorder).install()
    try:
        workload = WORKLOADS[name](seed)
        workload.setup()
        try:
            setup_totals, setup_counts = recorder.totals(), recorder.counts()
            counts0 = workload.layer_counts()
            window = _window(workload, seconds * TRACED_SHARE, recorder)
            counts = spans.subtract(workload.layer_counts(), counts0)
            state = workload.layer_state()
            threads = recorder.thread_totals()
        finally:
            workload.close()
    finally:
        hooks.uninstall()

    window_totals = spans.subtract(recorder.totals(), setup_totals)
    window_counts = spans.subtract(recorder.counts(), setup_counts)
    steps = max(window.attempted, 1)
    byte_steps = min(steps, recorder.byte_steps) if workload.closed_loop else steps
    layer = metrics.ledger(
        setup_totals, window_totals, setup_counts, window_counts, steps, byte_steps
    )
    layer.update(floors)
    layer.update(state)
    layer.setdefault("graph.executor.peak_live_mb", 0.0)

    # counts from the layers' own stats surfaces; a workload that never
    # touches a layer reads 0 for it
    def count(key):
        return counts.get(key, 0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    for key in ("core.function.cache.hits", "core.function.cache.misses",
                "core.function.cache.traces", "runtime.lazy.ops_recorded",
                "runtime.lazy.flushes"):
        layer[key] = count(key) / steps
    for key in ("serving.batches", "serving.rejected", "serving.deadline_missed"):
        layer[key] = count(key)
    layer["runtime.lazy.cache.hit_ratio"] = ratio(
        count("runtime.lazy.cache_hits"),
        count("runtime.lazy.cache_hits") + count("runtime.lazy.cache_misses"),
    )
    layer["serving.batch.mean_size"] = ratio(
        count("serving.completed"), count("serving.batches")
    )
    lags = window.extra.get("lags_ms")
    layer["loadgen.lag_ms_p90"] = metrics.percentile(lags, 90) if lags else 0.0
    layer["trace.overhead_ratio"] = metrics.block_median(
        window.latencies_ms, 50
    ) / metrics.block_median(plain_window.latencies_ms, 50)
    if workload.closed_loop:
        layer["trace.coverage_ratio"] = metrics.coverage(window_totals, "step")
    else:
        # no caller-side step span: how much of the serving worker's
        # wall time its spans (queue wait included) account for
        worker = max(threads, key=lambda t: t.get("serving.queue", (0, 0.0, 0.0))[1])
        layer["trace.coverage_ratio"] = (
            sum(t[2] for t in worker.values()) / window.extra["window_s"]
        )
    layer["trace.span_cost_us"] = span_cost_us()

    result = {"workload": name, "seed": seed, "ready_at": time.time()}
    result.update(_verdict(workload, window))
    result["failed"] += plain_window.failed + plain.deferred_failures
    result["correct"] = result["failed"] == 0
    result["metrics"] = layer
    result["missing_hooks"] = hooks.missing
    result["span_totals"] = {
        name: {"count": c, "busy_ms": b * 1e3, "self_ms": s * 1e3}
        for name, (c, b, s) in sorted(window_totals.items())
    }
    if trace_path:
        with open(trace_path, "w") as f:
            json.dump(spans.chrome_trace(recorder.events()), f)
    return result


# -- floors: the cheapest possible op at each level, timed in isolation -----------

def _per_call_us(fn, calls: int, repeats: int = 7) -> float:
    """Median over ``repeats`` loops of the mean time of one ``fn()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times) * 1e6


def measure_floors() -> dict:
    import numpy as np

    import repro
    from repro.graph.executor import GraphRunner
    from repro.graph.function import placeholder
    from repro.graph.graph import Graph

    scalar = np.float32(1.0)
    x = repro.constant(scalar)

    chain = 100
    graph = Graph("perf_floor")
    ph = placeholder(graph, repro.float32, [], name="x")
    with graph.as_default():
        out = ph
        for _ in range(chain):
            out = out + 1.0
    runner = GraphRunner(graph, [out], include_side_effects=False)
    feed = [(ph, x)]

    @repro.function
    def identity(t):
        return t

    identity(x)
    return {
        "backend.kernel.numpy_add_us": _per_call_us(lambda: np.add(scalar, scalar), 20000),
        "runtime.dispatch.eager_add_us": _per_call_us(lambda: repro.add(x, x), 5000),
        "graph.executor.node_add_us": _per_call_us(lambda: runner.run(feed), 200) / chain,
        "core.function.empty_call_us": _per_call_us(lambda: identity(x), 2000),
    }


def span_cost_us() -> float:
    """What one span adds to a call: a wrapped no-op against a bare one."""
    from benchmarks.perf.spans import Recorder

    def noop():
        return None

    recorder = Recorder()
    recorder.detail = False
    wrapped = recorder.wrap("noop", noop)
    return _per_call_us(wrapped, 20000) - _per_call_us(noop, 20000)


def environment() -> dict:
    """Where and with what this ran; goes into the results file."""
    import numpy

    from repro.runtime.context import context

    knobs = {}
    for key in dir(type(context)):
        if key.startswith("_") or not isinstance(getattr(type(context), key), property):
            continue
        value = getattr(context, key)
        if isinstance(value, (bool, int, float, str, type(None))):
            knobs[key] = value
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "context": knobs,
    }
