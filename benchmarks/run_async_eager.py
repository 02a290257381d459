#!/usr/bin/env python
"""Throughput of asynchronous vs synchronous eager execution.

The tentpole claim (paper §4.1): eager dispatch overhead can be hidden
by executing kernels asynchronously on per-device streams, so the
Python thread's rate of *issuing* ops is decoupled from the device's
rate of *finishing* them.  This benchmark drives a 1000-op elementwise
chain through both modes and reports two numbers:

* **submission throughput** (the headline) — ops issued per second of
  Python-thread time before any value is observed.  In sync mode every
  dispatch waits for its kernel; in async mode dispatch returns at
  submission, so the Python thread runs ahead while kernels (which
  release the GIL in numpy) execute on the stream worker.  This is the
  quantity async mode exists to improve, and the acceptance bar
  (>= 1.5x) applies to it.
* **end-to-end wall time** — including the final synchronization.  On a
  multi-core host async also wins here (dispatch overlaps kernels); on
  a single-core CI container the total CPU work is unchanged, so treat
  this as an honesty check, not a speedup claim.

The stream depth is raised above the chain length so backpressure does
not re-serialize submission (that knob exists to bound memory, which is
not what is being measured here).

Usage:
    PYTHONPATH=src python benchmarks/run_async_eager.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Read once, when `import repro` constructs the context.
os.environ.setdefault("REPRO_STREAM_DEPTH", "4096")

sys.path.insert(0, ".")

import numpy as np

import repro
from benchmarks.report import bar, write_report

ACCEPTANCE_RATIO = 1.5


def run_chain(mode: str, chain_ops: int, size: int) -> tuple[float, float]:
    """Run one elementwise chain; return (submit_seconds, total_seconds)."""
    with repro.execution_mode(mode):
        x = repro.constant(np.ones((size, size), dtype=np.float32))
        repro.sync()
        start = time.perf_counter()
        y = x
        for _ in range(chain_ops):
            y = y + 1.0
        submitted = time.perf_counter() - start
        y.numpy()  # the synchronization point
        total = time.perf_counter() - start
    return submitted, total


def bench(mode: str, chain_ops: int, size: int, repeats: int) -> tuple[float, float]:
    best_submit, best_total = float("inf"), float("inf")
    for _ in range(repeats):
        submitted, total = run_chain(mode, chain_ops, size)
        best_submit = min(best_submit, submitted)
        best_total = min(best_total, total)
    return best_submit, best_total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke run")
    parser.add_argument("--chain-ops", type=int, default=1000)
    parser.add_argument("--size", type=int, default=768, help="tensor side length")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    chain_ops = 300 if args.quick else args.chain_ops
    repeats = 3 if args.quick else args.repeats

    run_chain("sync", 20, args.size)  # warm kernel and dispatch caches
    run_chain("async", 20, args.size)

    sync_submit, sync_total = bench("sync", chain_ops, args.size, repeats)
    async_submit, async_total = bench("async", chain_ops, args.size, repeats)

    sync_rate = chain_ops / sync_submit
    async_rate = chain_ops / async_submit
    ratio = async_rate / sync_rate
    e2e_ratio = sync_total / async_total

    print(
        f"elementwise chain: {chain_ops} ops over "
        f"{args.size}x{args.size} float32"
    )
    print(f"{'mode':<8}{'submit ops/s':>14}{'submit s':>11}{'end-to-end s':>14}")
    print("-" * 47)
    print(
        f"{'sync':<8}{sync_rate:>14.0f}{sync_submit:>11.4f}{sync_total:>14.4f}"
    )
    print(
        f"{'async':<8}{async_rate:>14.0f}{async_submit:>11.4f}{async_total:>14.4f}"
    )
    print("-" * 47)
    print(
        f"submission throughput: async is {ratio:.2f}x sync "
        f"(acceptance bar {ACCEPTANCE_RATIO}x)"
    )
    print(f"end-to-end wall time:  async/sync = {e2e_ratio:.2f}x")
    if os.cpu_count() == 1:
        print(
            "note: single-core host; end-to-end parity is expected — the "
            "submission ratio is the async win being measured"
        )

    ok = write_report(
        "async_eager",
        speedup=ratio,
        bars=[bar("submission_throughput_ratio", ratio, ACCEPTANCE_RATIO)],
        metrics={
            "sync_submit_ops_per_s": sync_rate,
            "async_submit_ops_per_s": async_rate,
            "end_to_end_ratio": e2e_ratio,
        },
    )
    if not ok:
        print(
            f"FAIL: async submission throughput only {ratio:.2f}x sync "
            f"(needs >= {ACCEPTANCE_RATIO}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
