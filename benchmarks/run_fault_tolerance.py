#!/usr/bin/env python
"""Chaos benchmark for the distributed fault-tolerance layer.

Three questions, answered with wall-clock numbers:

1. **Healthy-path overhead** — what do deadlines + the retry wrapper
   cost on a remote op when nothing fails?  Target: < 5% over the same
   op with the machinery disabled (no deadline, no retry policy).
2. **Transient-fault recovery** — with injected aborts and delays, do
   retries keep the step success rate at 100%, and what does recovery
   cost per affected op?
3. **Kill recovery** — when a worker is killed mid
   ``DataParallelStrategy.run``, how long until the step completes by
   re-sharding onto the survivors (never a hang)?

Usage:
    PYTHONPATH=src python benchmarks/run_fault_tolerance.py [--quick]

``--quick`` shrinks iteration counts for CI smoke runs and enforces the
healthy-path overhead target plus the no-hang property.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

sys.path.insert(0, ".")

import numpy as np

import repro
from benchmarks.report import bar, write_report
from repro.distribute import (
    ClusterSpec,
    DataParallelStrategy,
    FaultInjector,
    RetryPolicy,
    connect_to_cluster,
    set_retry_policy,
    shutdown_cluster,
)
from repro.runtime.context import context


def _round_us(fn, iterations: int) -> float:
    """Mean microseconds per call of ``fn`` over one timed round."""
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations * 1e6


def measure_healthy_path(iterations: int, rounds: int) -> tuple[float, float, float]:
    """(baseline_us, guarded_us, overhead_pct) per remote op on a healthy worker.

    Both sides use the identical eager → remote op runner → run_op →
    worker-queue path; the only difference is the machinery under test:
    an armed deadline on every ``future.result`` plus the retry policy
    around each request.

    The sides alternate round by round, so a load phase on this box
    lands on both instead of on whichever ran second.  The overhead is
    the *median of the per-round guarded/unguarded ratios*: each ratio
    compares two adjacent windows, and the median drops the rounds a
    scheduling hiccup hit.  Per-side best-of (also reported) compares
    each side's luckiest window and measured −7 %…+7 % on an overhead
    the paired median puts at +1 %…+3 %.
    """
    workers = connect_to_cluster(ClusterSpec({"bench": 1}))
    guarded_deadline = context.rpc_deadline_ms or 30000.0
    guarded_policy = set_retry_policy(None) or RetryPolicy()
    try:
        device_name = next(iter(workers[0].devices))
        x = repro.constant(np.float32(1.0))

        def remote_add():
            with repro.device(device_name):
                repro.add(x, x)

        remote_add()  # warm kernel caches
        baseline, guarded = [], []
        for _ in range(rounds):
            set_retry_policy(None)
            context.rpc_deadline_ms = None
            baseline.append(_round_us(remote_add, iterations))
            set_retry_policy(guarded_policy)
            context.rpc_deadline_ms = guarded_deadline
            guarded.append(_round_us(remote_add, iterations))
        ratio = statistics.median(g / b for g, b in zip(guarded, baseline))
        return min(baseline), min(guarded), (ratio - 1.0) * 100.0
    finally:
        set_retry_policy(guarded_policy)
        context.rpc_deadline_ms = guarded_deadline
        shutdown_cluster(workers)


def measure_transient_recovery(ops: int) -> tuple[int, int, float]:
    """(succeeded, retries, mean_us) under injected transient faults."""
    workers = connect_to_cluster(ClusterSpec({"bench": 1}))
    try:
        device_name = next(iter(workers[0].devices))
        x = repro.constant(np.float32(1.0))
        succeeded = 0
        with FaultInjector(workers[0]) as chaos, repro.profiler.Profile() as prof:
            # Abort every 10th op; retries must absorb all of them.
            for i in range(ops):
                if i % 10 == 0:
                    chaos.fail(times=1)
                with repro.device(device_name):
                    out = repro.add(x, x)
                if float(out.cpu()) == 2.0:
                    succeeded += 1
        retries = sum(prof.retries.values())
        mean_us = prof.total_op_seconds / max(prof.total_ops, 1) * 1e6
        return succeeded, retries, mean_us
    finally:
        shutdown_cluster(workers)


def measure_kill_recovery(deadline_ms: float) -> tuple[float, list]:
    """Seconds for a strategy step to survive a mid-run worker kill."""
    workers = connect_to_cluster(ClusterSpec({"bench": 2}))
    try:
        devices = [
            "/job:bench/task:0/device:CPU:0",
            "/job:bench/task:1/device:CPU:0",
        ]
        strategy = DataParallelStrategy(devices, on_replica_failure="reshard")
        shards = strategy.split_batch(
            repro.constant(np.arange(64, dtype=np.float32).reshape(8, 8))
        )
        chaos = FaultInjector(workers[1])
        chaos.kill_worker(ops={"Mul"})
        saved = context.rpc_deadline_ms
        context.rpc_deadline_ms = deadline_ms
        try:
            start = time.perf_counter()
            out = strategy.run(lambda t: repro.reduce_sum(t * 2.0), shards)
            elapsed = time.perf_counter() - start
        finally:
            context.rpc_deadline_ms = saved
            chaos.remove()
        return elapsed, [float(o.cpu()) for o in out]
    finally:
        shutdown_cluster(workers)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke run")
    parser.add_argument("--iterations", type=int, default=700, help="per round")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()

    iterations = 100 if args.quick else args.iterations
    baseline_us, guarded_us, overhead = measure_healthy_path(
        iterations, max(args.rounds, 5)
    )
    print("healthy path (remote scalar Add, best round of each side)")
    print(f"  {'no deadlines/retries':<28}{baseline_us:>10.2f} us/op")
    print(f"  {'deadline + retry policy':<28}{guarded_us:>10.2f} us/op")
    print(f"  overhead: {overhead:+.2f}%  (median paired round, target < 5%)")

    succeeded, retries, mean_us = measure_transient_recovery(
        200 if args.quick else 1000
    )
    print("\ntransient faults (every 10th request aborted)")
    print(f"  ops succeeded: {succeeded}, retries absorbed: {retries}")
    print(f"  mean op latency under chaos: {mean_us:.2f} us")

    deadline_ms = 5000.0
    elapsed, out = measure_kill_recovery(deadline_ms)
    print("\nworker killed mid-strategy-step (reshard onto survivor)")
    print(f"  step completed in {elapsed * 1e3:.1f} ms (deadline {deadline_ms:g} ms)")
    print(f"  per-replica results: {out}")

    failures = []
    if elapsed >= deadline_ms / 1000.0:
        failures.append("kill recovery exceeded the deadline")
    if retries == 0 or succeeded == 0:
        failures.append("retries did not absorb transient faults")
    if args.quick and overhead >= 5.0:
        failures.append(f"healthy-path overhead {overhead:.2f}% >= 5%")
    for failure in failures:
        print(f"FAIL: {failure}")
    write_report(
        "fault_tolerance",
        bars=[
            bar("kill_recovery_s", elapsed, deadline_ms / 1000.0, op="<"),
            bar("transient_retries_absorbed", retries, 1, op=">="),
            bar("transient_ops_succeeded", succeeded, 1, op=">="),
            bar(
                "healthy_path_overhead_pct",
                overhead,
                5.0,
                op="<",
                gated=args.quick,
            ),
        ],
        metrics={
            "baseline_us_per_op": baseline_us,
            "guarded_us_per_op": guarded_us,
            "chaos_mean_us_per_op": mean_us,
        },
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
