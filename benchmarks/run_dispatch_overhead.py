#!/usr/bin/env python
"""Measure per-op dispatch overhead for eager and graph execution.

The paper's Figure 3 story rests on dispatch overhead: imperative
execution pays Python dispatch per op while a staged graph pays almost
nothing per node.  This microbenchmark isolates exactly that quantity
for the unified dispatch core:

* **eager**   — per-op wall time of a tiny ``Add`` executed imperatively
  (kernel cost is negligible, so this is nearly pure dispatch).
* **graph**   — per-node wall time of a pre-planned ``GraphRunner``
  executing a chain of tiny ``Add`` nodes (the staged fast path).
* **numpy**   — the raw ``np.add`` call on the same operands, as the
  floor below which no dispatcher can go.

Usage:
    PYTHONPATH=src python benchmarks/run_dispatch_overhead.py [--quick]

``--quick`` shrinks iteration counts for CI smoke runs.  Either way the
exit status asserts the property the dispatch core must preserve:
graph-mode per-node dispatch stays below eager per-op dispatch.
"""

from __future__ import annotations

import argparse
import sys
import time

sys.path.insert(0, ".")

import numpy as np

import repro
from benchmarks.report import bar, write_report
from repro.graph.executor import GraphRunner
from repro.graph.function import placeholder
from repro.graph.graph import Graph


def _bench(fn, iterations: int, repeats: int) -> float:
    """Best-of-``repeats`` mean seconds per call of ``fn`` over a loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def measure_eager_us(iterations: int, repeats: int) -> float:
    x = repro.constant(np.float32(1.0))
    add = repro.add
    return _bench(lambda: add(x, x), iterations, repeats) * 1e6


def measure_graph_us(chain_length: int, iterations: int, repeats: int) -> float:
    g = Graph("dispatch_overhead")
    x = placeholder(g, repro.float32, [], name="x")
    with g.as_default():
        out = x
        for _ in range(chain_length):
            out = out + 1.0
    runner = GraphRunner(g, [out], include_side_effects=False)
    feed = [(x, repro.constant(np.float32(0.0)))]
    per_run = _bench(lambda: runner.run(feed), iterations, repeats)
    return per_run / chain_length * 1e6


def measure_numpy_us(iterations: int, repeats: int) -> float:
    a = np.float32(1.0)
    add = np.add
    return _bench(lambda: add(a, a), iterations, repeats) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke run")
    parser.add_argument("--iterations", type=int, default=20000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--chain-length", type=int, default=200)
    args = parser.parse_args()

    iterations = 2000 if args.quick else args.iterations
    repeats = 3 if args.quick else args.repeats
    graph_iters = max(iterations // args.chain_length, 20)

    # Warm trace/kernel caches before timing.
    measure_eager_us(100, 1)
    numpy_us = measure_numpy_us(iterations, repeats)
    eager_us = measure_eager_us(iterations, repeats)
    graph_us = measure_graph_us(args.chain_length, graph_iters, repeats)

    print("per-op dispatch overhead (scalar Add, smaller is better)")
    print(f"{'mode':<12}{'us/op':>10}{'x numpy':>10}")
    print("-" * 32)
    for label, value in (
        ("numpy", numpy_us),
        ("eager", eager_us),
        ("graph", graph_us),
    ):
        print(f"{label:<12}{value:>10.2f}{value / numpy_us:>10.1f}")
    print("-" * 32)
    print(
        f"staged speedup: graph-mode node dispatch is "
        f"{eager_us / graph_us:.1f}x cheaper than eager per-op dispatch"
    )

    failed = False
    # The property the unified dispatch core must preserve (Fig. 3's
    # mechanism): staged per-node overhead well under eager per-op cost.
    if graph_us >= eager_us:
        print("FAIL: graph-mode dispatch is not cheaper than eager dispatch")
        failed = True
    write_report(
        "dispatch_overhead",
        speedup=eager_us / graph_us,
        bars=[bar("graph_cheaper_than_eager", eager_us / graph_us, 1.0, op=">")],
        metrics={
            "numpy_us_per_op": numpy_us,
            "eager_us_per_op": eager_us,
            "graph_us_per_node": graph_us,
        },
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
