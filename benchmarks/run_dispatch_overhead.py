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

The pluggable-backend refactor threads the active array backend through
kernel resolution, so two further measurements guard that seam:

* **per-backend eager** — the same eager measurement per registered
  backend (``numpy`` reference plus e.g. ``tracked``), showing what a
  backend's own primitives cost through the identical dispatch path.
* **seam overhead** — eager per-op time with the real backend-aware
  resolver vs. a pinned resolver that skips the backend lookup; their
  difference bounds what the seam adds on a cache hit (gate: <= 5%).

Usage:
    PYTHONPATH=src python benchmarks/run_dispatch_overhead.py [--quick]

``--quick`` shrinks iteration counts for CI smoke runs and asserts the
sanity property the refactor must preserve: graph-mode per-node
dispatch stays well below eager per-op dispatch.
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


def measure_backend_us(backend: str, iterations: int, repeats: int) -> float:
    """Eager per-op cost with ``backend`` active on the dispatch seam."""
    from repro.runtime.context import context

    context.kernel_backend = backend
    try:
        measure_eager_us(100, 1)  # warm this backend's cache entries
        return measure_eager_us(iterations, repeats)
    finally:
        context.kernel_backend = "numpy"


def measure_seam_pair_us(iterations: int, repeats: int) -> tuple[float, float]:
    """Eager per-op cost: real backend-aware resolver vs pinned resolver.

    The pinned variant replaces ``DispatchCore.resolve_kernel`` with a
    resolver keyed only on ``(op, device, dtypes)`` — the pre-backend
    shape — so the delta bounds the backend seam's cache-hit cost.  The
    two configurations are measured *interleaved* (alternating repeats,
    best-of each) so slow drift in host load biases neither side.
    """
    from repro.runtime import dispatch

    core = dispatch.core
    original = type(core).resolve_kernel
    cache: dict = {}

    def pinned_resolve(op_name, device_type, input_dtypes=()):
        key = (op_name, device_type, input_dtypes)
        kernel = cache.get(key)
        if kernel is None:
            kernel = original(core, op_name, device_type, input_dtypes)
            cache[key] = kernel
        return kernel

    real_us = pinned_us = float("inf")
    measure_eager_us(100, 1)
    for _ in range(max(repeats, 3)):
        real_us = min(real_us, measure_eager_us(iterations, 1))
        core.resolve_kernel = pinned_resolve
        try:
            pinned_us = min(pinned_us, measure_eager_us(iterations, 1))
        finally:
            del core.resolve_kernel  # restore the class method
    return real_us, pinned_us


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

    # Per-backend eager dispatch through the identical seam.
    from repro.backend import list_backends

    print()
    print("per-backend eager dispatch (same seam, backend primitives)")
    print(f"{'backend':<12}{'us/op':>10}{'x numpy-be':>12}")
    print("-" * 34)
    backend_us = {}
    for name in sorted(list_backends()):
        backend_us[name] = measure_backend_us(name, iterations, repeats)
    for name, value in backend_us.items():
        print(
            f"{name:<12}{value:>10.2f}"
            f"{value / backend_us['numpy']:>11.1f}x"
        )

    # Seam overhead: real backend-aware resolver vs pinned resolver.
    eager_seam_us, seamless_us = measure_seam_pair_us(iterations, repeats)
    seam_pct = (eager_seam_us - seamless_us) / seamless_us * 100.0
    print()
    print(
        f"backend seam: {eager_seam_us:.2f} us/op with backend-aware "
        f"resolution vs {seamless_us:.2f} us/op pinned "
        f"({seam_pct:+.1f}%)"
    )

    failed = False
    # The property the unified dispatch core must preserve (Fig. 3's
    # mechanism): staged per-node overhead well under eager per-op cost.
    if graph_us >= eager_us:
        print("FAIL: graph-mode dispatch is not cheaper than eager dispatch")
        failed = True
    # Refactor gate: the pluggable-backend seam must stay within 5% of
    # pinned resolution on the eager hot path (2pp of slack absorbs
    # timer noise on loaded CI hosts).
    if seam_pct > 7.0:
        print(
            f"FAIL: backend seam adds {seam_pct:.1f}% to eager dispatch "
            f"(gate: 5% + 2pp noise allowance)"
        )
        failed = True
    write_report(
        "dispatch_overhead",
        speedup=eager_us / graph_us,
        bars=[
            bar("graph_cheaper_than_eager", eager_us / graph_us, 1.0, op=">"),
            bar("seam_overhead_pct", seam_pct, 7.0, op="<="),
        ],
        metrics={
            "numpy_us_per_op": numpy_us,
            "eager_us_per_op": eager_us,
            "graph_us_per_node": graph_us,
            "backend_us_per_op": backend_us,
        },
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
