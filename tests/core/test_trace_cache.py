"""The two-level trace cache: relaxation, LRU bounds, stats, diagnostics.

Covers the shape-relaxation policy (paper §4.6's binding-time analysis,
generalized so shapes can be bound *late*), the LRU bound on the exact
level, `cache_stats()`, the rate-limited `RetraceWarning`, and the
thread-safety of first-call tracing (including the two-trace
state-creation contract under concurrency).
"""

from __future__ import annotations

import re
import threading
import warnings

import numpy as np
import pytest

import repro
from repro.core.function import RetraceWarning
from repro.runtime.context import context


def _batch(b, n=4):
    return repro.constant(np.arange(b * n, dtype=np.float32).reshape(b, n))


class TestRelaxation:
    def test_shape_only_retraces_collapse_to_one_symbolic_trace(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(x * 2.0)

        for b in range(1, 20):
            out = f(_batch(b))
            assert float(out) == pytest.approx(float(np.sum(np.arange(b * 4) * 2.0)))
        # Exact trace on the first shape, one relaxed trace on the
        # second; every later batch size hits the symbolic trace.
        assert f.trace_count == 2
        stats = f.cache_stats()
        assert stats["relaxations"] == 1
        assert stats["hits"] == 17

    def test_relaxed_trace_has_symbolic_placeholders(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return x + 1.0

        f(_batch(2))
        concrete = f.get_concrete_function(_batch(3))
        spec = concrete.graph_function.input_specs[0]
        assert spec.shape.dims == (None, 4)
        # The same concrete serves other batch sizes.
        assert f.get_concrete_function(_batch(9)) is concrete

    def test_only_varying_dims_generalize(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(x)

        f(_batch(2, n=4))
        f(_batch(5, n=4))
        spec = f.get_concrete_function(_batch(7, n=4)).graph_function.input_specs[0]
        assert spec.shape.dims == (None, 4)  # the stable dim stays pinned

    def test_widening_when_a_stable_dim_starts_varying(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(x)

        f(_batch(2, n=4))
        f(_batch(3, n=4))  # relaxed to [None, 4]
        assert f.trace_count == 2
        out = f(_batch(3, n=6))  # incompatible with [None, 4]: widen
        assert float(out) == pytest.approx(float(np.arange(18).sum()))
        assert f.trace_count == 3
        assert f.cache_stats()["relaxations"] == 2
        spec = f.get_concrete_function(_batch(8, n=9)).graph_function.input_specs[0]
        assert spec.shape.dims == (None, None)
        assert f.trace_count == 3  # [None, None] serves everything 2-D

    def test_dtype_and_rank_changes_still_retrace(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(x)

        f(_batch(2))
        f(_batch(3))
        traces = f.trace_count
        f(repro.constant(np.ones((2, 4), np.float64)))  # new dtype pattern
        assert f.trace_count == traces + 1
        f(repro.constant(np.ones((2, 4, 1), np.float32)))  # new rank pattern
        assert f.trace_count == traces + 2

    def test_python_value_leaves_are_not_relaxed(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x, k):
            return x * float(k)

        f(_batch(2), 2)
        f(_batch(3), 3)  # different Python value: a different pattern
        f(_batch(4), 4)
        assert f.trace_count == 3
        assert f.cache_stats()["relaxations"] == 0

    def test_gradients_through_relaxed_trace(self):
        v = repro.Variable(np.ones((4, 3), np.float32))

        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(repro.matmul(x, v))

        for b in (2, 5, 7):
            x = _batch(b)
            with repro.GradientTape() as tape:
                y = f(x)
            grad = tape.gradient(y, v)
            expected = x.numpy().sum(axis=0, keepdims=True).T @ np.ones((1, 3))
            np.testing.assert_allclose(grad.numpy(), expected, rtol=1e-5)
        assert f.trace_count == 2

    def test_input_signature_disables_relaxation_policy(self):
        @repro.function(
            input_signature=[repro.TensorSpec([None, 4])],
            experimental_relax_shapes=True,
        )
        def f(x):
            return x + 1.0

        f(_batch(2))
        f(_batch(3))
        assert f.trace_count == 1  # the signature already pins one trace


class TestLRUCache:
    def test_eviction_past_bound(self):
        context.trace_cache_size = 3

        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        for b in range(1, 7):
            f(_batch(b))
        stats = f.cache_stats()
        assert stats["size"] == 3
        assert stats["evictions"] == 3

    def test_lru_order_recency(self):
        context.trace_cache_size = 2

        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x * 2.0

        f(_batch(1))
        f(_batch(2))
        f(_batch(1))  # touch: batch-1 becomes most recent
        f(_batch(3))  # evicts batch-2
        traces = f.trace_count
        f(_batch(1))  # still cached
        assert f.trace_count == traces
        f(_batch(2))  # was evicted: retraces
        assert f.trace_count == traces + 1

    def test_eviction_releases_artifacts(self):
        context.trace_cache_size = 1

        @repro.function(jit_compile=True, experimental_relax_shapes=False)
        def f(x):
            return repro.exp(x) * 2.0

        x1 = _batch(2)
        f(x1)
        concrete = f.get_concrete_function(x1)
        assert concrete.graph_function.executables
        with repro.GradientTape() as tape:
            tape.watch(x1)
            f(x1)
        assert concrete._forward_backward is not None
        f(_batch(3))  # evicts the batch-2 trace
        assert not concrete.graph_function.executables
        assert concrete._forward_backward is None
        assert concrete.graph_function._runner is None
        # An evicted concrete still works if a caller kept a handle.
        np.testing.assert_allclose(
            concrete(x1).numpy(), np.exp(x1.numpy()) * 2.0, rtol=1e-6
        )

    def test_cache_stats_counters(self):
        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        f(_batch(1))
        f(_batch(1))
        f(_batch(2))
        stats = f.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["traces"] == 2
        assert stats["relaxations"] == 0
        assert stats["evictions"] == 0
        assert stats["size"] == 2


class TestFastCallPath:
    """Level 0 of the cache: steady-state all-tensor positional calls
    skip flatten/bind/key construction entirely.  The route map points
    into the exact/relaxed levels, so eviction and widening stay
    correct — a dangling route falls back to the slow path."""

    def test_repeat_call_served_without_rekeying(self):
        @repro.function
        def f(a, b):
            return a * b + 1.0

        x, y = repro.constant([1.0, 2.0]), repro.constant([3.0, 4.0])
        f(x, y)
        assert f._fast_keys  # the route was recorded
        before = f.cache_stats()
        out = f(x, y)
        after = f.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        np.testing.assert_allclose(out.numpy(), [4.0, 9.0])

    def test_kwargs_and_positional_share_one_trace(self):
        @repro.function
        def f(a, b):
            return a - b

        x, y = repro.constant(5.0), repro.constant(2.0)
        assert float(f(x, y)) == 3.0
        assert float(f(b=y, a=x)) == 3.0
        assert f.trace_count == 1

    def test_variable_argument_bypasses_fast_path(self):
        v = repro.Variable([1.0, 2.0])

        @repro.function
        def f(var, x):
            return var * x

        x = repro.constant([3.0, 3.0])
        f(v, x)
        f(v, x)
        assert not f._fast_keys  # no route for variable args
        assert f.cache_stats()["hits"] == 1  # still serves level 1
        np.testing.assert_allclose(f(v, x).numpy(), [3.0, 6.0])

    def test_eviction_invalidates_route(self):
        context.trace_cache_size = 1

        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        f(_batch(1))
        f(_batch(1))  # primes the fast route
        f(_batch(2))  # evicts the batch-1 trace
        traces = f.trace_count
        out = f(_batch(1))  # dangling route: must retrace, not crash
        assert f.trace_count == traces + 1
        np.testing.assert_allclose(
            out.numpy(), np.arange(4, dtype=np.float32).reshape(1, 4) + 1.0
        )

    def test_fast_path_serves_relaxed_traces(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return repro.reduce_sum(x * 2.0)

        for b in range(1, 6):
            f(_batch(b))
        traces = f.trace_count
        hits = f.cache_stats()["hits"]
        # Repeats of an already-routed shape hit level 0 and still land
        # on the symbolic trace.
        for _ in range(3):
            assert float(f(_batch(3))) == pytest.approx(
                float(np.sum(np.arange(12) * 2.0))
            )
        assert f.trace_count == traces
        assert f.cache_stats()["hits"] == hits + 3

    def test_gradient_tape_records_through_fast_path(self):
        @repro.function
        def f(x):
            return repro.reduce_sum(repro.square(x))

        x = repro.constant([1.5, -2.0])
        f(x)  # primes the route
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = f(x)
        (g,) = tape.gradient(y, [x])
        np.testing.assert_allclose(g.numpy(), [3.0, -4.0], rtol=1e-6)


class TestRetraceWarning:
    def test_warns_on_churn_and_names_the_leaf(self):
        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        with pytest.warns(RetraceWarning, match="argument leaf #0") as caught:
            for b in range(1, 10):
                f(_batch(b))
        # ... and quotes what the retrace it warns about costs.
        (message,) = [str(w.message) for w in caught if w.category is RetraceWarning]
        assert re.search(r"the last trace took \d+\.\d ms", message)

    def test_rate_limited(self):
        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in range(1, 20):
                f(_batch(b))
        assert len([w for w in caught if w.category is RetraceWarning]) == 1

    def test_no_warning_for_stable_signatures(self):
        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x + 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(20):
                f(_batch(2))
        assert not [w for w in caught if w.category is RetraceWarning]

    def test_relaxation_quells_the_warning(self):
        @repro.function(experimental_relax_shapes=True)
        def f(x):
            return x + 1.0

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in range(1, 20):
                f(_batch(b))
        assert not [w for w in caught if w.category is RetraceWarning]


class TestConcurrentTracing:
    def test_two_threads_one_trace(self):
        @repro.function
        def f(x):
            return repro.matmul(x, repro.transpose(x))

        x = _batch(3)
        barrier = threading.Barrier(2)
        results: list = [None, None]
        errors: list = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = f(x)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert f.trace_count == 1
        expected = x.numpy() @ x.numpy().T
        for r in results:
            np.testing.assert_allclose(r.numpy(), expected, rtol=1e-6)

    def test_concurrent_state_creation_honors_two_trace_contract(self):
        created: dict = {}

        @repro.function
        def f(x):
            if "v" not in created:
                created["v"] = repro.Variable(np.ones((4,), np.float32))
            return x + created["v"]

        x = repro.constant(np.zeros((4,), np.float32))
        barrier = threading.Barrier(2)
        errors: list = []

        def worker():
            try:
                barrier.wait()
                f(x)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # State creation triggers the second trace (§4.6); the lock must
        # ensure the *pair* of traces happens exactly once.
        assert f.trace_count == 2
        assert len(f._created_variables) == 1
        np.testing.assert_allclose(f(x).numpy(), np.ones(4), rtol=1e-6)
