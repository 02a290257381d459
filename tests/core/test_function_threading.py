"""Thread-safety of the Function call path (trace cache, routes, plans).

Regression suite for the serving work: a model server calls the same
:class:`Function` (and :class:`LoadedFunction`) from many threads, which
flushed out races that single-threaded tests never see — most notably
the level-0 fast-route map being read through instance state while
another thread was overwriting it.
"""

import importlib.util
import threading

import numpy as np
import pytest

import repro
from repro.core import saved_function
from repro.runtime.context import context
from repro.tensor import TensorSpec

if importlib.util.find_spec("pytest_timeout") is not None:
    timeout_marker = pytest.mark.timeout(120, method="thread")
else:

    def timeout_marker(cls):
        return cls


def run_threads(n, target):
    errors = []

    def wrap(i):
        try:
            target(i)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90.0)
    assert not errors, errors


@timeout_marker
class TestRouteRace:
    def test_shape_specialized_traces_from_many_threads(self):
        # The trace bakes the static leading dimension into a constant,
        # so serving a route cached for another thread's shape returns
        # a *wrong value*, not an exception.  12 threads, each its own
        # size, hammering the same Function.  Relaxation is explicitly
        # off: shape-dependent Python needs exact traces.
        @repro.function(experimental_relax_shapes=False)
        def scaled(x):
            return x * float(x.shape[0])

        barrier = threading.Barrier(12)

        def worker(i):
            size = i + 1
            x = repro.constant(np.ones(size, dtype=np.float32))
            barrier.wait()
            for _ in range(200):
                out = scaled(x).numpy()
                np.testing.assert_array_equal(
                    out, np.full(size, float(size), dtype=np.float32)
                )

        run_threads(12, worker)

    def test_concurrent_first_calls_same_shape(self):
        # All threads race the very first trace; everyone must get the
        # correct value regardless of who traced.
        @repro.function
        def f(x):
            return repro.tanh(x) * 2.0

        x_np = np.linspace(-1, 1, 16, dtype=np.float32)
        expected = np.tanh(x_np) * 2.0
        barrier = threading.Barrier(8)

        def worker(_):
            x = repro.constant(x_np)
            barrier.wait()
            for _ in range(50):
                np.testing.assert_allclose(f(x).numpy(), expected, rtol=1e-5)

        run_threads(8, worker)

    def test_cache_stats_concurrent_with_calls(self):
        @repro.function
        def f(x):
            return x + 1.0

        stop = threading.Event()

        def reader(_):
            while not stop.is_set():
                stats = f.cache_stats()
                assert stats["size"] >= 0

        def caller(i):
            try:
                for k in range(100):
                    size = 1 + (i * 100 + k) % 7
                    f(repro.constant(np.zeros(size, dtype=np.float32)))
            finally:
                stop.set()

        errors = []

        def wrap(fn, i):
            try:
                fn(i)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=wrap, args=(reader, 0)),
            threading.Thread(target=wrap, args=(caller, 1)),
            threading.Thread(target=wrap, args=(caller, 2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90.0)
        assert not errors, errors

    @pytest.mark.filterwarnings("ignore::repro.RetraceWarning")
    def test_lru_eviction_under_concurrency(self):
        # More live shapes than cache slots: constant eviction and
        # retracing while other threads are mid-lookup.
        context.trace_cache_size = 4

        @repro.function(experimental_relax_shapes=False)
        def f(x):
            return x * float(x.shape[0])

        def worker(i):
            for k in range(60):
                size = 1 + (i + k) % 10
                x = repro.constant(np.ones(size, dtype=np.float32))
                np.testing.assert_array_equal(
                    f(x).numpy(), np.full(size, float(size), np.float32)
                )

        run_threads(6, worker)


@timeout_marker
class TestPlanRace:
    def test_concurrent_first_runs_of_loaded_function(self, tmp_path):
        # LoadedFunction.run() builds its execution plan on first use;
        # concurrent first calls must agree on one plan and all return
        # correct results.
        w = repro.Variable(np.eye(4, dtype=np.float32) * 3.0)

        @repro.function
        def f(x):
            return repro.matmul(x, w)

        path = saved_function.save(
            f, str(tmp_path / "m"), TensorSpec([None, 4], repro.float32)
        )
        loaded = saved_function.load(path)
        x_np = np.random.default_rng(0).standard_normal((2, 4)).astype(
            np.float32
        )
        expected = x_np @ (np.eye(4, dtype=np.float32) * 3.0)
        x = repro.constant(x_np)
        barrier = threading.Barrier(8)

        def worker(_):
            barrier.wait()
            for _ in range(25):
                np.testing.assert_allclose(
                    loaded(x).numpy(), expected, rtol=1e-5
                )

        run_threads(8, worker)
        runner = loaded.graph_function.plan()
        assert runner is loaded.graph_function.plan()  # one plan, cached
