"""The multi-tenant model server: coalescing, backpressure, isolation.

These tests drive the server through its public API only (submit /
predict / stats), using ``batch_window_ms`` to make coalescing
deterministic and :class:`FaultInjector` for chaos — the same injector
the distributed tests aim at a :class:`WorkerServer`.
"""

import importlib.util
import threading
import time

import numpy as np
import pytest

import repro
from repro.core import saved_function
from repro.distribute import FaultInjector
from repro.framework.errors import (
    AlreadyExistsError,
    AbortedError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    ReproError,
    UnavailableError,
)
from repro.serving import ModelServer
from repro.tensor import TensorSpec

if importlib.util.find_spec("pytest_timeout") is not None:
    timeout_marker = pytest.mark.timeout(60, method="thread")
else:

    def timeout_marker(cls):
        return cls


def export_linear(tmp_path, name="m", features=4):
    """A saved y = x @ w + 1 with a shape-polymorphic trace."""
    rng = np.random.default_rng(7)
    w = repro.Variable(rng.standard_normal((features, 3)).astype(np.float32))

    @repro.function
    def f(x):
        return repro.matmul(x, w) + 1.0

    path = saved_function.save(
        f, str(tmp_path / name), TensorSpec([None, features], repro.float32)
    )
    return path, w.numpy().copy()


def expected_linear(x, w):
    return x @ w + 1.0


def x_batch(n, features=4, seed=0):
    return np.random.default_rng(seed).standard_normal((n, features)).astype(
        np.float32
    )


@timeout_marker
class TestCoalescingCorrectness:
    def test_coalesced_results_match_per_request(self, tmp_path):
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            # A generous batch window: the worker waits for the whole
            # burst, so the burst coalesces deterministically.
            model = server.load("m", path, batch_window_ms=200.0)
            inputs = [x_batch(n, seed=n) for n in (1, 3, 1, 2, 1)]
            futures = [server.submit("m", x) for x in inputs]
            for x, future in zip(inputs, futures):
                np.testing.assert_allclose(
                    future.result(timeout=30.0).numpy(),
                    expected_linear(x, w),
                    rtol=1e-5,
                )
            stats = model.stats()
            assert stats["max_batch_seen"] > 1
            assert stats["coalesced"] > 0
            assert stats["completed"] == len(inputs)

    def test_mixed_ranks_do_not_cross_coalesce(self, tmp_path):
        # 2-D and (broadcastable) higher-rank requests have different
        # signatures; both still serve correctly.
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path, batch_window_ms=50.0)
            a = x_batch(2, seed=1)
            out = model.predict(a)
            np.testing.assert_allclose(
                out.numpy(), expected_linear(a, w), rtol=1e-5
            )

    def test_unsplittable_output_falls_back_per_request(self, tmp_path):
        # A scalar reduction has no batch dim: the coalesced call's
        # result cannot be split, so the server re-runs per request.
        @repro.function
        def total(x):
            return repro.reduce_sum(x)

        path = saved_function.save(
            total, str(tmp_path / "sum"), TensorSpec([None, 4], repro.float32)
        )
        with ModelServer(timeout_ms=None) as server:
            model = server.load("sum", path, batch_window_ms=200.0)
            inputs = [x_batch(2, seed=i) for i in range(4)]
            futures = [model.submit(x) for x in inputs]
            for x, future in zip(inputs, futures):
                np.testing.assert_allclose(
                    float(future.result(timeout=30.0).numpy()),
                    float(x.sum()),
                    rtol=1e-4,
                )
            stats = model.stats()
            assert stats["fallback_splits"] >= 1
            assert stats["failed"] == 0

    def test_scalar_requests_serve_unbatched(self, tmp_path):
        @repro.function
        def double(x):
            return x * 2.0

        path = saved_function.save(
            double, str(tmp_path / "d"), repro.constant(1.0)
        )
        with ModelServer(timeout_ms=None) as server:
            model = server.load("d", path)
            assert float(model.predict(21.0).numpy()) == 42.0


@timeout_marker
class TestBackpressure:
    def test_full_queue_rejects_with_resource_exhausted(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path, queue_depth=2, max_batch=1)
            with FaultInjector(model) as chaos:
                chaos.delay(0.2)  # hold the worker on the first request
                model.submit(x_batch(1))  # worker takes this one
                time.sleep(0.05)
                model.submit(x_batch(1))  # queued: 1
                model.submit(x_batch(1))  # queued: 2 == depth
                with pytest.raises(ResourceExhaustedError) as excinfo:
                    model.submit(x_batch(1))
                # Typed for clients: a ReproError they can catch broadly.
                assert isinstance(excinfo.value, ReproError)
            assert model.stats()["rejected"] == 1

    def test_deadline_fires_for_stuck_request(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer() as server:
            model = server.load("m", path, timeout_ms=100.0, max_batch=1)
            with FaultInjector(model) as chaos:
                chaos.drop(times=1)  # the request is never answered
                with pytest.raises(DeadlineExceededError):
                    model.predict(x_batch(1))
            assert model.stats()["dropped"] == 1

    def test_wrong_arity_rejected_at_submit(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer() as server:
            model = server.load("m", path)
            with pytest.raises(InvalidArgumentError):
                model.submit(x_batch(1), x_batch(1))


@timeout_marker
class TestFaultIsolation:
    def test_failing_model_does_not_poison_neighbor(self, tmp_path):
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            a = server.load("a", path)
            b = server.load("b", path)
            with FaultInjector(a) as chaos:
                chaos.fail()  # every request to A aborts, forever
                x = x_batch(2)
                for _ in range(3):
                    with pytest.raises(AbortedError):
                        a.predict(x)
                    np.testing.assert_allclose(
                        b.predict(x).numpy(), expected_linear(x, w), rtol=1e-5
                    )
            assert a.stats()["failed"] == 3
            assert b.stats()["failed"] == 0
            assert b.stats()["completed"] == 3

    def test_transient_fault_recovers_via_retry(self, tmp_path):
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)
            with FaultInjector(model) as chaos:
                chaos.fail(times=1)  # first attempt aborts; retry wins
                x = x_batch(2)
                np.testing.assert_allclose(
                    model.predict(x).numpy(), expected_linear(x, w), rtol=1e-5
                )
            stats = model.stats()
            assert stats["retries"] == 1
            assert stats["failed"] == 0

    def test_killed_model_leaves_neighbor_serving(self, tmp_path):
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            a = server.load("a", path)
            b = server.load("b", path)
            chaos = FaultInjector(a)
            chaos.kill_worker()
            with pytest.raises(UnavailableError):
                a.predict(x_batch(1))
            x = x_batch(3)
            np.testing.assert_allclose(
                b.predict(x).numpy(), expected_linear(x, w), rtol=1e-5
            )
            chaos.remove()

    def test_nonretryable_batch_fault_isolated_per_request(self, tmp_path):
        # A one-shot non-retryable failure hits the coalesced call; the
        # server re-executes per request, so every future still settles.
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path, batch_window_ms=200.0)
            fired = threading.Event()

            def hook(name):
                if not fired.is_set():
                    fired.set()
                    raise InvalidArgumentError("injected poison")

            model.install_fault_hook(hook)
            inputs = [x_batch(1, seed=i) for i in range(3)]
            futures = [model.submit(x) for x in inputs]
            for x, future in zip(inputs, futures):
                np.testing.assert_allclose(
                    future.result(timeout=30.0).numpy(),
                    expected_linear(x, w),
                    rtol=1e-5,
                )
            assert model.stats()["failed"] == 0


@timeout_marker
class TestConcurrentLoadSave:
    def test_concurrent_save_load_serve_roundtrip(self, tmp_path):
        """Many threads exporting, loading, and serving at once."""
        errors = []
        server = ModelServer(timeout_ms=None)

        def worker(i):
            try:
                rng = np.random.default_rng(i)
                w = repro.Variable(
                    rng.standard_normal((4, 2)).astype(np.float32)
                )

                @repro.function
                def f(x):
                    return repro.matmul(x, w)

                path = saved_function.save(
                    f,
                    str(tmp_path / f"m{i}"),
                    TensorSpec([None, 4], repro.float32),
                )
                model = server.load(f"m{i}", path)
                x = x_batch(2, seed=i)
                out = model.predict(x)
                np.testing.assert_allclose(
                    out.numpy(), x @ w.numpy(), rtol=1e-4
                )
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        server.stop()
        assert not errors, errors
        assert len(server.models()) == 0  # stop() cleared the registry

    def test_concurrent_predicts_one_model(self, tmp_path):
        path, w = export_linear(tmp_path)
        errors = []
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)

            def client(seed):
                try:
                    for i in range(20):
                        x = x_batch(1 + (seed + i) % 3, seed=seed * 100 + i)
                        np.testing.assert_allclose(
                            model.predict(x).numpy(),
                            expected_linear(x, w),
                            rtol=1e-5,
                        )
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(s,)) for s in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors, errors
            assert model.stats()["completed"] == 8 * 20


@timeout_marker
class TestServerApi:
    def test_duplicate_name_rejected(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer() as server:
            server.load("m", path)
            with pytest.raises(AlreadyExistsError):
                server.load("m", path)

    def test_unknown_model_not_found(self):
        with ModelServer() as server:
            with pytest.raises(NotFoundError):
                server.predict("ghost", 1.0)
            with pytest.raises(NotFoundError):
                server.unload("ghost")

    def test_unload_then_submit_unavailable(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)
            model.predict(x_batch(1))
            server.unload("m")
            assert server.models() == []
            with pytest.raises(UnavailableError):
                model.submit(x_batch(1))

    def test_stats_shape(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)
            model.predict(x_batch(2))
            stats = server.stats()["m"]
            for key in ("completed", "p50_ms", "p99_ms", "mean_batch_size"):
                assert key in stats
            assert stats["completed"] == 1
            assert stats["p99_ms"] >= stats["p50_ms"] >= 0.0

    def test_settles_feed_active_profiler(self, tmp_path):
        path, _ = export_linear(tmp_path)
        from repro.runtime.profiler import Profile

        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)
            with Profile() as prof:
                model.predict(x_batch(2))
            assert any(name.startswith("serving/m") for name in prof.ops)

    def test_server_defaults_and_per_model_overrides(self, tmp_path):
        path, _ = export_linear(tmp_path)
        with ModelServer() as server:
            model = server.load("m", path)
            assert (model._max_batch, model._depth, model._timeout_ms) == (32, 128, 1000.0)
        with ModelServer(max_batch=5, queue_depth=9, timeout_ms=None) as server:
            model = server.load("m", path)
            assert (model._max_batch, model._depth, model._timeout_ms) == (5, 9, None)
            other = server.load("o", path, max_batch=1, timeout_ms=1234.0)
            assert (other._max_batch, other._depth, other._timeout_ms) == (1, 9, 1234.0)

    @pytest.mark.parametrize(
        "bad",
        [{"max_batch": 0}, {"max_batch": -1}, {"queue_depth": 0}, {"queue_depth": -1},
         {"timeout_ms": 0.0}, {"timeout_ms": -5.0}],
    )
    def test_constructor_arguments_validate(self, tmp_path, bad):
        path, _ = export_linear(tmp_path)
        with ModelServer() as server:
            with pytest.raises(InvalidArgumentError):
                server.load("m", path, **bad)
            assert server.models() == []

    def test_future_result_from_other_thread(self, tmp_path):
        path, w = export_linear(tmp_path)
        with ModelServer(timeout_ms=None) as server:
            model = server.load("m", path)
            x = x_batch(2)
            future = model.submit(x)
            box = {}

            def wait():
                box["out"] = future.result(timeout=30.0)

            t = threading.Thread(target=wait)
            t.start()
            t.join(timeout=30.0)
            np.testing.assert_allclose(
                box["out"].numpy(), expected_linear(x, w), rtol=1e-5
            )
