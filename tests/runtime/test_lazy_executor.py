"""The lazy eager executor: recording, flushing, caching, deferred errors.

Lazy mode's contract (ISSUE 6 tentpole): ``execute`` records pure ops
into a pending trace and returns :class:`~repro.tensor.LazyTensor`
outputs without running anything; any observation of a pending value
flushes the whole recorded segment through the staged compilation
pipeline (optimize → fuse → plan → run); repeated segments hit a
trace-hash cache; dead recorded work is elided; kernel errors surface
with the originating op's name attached, original type preserved,
delivered exactly once — also when many threads record and observe at
once.
"""

import threading

import numpy as np
import pytest

import repro
from repro.ops import registry
from repro.runtime import lazy
from repro.runtime.context import context
from repro.runtime.executor import execute
from repro.tensor import LazyTensor, TensorSpec
from tests.conftest import CALLS


@pytest.fixture
def lazy_mode():
    with repro.execution_mode("lazy"):
        yield


@pytest.fixture
def table_op():
    """``TestAddTable``: adds the sum of its ndarray ``table`` attr."""
    registry.register_op(
        "TestAddTable",
        infer_fn=lambda inputs, attrs: [TensorSpec.from_tensor(inputs[0])],
    )
    registry.register_kernel("TestAddTable", ("CPU",))(
        lambda arrays, attrs, device: arrays[0] + attrs["table"].sum()
    )
    yield "TestAddTable"
    registry.unregister_kernel("TestAddTable", ("CPU",))
    del registry._OPS["TestAddTable"]


def _snapshot():
    return dict(lazy.lazy_stats())


def _delta(before, key):
    return lazy.lazy_stats()[key] - before[key]


class TestExecutionModeKnob:
    def test_scoped_mode_sets_the_knob(self, lazy_mode):
        assert context.executor_mode == "lazy"

    def test_scoped_mode_restores(self):
        before = context.executor_mode
        with repro.execution_mode("lazy"):
            assert context.executor_mode == "lazy"
            with repro.execution_mode("sync"):
                assert context.executor_mode == "sync"
            assert context.executor_mode == "lazy"
        assert context.executor_mode == before

    def test_leaving_lazy_mode_flushes(self):
        with repro.execution_mode("lazy"):
            y = repro.constant([1.0, 2.0]) * 2.0
            assert isinstance(y, LazyTensor)
            assert not y.is_ready()
        # Mode exit is a synchronization point: recorded work ran.
        assert y.is_ready()
        np.testing.assert_allclose(y.numpy(), [2.0, 4.0])


class TestRecording:
    def test_pure_ops_record_without_executing(self, lazy_mode):
        before = _snapshot()
        x = repro.constant([1.0, 2.0, 3.0])
        y = repro.tanh(x * 2.0 + 1.0)
        assert isinstance(y, LazyTensor)
        assert not y.is_ready()
        assert _delta(before, "recorded_ops") == 3
        assert _delta(before, "flushes") == 0

    def test_shape_query_does_not_flush(self, lazy_mode):
        y = repro.constant(np.zeros((4, 5), np.float32)) * 2.0
        assert tuple(y.shape) == (4, 5)
        assert not y.is_ready()

    def test_observation_flushes_whole_segment(self, lazy_mode):
        x = repro.constant([1.0, 2.0])
        a = x * 2.0
        b = a + 1.0
        c = repro.exp(x)
        np.testing.assert_allclose(b.numpy(), [3.0, 5.0])
        # One flush settles every live record, not just the forced one.
        assert a.is_ready() and c.is_ready()

    def test_auto_flush_at_segment_cap(self, lazy_mode, monkeypatch):
        monkeypatch.setattr(lazy, "SEGMENT_LIMIT", 4)
        before = _snapshot()
        y = repro.constant([1.0])
        for _ in range(4):
            y = y * 2.0
        assert _delta(before, "flushes") == 1
        assert y.is_ready()
        np.testing.assert_allclose(y.numpy(), [16.0])

    def test_context_sync_is_a_barrier(self, lazy_mode):
        x = repro.constant(np.ones(4, dtype=np.float32))
        ys = [x * float(i) for i in range(8)]
        repro.sync()
        assert all(y.is_ready() for y in ys)

    def test_stateful_ops_fall_back_to_sync_dispatch(self, lazy_mode):
        before = _snapshot()
        r = repro.random_normal([3])
        assert not isinstance(r, LazyTensor)
        assert _delta(before, "fallback_ops") >= 1

    def test_side_effecting_op_flushes_recorded_work(self, lazy_mode):
        v = repro.Variable([1.0, 2.0])
        y = repro.constant([1.0, 1.0]) * 3.0
        assert not y.is_ready()
        v.assign([5.0, 6.0])  # side effects observe program order
        assert y.is_ready()

    def test_read_write_read_stays_ordered(self, lazy_mode):
        v = repro.Variable([1.0])
        a = v.read_value() * 2.0
        v.assign([10.0])
        b = v.read_value() * 2.0
        np.testing.assert_allclose(a.numpy(), [2.0])
        np.testing.assert_allclose(b.numpy(), [20.0])

    def test_gradients_match_sync_mode(self):
        def program(x):
            return repro.reduce_sum(repro.tanh(x * x + 1.0))

        x_np = np.array([0.5, -1.5, 2.0], np.float32)
        grads = {}
        for mode in ("sync", "lazy"):
            with repro.execution_mode(mode):
                x = repro.constant(x_np)
                with repro.GradientTape() as tape:
                    tape.watch(x)
                    loss = program(x)
                grads[mode] = tape.gradient(loss, x).numpy()
        np.testing.assert_allclose(grads["lazy"], grads["sync"], rtol=1e-6)


class TestSegmentCache:
    @pytest.fixture(autouse=True)
    def _fresh_segment_cache(self):
        # These tests assert exact hit/miss/relaxation deltas, so they
        # must not be served by artifacts other tests already compiled
        # (the trace-hash cache is process-global).
        lazy.reset_lazy_stats(clear_cache=True)

    def test_repeated_segment_hits_trace_hash_cache(self, lazy_mode):
        before = _snapshot()
        for _ in range(3):
            x = repro.constant(np.ones(8, np.float32))
            (x * 2.0 + 1.0).numpy()
        assert _delta(before, "flushes") == 3
        assert _delta(before, "cache_hits") == 2

    def test_shape_change_relaxes_after_threshold(self, lazy_mode):
        # relax_retraces defaults to 1: the second distinct shape builds
        # a relaxed (None-dimension) artifact; the third hits it.
        before = _snapshot()
        for n in (4, 5, 6):
            x = repro.constant(np.ones(n, np.float32))
            out = (x * 2.0 + 1.0).numpy()
            np.testing.assert_allclose(out, np.full(n, 3.0))
        assert _delta(before, "relaxed_segments") >= 1
        assert _delta(before, "cache_relaxations") >= 1
        assert _delta(before, "cache_hits") >= 1

    def test_dead_recorded_work_is_elided(self, lazy_mode):
        before = _snapshot()
        x = repro.constant([1.0, 2.0])
        y = x * 123.0  # never observed
        del y
        repro.sync()
        assert _delta(before, "flushes") == 1
        assert _delta(before, "dead_flushes") == 1

    def test_flush_executes_fused_and_planned(self, lazy_mode):
        # The whole point: an undecorated elementwise chain dispatches
        # as a fused region when it runs at the flush.  Fusion is on by
        # default, but force it so this holds on the fusion-off CI leg.
        previous = context.graph_fusion
        context.graph_fusion = True
        try:
            with repro.profiler.Profile() as prof:
                x = repro.constant(np.ones(64, np.float32))
                y = repro.tanh(x * 2.0 + 1.0)
                repro.sync()
            del y
        finally:
            context.graph_fusion = previous
        assert prof.lazy_flushes >= 1
        assert "FusedElementwise" in prof.ops
        assert prof.fused_covered_ops >= 3
        assert "lazy eager:" in prof.summary()


class TestDeferredErrors:
    def test_error_carries_op_name_and_type(self, lazy_mode):
        x = repro.constant([1.0, 2.0, 3.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        with pytest.raises(IndexError, match="Gather") as ei:
            bad.numpy()
        assert getattr(ei.value, "_repro_async_op", None) == "Gather"

    def test_failed_tensor_keeps_raising(self, lazy_mode):
        x = repro.constant([1.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        for _ in range(2):
            with pytest.raises(IndexError):
                bad.numpy()

    def test_sync_delivers_live_unobserved_error_once(self, lazy_mode):
        x = repro.constant([1.0])
        bad = repro.gather(x, repro.constant([9], dtype=repro.int32))
        with pytest.raises(IndexError):
            repro.sync()
        repro.sync()  # delivered exactly once
        del bad

    def test_observation_then_sync_does_not_double_deliver(self, lazy_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        with pytest.raises(IndexError):
            bad.numpy()
        repro.sync()  # already delivered through the tensor

    def test_dependent_op_inherits_producer_error(self, lazy_mode):
        x = repro.constant([1.0, 2.0])
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        dep = bad * 2.0 + 1.0
        with pytest.raises(IndexError, match="Gather"):
            dep.numpy()

    def test_failed_segment_fails_as_a_unit(self, lazy_mode):
        x = repro.constant([1.0, 2.0])
        good = x * 2.0
        bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
        # Like a staged call whose node fails: no output of the shared
        # segment has a value, and all of them raise the one error.
        with pytest.raises(IndexError, match="Gather") as ei:
            good.numpy()
        assert getattr(ei.value, "_repro_async_op", None) == "Gather"
        with pytest.raises(IndexError) as again:
            bad.numpy()
        assert again.value is ei.value
        repro.sync()  # delivered through the tensors

    def test_failing_node_runs_once_and_is_named(self, lazy_mode, boom_op):
        # TestBoomOnce raises on its first call only: re-running the
        # segment would hide the error and run every kernel twice.
        x = repro.constant([1.0, 2.0])
        y = -execute("TestBoomOnce", [execute("TestCountElem", [x], {})], {})
        assert isinstance(y, LazyTensor) and not y.is_ready()
        with pytest.raises(ValueError, match="first call") as ei:
            y.numpy()
        assert getattr(ei.value, "_repro_async_op", None) == "TestBoomOnce"
        assert CALLS == {"TestCountElem": 1, "TestBoomOnce": 1}
        repro.sync()

    def test_lowering_error_surfaces_once(self, lazy_mode, monkeypatch):
        lazy.reset_lazy_stats(clear_cache=True)  # force a miss
        calls = []

        def broken(*args):
            calls.append(args)
            raise RuntimeError("lowering exploded")

        monkeypatch.setattr(lazy._pipeline, "compile_segment", broken)
        y = repro.constant([1.0, 2.0]) * 2.0 + 1.0
        with pytest.raises(RuntimeError, match="lowering exploded"):
            y.numpy()
        repro.sync()  # delivered at .numpy(), not again here
        assert len(calls) == 1

    def test_unhashable_attrs_compile_uncached_per_flush(
        self, lazy_mode, table_op, monkeypatch
    ):
        compiles = []
        compile_segment = lazy._pipeline.compile_segment

        def counted(*args):
            compiles.append(args)
            return compile_segment(*args)

        monkeypatch.setattr(lazy._pipeline, "compile_segment", counted)
        size = lazy.segment_cache().stats()["size"]
        table = np.ones(256, np.float32)  # 1 KiB: too big to hash
        for step in range(3):
            x = repro.constant([1.0, 2.0])
            y = execute(table_op, [x * 2.0], {"table": table})
            assert not y.is_ready()
            np.testing.assert_allclose(y.numpy(), [258.0, 260.0])
            assert len(compiles) == step + 1
        assert lazy.segment_cache().stats()["size"] == size

    def test_tape_gradient_is_a_delivery_point(self, lazy_mode):
        # Gradient computation flushes the recorded forward segment, so
        # a recorded kernel error surfaces here, not mid-backward-sweep.
        x = repro.constant([1.0, 2.0, 3.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            bad = repro.gather(x, repro.constant([7], dtype=repro.int32))
            loss = repro.reduce_sum(bad * 2.0)
        with pytest.raises(IndexError, match="Gather"):
            tape.gradient(loss, x)

    def test_healthy_work_after_failure(self, lazy_mode):
        x = repro.constant([1.0, 2.0])
        with pytest.raises(IndexError):
            repro.gather(x, repro.constant([7], dtype=repro.int32)).numpy()
        np.testing.assert_allclose((x + x).numpy(), [2.0, 4.0])


def _run_threads(threads) -> None:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=45.0)
    assert not any(t.is_alive() for t in threads), "a worker thread hung"


class TestConcurrentSubmission:
    def test_many_threads_shared_input(self, lazy_mode):
        """Threads race op recording against a shared tensor; every
        result must be exact — no torn reads, no cross-thread mixups."""
        base = repro.constant(np.arange(16, dtype=np.float64))
        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def worker(k: int) -> None:
            try:
                y = base * float(k) + float(k)
                for _ in range(5):
                    y = y + base
                results[k] = y.numpy()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        _run_threads(threads)
        assert not errors
        expected_base = np.arange(16, dtype=np.float64)
        for k, got in results.items():
            np.testing.assert_allclose(
                got, expected_base * k + k + 5 * expected_base
            )

    def test_threads_with_private_chains_and_gradients(self, lazy_mode):
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                rng = np.random.default_rng(seed)
                x = repro.constant(rng.normal(size=(4, 4)), dtype=repro.float64)
                with repro.GradientTape() as tape:
                    tape.watch(x)
                    y = repro.reduce_sum(repro.tanh(repro.matmul(x, x)))
                g = tape.gradient(y, x)
                assert g is not None and g.numpy().shape == (4, 4)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        _run_threads(threads)
        assert not errors

    def test_racing_observers_of_a_partly_fetched_record(
        self, lazy_mode, monkeypatch
    ):
        """One output of a multi-output record dies before the flush; six
        threads race on observing the live ones.  Each sees the exact
        values, the dead output is not fetched, and nothing hangs."""
        lazy.reset_lazy_stats(clear_cache=True)
        fetched = []
        compile_segment = lazy._pipeline.compile_segment

        def recording(name, specs, ops, fetches):
            fetched.append(list(fetches))
            return compile_segment(name, specs, ops, fetches)

        monkeypatch.setattr(lazy._pipeline, "compile_segment", recording)
        base = np.arange(12, dtype=np.float32).reshape(3, 4)
        for _ in range(10):
            a, b, c = repro.unstack(repro.constant(base) * 2.0)
            del b
            assert not a.is_ready()
            barrier = threading.Barrier(6)
            errors: list[BaseException] = []

            def observe(k: int) -> None:
                try:
                    barrier.wait()
                    for t, row in ((a, 0), (c, 2))[:: 1 if k % 2 else -1]:
                        np.testing.assert_array_equal(t.numpy(), base[row] * 2.0)
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            _run_threads([threading.Thread(target=observe, args=(k,)) for k in range(6)])
            assert not errors, errors
        # Record 0 is the Mul, record 1 the Unpack: output 1 never fetched.
        assert fetched == [[(1, 0), (1, 2)]]

    def test_concurrent_failures_stay_attributed(self, lazy_mode):
        """Each thread's failed op raises in *that* thread's observation,
        with the failing op's name attached."""
        x = repro.constant([1.0, 2.0])
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker(k: int) -> None:
            if k % 2 == 0:
                bad = repro.gather(x, repro.constant([5 + k], dtype=repro.int32))
                try:
                    bad.numpy()
                    with lock:
                        outcomes.append("no-raise")
                except IndexError as exc:
                    with lock:
                        outcomes.append(
                            "labelled" if "Gather" in str(exc) else "unlabelled"
                        )
            else:
                np.testing.assert_allclose((x * 2.0).numpy(), [2.0, 4.0])
                with lock:
                    outcomes.append("healthy")

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        _run_threads(threads)
        assert sorted(outcomes) == ["healthy"] * 4 + ["labelled"] * 4
        # Drain whatever deferred state is left so it cannot leak.
        for _ in range(4):
            try:
                repro.sync()
                break
            except IndexError:
                continue
