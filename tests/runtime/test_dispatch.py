"""The unified dispatch core: shared placement, kernel cache, interceptors."""

import numpy as np
import pytest

import repro
from repro.framework.errors import AlreadyExistsError, NotFoundError
from repro.graph.executor import GraphRunner
from repro.graph.function import placeholder
from repro.graph.graph import Graph
from repro.ops import registry
from repro.runtime import dispatch
from repro.runtime.context import context


class _Tracing(dispatch.OpInterceptor):
    """Records every hook invocation into a shared event list."""

    def __init__(self, name, events, modes=(dispatch.EAGER, dispatch.GRAPH)):
        self.name = name
        self.modes = modes
        self.events = events

    def on_start(self, op_name, attrs, inputs, device):
        self.events.append((self.name, "start", op_name))
        return f"{self.name}-token"

    def on_complete(self, op_name, attrs, inputs, outputs, device, token):
        assert token == f"{self.name}-token"
        self.events.append((self.name, "complete", op_name))

    def on_error(self, op_name, attrs, inputs, device, token, exc):
        self.events.append((self.name, "error", op_name))


@pytest.fixture
def registered(request):
    """Register interceptors for the test body, always unregistering."""

    def _register(*interceptors):
        for it in interceptors:
            dispatch.core.register_interceptor(it)
            request.addfinalizer(
                lambda it=it: dispatch.core.unregister_interceptor(it)
            )

    return _register


@pytest.fixture
def eager_dispatch_mode():
    """Pin sync mode, whose ops reach the eager dispatch core.

    The kernel cache and the eager interceptor stack belong to the sync
    path; lazy mode routes pure ops through the graph executor instead,
    so tests of those internals pin sync when the suite-wide default is
    lazy.
    """
    with repro.execution_mode("sync"):
        yield


class TestSharedDeviceResolution:
    def test_eager_and_graph_place_mixed_device_op_identically(self):
        """The collapsed resolver: first non-CPU input wins in both modes."""
        cpu_t = repro.constant([1.0, 2.0])
        gpu_t = repro.constant([3.0, 4.0]).gpu()

        eager_out = repro.add(cpu_t, gpu_t)

        g = Graph("mixed")
        a = placeholder(g, repro.float32, [2], name="a")
        b = placeholder(g, repro.float32, [2], name="b")
        with g.as_default():
            c = a + b
        (graph_out,) = GraphRunner(g, [c]).run([(a, cpu_t), (b, gpu_t)])

        assert eager_out.device == graph_out.device
        assert "GPU" in eager_out.device
        np.testing.assert_allclose(eager_out.numpy(), graph_out.numpy())

    def test_eager_and_graph_honor_explicit_placement_identically(self):
        x = repro.constant([1.0, 2.0])

        with repro.device("/gpu:0"):
            eager_out = repro.multiply(x, x)

        g = Graph("pinned")
        a = placeholder(g, repro.float32, [2], name="a")
        with g.as_default(), repro.device("/gpu:0"):
            c = a * a
        (graph_out,) = GraphRunner(g, [c]).run([(a, x)])

        assert eager_out.device == graph_out.device
        assert "GPU" in graph_out.device

    def test_all_cpu_inputs_stay_on_cpu_in_both_modes(self):
        x = repro.constant([1.0])
        eager_out = repro.add(x, x)
        g = Graph("cpu")
        a = placeholder(g, repro.float32, [1], name="a")
        with g.as_default():
            c = a + a
        (graph_out,) = GraphRunner(g, [c]).run([(a, x)])
        assert eager_out.device == graph_out.device
        assert "CPU" in eager_out.device


@pytest.mark.usefixtures("eager_dispatch_mode")
class TestKernelCache:
    def test_dispatch_populates_cache(self):
        dispatch.core.clear_kernel_cache()
        x = repro.constant(1.0)
        repro.add(x, x)
        key = ("Add", "CPU", (repro.float32, repro.float32))
        assert key in dispatch.core._kernel_cache
        assert dispatch.core._kernel_cache[key] is registry.get_kernel("Add", "CPU")

    def test_kernel_registration_invalidates_cache(self):
        x = repro.constant(1.0)
        repro.add(x, x)
        assert dispatch.core.kernel_cache_size() > 0
        registry.register_op("TestDispatchCacheOp", infer_fn=lambda specs, attrs: specs)
        registry.register_kernel("TestDispatchCacheOp", ("CPU",))(
            lambda arrays, attrs, device: arrays[0]
        )
        assert dispatch.core.kernel_cache_size() == 0

    def test_soft_placement_toggle_invalidates_cache(self):
        x = repro.constant(1.0)
        repro.add(x, x)
        assert dispatch.core.kernel_cache_size() > 0
        try:
            context.soft_device_placement = False
            assert dispatch.core.kernel_cache_size() == 0
        finally:
            context.soft_device_placement = True

    def test_registry_resolve_kernel_soft_placement(self):
        # GPU has the shared NumPy kernel; TPU has none and soft-places.
        assert registry.resolve_kernel("Add", "TPU") is registry.get_kernel(
            "Add", "CPU"
        )
        with pytest.raises(NotFoundError):
            registry.resolve_kernel("Add", "TPU", allow_soft_placement=False)


class TestInterceptors:
    def test_inactive_stack_is_empty(self):
        """No tape, no profiler: the per-op cost is one emptiness check."""
        assert dispatch.core.eager_interceptors == ()
        assert dispatch.core.graph_interceptors == ()
        assert dispatch.core.stage_interceptors == ()

    def test_ordering_start_in_order_complete_in_reverse(self, registered):
        events = []
        registered(_Tracing("a", events), _Tracing("b", events))
        x = repro.constant(1.0)
        y = repro.add(x, x)
        repro.sync()  # lazy mode: hooks run at the flush
        del y
        assert events == [
            ("a", "start", "Add"),
            ("b", "start", "Add"),
            ("b", "complete", "Add"),
            ("a", "complete", "Add"),
        ]

    def test_graph_mode_interceptor_sees_nodes(self, registered):
        events = []
        registered(_Tracing("g", events, modes=(dispatch.GRAPH,)))

        @repro.function
        def f(v):
            return repro.exp(v) * v

        x = repro.constant([1.0, 2.0])
        f(x)  # trace (staging is not graph-mode execution)
        events.clear()
        f(x)
        ops = {op for (_, kind, op) in events if kind == "complete"}
        from repro.runtime.context import context

        if context.graph_fusion:
            # The fuse pass collapsed the Exp*Mul chain: interceptors
            # observe one dispatch for the whole region.
            assert "FusedElementwise" in ops
        else:
            assert "Exp" in ops and "Mul" in ops

    def test_profiler_and_records_active_simultaneously_eager(self):
        v = repro.Variable([2.0, 3.0])
        with repro.profiler.Profile() as prof:
            with repro.GradientTape() as tape:
                y = repro.reduce_sum(v * v)
            grad = tape.gradient(y, v)
        # Both interceptors observed the same dispatches.
        assert prof.ops["Mul"].count >= 1
        assert prof.ops["Sum"].count >= 1
        np.testing.assert_allclose(grad.numpy(), [4.0, 6.0])

    def test_profiler_and_records_active_simultaneously_staged(self):
        v = repro.Variable([2.0, 3.0])

        @repro.function
        def loss():
            return repro.reduce_sum(v * v)

        loss()  # trace outside the profiled region
        with repro.profiler.Profile() as prof:
            with repro.GradientTape() as tape:
                y = loss()
            grad = tape.gradient(y, v)
        assert "Mul" in prof.ops  # inner graph nodes are visible
        np.testing.assert_allclose(grad.numpy(), [4.0, 6.0])

    def test_interceptor_names_reflect_activity(self):
        assert dispatch.core.interceptor_names() == []
        with repro.profiler.Profile():
            assert "profiler" in dispatch.core.interceptor_names("graph")
            with repro.GradientTape():
                # Tapes record by a direct call, not as an interceptor.
                assert dispatch.core.interceptor_names("eager") == ["profiler"]
                assert dispatch.core.interceptor_names("stage") == []
        assert dispatch.core.interceptor_names() == []

    def test_duplicate_registration_rejected(self, registered):
        it = _Tracing("dup", [])
        registered(it)
        with pytest.raises(AlreadyExistsError):
            dispatch.core.register_interceptor(it)

    def test_unregister_unknown_rejected(self):
        with pytest.raises(NotFoundError):
            dispatch.core.unregister_interceptor(_Tracing("ghost", []))


class _RaisingInterceptor(dispatch.OpInterceptor):
    name = "boom"
    modes = (dispatch.EAGER, dispatch.GRAPH)

    def on_start(self, op_name, attrs, inputs, device):
        raise RuntimeError("interceptor exploded")


class TestInterceptorErrorPaths:
    @pytest.mark.usefixtures("eager_dispatch_mode")
    def test_raising_interceptor_does_not_corrupt_kernel_cache(self, registered):
        dispatch.core.clear_kernel_cache()
        x = repro.constant(1.0)
        repro.add(x, x)  # warm the cache
        size_before = dispatch.core.kernel_cache_size()

        boom = _RaisingInterceptor()
        dispatch.core.register_interceptor(boom)
        try:
            with pytest.raises(RuntimeError, match="interceptor exploded"):
                repro.add(x, x)
        finally:
            dispatch.core.unregister_interceptor(boom)

        assert dispatch.core.kernel_cache_size() == size_before
        assert float(repro.add(x, x)) == 2.0  # dispatch fully recovers

    def test_kernel_error_reaches_on_error_hook(self, registered):
        events = []
        registered(_Tracing("w", events))
        a = repro.constant([[1.0, 2.0]])
        with pytest.raises(ValueError):
            repro.matmul(a, a)  # incompatible shapes
        assert ("w", "error", "MatMul") in events
        assert ("w", "complete", "MatMul") not in events

    def test_profiler_survives_failing_op(self):
        x = repro.constant([[1.0, 2.0]])
        with repro.profiler.Profile() as prof:
            with pytest.raises(ValueError):
                repro.matmul(x, x)
            y = repro.add(repro.constant(1.0), repro.constant(1.0))
            repro.sync()  # lazy mode: run the kernel in-profile
        del y
        assert prof.ops["Add"].count == 1
        assert dispatch.core.interceptor_names() == []


class TestDeviceDispatchProtocol:
    def test_cpu_device_has_no_special_dispatch(self):
        cpu = context.cpu_device()
        assert cpu.op_runner is None
        assert not cpu._special_dispatch
        assert cpu.dispatch("Add", [], {}) is None

    def test_tpu_without_compiler_raises_through_protocol(self):
        tpu = context.get_device("/tpu:0")
        saved = tpu.op_runner
        tpu.set_op_runner(None)
        try:
            assert tpu._special_dispatch  # compilation-only: always special
            with pytest.raises(repro.ReproError, match="no compiler"):
                with repro.device("/tpu:0"):
                    repro.add(repro.constant(1.0), repro.constant(1.0))
        finally:
            tpu.set_op_runner(saved)

    def test_xla_install_sets_device_level_runner(self):
        import repro.xla  # noqa: F401  (installs on import)
        from repro.xla import tpu as tpu_bridge

        tpu = context.get_device("/tpu:0")
        tpu_bridge.install()
        try:
            assert tpu.op_runner is tpu_bridge.run_op_on_tpu
            assert dispatch.core.compilation_runner is tpu_bridge.run_op_on_tpu
            tpu_bridge.uninstall()
            assert tpu.op_runner is None
            assert dispatch.core.compilation_runner is None
        finally:
            tpu_bridge.install()

    def test_late_added_compilation_device_inherits_runner(self):
        from repro.runtime.device import Device, local_device_spec
        from repro.xla import tpu as tpu_bridge

        tpu_bridge.install()
        dev = Device(local_device_spec("TPU", 7))
        assert dev.op_runner is None
        context.add_device(dev)
        try:
            assert dev.op_runner is tpu_bridge.run_op_on_tpu
        finally:
            del context._devices[dev.name]
