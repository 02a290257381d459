"""Graph-native elementwise fusion (the ``fuse`` pass).

Region *legality* is the point of this file: what may join a fused
region (elementwise chains and DAGs, broadcasts, symbolic dims) and
what must stay out or split it (stateful ops, device pins,
multi-consumer escapes, paths that leave the region and come back).
Value correctness of fused execution at scale is covered by the parity
harness's fused axis; here the graphs are small enough to assert on
structure.
"""

import functools

import numpy as np
import pytest

import repro
from repro.graph import fusion, optimize
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.ops import nn_ops, registry
from repro.runtime.context import context
from tests.conftest import CALLS
from tests.harness.tracking import tracked_kernels


def _fn(build, in_specs=((repro.float32, [2]),), name="t"):
    g = Graph(name)
    phs = [placeholder(g, dt, shape) for dt, shape in in_specs]
    with g.as_default():
        outputs = build(*phs)
    if not isinstance(outputs, (list, tuple)):
        outputs = [outputs]
    return GraphFunction(name, g, phs, list(outputs))


def _fused_nodes(fn):
    return fn.graph.ops_by_type(fusion.FUSED_OP)


class TestRegionFormation:
    def test_chain_fuses_into_one_node(self):
        def build(x):
            return repro.tanh(x * 2.0 + 1.0)

        fn = _fn(build)
        assert fusion.fuse_function(fn) == 1
        (fused,) = _fused_nodes(fn)
        assert fused.attrs["region"].op_names == ("Mul", "Add", "Tanh")
        (out,) = fn.run([repro.constant([0.0, 1.0])])
        np.testing.assert_allclose(
            out.numpy(), np.tanh([1.0, 3.0]), rtol=1e-6
        )

    def test_diamond_dag_fuses_whole(self):
        """A DAG merge node unions the branch clusters (not just one)."""

        def build(x):
            a = repro.exp(x)
            b = repro.tanh(x)
            return a * b + a

        fn = _fn(build)
        assert fusion.fuse_function(fn) == 1
        (fused,) = _fused_nodes(fn)
        assert fused.attrs["region"].size == 4
        (out,) = fn.run([repro.constant([0.5, -0.5])])
        e, t = np.exp([0.5, -0.5]), np.tanh([0.5, -0.5])
        np.testing.assert_allclose(out.numpy(), e * t + e, rtol=1e-6)

    def test_single_op_not_fused(self):
        fn = _fn(lambda x: repro.exp(x))
        assert fusion.fuse_function(fn) == 0
        assert _fused_nodes(fn) == []

    def test_broadcast_operands_fuse(self):
        """Scalar- and row-broadcast variants are legal members."""

        def build(x, b):
            return repro.tanh(x * 2.0 + b) * x

        fn = _fn(build, in_specs=((repro.float32, [2, 3]), (repro.float32, [3])))
        assert fusion.fuse_function(fn) == 1
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.float32([1.0, -1.0, 0.5])
        (out,) = fn.run([repro.constant(x), repro.constant(b)])
        np.testing.assert_allclose(out.numpy(), np.tanh(x * 2 + b) * x, rtol=1e-6)

    def test_fusion_stats_recorded(self):
        def build(x):
            return repro.sqrt(repro.square(x) + 1e-4)

        fn = _fn(build)
        fusion.fuse_function(fn)
        stats = fn._fusion_stats
        assert stats["nodes_before"] > stats["nodes_after"]
        assert stats["regions"] == [3]
        assert stats["fused_ops"] == 3


class TestRegionBoundaries:
    def test_multi_consumer_value_escapes(self):
        """An intermediate also consumed outside the region must become
        a region output, not a buried temporary."""

        def build(x):
            h = repro.exp(x)  # consumed by the region AND by Sum
            y = repro.tanh(h * 2.0)
            return y + 0.0 * y, repro.reduce_sum(h)

        fn = _fn(build)
        assert fusion.fuse_function(fn) >= 1
        x = np.float32([0.3, -0.7])
        out, total = fn.run([repro.constant(x)])
        h = np.exp(x)
        np.testing.assert_allclose(out.numpy(), np.tanh(h * 2.0), rtol=1e-6)
        np.testing.assert_allclose(total.numpy(), h.sum(), rtol=1e-6)

    def test_stateful_ops_are_barriers(self):
        """Variable reads/writes never join a region, and a write
        between elementwise ops keeps its program-order position."""
        v = repro.Variable([1.0, 1.0])

        def build(x):
            a = v.read_value() * x
            v.assign_add([1.0, 1.0])
            b = v.read_value() * x
            return a + b

        fn = _fn(build)
        fusion.fuse_function(fn)
        for node in _fused_nodes(fn):
            assert all(
                op not in ("ReadVariableOp", "AssignAddVariableOp")
                for op in node.attrs["region"].op_names
            )
        (out,) = fn.run([repro.constant([2.0, 3.0])])
        # a uses v==1, b uses v==2 (the write happened in between).
        np.testing.assert_allclose(out.numpy(), [6.0, 9.0])

    def test_path_through_nonfusable_op_splits_region(self):
        """exp -> Sum -> mul may not contract into one region: the path
        through Sum would become a cycle."""

        def build(x):
            h = repro.exp(x) * 2.0
            s = repro.reduce_sum(h)
            return h * s + 1.0

        fn = _fn(build)
        fusion.fuse_function(fn)
        for node in _fused_nodes(fn):
            names = node.attrs["region"].op_names
            # The pre-Sum and post-Sum ops must be in different regions.
            assert not ("Exp" in names and "Add" in names)
        x = np.float32([0.1, 0.9])
        (out,) = fn.run([repro.constant(x)])
        h = np.exp(x) * 2.0
        np.testing.assert_allclose(out.numpy(), h * h.sum() + 1.0, rtol=1e-6)

    def test_device_pinned_node_not_fused(self):
        def build(x):
            with repro.device("/gpu:0"):
                a = repro.exp(x)
            return repro.tanh(a * 2.0)

        fn = _fn(build)
        fusion.fuse_function(fn)
        for node in _fused_nodes(fn):
            assert "Exp" not in node.attrs["region"].op_names


class TestSymbolicDims:
    def test_symbolic_region_serves_multiple_shapes(self):
        def build(x):
            return repro.sigmoid(x) * repro.tanh(x) + 1.0

        fn = _fn(build, in_specs=((repro.float32, [None]),))
        assert fusion.fuse_function(fn) == 1
        (fused,) = _fused_nodes(fn)
        region = fused.attrs["region"]
        # Static in-place planning needs static shapes.
        assert region.donated_steps == 0
        assert region.peak_is_lower_bound
        for n in (3, 7):
            x = np.random.default_rng(n).normal(size=n).astype(np.float32)
            (out,) = fn.run([repro.constant(x)])
            expect = 1.0 / (1.0 + np.exp(-x)) * np.tanh(x) + 1.0
            np.testing.assert_allclose(out.numpy(), expect, rtol=1e-5)

    def test_fused_infer_matches_member_inference(self):
        def build(x, b):
            return repro.tanh(x + b) * x

        fn = _fn(
            build, in_specs=((repro.float32, [None, 4]), (repro.float32, [4]))
        )
        fusion.fuse_function(fn)
        (fused,) = _fused_nodes(fn)
        assert fused.outputs[0].shape.as_list() == [None, 4]
        assert fused.outputs[0].dtype == repro.float32


class TestInPlaceInsideRegion:
    def test_chain_donates_dying_intermediates(self):
        def build(x):
            y = x * 2.0
            for _ in range(4):
                y = repro.tanh(y + 0.1)
            return y

        fn = _fn(build, in_specs=((repro.float32, [8]),))
        fusion.fuse_function(fn)
        (fused,) = _fused_nodes(fn)
        region = fused.attrs["region"]
        assert region.donated_steps >= 4
        # Donation never touches region *inputs*: the fed tensor
        # survives execution bit-for-bit.
        x = repro.constant(np.ones(8, np.float32))
        fn.run([x])
        np.testing.assert_array_equal(x.numpy(), np.ones(8, np.float32))

    def test_alias_ops_pin_their_buffer(self):
        """Identity returns a view; its root buffer must not be donated
        out from under the other alias."""

        def build(x):
            h = repro.exp(x)
            i = repro.identity(h)
            return repro.tanh(h + 1.0) * i

        fn = _fn(build)
        fusion.fuse_function(fn)
        x = np.float32([0.2, -0.4])
        (out,) = fn.run([repro.constant(x)])
        h = np.exp(x)
        np.testing.assert_allclose(out.numpy(), np.tanh(h + 1.0) * h, rtol=1e-6)


class TestCompiledRegions:
    """Regions specialize their steps into generated code at build
    time; running the member kernels one by one is the reference the
    generated code must agree with bit-for-bit."""

    def _region(self):
        def build(x):
            y = x * 2.0
            for _ in range(3):
                y = repro.tanh(y + 0.1)
            return y

        fn = _fn(build, in_specs=((repro.float32, [16]),))
        fusion.fuse_function(fn)
        (fused,) = _fused_nodes(fn)
        return fused.attrs["region"]

    def test_region_compiles(self):
        assert self._region()._compiled is not None

    def test_compiled_matches_interpreter(self):
        from repro.runtime.context import context as ctx

        region = self._region()
        device = ctx.cpu_device()
        rng = np.random.default_rng(3)
        # Exact external order doesn't matter for the equivalence check:
        # both paths see the same slot assignment.
        ins = [rng.normal(size=16).astype(np.float32), np.float32(2.0), np.float32(0.1)]
        ins = ins[: region.num_inputs]
        assert len(ins) == region.num_inputs
        compiled = region([a.copy() for a in ins], device)
        vals = [a.copy() for a in ins]
        for _op, kernel, _inplace, attrs, in_refs, _donate, _dies in region.steps:
            vals.append(kernel([vals[r] for r in in_refs], attrs, device))
        (interpreted,) = [vals[r] for r in region.out_refs]
        np.testing.assert_array_equal(
            np.asarray(compiled), np.asarray(interpreted)
        )


class TestDefuse:
    def test_roundtrip_restores_primitives(self):
        def build(x):
            return repro.tanh(x * 2.0 + 1.0)

        fn = _fn(build)
        fusion.fuse_function(fn)
        assert fusion.has_fused_nodes(fn)
        plain = fusion.defuse_function(fn)
        assert not fusion.has_fused_nodes(plain)
        assert len(plain.graph.ops_by_type("Tanh")) == 1
        x = repro.constant([0.0, 1.0])
        np.testing.assert_allclose(
            plain.run([x])[0].numpy(), fn.run([x])[0].numpy(), rtol=1e-6
        )

    def test_serialization_defuses(self):
        def build(x):
            return repro.exp(x) * repro.tanh(x)

        fn = _fn(build)
        fusion.fuse_function(fn)
        graph_def = fn.definition()
        ops = {n["op"] for n in graph_def["graph"]["nodes"]}
        assert fusion.FUSED_OP not in ops
        assert {"Exp", "Tanh", "Mul"} <= ops


class TestPipelineIntegration:
    def test_fuse_runs_in_default_passes_under_knob(self):
        def build(x):
            return repro.tanh(x * 2.0 + 1.0)

        previous = context.graph_fusion
        context.graph_fusion = True
        try:
            fn = _fn(build)
            optimize.optimize_function(fn)
            assert fusion.has_fused_nodes(fn)
        finally:
            context.graph_fusion = previous

    def test_fuse_not_in_default_passes_when_off(self):
        def build(x):
            return repro.tanh(x * 2.0 + 1.0)

        previous = context.graph_fusion
        context.graph_fusion = False
        try:
            fn = _fn(build)
            optimize.optimize_function(fn)
            assert not fusion.has_fused_nodes(fn)
        finally:
            context.graph_fusion = previous

    def test_gradient_through_fused_function(self):
        previous = context.graph_fusion
        context.graph_fusion = True
        try:

            @repro.function
            def f(x):
                return repro.reduce_sum(repro.tanh(x) * x + repro.exp(x))

            x = repro.constant(np.float64([0.3, -1.1, 0.7]))
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = f(x)
            (g,) = tape.gradient(y, [x])
            xn = x.numpy()
            expect = np.tanh(xn) + xn / np.cosh(xn) ** 2 + np.exp(xn)
            np.testing.assert_allclose(g.numpy(), expect, rtol=1e-9)
        finally:
            context.graph_fusion = previous


class TestFusedErrorAttribution:
    """A kernel error inside a fused region must carry the *member* op's
    name, not the region label (the deferred-error contract: errors are
    attributed to the op the user wrote, even after fusion rewrote it)."""

    def test_member_op_name_attached(self, boom_op):
        from repro.runtime.executor import execute

        def build(x):
            y = x * 2.0
            z = execute(boom_op, [y], {})
            return z + 1.0

        fn = _fn(build)
        assert fusion.fuse_function(fn) == 1
        (fused,) = _fused_nodes(fn)
        assert "TestBoomElem" in fused.attrs["region"].op_names
        with pytest.raises(ValueError, match="boom kernel exploded") as ei:
            fn.run([repro.constant([1.0, 2.0])])
        assert getattr(ei.value, "_repro_async_op", None) == "TestBoomElem"

    def test_member_failing_once_is_named_without_a_rerun(self, boom_op):
        """The member is found from the traceback, not by running the
        region again: a failure the members would not repeat still
        names its member, and the members before it ran once."""
        from repro.runtime.executor import execute

        def build(x):
            y = execute("TestCountElem", [x * 2.0], {})
            return execute("TestBoomOnceElem", [y], {}) + 1.0

        fn = _fn(build)
        assert fusion.fuse_function(fn) == 1
        with pytest.raises(ValueError, match="first call") as ei:
            fn.run([repro.constant([1.0, 2.0])])
        assert getattr(ei.value, "_repro_async_op", None) == "TestBoomOnceElem"
        assert CALLS == {"TestCountElem": 1, "TestBoomOnceElem": 1}

    def test_lazy_segment_names_a_node_failing_once(self, boom_op):
        """The same for an unfused node of a flushed lazy segment's plan
        (every printed plan labels its errors)."""
        from repro.core.pipeline import CompilationPipeline
        from repro.tensor import TensorSpec

        fn = CompilationPipeline().compile_segment(
            "segment",
            [TensorSpec([2], repro.float32)],
            [
                ("TestCountElem", {}, (("e", 0),)),
                ("TestBoomOnce", {}, (("o", 0, 0),)),
                ("Neg", {}, (("o", 1, 0),)),
            ],
            [(2, 0)],
        )
        assert not fusion.has_fused_nodes(fn)
        with pytest.raises(ValueError, match="first call") as ei:
            fn.run([repro.constant([1.0, 2.0])])
        assert getattr(ei.value, "_repro_async_op", None) == "TestBoomOnce"
        assert CALLS == {"TestCountElem": 1, "TestBoomOnce": 1}

    def test_error_the_replay_cannot_reproduce_still_propagates(self):
        fn = _fn(lambda x: repro.tanh(x * 2.0 + 1.0))
        assert fusion.fuse_function(fn) == 1
        region = _fused_nodes(fn)[0].attrs["region"]
        kernel = region._compiled.__globals__["K0"]
        calls = []

        def interrupted_once(arrays, attrs, device):
            calls.append(1)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return kernel(arrays, attrs, device)

        region._compiled.__globals__["K0"] = interrupted_once
        with pytest.raises(KeyboardInterrupt):
            fn.run([repro.constant([1.0, 2.0])])


class TestRegionCodeCache:
    """Generated region code is cached by wiring alone; everything a
    region computes *with* — kernels, attrs, in-place kernels — is bound
    per region, so sharing a code object can never share state."""

    @pytest.fixture
    def cache(self, monkeypatch):
        fresh = functools.lru_cache(maxsize=4)(fusion._code_for.__wrapped__)
        monkeypatch.setattr(fusion, "_code_for", fresh)
        return fresh.cache_info

    @staticmethod
    def _region_of(build, **kwargs):
        fn = _fn(build, **kwargs)
        assert fusion.fuse_function(fn) == 1
        (fused,) = _fused_nodes(fn)
        return fn, fused.attrs["region"]

    def test_equal_wiring_shares_code_not_state(self, cache):
        # Same wiring (x, c1 -> Mul; +c2 -> Add; unary in place):
        # different constants and a different kernel ...
        fn_a, a = self._region_of(lambda x: repro.tanh(x * 2.0 + 1.0))
        fn_b, b = self._region_of(lambda x: repro.exp(x * -3.0 + 0.5))
        # ... and (LeakyRelu has no in-place kernel, so this is a second
        # wiring) the same kernels with different member attrs.
        fn_c, c = self._region_of(
            lambda x: nn_ops.leaky_relu(x * -3.0 + 0.5, alpha=0.25)
        )
        fn_d, d = self._region_of(
            lambda x: nn_ops.leaky_relu(x * -3.0 + 0.5, alpha=0.75)
        )
        assert a._compiled.__code__ is b._compiled.__code__
        assert c._compiled.__code__ is d._compiled.__code__
        assert a._compiled.__code__ is not c._compiled.__code__
        assert (cache().hits, cache().misses) == (2, 2)
        assert [r.code_cache_hit for r in (a, b, c, d)] == [False, True, False, True]
        assert a._compiled.__globals__ is not b._compiled.__globals__
        x = np.float32([-1.0, 2.0])
        feed = [repro.constant(x)]
        np.testing.assert_allclose(
            fn_a.run(feed)[0].numpy(), np.tanh(x * 2.0 + 1.0), rtol=1e-6
        )
        pre = x * -3.0 + 0.5
        np.testing.assert_allclose(fn_b.run(feed)[0].numpy(), np.exp(pre), rtol=1e-6)
        for fn, alpha in ((fn_c, 0.25), (fn_d, 0.75)):
            np.testing.assert_allclose(
                fn.run(feed)[0].numpy(),
                np.where(pre > 0, pre, alpha * pre),
                rtol=1e-6,
            )
        assert fn_a._fusion_stats["code_cache"] == {"hits": 0, "misses": 1}
        assert fn_b._fusion_stats["code_cache"] == {"hits": 1, "misses": 0}

    def test_failing_member_in_cache_hit_region_names_the_member(
        self, cache, boom_op
    ):
        from repro.runtime.executor import execute

        # LeakyRelu, like the failing op, has no in-place kernel.
        _, healthy = self._region_of(lambda x: nn_ops.leaky_relu(x * 2.0) + 1.0)
        fn, broken = self._region_of(
            lambda x: execute(boom_op, [x * 2.0], {}) + 1.0
        )
        assert broken.code_cache_hit
        assert broken._compiled.__code__ is healthy._compiled.__code__
        with pytest.raises(ValueError, match="boom kernel exploded") as ei:
            fn.run([repro.constant([1.0, 2.0])])
        assert getattr(ei.value, "_repro_async_op", None) == "TestBoomElem"

    def test_cache_is_bounded_and_eviction_is_harmless(self, cache):
        x = np.float32([0.25, -0.5])
        for depth in range(2, 9):  # 7 distinct wirings > maxsize 4

            def build(t, depth=depth):
                for _ in range(depth):
                    t = repro.tanh(t)
                return t

            fn, region = self._region_of(build)
            assert not region.code_cache_hit
            assert cache().currsize <= cache().maxsize
            expect = x
            for _ in range(depth):
                expect = np.tanh(expect)
            np.testing.assert_allclose(
                fn.run([repro.constant(x)])[0].numpy(), expect, rtol=1e-6
            )
        assert cache().currsize == cache().maxsize == 4
        assert cache().misses == 7
        # The oldest wiring was evicted: building it again recompiles.
        _, again = self._region_of(lambda t: repro.tanh(repro.tanh(t)))
        assert not again.code_cache_hit


    def test_each_region_binds_its_own_backend(self, cache):
        """A region fused while the kernels are swapped shares the code
        of one fused before, but binds and runs the kernels registered
        when it was fused; the earlier region keeps its own."""

        def build(x):
            return repro.tanh(x * 2.0 + 1.0)

        x = np.float32([0.5, -1.5])
        fn_np, on_numpy = self._region_of(build)
        fn_np.run([repro.constant(x)])
        with tracked_kernels(("Mul", "Add", "Tanh")) as counts:
            fn_tr, on_tracked = self._region_of(build)
            assert on_tracked.code_cache_hit
            assert on_tracked._compiled.__code__ is on_numpy._compiled.__code__
            kernels = lambda r: [step[1] for step in r.steps]  # noqa: E731
            assert all(
                a is not b for a, b in zip(kernels(on_numpy), kernels(on_tracked))
            )
            got_tracked = fn_tr.run([repro.constant(x)])[0].numpy()
            # (Add and Tanh overwrite a donated buffer through the shared
            # in-place kernels; the allocating first step is the witness.)
            assert dict(counts) == {"Mul": 1}
            counts.clear()
            got_numpy = fn_np.run([repro.constant(x)])[0].numpy()
            assert not counts
        np.testing.assert_allclose(got_tracked, np.tanh(x * 2.0 + 1.0), rtol=1e-6)
        np.testing.assert_allclose(got_numpy, got_tracked, rtol=1e-6)

class TestCodegenIsTheOnlyExecutor:
    def test_codegen_failure_raises_from_fuse_function(self, monkeypatch):
        def broken(source):
            raise SyntaxError("generated source is bad")

        broken.cache_info = fusion._code_for.cache_info
        monkeypatch.setattr(fusion, "_code_for", broken)
        fn = _fn(lambda x: repro.tanh(x * 2.0 + 1.0))
        nodes = list(fn.graph.nodes)
        with pytest.raises(SyntaxError, match="generated source is bad"):
            fusion.fuse_function(fn)
        # Nothing was rewritten: the unfused graph still runs.
        assert fn.graph.nodes == nodes
        (out,) = fn.run([repro.constant([0.0, 1.0])])
        np.testing.assert_allclose(out.numpy(), np.tanh([1.0, 3.0]), rtol=1e-6)

    def test_execution_stats_surface_the_code_cache(self):
        previous = context.graph_fusion
        context.graph_fusion = True
        try:

            @repro.function
            def f(x):
                return repro.tanh(x * 2.0 + 1.0)

            f(repro.constant([0.0, 1.0]))
            (trace,) = f.execution_stats()["traces"]
        finally:
            context.graph_fusion = previous
        assert trace["fused_regions"] == [3]
        cache = trace["fusion_code_cache"]
        assert cache["hits"] + cache["misses"] == 1
