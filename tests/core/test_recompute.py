"""Gradient checkpointing: ``recompute_grad`` in both regimes (ISSUE 10).

Correctness is differential — wrapped and unwrapped segments must give
identical gradients in every execution mode — and the *memory* claim is
checked against the planner's static accounting: for a deep chain, the
checkpointed backward's resident set (its plan's peak plus the caller
-held inputs it consumes) must be strictly smaller than the
uncheckpointed one's.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.core.recompute import recompute_grad
from repro.graph import optimize
from repro.graph.function import GraphFunction, placeholder
from repro.graph.graph import Graph
from repro.runtime.context import context


def _segment(x):
    return repro.tanh(x * 2.0) * repro.exp(-repro.square(x))


def _grad_of(fn, x):
    with repro.GradientTape() as tape:
        tape.watch(x)
        loss = repro.reduce_sum(fn(x))
    return tape.gradient(loss, x)


class TestEagerRecompute:
    def test_gradient_matches_unwrapped(self):
        x = repro.constant([0.3, -0.8, 1.4], dtype=repro.float64)
        ref = _grad_of(_segment, x)
        got = _grad_of(recompute_grad(_segment), x)
        np.testing.assert_allclose(got.numpy(), ref.numpy(), rtol=1e-12)

    def test_tape_retains_only_boundary(self):
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = recompute_grad(_segment)(x)
            loss = repro.reduce_sum(y)
        ops = [r.op_name for r in tape._records]
        assert "RecomputeGrad" in ops
        # The segment's internals (Tanh, Exp, ...) were suspended away.
        assert "Tanh" not in ops and "Exp" not in ops
        assert tape.gradient(loss, x) is not None

    def test_variable_gradients_via_accessed_watch(self):
        w = repro.Variable([1.0, 2.0, 3.0], dtype=repro.float64)
        x = repro.constant([2.0, 3.0, 4.0], dtype=repro.float64)

        def seg(x):
            return w * x

        with repro.GradientTape() as tape:  # watch_accessed_variables
            loss = repro.reduce_sum(recompute_grad(seg)(x))
        grad = tape.gradient(loss, w)
        np.testing.assert_allclose(grad.numpy(), x.numpy())

    def test_variable_read_inside_a_staged_call(self):
        """A function captured variable is noted by the segment's watcher
        (its handle is among the call's inputs), so it gets a gradient."""
        w = repro.Variable([1.0, 2.0, 3.0], dtype=repro.float64)
        x = repro.constant([2.0, 3.0, 4.0], dtype=repro.float64)
        scaled = repro.function(lambda x: w * x)

        with repro.GradientTape() as tape:
            loss = repro.reduce_sum(recompute_grad(scaled)(x))
        grad = tape.gradient(loss, w)
        np.testing.assert_allclose(grad.numpy(), x.numpy())

    def test_kwargs_and_structure_pass_through(self):
        def seg(x, scale=1.0):
            return {"out": x * scale}

        x = repro.constant([1.0, -1.0], dtype=repro.float64)
        with repro.GradientTape() as tape:
            tape.watch(x)
            out = recompute_grad(seg)(x, scale=3.0)
            loss = repro.reduce_sum(out["out"])
        np.testing.assert_allclose(tape.gradient(loss, x).numpy(), [3.0, 3.0])

    def test_second_order_through_recompute(self):
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        with repro.GradientTape() as outer:
            outer.watch(x)
            with repro.GradientTape() as inner:
                inner.watch(x)
                loss = repro.reduce_sum(recompute_grad(lambda t: t * t * t)(x))
            (g,) = inner.gradient(loss, [x])
            total = repro.reduce_sum(g)
        (h,) = outer.gradient(total, [x])
        np.testing.assert_allclose(h.numpy(), 6 * x.numpy())

    def test_jvp_through_recompute(self):
        x = repro.constant([0.5, -0.25], dtype=repro.float64)
        v = repro.constant([1.0, 2.0], dtype=repro.float64)
        _, ref = repro.jvp(_segment, [x], [v])
        _, got = repro.jvp(recompute_grad(_segment), [x], [v])
        np.testing.assert_allclose(got.numpy(), ref.numpy(), rtol=1e-12)

    def test_no_tape_is_a_plain_call(self):
        x = repro.constant([1.0], dtype=repro.float64)
        y = recompute_grad(_segment)(x)
        np.testing.assert_allclose(y.numpy(), _segment(x).numpy())

    def test_knob_off_disables_checkpointing(self):
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        context.recompute = False
        try:
            with repro.GradientTape() as tape:
                tape.watch(x)
                loss = repro.reduce_sum(recompute_grad(_segment)(x))
            ops = [r.op_name for r in tape._records]
            assert "RecomputeGrad" not in ops
            assert "Tanh" in ops  # internals recorded normally
            ref = _grad_of(_segment, x)
            np.testing.assert_allclose(
                tape.gradient(loss, x).numpy(), ref.numpy(), rtol=1e-12
            )
        finally:
            context.recompute = True

    def test_parity_in_lazy_mode(self):
        with repro.execution_mode("sync"):
            x = repro.constant([0.4, -1.1, 2.2], dtype=repro.float64)
            ref = _grad_of(recompute_grad(_segment), x).numpy()
        with repro.execution_mode("lazy"):
            x = repro.constant([0.4, -1.1, 2.2], dtype=repro.float64)
            got = _grad_of(recompute_grad(_segment), x).numpy()
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_lazy_segment_peak_stat_updates(self):
        from repro.runtime import lazy

        with repro.execution_mode("lazy"):
            lazy.reset_lazy_stats(clear_cache=True)
            x = repro.constant(np.ones((8, 8)), dtype=repro.float64)
            g = _grad_of(recompute_grad(_segment), x)
            g.numpy()
            stats = lazy.lazy_stats()
        assert stats["max_segment_peak_bytes"] > 0


class TestStagedRecompute:
    def test_gradient_matches_unstaged(self):
        ckpt = recompute_grad(_segment)

        @repro.function
        def staged(x):
            return ckpt(x) + 1.0

        x = repro.constant([0.7, -0.2, 1.9], dtype=repro.float64)
        ref = _grad_of(lambda t: _segment(t) + 1.0, x)
        got = _grad_of(staged, x)
        np.testing.assert_allclose(got.numpy(), ref.numpy(), rtol=1e-12)

    def test_variable_capture_gradients(self):
        w = repro.Variable([2.0, -1.0], dtype=repro.float64)

        def seg(x):
            return repro.tanh(x * w)

        ckpt = recompute_grad(seg)

        @repro.function
        def staged(x):
            return ckpt(x)

        x = repro.constant([0.5, 0.25], dtype=repro.float64)
        with repro.GradientTape() as tape:
            loss = repro.reduce_sum(staged(x))
        got = tape.gradient(loss, w)
        with repro.GradientTape() as tape:
            loss = repro.reduce_sum(seg(x))
        ref = tape.gradient(loss, w)
        np.testing.assert_allclose(got.numpy(), ref.numpy(), rtol=1e-12)

    def test_forward_emits_single_recompute_call(self):
        ckpt = recompute_grad(_segment)

        fn = repro.function(lambda x: ckpt(x) * 1.5)
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        fn(x)
        concrete = fn.get_concrete_function(x)
        calls = concrete.graph.ops_by_type("RecomputeCall")
        assert len(calls) == 1
        # The segment body is inside the callee, not the caller graph.
        assert not concrete.graph.ops_by_type("Tanh")

    def test_backward_contains_tagged_remat_nodes(self):
        ckpt = recompute_grad(_segment)

        fn = repro.function(lambda x: ckpt(x))
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        with repro.GradientTape() as tape:
            tape.watch(x)
            loss = repro.reduce_sum(fn(x))
        tape.gradient(loss, x)
        concrete = fn.get_concrete_function(x)
        fb = concrete._forward_backward
        assert fb is not None and not isinstance(fb, Exception)
        remat = [
            n
            for n in fb.backward_fn.graph.nodes
            if n.attrs and "_remat_scope" in n.attrs
        ]
        assert remat, "backward graph lost its rematerialized segment"
        # The forward function must NOT hold the segment internals: the
        # only boundary crossing is the RecomputeCall itself.
        assert not any(
            "_remat_scope" in (n.attrs or {}) for n in fb.forward_fn.graph.nodes
        )

    def test_backward_resident_bytes_drop_on_deep_chain(self):
        """The planner-visible point of checkpointing, on a 6-block chain."""
        rng = np.random.default_rng(0)
        weights = [
            repro.constant(rng.normal(size=(64, 64)) * 0.1, dtype=repro.float64)
            for _ in range(6)
        ]

        def make(checkpoint: bool):
            def block(i):
                def body(h):
                    return repro.tanh(repro.matmul(h, weights[i]))

                return recompute_grad(body) if checkpoint else body

            blocks = [block(i) for i in range(6)]

            def chain(x):
                h = x
                for b in blocks:
                    h = b(h)
                return h

            return repro.function(chain, name=f"chain_ckpt_{checkpoint}")

        def backward_resident_bytes(fn):
            x = repro.constant(rng.normal(size=(4, 64)), dtype=repro.float64)
            with repro.GradientTape() as tape:
                tape.watch(x)
                loss = repro.reduce_sum(fn(x))
            tape.gradient(loss, x)
            stats = fn.execution_stats()
            (trace,) = stats["traces"]
            bwd = trace["staged_backward"]
            return bwd["peak_live_bytes"] + bwd["input_bytes"]

        unckpt = backward_resident_bytes(make(False))
        ckpt = backward_resident_bytes(make(True))
        assert ckpt < unckpt, (ckpt, unckpt)

    def test_memory_plan_counts_callee_peak(self):
        """The forward plan must charge the RecomputeCall's callee."""
        ckpt = recompute_grad(
            lambda x: repro.tanh(repro.matmul(x, repro.transpose(x)))
        )
        fn = repro.function(lambda x: repro.reduce_sum(ckpt(x)))
        x = repro.constant(np.ones((32, 8)), dtype=repro.float64)
        fn(x)
        stats = fn.execution_stats()
        (trace,) = stats["traces"]
        # The callee materializes a 32x32 float64 product: its working
        # set dominates the caller's own scalar output.
        assert trace["peak_live_bytes"] >= 32 * 32 * 8

    def test_knob_off_stages_inline(self):
        ckpt = recompute_grad(_segment)
        context.recompute = False
        try:
            fn = repro.function(lambda x: ckpt(x), name="inline_when_off")
            x = repro.constant([1.0], dtype=repro.float64)
            fn(x)
            concrete = fn.get_concrete_function(x)
            assert not concrete.graph.ops_by_type("RecomputeCall")
            # Inlined internals are visible to the optimizer — either as
            # raw Tanh or already folded into a fused region.
            assert concrete.graph.ops_by_type("Tanh") or concrete.graph.ops_by_type(
                "FusedElementwise"
            )
        finally:
            context.recompute = True


class TestRematScopeCSE:
    """CSE must dedup within a remat region, never across the boundary."""

    def _duplicated(self, scopes):
        g = Graph("remat_cse")
        x = placeholder(g, repro.float64, [4])
        with g.as_default():
            from repro.runtime.executor import execute

            outs = []
            for scope in scopes:
                attrs = {} if scope is None else {"_remat_scope": scope}
                y = execute("Tanh", [x], attrs)
                if isinstance(y, tuple):
                    y = y[0]
                outs.append(y * 1.0)
            total = outs[0]
            for o in outs[1:]:
                total = total + o
        return GraphFunction("remat_cse", g, [x], [total]), g

    def test_same_scope_merges(self):
        fn, g = self._duplicated(["seg#0", "seg#0"])
        optimize.cse(fn)
        optimize.prune(fn)
        assert len(g.ops_by_type("Tanh")) == 1

    def test_scope_vs_untagged_never_merges(self):
        fn, g = self._duplicated([None, "seg#0"])
        optimize.cse(fn)
        optimize.prune(fn)
        assert len(g.ops_by_type("Tanh")) == 2

    def test_distinct_scopes_never_merge(self):
        fn, g = self._duplicated(["seg#0", "seg#1"])
        optimize.cse(fn)
        optimize.prune(fn)
        assert len(g.ops_by_type("Tanh")) == 2
