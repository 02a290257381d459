"""Higher-order gradients through autograph-lowered control flow.

Satellite of ISSUE 10: tape-over-tape (and forward-over-reverse)
differentiation where the inner function is staged and its Python
``if``/``while`` was rewritten onto ``Cond``/``While`` at trace time.
The analytic references are chosen so second derivatives are nontrivial
(cubics) and branch-dependent.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.ops import nn_ops


def _second_order(fn, x):
    """d²/dx² of sum(fn(x)) via tape-over-tape, as an ndarray."""
    with repro.GradientTape() as outer:
        outer.watch(x)
        with repro.GradientTape() as inner:
            inner.watch(x)
            loss = repro.reduce_sum(fn(x))
        (g,) = inner.gradient(loss, [x])
        total = repro.reduce_sum(g)
    (h,) = outer.gradient(total, [x])
    assert h is not None, "second-order gradient disconnected"
    return np.asarray(h.numpy())


class TestSecondOrderThroughAutographCond:
    def _body(self, x):
        if repro.reduce_sum(x) > 0.0:
            y = x * x * x
        else:
            y = -(x * x)
        return y

    def test_positive_branch(self):
        x_np = np.array([1.0, 2.0, 0.5])
        staged = repro.function(self._body, autograph=True)
        x = repro.constant(x_np, dtype=repro.float64)
        got = _second_order(staged, x)
        np.testing.assert_allclose(got, 6 * x_np, rtol=1e-12)

    def test_negative_branch(self):
        x_np = np.array([-1.0, -2.0, -0.5])
        staged = repro.function(self._body, autograph=True)
        x = repro.constant(x_np, dtype=repro.float64)
        got = _second_order(staged, x)
        np.testing.assert_allclose(got, np.full_like(x_np, -2.0), rtol=1e-12)

    def test_matches_eager_tape_over_tape(self):
        x_np = np.array([0.3, 0.9])
        staged = repro.function(self._body, autograph=True)
        x = repro.constant(x_np, dtype=repro.float64)
        np.testing.assert_allclose(
            _second_order(staged, x), _second_order(self._body, x), rtol=1e-12
        )


class TestSecondOrderThroughAutographWhile:
    def _cube_by_loop(self, x):
        i = repro.constant(0)
        acc = repro.ones_like(x)
        while i < 3:
            acc = acc * x
            i = i + 1
        return acc

    def test_lowered_while_second_order(self):
        x_np = np.array([1.5, -0.5, 2.0])
        staged = repro.function(self._cube_by_loop, autograph=True)
        x = repro.constant(x_np, dtype=repro.float64)
        got = _second_order(staged, x)
        np.testing.assert_allclose(got, 6 * x_np, rtol=1e-12)

    def test_matches_eager(self):
        x_np = np.array([0.7, 1.2])
        staged = repro.function(self._cube_by_loop, autograph=True)
        x = repro.constant(x_np, dtype=repro.float64)
        np.testing.assert_allclose(
            _second_order(staged, x),
            _second_order(self._cube_by_loop, x),
            rtol=1e-12,
        )


class TestForwardOverReverseThroughStaged:
    def test_hvp_through_staged_cond(self):
        def body(x):
            if repro.reduce_sum(x) > 0.0:
                return repro.reduce_sum(x * x * x)
            return repro.reduce_sum(x * x)

        staged = repro.function(body, autograph=True)
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        v = repro.constant([1.0, -1.0], dtype=repro.float64)
        (got,) = repro.hvp(staged, [x], [v])
        np.testing.assert_allclose(
            got.numpy(), 6 * x.numpy() * v.numpy(), rtol=1e-12
        )

    def test_jvp_reverse_consistency_on_lowered_loop(self):
        def loop(x):
            i = repro.constant(0)
            y = x
            while i < 4:
                y = repro.tanh(y * 1.3)
                i = i + 1
            return y

        staged = repro.function(loop, autograph=True)
        x = repro.constant([0.2, -0.6, 1.1], dtype=repro.float64)
        v = repro.constant([1.0, 0.5, -2.0], dtype=repro.float64)
        _, forward = repro.jvp(staged, [x], [v])
        # Reverse reference: the loop output is elementwise in x, so
        # J v = grad(sum(y)) * v elementwise only if J is diagonal —
        # which it is here.  Use it as the cross-check.
        with repro.GradientTape() as tape:
            tape.watch(x)
            loss = repro.reduce_sum(staged(x))
        (g,) = tape.gradient(loss, [x])
        np.testing.assert_allclose(
            forward.numpy(), g.numpy() * v.numpy(), rtol=1e-10
        )


def _pool_loss(padding):
    return lambda t: repro.reduce_sum(nn_ops.max_pool2d(t, 2, 2, padding) ** 2)


# name -> (objective over its primals, primal shapes); every objective is
# piecewise polynomial, so central differences of the gradient are exact
# up to rounding wherever the max-pool argmax stays put.
_HVP_CASES = {
    "max_pool2d_valid": (_pool_loss("VALID"), [(1, 4, 4, 2)]),
    "max_pool2d_same": (_pool_loss("SAME"), [(1, 5, 5, 2)]),
    "conv2d": (
        lambda x, w: repro.reduce_sum(nn_ops.conv2d(x, w, 1, "SAME") ** 2),
        [(1, 4, 4, 2), (3, 3, 2, 3)],
    ),
    "gather": (
        lambda p: repro.reduce_sum(repro.gather(p, [2, 0, 2, 1]) ** 2),
        [(3, 4)],
    ),
}


def _gradient(f, primals):
    with repro.GradientTape() as tape:
        for p in primals:
            tape.watch(p)
        loss = f(*primals)
    return [g.numpy() for g in tape.gradient(loss, primals)]


class TestHvpThroughNnOps:
    """Forward-over-reverse ``hvp`` needs each op's gradient-of-gradient
    to be differentiable once more (``forwardprop``'s double-backward)."""

    @pytest.mark.parametrize("case", sorted(_HVP_CASES))
    def test_hvp_matches_gradient_differences(self, case):
        f, shapes = _HVP_CASES[case]
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal(s) for s in shapes]
        vs = [rng.standard_normal(s) for s in shapes]
        got = repro.hvp(
            f,
            [repro.constant(x, dtype=repro.float64) for x in xs],
            [repro.constant(v, dtype=repro.float64) for v in vs],
        )
        eps = 1e-5

        def shifted(sign):
            return _gradient(
                f,
                [
                    repro.constant(x + sign * eps * v, dtype=repro.float64)
                    for x, v in zip(xs, vs)
                ],
            )

        for g, plus, minus in zip(got, shifted(1.0), shifted(-1.0)):
            np.testing.assert_allclose(
                g.numpy(), (plus - minus) / (2 * eps), rtol=1e-6, atol=1e-8
            )
