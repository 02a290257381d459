"""Forward-mode AD: ForwardAccumulator, jvp/hvp/jacobian (ISSUE 10).

Forward mode reuses the *reverse-mode* gradient registry through the
double-VJP construction, so these tests are simultaneously a second
transposition check on every VJP rule they touch.  The composition
tests (forward-over-reverse vs reverse-over-reverse vs central
differences) pin the recorder-protocol layering: the accumulator pauses
only itself while computing tangents, the tape pauses only itself
while sweeping, so each sees the other's ops.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.forwardprop import ForwardAccumulator
from repro.ops import nn_ops
from tests.harness.grad_check import check_hvp, check_jvp


class TestForwardAccumulator:
    def test_elementwise_jvp(self):
        x = repro.constant([1.0, 2.0, 3.0], dtype=repro.float64)
        v = repro.constant([1.0, 0.5, -1.0], dtype=repro.float64)
        with ForwardAccumulator([x], [v]) as acc:
            y = x * x
        np.testing.assert_allclose(acc.jvp(y).numpy(), 2 * x.numpy() * v.numpy())

    def test_unwatched_tensor_has_no_tangent(self):
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        other = repro.constant([5.0, 6.0], dtype=repro.float64)
        with ForwardAccumulator([x], [repro.ones_like(x)]) as acc:
            y = other * 3.0
        assert acc.jvp(y) is None

    def test_multi_input_jvp_adds_contributions(self):
        a = repro.constant(2.0, dtype=repro.float64)
        b = repro.constant(3.0, dtype=repro.float64)
        va = repro.constant(1.0, dtype=repro.float64)
        vb = repro.constant(10.0, dtype=repro.float64)
        with ForwardAccumulator([a, b], [va, vb]) as acc:
            y = a * b
        # d(ab) = b*da + a*db = 3*1 + 2*10
        np.testing.assert_allclose(float(acc.jvp(y).numpy()), 23.0)

    def test_variable_jvp_through_read(self):
        w = repro.Variable([1.0, -2.0], dtype=repro.float64)
        v = repro.constant([0.5, 2.0], dtype=repro.float64)
        with ForwardAccumulator([w], [v]) as acc:
            y = w * w
        np.testing.assert_allclose(
            acc.jvp(y).numpy(), 2 * w.numpy() * v.numpy()
        )

    def test_broadcast_tangent_packs_to_primal_shape(self):
        x = repro.constant([[1.0, 2.0], [3.0, 4.0]], dtype=repro.float64)
        with ForwardAccumulator([x], [1.0]) as acc:
            y = repro.reduce_sum(x * x)
        # Tangent broadcast to ones: d/deps sum((x+eps)^2) = sum(2x)
        np.testing.assert_allclose(float(acc.jvp(y).numpy()), 20.0)

    def test_stop_gradient_blocks_tangent(self):
        x = repro.constant([1.0, 2.0], dtype=repro.float64)
        with ForwardAccumulator([x], [repro.ones_like(x)]) as acc:
            y = repro.stop_gradient(x) * 2.0
        assert acc.jvp(y) is None

    def test_nondifferentiable_outputs_are_skipped(self):
        x = repro.constant([1.0, 3.0, 2.0], dtype=repro.float64)
        with ForwardAccumulator([x], [repro.ones_like(x)]) as acc:
            idx = repro.argmax(x)  # integer output: no tangent, no error
            y = x * 2.0
        assert acc.jvp(idx) is None
        np.testing.assert_allclose(acc.jvp(y).numpy(), [2.0, 2.0, 2.0])


class TestJvpFunction:
    def test_jvp_matches_central_differences(self):
        check_jvp(lambda x: repro.tanh(x * 1.5 + 0.5), np.linspace(-1, 1, 7))

    def test_jvp_matmul(self):
        rng = np.random.default_rng(3)
        w = repro.constant(rng.normal(size=(4, 2)), dtype=repro.float64)
        check_jvp(lambda x: repro.matmul(x, w), rng.normal(size=(3, 4)))

    def test_jvp_softmax(self):
        check_jvp(
            lambda x: nn_ops.softmax(x),
            np.random.default_rng(5).normal(size=(2, 5)),
        )

    def test_jvp_through_staged_function(self):
        @repro.function
        def seg(x):
            return repro.sin(x) * x

        x = repro.constant([0.3, -0.7, 1.2], dtype=repro.float64)
        v = repro.constant([1.0, 2.0, -0.5], dtype=repro.float64)
        _, t_staged = repro.jvp(seg, [x], [v])
        _, t_eager = repro.jvp(lambda x: repro.sin(x) * x, [x], [v])
        np.testing.assert_allclose(t_staged.numpy(), t_eager.numpy())

    def test_jvp_all_modes_agree(self):
        ref = None
        for mode in ("sync", "lazy"):
            with repro.execution_mode(mode):
                x = repro.constant([0.2, 0.4, 0.8], dtype=repro.float64)
                v = repro.constant([1.0, -1.0, 0.5], dtype=repro.float64)
                _, t = repro.jvp(lambda x: repro.exp(x) * x, [x], [v])
                out = t.numpy()
            if ref is None:
                ref = out
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-12)


class TestHvp:
    def test_hvp_cubic(self):
        x = repro.constant([1.0, 2.0, 3.0], dtype=repro.float64)
        v = repro.constant([1.0, 1.0, 1.0], dtype=repro.float64)
        (h,) = repro.hvp(lambda x: repro.reduce_sum(x * x * x), [x], [v])
        np.testing.assert_allclose(h.numpy(), 6 * x.numpy())

    def test_hvp_cross_checked_three_ways(self):
        check_hvp(
            lambda x: repro.tanh(x) * x, np.linspace(-1.2, 1.2, 6)
        )

    def test_hvp_logsumexp(self):
        check_hvp(
            lambda x: repro.reduce_logsumexp(x),
            np.random.default_rng(9).normal(size=(5,)),
        )

    def test_hvp_of_variable_loss(self):
        w = repro.Variable([0.5, -0.5], dtype=repro.float64)
        v = repro.constant([1.0, 2.0], dtype=repro.float64)
        (h,) = repro.hvp(
            lambda w: repro.reduce_sum(repro.square(w) * w), [w], [v]
        )
        np.testing.assert_allclose(h.numpy(), 6 * w.numpy() * v.numpy())


class TestJacobian:
    def test_jacobian_diagonal(self):
        x = repro.constant([0.1, 0.2, 0.3], dtype=repro.float64)
        jac = repro.jacobian(repro.sin, x)
        np.testing.assert_allclose(jac.numpy(), np.diag(np.cos(x.numpy())))

    def test_jacobian_linear_map_recovers_matrix(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        at = repro.constant(a, dtype=repro.float64)
        x = repro.constant(rng.normal(size=(4,)), dtype=repro.float64)
        jac = repro.jacobian(
            lambda x: repro.reshape(
                repro.matmul(at, repro.reshape(x, (4, 1))), (3,)
            ),
            x,
        )
        np.testing.assert_allclose(jac.numpy(), a, rtol=1e-12)

    def test_jacobian_matrix_input_shape(self):
        x = repro.constant(
            np.random.default_rng(2).normal(size=(2, 3)), dtype=repro.float64
        )
        jac = repro.jacobian(lambda x: repro.square(x), x)
        assert jac.shape.as_tuple() == (2, 3, 2, 3)
        dense = jac.numpy().reshape(6, 6)
        np.testing.assert_allclose(
            dense, np.diag(2 * x.numpy().reshape(-1)), rtol=1e-12
        )


class TestCorpusConsistency:
    """jvp/hvp over representative corpus programs (satellite 3)."""

    @pytest.mark.parametrize(
        "name",
        [
            "chain_long",
            "polynomial",
            "sigmoid_tanh_mix",
            "normalize_rows",
            "logsumexp_margin",
            "ag_if_scale",
            "ag_while_bound",
            "ag_for_scan",
        ],
    )
    def test_jvp_and_hvp_on_program(self, name):
        from tests.harness.parity import CORPUS

        program = next(p for p in CORPUS if p.name == name)
        arrays = program.make_inputs(np.random.default_rng(0))
        x = np.asarray(arrays[0], dtype=np.float64)
        rest = [
            repro.constant(np.asarray(a, dtype=np.float64), dtype=repro.float64)
            for a in arrays[1:]
        ]
        check_jvp(lambda t: program.fn(t, *rest), x)
        check_hvp(lambda t: program.fn(t, *rest), x)
