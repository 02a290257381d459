"""Numeric verification of gradient rules via central differences.

Each test states only *what* is differentiated; the expected values
come from :func:`tests.harness.grad_check.check_gradients`, i.e. from
the definition of the derivative, not from a hand-derived formula that
could share a mistake with the implementation under test.
"""

import numpy as np
import pytest

import repro
from repro.ops import nn_ops
from tests.harness.grad_check import check_gradient, check_gradients, numeric_gradient


class TestChecker:
    """The checker itself must be trustworthy before we lean on it."""

    def test_numeric_gradient_of_known_function(self):
        # d/dx sum(x^2) = 2x, exactly representable — tight agreement.
        x = np.array([0.5, -1.25, 2.0])
        grad = numeric_gradient(lambda a: float(np.sum(a * a)), x)
        np.testing.assert_allclose(grad, 2 * x, rtol=1e-6)

    def test_checker_catches_a_wrong_gradient(self):
        # A gradient rule that is off by 2x must fail the check:
        # stop_gradient(x) + x has gradient 1, not the 2 a naive rule
        # for y = 2x would produce.  Build the mismatch directly.
        with pytest.raises(AssertionError):
            check_gradient(lambda x: repro.stop_gradient(x * x) + x * x, np.array([1.0, 2.0]))
            # analytic: 2x (only the live branch); objective behaves
            # like 2x^2 numerically -> numeric 4x.  Disagreement caught.

    def test_checker_rejects_disconnected_gradients(self):
        with pytest.raises(AssertionError, match="no gradient"):
            check_gradient(lambda x: repro.stop_gradient(x), np.array([1.0]))


class TestOpGradients:
    def test_matmul(self):
        check_gradients(
            repro.matmul,
            [np.random.randn(3, 4), np.random.randn(4, 2)],
        )

    def test_matmul_transposed(self):
        check_gradients(
            lambda a, b: repro.matmul(a, b, transpose_b=True),
            [np.random.randn(3, 4), np.random.randn(5, 4)],
        )

    def test_softmax(self):
        check_gradient(
            lambda x: nn_ops.softmax(x), np.random.randn(3, 5)
        )

    def test_softmax_cross_entropy_with_logits(self):
        labels = np.eye(4)[[0, 2, 1]]
        check_gradient(
            lambda logits: nn_ops.softmax_cross_entropy_with_logits(
                repro.constant(labels, dtype=logits.dtype), logits
            ),
            np.random.randn(3, 4),
        )

    def test_conv2d(self):
        check_gradients(
            lambda img, filt: nn_ops.conv2d(img, filt, strides=1, padding="SAME"),
            [np.random.randn(1, 4, 4, 2), np.random.randn(2, 2, 2, 3)],
        )

    def test_conv2d_valid_padding(self):
        check_gradients(
            lambda img, filt: nn_ops.conv2d(img, filt, strides=1, padding="VALID"),
            [np.random.randn(1, 5, 5, 1), np.random.randn(3, 3, 1, 2)],
        )

    def test_while_loop(self):
        # x -> x^8 by repeated squaring inside a while loop; the
        # gradient threads through three loop iterations.
        def loop_power(x):
            def body(i, acc):
                return i + 1, acc * acc

            _, out = repro.while_loop(
                lambda i, acc: i < 3, body, (repro.constant(0), x)
            )
            return out

        check_gradient(
            loop_power, np.array([0.9, 1.05, 1.1]), eps=1e-4, rtol=5e-2
        )

    def test_staged_while_loop(self):
        # The same loop staged through repro.function: the symbolic
        # While gradient must match central differences too.
        def loop_power(x):
            @repro.function
            def run(x):
                def body(i, acc):
                    return i + 1, acc * acc

                _, out = repro.while_loop(
                    lambda i, acc: i < 3, body, (repro.constant(0), x)
                )
                return out

            return run(x)

        check_gradient(
            loop_power, np.array([0.9, 1.05, 1.1]), eps=1e-4, rtol=5e-2
        )

    def test_reduce_logsumexp(self):
        check_gradient(
            lambda x: repro.reduce_logsumexp(x, axis=-1), np.random.randn(3, 4)
        )

    def test_gather(self):
        check_gradient(
            lambda p: repro.gather(p, repro.constant([2, 0, 2], dtype=repro.int32)),
            np.random.randn(4, 3),
        )


class TestAutographControlFlowGradients:
    """Central-difference checks over autograph-lowered control flow.

    Each body is plain Python `if`/`while`/`for` over tensors, staged
    through ``repro.function(autograph=True)`` and rewritten onto
    Cond / While; the analytic gradient therefore exercises ``_cond_grad`` /
    ``_while_grad`` through lowered traces, and the numeric oracle is
    the same staged forward.  Inputs are chosen away from predicate
    thresholds so the +-eps perturbations never flip a branch or a trip
    count (where the true gradient is discontinuous).
    """

    def test_lowered_if_true_branch(self):
        @repro.function(autograph=True)
        def f(x):
            if repro.reduce_sum(x) > 0.0:
                return repro.tanh(x) * 2.0
            return x * 0.5

        check_gradient(f, np.array([1.0, 2.0, 0.5]))

    def test_lowered_if_false_branch(self):
        @repro.function(autograph=True)
        def f(x):
            if repro.reduce_sum(x) > 0.0:
                return repro.tanh(x) * 2.0
            return x * x

        check_gradient(f, np.array([-1.0, -2.0, -0.5]))

    def test_lowered_while_fixed_bound(self):
        @repro.function(autograph=True)
        def f(x):
            i = repro.constant(0)
            acc = repro.zeros_like(x)
            while i < 4:
                acc = acc + repro.tanh(x) * repro.cast(i + 1, x.dtype)
                i = i + 1
            return acc

        check_gradient(f, np.array([0.3, -0.7, 1.2]))

    def test_lowered_while_data_dependent_bound(self):
        # sum(x^2) = 6.25 decays by 0.25x per iteration; the +-1e-3
        # perturbation cannot move any iterate across the 0.5 threshold.
        @repro.function(autograph=True)
        def f(x):
            y = x
            while repro.reduce_sum(repro.square(y)) > 0.5:
                y = y * 0.5
            return y

        check_gradient(f, np.array([2.0, -1.5]))

    def test_lowered_while_with_break(self):
        @repro.function(autograph=True)
        def f(x):
            i = repro.constant(0)
            y = x
            while i < 10:
                y = y + repro.sin(x)
                if repro.cast(i, x.dtype) > 2.5:
                    break
                i = i + 1
            return y

        check_gradient(f, np.array([0.4, -0.9, 1.3]))

    def test_lowered_for_scan(self):
        @repro.function(autograph=True)
        def f(x):
            h = repro.reduce_sum(x, axis=0) * 0.0
            for row in x:
                h = repro.tanh(h * 0.5 + row)
            return h

        check_gradient(f, np.random.default_rng(3).normal(size=(4, 3)))

    def test_lowered_scan_with_weight(self):
        @repro.function(autograph=True)
        def f(x, w):
            h = repro.reduce_sum(x, axis=0) * 0.0
            for row in x:
                h = repro.tanh(
                    repro.reshape(repro.matmul(repro.expand_dims(h, 0), w), (-1,))
                    + row
                )
            return h

        rng = np.random.default_rng(4)
        check_gradients(f, [rng.normal(size=(3, 2)), rng.normal(size=(2, 2))])
