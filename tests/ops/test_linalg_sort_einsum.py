"""Linear algebra, sorting/selection, einsum, and the extra activations."""

import numpy as np
import pytest

import repro
from repro.framework.errors import InvalidArgumentError
from repro.ops import linalg_ops, nn_ops, sort_ops
from tests.conftest import numeric_gradient


def t64(x):
    return repro.constant(np.asarray(x, np.float64), dtype=repro.float64)


def _spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestLinalgValues:
    def test_inverse(self):
        a = _spd(4)
        np.testing.assert_allclose(
            linalg_ops.matrix_inverse(t64(a)).numpy(), np.linalg.inv(a), rtol=1e-8
        )

    def test_cholesky(self):
        a = _spd(5)
        np.testing.assert_allclose(
            linalg_ops.cholesky(t64(a)).numpy(), np.linalg.cholesky(a), rtol=1e-8
        )

    def test_solve(self):
        a, b = _spd(4), np.random.randn(4, 2)
        np.testing.assert_allclose(
            linalg_ops.matrix_solve(t64(a), t64(b)).numpy(),
            np.linalg.solve(a, b),
            rtol=1e-8,
        )

    def test_triangular_solve(self):
        a = np.tril(_spd(4))
        b = np.random.randn(4, 3)
        out = linalg_ops.matrix_triangular_solve(t64(a), t64(b), lower=True)
        np.testing.assert_allclose(a @ out.numpy(), b, rtol=1e-7, atol=1e-9)

    def test_logdet_and_det(self):
        a = _spd(4)
        assert float(linalg_ops.logdet(t64(a))) == pytest.approx(
            np.log(np.linalg.det(a)), rel=1e-8
        )
        assert float(linalg_ops.matrix_determinant(t64(a))) == pytest.approx(
            np.linalg.det(a), rel=1e-8
        )

    def test_batched_inverse(self):
        a = np.stack([_spd(3, s) for s in range(4)])
        np.testing.assert_allclose(
            linalg_ops.matrix_inverse(t64(a)).numpy(), np.linalg.inv(a), rtol=1e-8
        )

    def test_trace(self):
        for shape in [(3, 5, 5), (2, 3, 5)]:  # square, and wide: 3 diagonal entries
            a = np.random.randn(*shape)
            np.testing.assert_allclose(
                linalg_ops.trace(t64(a)).numpy(), np.trace(a, axis1=-2, axis2=-1)
            )

    def test_band_part(self):
        a = np.random.randn(4, 4)
        np.testing.assert_allclose(
            linalg_ops.band_part(t64(a), -1, 0).numpy(), np.tril(a)
        )
        np.testing.assert_allclose(
            linalg_ops.band_part(t64(a), 0, -1).numpy(), np.triu(a)
        )
        np.testing.assert_allclose(
            linalg_ops.band_part(t64(a), 0, 0).numpy(), np.diag(np.diag(a))
        )

    def test_matrix_transpose(self):
        a = np.random.randn(2, 3, 4)
        np.testing.assert_allclose(
            linalg_ops.matrix_transpose(t64(a)).numpy(), np.swapaxes(a, -1, -2)
        )


class TestLinalgGradients:
    def _check(self, fn, a, rtol=2e-2):
        x = t64(a)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = repro.reduce_sum(fn(x))
        analytic = tape.gradient(y, x).numpy()
        numeric = numeric_gradient(
            lambda m: repro.reduce_sum(fn(t64(m))).numpy(), a, eps=1e-5
        )
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-5)

    def test_inverse_grad(self):
        self._check(linalg_ops.matrix_inverse, _spd(3))

    def test_logdet_grad(self):
        a = _spd(3)
        x = t64(a)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = linalg_ops.logdet(x)
        np.testing.assert_allclose(
            tape.gradient(y, x).numpy(), np.linalg.inv(a).T, rtol=1e-7
        )

    def test_det_grad(self):
        self._check(linalg_ops.matrix_determinant, _spd(3))

    def test_cholesky_grad(self):
        # The analytic rule returns the *symmetrized* gradient (the input
        # is constrained symmetric); NumPy's kernel reads only the lower
        # triangle, so symmetrize the numeric gradient before comparing.
        a = _spd(3)
        x = t64(a)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = repro.reduce_sum(linalg_ops.cholesky(x))
        analytic = tape.gradient(y, x).numpy()
        numeric = numeric_gradient(
            lambda m: repro.reduce_sum(linalg_ops.cholesky(t64(m))).numpy(),
            a,
            eps=1e-5,
        )
        np.testing.assert_allclose(
            analytic, (numeric + numeric.T) / 2, rtol=1e-3, atol=1e-6
        )

    def test_solve_grad(self):
        a, b = _spd(3), np.random.randn(3, 2)
        x, y = t64(a), t64(b)
        with repro.GradientTape() as tape:
            tape.watch(x)
            tape.watch(y)
            out = repro.reduce_sum(linalg_ops.matrix_solve(x, y))
        ga, gb = tape.gradient(out, [x, y])
        na = numeric_gradient(
            lambda m: repro.reduce_sum(linalg_ops.matrix_solve(t64(m), t64(b))).numpy(), a, eps=1e-5
        )
        nb = numeric_gradient(
            lambda m: repro.reduce_sum(linalg_ops.matrix_solve(t64(a), t64(m))).numpy(), b, eps=1e-5
        )
        np.testing.assert_allclose(ga.numpy(), na, rtol=1e-3, atol=1e-6)
        np.testing.assert_allclose(gb.numpy(), nb, rtol=1e-3, atol=1e-6)

    def test_trace_grad(self):
        a = np.random.randn(4, 4)
        x = t64(a)
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = linalg_ops.trace(x)
        np.testing.assert_allclose(tape.gradient(y, x).numpy(), np.eye(4))

    def test_gaussian_log_likelihood_end_to_end(self):
        """A realistic composite: multivariate normal log-density."""
        cov = _spd(3)
        x_np = np.random.randn(3, 1)

        def neg_log_prob(c):
            solve = linalg_ops.matrix_solve(c, t64(x_np))
            quad = repro.reduce_sum(t64(x_np) * solve)
            return 0.5 * (quad + linalg_ops.logdet(c))

        c = t64(cov)
        with repro.GradientTape() as tape:
            tape.watch(c)
            nll = neg_log_prob(c)
        analytic = tape.gradient(nll, c).numpy()
        numeric = numeric_gradient(
            lambda m: float(neg_log_prob(t64(m)).numpy()), cov, eps=1e-5
        )
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)


class TestSorting:
    def test_sort_matches_numpy(self):
        x = np.random.randn(3, 7)
        np.testing.assert_array_equal(
            sort_ops.sort(t64(x)).numpy(), np.sort(x, axis=-1)
        )
        np.testing.assert_array_equal(
            sort_ops.sort(t64(x), direction="DESCENDING").numpy(),
            -np.sort(-x, axis=-1),
        )

    def test_sort_axis0(self):
        x = np.random.randn(4, 3)
        np.testing.assert_array_equal(
            sort_ops.sort(t64(x), axis=0).numpy(), np.sort(x, axis=0)
        )

    def test_argsort(self):
        x = np.float64([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(sort_ops.argsort(t64(x)).numpy(), [1, 2, 0])

    def test_sort_gradient_follows_permutation(self):
        x = t64([3.0, 1.0, 2.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = repro.reduce_sum(sort_ops.sort(x) * t64([100.0, 10.0, 1.0]))
        # sorted = [1,2,3] -> positions of x entries: 3->seed 1, 1->100, 2->10
        np.testing.assert_allclose(tape.gradient(y, x).numpy(), [1.0, 100.0, 10.0])

    def test_bad_direction(self):
        with pytest.raises(InvalidArgumentError):
            sort_ops.sort(t64([1.0]), direction="SIDEWAYS")

    def test_top_k_values_and_indices(self):
        x = np.float64([[5.0, 1.0, 9.0, 3.0], [0.0, -1.0, -2.0, 4.0]])
        values, indices = sort_ops.top_k(t64(x), k=2)
        np.testing.assert_array_equal(values.numpy(), [[9.0, 5.0], [4.0, 0.0]])
        np.testing.assert_array_equal(indices.numpy(), [[2, 0], [3, 0]])

    def test_top_k_too_large(self):
        with pytest.raises(InvalidArgumentError):
            values, _ = sort_ops.top_k(t64([1.0, 2.0]), k=5)
            values.numpy()  # lazy mode defers the kernel error

    def test_top_k_gradient_scatters(self):
        x = t64([5.0, 1.0, 9.0, 3.0])
        with repro.GradientTape() as tape:
            tape.watch(x)
            values, _ = sort_ops.top_k(x, k=2)
            y = repro.reduce_sum(values * t64([10.0, 1.0]))
        np.testing.assert_allclose(tape.gradient(y, x).numpy(), [1.0, 0.0, 10.0, 0.0])

    def test_cumprod(self, grad_checker):
        x = np.float64([1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            sort_ops.cumprod(t64(x)).numpy(), [1.0, 2.0, 6.0]
        )
        grad_checker(lambda v: sort_ops.cumprod(v), np.random.rand(4) + 0.5)


class TestEinsum:
    CASES = [
        ("ij,jk->ik", [(3, 4), (4, 5)]),
        ("ij,ij->", [(3, 4), (3, 4)]),
        ("bij,bjk->bik", [(2, 3, 4), (2, 4, 5)]),
        ("ij->ji", [(3, 4)]),
        ("bi,ij->bj", [(5, 3), (3, 2)]),
        ("i,j->ij", [(3,), (4,)]),
    ]

    @pytest.mark.parametrize("equation,shapes", CASES, ids=[c[0] for c in CASES])
    def test_values_match_numpy(self, equation, shapes):
        arrays = [np.random.randn(*s) for s in shapes]
        got = repro.einsum(equation, *[t64(a) for a in arrays]).numpy()
        np.testing.assert_allclose(got, np.einsum(equation, *arrays), rtol=1e-8)

    @pytest.mark.parametrize("equation,shapes", CASES[:5], ids=[c[0] for c in CASES[:5]])
    def test_gradients(self, equation, shapes):
        arrays = [np.random.randn(*s) for s in shapes]
        tensors = [t64(a) for a in arrays]
        with repro.GradientTape() as tape:
            for x in tensors:
                tape.watch(x)
            out = repro.reduce_sum(repro.einsum(equation, *tensors))
        grads = tape.gradient(out, tensors)
        for i, (a, g) in enumerate(zip(arrays, grads)):
            def scalar(m, i=i):
                ops = [t64(x) for x in arrays]
                ops[i] = t64(m)
                return repro.reduce_sum(repro.einsum(equation, *ops)).numpy()

            np.testing.assert_allclose(
                g.numpy(), numeric_gradient(scalar, a, eps=1e-5), rtol=1e-3, atol=1e-6
            )

    def test_implicit_output(self):
        a, b = np.random.randn(3, 4), np.random.randn(4, 5)
        got = repro.einsum("ij,jk", t64(a), t64(b)).numpy()
        np.testing.assert_allclose(got, a @ b, rtol=1e-8)

    def test_repeated_label_rejected(self):
        with pytest.raises(InvalidArgumentError):
            repro.einsum("ii->i", t64(np.eye(3)))


class TestExtraActivations:
    def test_gelu_reference(self):
        from scipy.stats import norm

        x = np.linspace(-3, 3, 13)
        np.testing.assert_allclose(
            nn_ops.gelu(t64(x)).numpy(), x * norm.cdf(x), rtol=1e-6
        )

    def test_silu(self):
        x = np.linspace(-3, 3, 7)
        np.testing.assert_allclose(
            nn_ops.silu(t64(x)).numpy(), x / (1 + np.exp(-x)), rtol=1e-8
        )

    def test_softsign(self):
        x = np.float64([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(
            nn_ops.softsign(t64(x)).numpy(), x / (1 + np.abs(x))
        )

    def test_log_sigmoid_stable(self):
        x = t64([-1000.0, 0.0, 1000.0])
        out = nn_ops.log_sigmoid(x).numpy()
        assert np.isfinite(out[0]) or out[0] == -1000.0
        assert out[1] == pytest.approx(np.log(0.5))
        assert out[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "fn", [nn_ops.gelu, nn_ops.silu, nn_ops.softsign, nn_ops.log_sigmoid]
    )
    def test_gradients(self, fn, grad_checker):
        grad_checker(fn, np.array([-1.5, -0.2, 0.4, 2.0]))
