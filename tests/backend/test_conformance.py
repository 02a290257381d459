"""Kernel conformance matrix.

Every kernel is registered under ``(op, device_type)`` and resolved one
way: the requested device's kernel, else the CPU kernel under soft
placement.  Each routed test runs twice:

- ``numpy``: the op through eager dispatch, checked against NumPy;
- ``tracked``: the same with every registered kernel swapped for a
  counting wrapper (:func:`tests.harness.tracking.tracked_kernels`),
  whose counter proves the op reached the kernel the registry holds
  rather than one a cache kept from before the swap.

The family matrix covers every member of the elementwise and reduction
op families at every dtype the op is well-typed at: eager dispatch
returns its kernel's value, at the dtype the op's inference declares.
"""

import warnings

import numpy as np
import pytest
from scipy.special import expit

import repro
from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError, NotFoundError
from repro.ops import common, registry
from repro.runtime.executor import execute
from repro.tensor import TensorSpec
from tests.conftest import CALLS
from tests.harness.tracking import tracked_kernels

FLOAT_DTYPES = [np.float32, np.float64]
INT_DTYPES = [np.int32, np.int64]
ALL_DTYPES = FLOAT_DTYPES + INT_DTYPES + [np.bool_]

BINARY_OPS = [
    ("Add", repro.add),
    ("Mul", repro.multiply),
    ("Maximum", repro.maximum),
]
UNARY_FLOAT_OPS = [
    ("Exp", repro.exp),
    ("Tanh", repro.tanh),
    ("Sqrt", repro.sqrt),
    ("Sigmoid", repro.sigmoid),
]
REDUCE_OPS = [
    ("Sum", repro.reduce_sum),
    ("Mean", repro.reduce_mean),
    ("Max", repro.reduce_max),
]
NUMPY_REFERENCE = {
    "Add": np.add,
    "Mul": np.multiply,
    "Maximum": np.maximum,
    "Exp": np.exp,
    "Tanh": np.tanh,
    "Sqrt": np.sqrt,
    "Sigmoid": expit,
    "Sum": np.sum,
    "Mean": np.mean,
    "Max": np.max,
}


@pytest.fixture(params=["numpy", "tracked"])
def route(request):
    """None on the ``numpy`` route; the kernel call counter on the
    ``tracked`` route, with every kernel swapped for the test."""
    if request.param == "numpy":
        yield None
        return
    with tracked_kernels() as counts:
        yield counts


def _rand(dtype, shape=(4, 5), seed=7):
    rng = np.random.default_rng(seed)
    if dtype == np.bool_:
        return rng.random(shape) > 0.5
    if np.issubdtype(dtype, np.integer):
        return rng.integers(1, 9, size=shape).astype(dtype)
    return (rng.random(shape) + 0.25).astype(dtype)


def _run(route, op_name, thunk):
    """``thunk()`` as a host array.  On the tracked route it runs sync
    (a lazy segment may come from the process-wide cache, bound before
    the swap) and must call ``op_name``'s kernel exactly once."""
    if route is None:
        return thunk().numpy()
    route.clear()
    with repro.execution_mode("sync"):
        out = thunk().numpy()
    assert route[op_name] == 1, dict(route)
    return out


# -- the family matrix: every ELEMENTWISE / REDUCTION member -----------------

def _call_args(op_name, dtype):
    """(input arrays, attrs) for one call of a family member at ``dtype``.

    Arity follows the family's inference function; the four members with
    their own inference or attrs are spelled out.
    """
    x = _rand(dtype, seed=1)
    if op_name == "Cast":
        return [x], {"dtype": repro.float32 if dtype != np.float32 else repro.int32}
    if op_name == "LeakyRelu":
        return [x], {"alpha": 0.2}
    if op_name == "ClipByValue":
        return [x, np.asarray(x.flat[0]), np.asarray(x.flat[1])], {}
    if op_name == "Select":
        return [_rand(np.bool_, seed=3), x, _rand(dtype, seed=2)], {}
    op_def = registry.get_op_def(op_name)
    if registry.REDUCTION in op_def.traits:
        return [x], {"axis": (1,), "keepdims": False}
    if op_def.infer_fn is common.unary_infer:
        return [x], {}
    assert op_def.infer_fn in (common.elementwise_infer, common.comparison_infer), op_name
    return [x, _rand(dtype, seed=2)], {}


def _declared_dtype(op_name, inputs, attrs):
    specs = [TensorSpec(a.shape, dtypes.as_dtype(a.dtype)) for a in inputs]
    (spec,) = registry.get_op_def(op_name).infer(specs, attrs)
    return spec.dtype.as_numpy_dtype


def _accepts(op_name, dtype) -> bool:
    """Is the op well-typed at ``dtype``: its CPU kernel runs without a
    floating-point error and returns the dtype its inference declares?"""
    inputs, attrs = _call_args(op_name, dtype)
    try:
        with np.errstate(all="raise"):
            out = registry.get_kernel(op_name, "CPU")(inputs, attrs, None)
    except (TypeError, ValueError, ArithmeticError):
        return False
    return np.asarray(out).dtype == _declared_dtype(op_name, inputs, attrs)


FAMILY_CASES = [
    (op_name, dtype)
    for op_name in (
        registry.ops_with_trait(registry.ELEMENTWISE)
        + registry.ops_with_trait(registry.REDUCTION)
    )
    for dtype in ALL_DTYPES
    if _accepts(op_name, dtype)
]


def _execute(op_name, arrays, attrs):
    # Sync: the op itself dispatched, not a lazy segment the optimizer
    # may shrink.
    with repro.execution_mode("sync"):
        return execute(op_name, [repro.constant(a) for a in arrays], attrs)


class TestKernelMatrix:
    @pytest.mark.parametrize(
        "op_name,dtype", FAMILY_CASES, ids=[f"{o}-{np.dtype(d)}" for o, d in FAMILY_CASES]
    )
    def test_family_member_matches_numpy(self, route, op_name, dtype):
        """Every ELEMENTWISE/REDUCTION member dispatches to its
        registered NumPy kernel and returns that kernel's value at the
        dtype its inference declares."""
        inputs, attrs = _call_args(op_name, dtype)
        ref = np.asarray(registry.get_kernel(op_name, "CPU")(inputs, attrs, None))
        out = _run(route, op_name, lambda: _execute(op_name, inputs, attrs))
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == ref.dtype == _declared_dtype(op_name, inputs, attrs)

    def test_every_family_member_accepts_a_dtype(self):
        members = {o for o, _ in FAMILY_CASES}
        assert members == set(
            registry.ops_with_trait(registry.ELEMENTWISE)
            + registry.ops_with_trait(registry.REDUCTION)
        )

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_sigmoid_is_the_numpy_kernel_under_tracked(self, dtype):
        # Extreme inputs: the naive 1 / (1 + exp(-x)) overflows at -1000
        # and differs from the stable kernel in the last bit at -20.
        x = np.array([-1000.0, -20.0, 0.0, 20.0], dtype=dtype)
        kernel_out = registry.get_kernel("Sigmoid", "CPU")([x], {}, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with tracked_kernels() as counts, repro.execution_mode("sync"):
                got = repro.sigmoid(repro.constant(x)).numpy()
        assert counts["Sigmoid"] == 1
        np.testing.assert_array_equal(got, kernel_out)
        np.testing.assert_allclose(got, expit(x.astype(np.float64)), rtol=1e-6)

    # The public wrappers on the same path (operand conversion included).
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES + INT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", BINARY_OPS)
    def test_binary_elementwise(self, route, op_name, fn, dtype):
        a, b = _rand(dtype, seed=1), _rand(dtype, seed=2)
        out = _run(route, op_name, lambda: fn(repro.constant(a), repro.constant(b)))
        ref = NUMPY_REFERENCE[op_name](a, b)
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == ref.dtype

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", UNARY_FLOAT_OPS)
    def test_unary_elementwise(self, route, op_name, fn, dtype):
        x = _rand(dtype)
        out = _run(route, op_name, lambda: fn(repro.constant(x)))
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, NUMPY_REFERENCE[op_name](x), rtol=4 * np.finfo(dtype).eps
        )

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES + INT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", REDUCE_OPS)
    def test_reductions_preserve_dtype(self, route, op_name, fn, dtype):
        x = _rand(dtype, shape=(3, 6))
        out = _run(route, op_name, lambda: fn(repro.constant(x), axis=1))
        np.testing.assert_allclose(
            out, NUMPY_REFERENCE[op_name](x, axis=1).astype(dtype), rtol=1e-6
        )
        # Framework convention: reductions keep the input dtype (no
        # silent int→int64 / float→float64 widening).
        assert out.dtype == dtype

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_matmul(self, route, dtype):
        a = _rand(dtype, shape=(4, 3), seed=3)
        b = _rand(dtype, shape=(3, 5), seed=4)
        out = _run(route, "MatMul", lambda: repro.matmul(repro.constant(a), repro.constant(b)))
        assert out.dtype == dtype
        np.testing.assert_allclose(out, a @ b, rtol=1e-5)

    @pytest.mark.parametrize("src,dst", [(np.float32, "int32"), (np.int32, "float64")])
    def test_cast(self, route, src, dst):
        x = _rand(src)
        out = _run(route, "Cast", lambda: repro.cast(repro.constant(x), dst))
        assert out.dtype == np.dtype(dst)
        np.testing.assert_allclose(out, x.astype(dst))

    def test_comparison_returns_bool(self, route):
        a, b = _rand(np.float32, seed=5), _rand(np.float32, seed=6)
        out = _run(route, "Less", lambda: repro.less(repro.constant(a), repro.constant(b)))
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, a < b)


class TestBackendSeam:
    """What is left where the array-backend seam was: kernels keyed by
    ``(op, device_type)``, plain host buffers, one resolution path."""

    def test_promote_types_matches_framework(self):
        # Eager dispatch types a binary op exactly as
        # ``dtypes.result_type`` does: equal dtypes, or an error.
        for a in (repro.float32, repro.float64, repro.int32):
            for b in (repro.float32, repro.float64, repro.int32):
                x = repro.constant(np.ones(3, a.as_numpy_dtype))
                y = repro.constant(np.ones(3, b.as_numpy_dtype))
                if a == b:
                    assert dtypes.result_type(a, b) is a
                    assert repro.add(x, y).dtype is a
                    continue
                with pytest.raises(TypeError):
                    dtypes.result_type(a, b)
                with pytest.raises(InvalidArgumentError, match="repro.cast"):
                    repro.add(x, y)

    def test_host_roundtrip(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = repro.constant(x)
        for back in (t.numpy(), t.gpu().cpu().numpy()):
            assert type(back) is np.ndarray
            np.testing.assert_array_equal(back, x)

    def test_tracked_counts_primitives(self):
        a = repro.constant(_rand(np.float32, shape=(4, 4), seed=8))
        with tracked_kernels(("MatMul", "Add")) as counts, repro.execution_mode("sync"):
            out = repro.add(repro.matmul(a, a, transpose_b=True), a)
            out.numpy()
        assert dict(counts) == {"MatMul": 1, "Add": 1}

    def test_tracked_buffers_are_tagged(self):
        # A kernel's output is adopted as it is: a host ndarray, tagged
        # with the device the op ran on.
        with tracked_kernels(("Mul",)), repro.execution_mode("sync"):
            a = repro.constant(np.ones((2, 2), dtype=np.float32))
            out = repro.multiply(a, a)
            on_gpu = repro.multiply(a.gpu(), a.gpu())
        assert out.device.endswith("CPU:0") and on_gpu.device.endswith("GPU:0")
        assert type(out._array) is np.ndarray
        assert type(np.asarray(out.numpy())) is np.ndarray

    def test_numpy_fallback_for_unimplemented_op(self, boom_op):
        # TestCountElem has only a CPU kernel: a GPU request resolves to
        # it under soft placement, and to nothing without.
        k = registry.resolve_kernel("TestCountElem", "GPU")
        assert k is registry.get_kernel("TestCountElem", "CPU")
        with pytest.raises(NotFoundError):
            registry.resolve_kernel("TestCountElem", "GPU", allow_soft_placement=False)
        x = repro.constant(np.arange(6, dtype=np.float32))
        with repro.execution_mode("sync"), repro.device("/gpu:0"):
            out = execute("TestCountElem", [x], {})
        assert CALLS["TestCountElem"] == 1
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_unknown_backend_rejected(self):
        # No kernel is keyed by an unknown device type, soft placement
        # or not; exact lookup raises too.
        with pytest.raises(NotFoundError):
            registry.get_kernel("Add", "no-such-device")
        with pytest.raises(NotFoundError):
            registry.resolve_kernel("Add", "no-such-device", allow_soft_placement=False)
        assert not registry.has_kernel("Add", "no-such-device")

    def test_gradients_flow_through_backend(self):
        x = repro.constant(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        with tracked_kernels(("Mul",)) as counts, repro.execution_mode("sync"):
            with repro.GradientTape() as tape:
                tape.watch(x)
                y = repro.reduce_sum(repro.multiply(x, x))
            forward = counts["Mul"]
            (g,) = tape.gradient(y, [x])
            np.testing.assert_allclose(g.numpy(), 2.0 * x.numpy())
        # The backward pass dispatches the same registered kernels.
        assert forward == 1 and counts["Mul"] > forward

    def test_staged_function_respects_backend(self):
        x = repro.constant(np.ones((8,), dtype=np.float32))
        with tracked_kernels() as counts, repro.execution_mode("sync"):

            @repro.function
            def f(a, b):
                return repro.add(repro.multiply(a, b), a)

            out = f(x, x)
            np.testing.assert_allclose(out.numpy(), 2.0 * np.ones(8))
        # Fused or not, the plan's first step allocates through the
        # registered Mul kernel (later steps may write in place).
        assert counts["Mul"] >= 1
