"""Backend conformance matrix.

Every registered :class:`ArrayBackend` must produce bit-equal results
with the NumPy backend for every member of the elementwise and
reduction op families at every dtype the op is well-typed at, fall
back to NumPy kernels for ops it does not route, and round-trip host
buffers faithfully.  The ``tracked``
backend doubles as the pluggability witness: its primitive counters
prove ops were actually routed through the backend seam rather than
silently falling back.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.backend import base, list_backends
from repro.backend.tracked import TRACKED_BACKEND, TrackedArray
from repro.framework import dtypes
from repro.ops import common, registry
from repro.runtime.context import context
from repro.runtime.executor import execute
from repro.tensor import TensorSpec

ALL_BACKENDS = sorted(list_backends())

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


@pytest.fixture(params=ALL_BACKENDS)
def backend_name(request):
    context.kernel_backend = request.param
    TRACKED_BACKEND.reset_stats()
    yield request.param
    context._kernel_backend = "numpy"


def _rand(dtype, shape=(4, 5), seed=7):
    rng = np.random.default_rng(seed)
    if dtype == np.bool_:
        return rng.random(shape) > 0.5
    if np.issubdtype(dtype, np.integer):
        return rng.integers(1, 9, size=shape).astype(dtype)
    return (rng.random(shape) + 0.25).astype(dtype)


def _on_numpy(thunk):
    """``thunk()``'s result computed on the NumPy backend (the reference)."""
    context.kernel_backend = "numpy"
    return thunk().numpy()


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


def _accepts(op_name, dtype) -> bool:
    """Is the op well-typed at ``dtype``: its NumPy kernel runs without a
    floating-point error and returns the dtype its inference declares?"""
    inputs, attrs = _call_args(op_name, dtype)
    specs = [TensorSpec(a.shape, dtypes.as_dtype(a.dtype)) for a in inputs]
    try:
        with np.errstate(all="raise"):
            out = registry.get_kernel(op_name, "CPU")(inputs, attrs, None)
    except (TypeError, ValueError, ArithmeticError):
        return False
    (spec,) = registry.get_op_def(op_name).infer(specs, attrs)
    return np.asarray(out).dtype == spec.dtype.as_numpy_dtype


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
    # Sync: the routing witness needs the op itself dispatched, not a
    # lazy segment the optimizer may shrink.
    with repro.execution_mode("sync"):
        return execute(op_name, [repro.constant(a) for a in arrays], attrs)


class TestKernelMatrix:
    @pytest.mark.parametrize(
        "op_name,dtype", FAMILY_CASES, ids=[f"{o}-{np.dtype(d)}" for o, d in FAMILY_CASES]
    )
    def test_family_member_matches_numpy(self, backend_name, op_name, dtype):
        """Every ELEMENTWISE/REDUCTION member is routed through the active
        backend and bit-equal to the NumPy backend."""
        inputs, attrs = _call_args(op_name, dtype)
        out = _execute(op_name, inputs, attrs).numpy()
        if backend_name == "tracked":
            assert TRACKED_BACKEND.primitive_calls[op_name] == 1
        ref = _on_numpy(lambda: _execute(op_name, inputs, attrs))
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == ref.dtype

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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            context.kernel_backend = "tracked"
            got = repro.sigmoid(repro.constant(x)).numpy()
            ref = _on_numpy(lambda: repro.sigmoid(repro.constant(x)))
        np.testing.assert_array_equal(got, ref)

    # The public wrappers on the same seam (operand conversion included).
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES + INT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", BINARY_OPS)
    def test_binary_elementwise(self, backend_name, op_name, fn, dtype):
        a, b = _rand(dtype, seed=1), _rand(dtype, seed=2)
        out = fn(repro.constant(a), repro.constant(b)).numpy()
        ref = _on_numpy(lambda: fn(repro.constant(a), repro.constant(b)))
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == ref.dtype

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", UNARY_FLOAT_OPS)
    def test_unary_elementwise(self, backend_name, op_name, fn, dtype):
        x = _rand(dtype)
        out = fn(repro.constant(x)).numpy()
        np.testing.assert_array_equal(out, _on_numpy(lambda: fn(repro.constant(x))))

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES + INT_DTYPES)
    @pytest.mark.parametrize("op_name,fn", REDUCE_OPS)
    def test_reductions_preserve_dtype(self, backend_name, op_name, fn, dtype):
        x = _rand(dtype, shape=(3, 6))
        out = fn(repro.constant(x), axis=1).numpy()
        np.testing.assert_array_equal(
            out, _on_numpy(lambda: fn(repro.constant(x), axis=1))
        )
        # Framework convention: reductions keep the input dtype (no
        # silent int→int64 / float→float64 widening).
        assert out.dtype == dtype

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES)
    def test_matmul(self, backend_name, dtype):
        a = _rand(dtype, shape=(4, 3), seed=3)
        b = _rand(dtype, shape=(3, 5), seed=4)
        out = repro.matmul(repro.constant(a), repro.constant(b)).numpy()
        np.testing.assert_allclose(out, a @ b, rtol=1e-5)

    @pytest.mark.parametrize("src,dst", [(np.float32, "int32"), (np.int32, "float64")])
    def test_cast(self, backend_name, src, dst):
        x = _rand(src)
        out = repro.cast(repro.constant(x), dst).numpy()
        np.testing.assert_allclose(out, x.astype(dst))

    def test_comparison_returns_bool(self, backend_name):
        a, b = _rand(np.float32, seed=5), _rand(np.float32, seed=6)
        out = repro.less(repro.constant(a), repro.constant(b)).numpy()
        assert out.dtype == np.bool_
        np.testing.assert_array_equal(out, a < b)


class TestBackendSeam:
    def test_promote_types_matches_framework(self):
        for name in ALL_BACKENDS:
            be = base.get_backend(name)
            assert be.promote_types(repro.float32, repro.float32) is repro.float32
            with pytest.raises(TypeError):
                be.promote_types(repro.float32, repro.float64)

    def test_host_roundtrip(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        for name in ALL_BACKENDS:
            be = base.get_backend(name)
            dev = be.from_host(x)
            back = be.to_host(dev)
            np.testing.assert_array_equal(back, x)

    def test_tracked_counts_primitives(self):
        context.kernel_backend = "tracked"
        TRACKED_BACKEND.reset_stats()
        a = repro.constant(_rand(np.float32, shape=(4, 4), seed=8))
        out = repro.add(repro.matmul(a, a, transpose_b=True), a)
        out.numpy()
        calls = dict(TRACKED_BACKEND.primitive_calls)
        assert calls.get("MatMul", 0) >= 1
        assert calls.get("Add", 0) >= 1

    def test_tracked_buffers_are_tagged(self):
        context.kernel_backend = "tracked"
        a = repro.constant(np.ones((2, 2), dtype=np.float32))
        out = repro.multiply(a, a)
        assert out.backend == "tracked"
        assert isinstance(out._array, TrackedArray)
        # .numpy() hands back a plain host ndarray.
        assert type(np.asarray(out.numpy())) is np.ndarray

    def test_numpy_fallback_for_unimplemented_op(self):
        # Reshape has no tracked-backend kernel; resolution must fall
        # back to the numpy kernel rather than fail.
        context.kernel_backend = "tracked"
        k = registry.resolve_kernel("Reshape", "CPU")
        assert k is registry.get_kernel("Reshape", "CPU", backend="numpy")
        x = repro.constant(np.arange(6, dtype=np.float32))
        out = repro.reshape(x, [2, 3])
        assert out.shape.as_list() == [2, 3]

    def test_unknown_backend_rejected(self):
        context.kernel_backend = "numpy"
        with pytest.raises(Exception):
            context.kernel_backend = "no-such-backend"
        assert context.kernel_backend == "numpy"

    def test_gradients_flow_through_backend(self):
        context.kernel_backend = "tracked"
        x = repro.constant(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        with repro.GradientTape() as tape:
            tape.watch(x)
            y = repro.reduce_sum(repro.multiply(x, x))
        (g,) = tape.gradient(y, [x])
        np.testing.assert_allclose(g.numpy(), 2.0 * x.numpy())

    def test_staged_function_respects_backend(self):
        context.kernel_backend = "tracked"
        TRACKED_BACKEND.reset_stats()

        @repro.function
        def f(a, b):
            return repro.add(repro.multiply(a, b), a)

        x = repro.constant(np.ones((8,), dtype=np.float32))
        out = f(x, x)
        np.testing.assert_allclose(out.numpy(), 2.0 * np.ones(8))
        assert TRACKED_BACKEND.total_calls() >= 1
