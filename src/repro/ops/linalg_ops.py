"""Linear-algebra operations with gradients.

Dense decompositions and solvers over the batched matrix layout NumPy
uses (leading dimensions broadcast).  Gradient rules follow the standard
matrix-calculus results (Giles 2008, "Collected matrix derivative
results for forward and reverse mode algorithmic differentiation"):

* ``MatrixInverse``:  dA = -A^{-T} dY A^{-T}
* ``Cholesky``:       via the Phi-operator construction
* ``MatrixSolve``:    dA = -A^{-T} dX X^T,  dB = A^{-T} dX
* ``LogDet``:         dA = dy * A^{-T}
* ``MatrixTriangularSolve``: masked variant of solve
"""

from __future__ import annotations


import numpy as np

from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.ops.common import simple_kernel
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.runtime.executor import execute
from repro.tensor import TensorSpec, convert_to_tensor

__all__ = [
    "matrix_inverse",
    "cholesky",
    "matrix_solve",
    "matrix_triangular_solve",
    "logdet",
    "matrix_determinant",
    "matrix_transpose",
    "trace",
    "band_part",
]


def _convert(x):
    return convert_to_tensor(x)


def _square_matrix_infer(inputs, attrs):
    (a,) = inputs
    s = TensorShape(a.shape)
    if s.rank is not None and s.rank >= 2:
        m, n = s[-2], s[-1]
        if m is not None and n is not None and m != n:
            raise InvalidArgumentError(f"Expected a square matrix, got {s}")
    return [TensorSpec(s, a.dtype)]


def _reduce_last_two_infer(inputs, attrs):
    (a,) = inputs
    s = TensorShape(a.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), a.dtype)]
    return [TensorSpec(TensorShape(s.dims[:-2]), a.dtype)]


# -- MatrixInverse -----------------------------------------------------------

register_op("MatrixInverse", infer_fn=_square_matrix_infer)
register_kernel("MatrixInverse")(simple_kernel(np.linalg.inv))


@register_gradient("MatrixInverse")
def _matrix_inverse_grad(op, grad):
    from repro.ops import math_ops

    inv = op.outputs[0]
    inv_t = matrix_transpose(inv)
    return [
        math_ops.negative(
            math_ops.matmul(math_ops.matmul(inv_t, grad), inv_t)
        )
    ]


def matrix_inverse(a):
    """Inverse of (a batch of) square matrices."""
    return execute("MatrixInverse", [_convert(a)])


# -- Cholesky ----------------------------------------------------------------

register_op("Cholesky", infer_fn=_square_matrix_infer)
register_kernel("Cholesky")(simple_kernel(np.linalg.cholesky))


@register_gradient("Cholesky")
def _cholesky_grad(op, grad):
    """Reverse-mode rule of Iain Murray (2016), 'Differentiation of the
    Cholesky decomposition', blocked form collapsed to the dense case."""
    from repro.ops import math_ops

    L = op.outputs[0]
    L_t = matrix_transpose(L)
    # Phi(X): lower triangle with halved diagonal.
    inner = math_ops.matmul(L_t, grad)
    phi = band_part(inner, -1, 0) - 0.5 * band_part(inner, 0, 0)
    L_inv_t = matrix_inverse(L_t)
    middle = math_ops.matmul(math_ops.matmul(L_inv_t, phi), matrix_inverse(L))
    sym = 0.5 * (middle + matrix_transpose(middle))
    return [sym]


def cholesky(a):
    """Lower-triangular Cholesky factor of SPD matrices."""
    return execute("Cholesky", [_convert(a)])


# -- Solves ------------------------------------------------------------------

def _solve_infer(inputs, attrs):
    a, b = inputs
    return [TensorSpec(TensorShape(b.shape), b.dtype)]


register_op("MatrixSolve", infer_fn=_solve_infer)
register_kernel("MatrixSolve")(simple_kernel(np.linalg.solve))


@register_gradient("MatrixSolve")
def _matrix_solve_grad(op, grad):
    from repro.ops import math_ops

    a = op.inputs[0]
    x = op.outputs[0]
    # dB = A^{-T} grad; dA = -dB X^T
    db = matrix_solve(matrix_transpose(a), grad)
    da = math_ops.negative(math_ops.matmul(db, x, transpose_b=True))
    return [da, db]


def matrix_solve(a, b):
    """Solve ``A X = B`` for square ``A``."""
    return execute("MatrixSolve", [_convert(a), _convert(b)])


register_op("MatrixTriangularSolve", infer_fn=_solve_infer)


@register_kernel("MatrixTriangularSolve")
def _triangular_solve_kernel(inputs, attrs, device):
    a, b = inputs
    try:
        from scipy.linalg import solve_triangular

        if a.ndim == 2:
            return solve_triangular(a, b, lower=attrs["lower"])
    except ImportError:  # pragma: no cover - scipy is available in CI
        pass
    return np.linalg.solve(a, b)  # batched or no-scipy fallback


@register_gradient("MatrixTriangularSolve")
def _triangular_solve_grad(op, grad):
    from repro.ops import math_ops

    a = op.inputs[0]
    x = op.outputs[0]
    lower = op.attrs["lower"]
    db = matrix_triangular_solve(matrix_transpose(a), grad, lower=not lower)
    da_full = math_ops.negative(math_ops.matmul(db, x, transpose_b=True))
    da = band_part(da_full, -1, 0) if lower else band_part(da_full, 0, -1)
    return [da, db]


def matrix_triangular_solve(a, b, lower: bool = True):
    """Solve ``A X = B`` where ``A`` is (lower/upper) triangular."""
    return execute(
        "MatrixTriangularSolve",
        [_convert(a), _convert(b)],
        {"lower": bool(lower)},
    )


# -- Determinants --------------------------------------------------------------

register_op("LogDet", infer_fn=_reduce_last_two_infer)


@register_kernel("LogDet")
def _logdet_kernel(inputs, attrs, device):
    (a,) = inputs
    sign, logabs = np.linalg.slogdet(a)
    if np.any(sign <= 0):
        raise InvalidArgumentError(
            "logdet requires matrices with positive determinant"
        )
    return logabs.astype(a.dtype)


@register_gradient("LogDet")
def _logdet_grad(op, grad):
    from repro.ops import array_ops, math_ops

    a = op.inputs[0]
    inv_t = matrix_transpose(matrix_inverse(a))
    g = array_ops.reshape(
        grad, _batch_shape_plus(grad, [1, 1])
    ) if grad.shape.rank is not None else grad
    return [g * inv_t]


def _batch_shape_plus(t, extra):
    dims = list(t.shape.as_list()) if t.shape.rank is not None else []
    return dims + extra


register_op("MatrixDeterminant", infer_fn=_reduce_last_two_infer)
register_kernel("MatrixDeterminant")(
    simple_kernel(lambda a: np.asarray(np.linalg.det(a), dtype=a.dtype))
)


@register_gradient("MatrixDeterminant")
def _det_grad(op, grad):
    from repro.ops import array_ops

    a = op.inputs[0]
    det = op.outputs[0]
    inv_t = matrix_transpose(matrix_inverse(a))
    scale = grad * det
    scale = array_ops.reshape(scale, _batch_shape_plus(scale, [1, 1]))
    return [scale * inv_t]


def logdet(a):
    """``log(det(A))`` for positive-determinant square matrices."""
    return execute("LogDet", [_convert(a)])


def matrix_determinant(a):
    """Determinant of (a batch of) square matrices."""
    return execute("MatrixDeterminant", [_convert(a)])


# -- Structure helpers ----------------------------------------------------------

def matrix_transpose(a):
    """Swap the last two dimensions."""
    from repro.ops import array_ops

    a = _convert(a)
    rank = a.shape.rank
    if rank is None or rank < 2:
        raise InvalidArgumentError("matrix_transpose requires rank >= 2")
    perm = list(range(rank - 2)) + [rank - 1, rank - 2]
    return array_ops.transpose(a, perm)


def trace(a):
    """Sum of the diagonal of the last two dimensions."""
    from repro.ops import math_ops

    a = _convert(a)
    return math_ops.reduce_sum(
        execute("BandDiagPart", [a]), axis=-1
    )


def _band_diag_infer(inputs, attrs):
    (a,) = inputs
    s = TensorShape(a.shape)
    if s.rank is None:
        return [TensorSpec(TensorShape(None), a.dtype)]
    m, n = s[-2], s[-1]
    k = None if (m is None or n is None) else min(m, n)
    return [TensorSpec(TensorShape(list(s.dims[:-2]) + [k]), a.dtype)]


register_op("BandDiagPart", infer_fn=_band_diag_infer)
register_kernel("BandDiagPart")(
    simple_kernel(lambda a: np.diagonal(a, axis1=-2, axis2=-1).copy())
)


@register_gradient("BandDiagPart")
def _band_diag_grad(op, grad):
    a = op.inputs[0]
    if not a.shape.is_fully_defined:
        raise InvalidArgumentError("trace gradient needs a static input shape")
    dims = tuple(a.shape.as_list())
    return [execute("ScatterDiag", [grad], {"dims": dims, "dtype": a.dtype})]


register_op(
    "ScatterDiag",
    infer_fn=lambda inputs, attrs: [
        TensorSpec(TensorShape(attrs["dims"]), attrs["dtype"])
    ],
)


@register_kernel("ScatterDiag")
def _scatter_diag_kernel(inputs, attrs, device):
    (grad,) = inputs
    dims = attrs["dims"]
    out = np.zeros(dims, dtype=attrs["dtype"].as_numpy_dtype)
    idx = np.arange(min(dims[-2], dims[-1]))
    out[..., idx, idx] = grad
    return out


def _band_part_infer(inputs, attrs):
    (a,) = inputs
    return [TensorSpec(TensorShape(a.shape), a.dtype)]


register_op("BandPart", infer_fn=_band_part_infer)


@register_kernel("BandPart")
def _band_part_kernel(inputs, attrs, device):
    (a,) = inputs
    lower, upper = attrs["num_lower"], attrs["num_upper"]
    m, n = a.shape[-2], a.shape[-1]
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    keep_lower = (rows - cols) <= lower if lower >= 0 else np.ones((m, n), bool)
    keep_upper = (cols - rows) <= upper if upper >= 0 else np.ones((m, n), bool)
    return a * (keep_lower & keep_upper)


@register_gradient("BandPart")
def _band_part_grad(op, grad):
    return [execute("BandPart", [grad], dict(op.attrs))]


def band_part(a, num_lower: int, num_upper: int):
    """Keep a diagonal band of each matrix (negative = keep all)."""
    return execute(
        "BandPart",
        [_convert(a)],
        {"num_lower": int(num_lower), "num_upper": int(num_upper)},
    )
