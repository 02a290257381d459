"""repro: a multi-stage, Python-embedded DSL for machine learning.

A from-scratch reproduction of *TensorFlow Eager: A Multi-Stage,
Python-Embedded DSL for Machine Learning* (Agrawal et al., MLSYS 2019)
over NumPy.  Operations execute imperatively by default; the
:func:`function` decorator traces Python functions into optimized,
executable dataflow graphs; :class:`GradientTape` provides tracing-based
reverse-mode automatic differentiation through both.

Quickstart::

    import repro

    x = repro.constant([[2.0], [-2.0]])
    A = repro.constant([[1.0, 0.0]])
    print(repro.matmul(A, x))           # executes immediately

    @repro.function                      # stage as a dataflow graph
    def select(v):
        return repro.matmul(A, v)

    print(select(x))                     # executes the graph

    v = repro.Variable(3.0)
    with repro.GradientTape() as tape:
        y = v * v
    print(tape.gradient(y, v))           # 6.0
"""

from repro.framework import dtypes
from repro.framework.dtypes import (
    bool_,
    complex64,
    complex128,
    float16,
    float32,
    float64,
    int8,
    int16,
    int32,
    int64,
    uint8,
)
from repro.framework.errors import ReproError
from repro.framework import errors
from repro.framework import nest
from repro.framework.tensor_shape import TensorShape
from repro.tensor import Tensor, TensorSpec, convert_to_tensor

from repro.runtime import (
    device,
    executing_eagerly,
    execution_mode,
    list_devices,
    set_random_seed,
    sync,
)

# Importing ops registers the full operation set.
import repro.ops  # noqa: F401
from repro.ops.array_ops import (
    boolean_mask,
    broadcast_to,
    concat,
    constant,
    diag,
    diag_part,
    expand_dims,
    eye,
    fill,
    gather,
    identity,
    one_hot,
    ones,
    ones_like,
    pad,
    range,
    rank,
    reshape,
    shape,
    size,
    split,
    squeeze,
    stack,
    stop_gradient,
    tile,
    transpose,
    unstack,
    where,
    zeros,
    zeros_like,
)
from repro.ops.math_ops import (
    abs,
    add,
    add_n,
    argmax,
    argmin,
    cast,
    ceil,
    clip_by_value,
    cos,
    cumsum,
    divide,
    equal,
    erf,
    exp,
    floor,
    greater,
    greater_equal,
    less,
    less_equal,
    log,
    log1p,
    logical_and,
    logical_not,
    logical_or,
    matmul,
    maximum,
    minimum,
    multiply,
    negative,
    not_equal,
    pow,
    reciprocal,
    reduce_all,
    reduce_any,
    reduce_logsumexp,
    reduce_max,
    reduce_mean,
    reduce_min,
    reduce_prod,
    reduce_sum,
    round,
    rsqrt,
    sigmoid,
    sign,
    sin,
    sqrt,
    square,
    squared_difference,
    subtract,
    tanh,
    tensordot,
)
from repro.ops.random_ops import random_normal, random_uniform, truncated_normal
from repro.ops.sort_ops import argsort, cumprod, sort, top_k
from repro.ops.math_ops import einsum
from repro.ops import linalg_ops as linalg
from repro.ops.control_flow import cond, while_loop
from repro.ops.script_ops import py_func

from repro.core import (
    CompilationPipeline,
    ConcreteFunction,
    ForwardAccumulator,
    FuncGraph,
    GradientTape,
    RetraceWarning,
    Variable,
    function,
    hvp,
    init_scope,
    jacobian,
    jvp,
    recompute_grad,
)

from repro.graph import Graph, GraphFunction
from repro.core import saved_function
from repro import autograph
from repro.autograph import AutographError
from repro.tensor import TraceSpecializationWarning
from repro.runtime import profiler
from repro import serving

__version__ = "0.1.0"
