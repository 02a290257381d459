"""``py_func``: escaping staged computations (paper §4.7).

"``py_func`` [is] an operation that takes a Python function as an
attribute and executes it imperatively, even in the context of staged
code. ... ``py_func`` executes its Python function under a gradient
tape and as such it is differentiable."

The implementation mirrors TensorFlow's token scheme: each forward
execution runs the Python function under a fresh inner tape and parks
that tape in a per-token table; the gradient is *another* py_func that
pops the tape and asks it for input gradients.  This works identically
whether the py_func node executes eagerly or inside a graph, and graphs
containing py_funcs are flagged unserializable.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError
from repro.framework.tensor_shape import TensorShape
from repro.ops.common import kernel_result
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.tensor import Tensor, TensorBase, TensorSpec, convert_to_tensor

__all__ = ["py_func"]

_token_counter = itertools.count()
_tape_table: dict[int, tuple] = {}
_table_lock = threading.Lock()


def _py_func_infer(inputs, attrs):
    shapes = attrs.get("output_shapes")
    out = []
    for i, dt in enumerate(attrs["Tout"]):
        shape = TensorShape(None) if shapes is None else TensorShape(shapes[i])
        out.append(TensorSpec(shape, dt))
    return out


register_op(
    "EagerPyFunc",
    infer_fn=_py_func_infer,
    is_stateful=True,
    has_side_effects=True,
)


@register_kernel("EagerPyFunc")
def _py_func_kernel(inputs, attrs, device):
    from repro.core.tape import GradientTape

    fn: Callable = attrs["func"]
    tout = attrs["Tout"]
    tensors = [Tensor(arr) for arr in inputs]
    with GradientTape(persistent=True) as tape:
        for t in tensors:
            tape.watch(t)
        results = fn(*tensors)
    if not isinstance(results, (list, tuple)):
        results = [results]
    if len(results) != len(tout):
        raise InvalidArgumentError(
            f"py_func returned {len(results)} values but Tout declares {len(tout)}"
        )
    out_tensors = [convert_to_tensor(r, dtype=dt) for r, dt in zip(results, tout)]
    with _table_lock:
        _tape_table[attrs["token"]] = (tape, tensors, out_tensors)
    return kernel_result([np.asarray(t.numpy()) for t in out_tensors])


@register_gradient("EagerPyFunc")
def _py_func_grad(op, *grads):
    token = op.attrs["token"]
    in_dtypes = [t.dtype for t in op.inputs]

    def backward(*output_grads):
        with _table_lock:
            entry = _tape_table.get(token)
        if entry is None:
            raise InvalidArgumentError(
                "py_func gradient requested before (or long after) the "
                "corresponding forward execution"
            )
        tape, fwd_inputs, fwd_outputs = entry
        in_grads = tape.gradient(
            fwd_outputs,
            fwd_inputs,
            output_gradients=list(output_grads),
            unconnected_gradients="zero",
        )
        return [g for g in in_grads]

    return list(
        py_func(
            backward,
            [g if g is not None else _zeros_like_output(o) for g, o in zip(grads, op.outputs)],
            Tout=in_dtypes,
        )
    )


def _zeros_like_output(out):
    from repro.ops import array_ops

    return array_ops.zeros_like(out)


def py_func(func: Callable, inp: Sequence, Tout, output_shapes=None):
    """Wrap a Python function as a differentiable operation.

    Args:
        func: a Python callable taking and returning tensors (or values
            convertible to tensors).  Runs imperatively even when the
            surrounding computation is staged.
        inp: input tensors.
        Tout: dtype (or list of dtypes) of the outputs.
        output_shapes: optional static shapes for graph-mode inference.

    Returns:
        A tensor, or tuple of tensors when ``Tout`` is a list.
    """
    from repro.runtime.context import context
    from repro.runtime.executor import execute

    # py_func is a synchronization point of lazy eager mode: the
    # wrapped function runs arbitrary Python (prints, file writes, reads
    # of external state), so every previously recorded op — and any
    # deferred error — must land before it runs.
    # The stateful-op fallback in dispatch would flush too; syncing here
    # keeps the guarantee even when the call is staged into a graph.
    if context.executor_mode != "sync" and context.executing_eagerly():
        context.sync()

    single = not isinstance(Tout, (list, tuple))
    tout = [dtypes.as_dtype(Tout)] if single else [dtypes.as_dtype(t) for t in Tout]
    token = next(_token_counter)
    attrs = {
        "func": func,
        "Tout": tuple(tout),
        "token": token,
        "output_shapes": None
        if output_shapes is None
        else tuple(tuple(s) for s in output_shapes),
    }
    out = execute("EagerPyFunc", [convert_to_tensor(x) for x in inp], attrs)
    if single:
        return out if isinstance(out, TensorBase) else out[0]
    return out if isinstance(out, tuple) else (out,)
