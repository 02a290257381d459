"""Control flow: ``cond`` and ``while_loop``.

Under imperative execution these are ordinary Python control flow over
concrete values.  Inside a trace, Python ``if``/``while`` on tensor
values cannot work (the trace sees symbolic tensors), so "conditionals
that depend on the value of tensors will need to be written using
``tf.cond``, and while loops that depend on tensor values will need to
be rewritten in terms of ``tf.while_loops``" (paper §4.1).  The staged
forms trace each branch/body into its own graph function and emit a
single ``Cond``/``While`` operation whose kernel interprets them.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.framework import dtypes, nest
from repro.framework.errors import InvalidArgumentError
from repro.ops.registry import register_gradient, register_kernel, register_op
from repro.runtime.context import context
from repro.tensor import Tensor, TensorSpec, convert_to_tensor

__all__ = ["cond", "while_loop"]


def _wrap_kernel_inputs(arrays, specs, device):
    return [
        Tensor._from_buffer(arr, spec.dtype, device)
        for arr, spec in zip(arrays, specs)
    ]


# ---------------------------------------------------------------------------
# Cond
# ---------------------------------------------------------------------------

def _cond_infer(inputs, attrs):
    true_fn = attrs["true_fn"]
    false_fn = attrs["false_fn"]
    specs = []
    for t, f in zip(true_fn.output_specs, false_fn.output_specs):
        if t.dtype != f.dtype:
            raise InvalidArgumentError(
                f"cond branches return mismatched dtypes: {t.dtype} vs {f.dtype}"
            )
        specs.append(TensorSpec(t.shape.most_general(f.shape), t.dtype))
    return specs


register_op("Cond", infer_fn=_cond_infer, is_stateful=True, has_side_effects=True)


@register_kernel("Cond")
def _cond_kernel(inputs, attrs, device):
    pred = bool(inputs[0].reshape(())[()])
    n_true = attrs["n_true"]
    fn = attrs["true_fn"] if pred else attrs["false_fn"]
    args = inputs[1 : 1 + n_true] if pred else inputs[1 + n_true :]
    tensors = _wrap_kernel_inputs(args, fn.input_specs, device)
    return list(fn.run(tensors))


@register_gradient("Cond")
def _cond_grad(op, *grads):
    from repro.core import backprop
    from repro.ops import array_ops
    from repro.ops.functional_ops import call_graph_function

    attrs = op.attrs
    pred = op.inputs[0]
    n_true = attrs["n_true"]
    ext_true = list(op.inputs[1 : 1 + n_true])
    ext_false = list(op.inputs[1 + n_true :])

    seeds = [
        g if g is not None else array_ops.zeros_like(out)
        for g, out in zip(grads, op.outputs)
        if out.dtype.is_differentiable
    ]

    def branch_backward(fn_key: str, externals):
        fn = attrs[fn_key]
        cached = getattr(fn, "_remat_backward", None)
        if cached is None:
            cached = backprop.build_rematerializing_backward(fn)
            fn._remat_backward = cached
        backward, mask, _ = cached
        produced = list(call_graph_function(backward, externals + seeds))
        out = []
        it = iter(produced)
        for ext, has_grad in zip(externals, mask):
            g = next(it) if has_grad else None
            if g is None and ext.dtype.is_differentiable:
                g = array_ops.zeros_like(ext)
            out.append(g)
        return out

    diff_true = [t.dtype.is_differentiable for t in ext_true]
    diff_false = [t.dtype.is_differentiable for t in ext_false]

    def true_branch():
        gt = branch_backward("true_fn", ext_true)
        gf = [array_ops.zeros_like(e) if d else None for e, d in zip(ext_false, diff_false)]
        return [g for g in gt if g is not None] + [g for g in gf if g is not None]

    def false_branch():
        gt = [array_ops.zeros_like(e) if d else None for e, d in zip(ext_true, diff_true)]
        gf = branch_backward("false_fn", ext_false)
        return [g for g in gt if g is not None] + [g for g in gf if g is not None]

    combined = cond(pred, true_branch, false_branch)
    if not isinstance(combined, (list, tuple)):
        combined = [combined]
    result = [None]  # no gradient for the predicate
    it = iter(combined)
    for d in diff_true + diff_false:
        result.append(next(it) if d else None)
    return result


def _trace_branch(fn: Callable, name: str):
    from repro.core import tracing
    from repro.graph.function import GraphFunction

    graph, flat_outputs, structure = tracing.trace_into_graph(fn, [], name=name)
    gf = GraphFunction(
        name=name,
        graph=graph,
        inputs=list(graph.capture_placeholders),
        outputs=flat_outputs,
    )
    return gf, list(graph.captured_externals), structure


def cond(pred, true_fn: Callable, false_fn: Callable):
    """Run ``true_fn`` if ``pred`` is true, else ``false_fn``.

    Imperatively this is a Python conditional; inside a trace it stages
    both branches and emits a single data-dependent ``Cond`` operation.
    """
    pred = convert_to_tensor(pred)
    if context.executing_eagerly() and isinstance(pred, Tensor):
        return true_fn() if bool(pred) else false_fn()

    from repro.runtime.executor import execute

    gf_true, ext_true, struct_true = _trace_branch(true_fn, "cond_true")
    gf_false, ext_false, struct_false = _trace_branch(false_fn, "cond_false")
    if len(gf_true.outputs) != len(gf_false.outputs):
        raise InvalidArgumentError(
            "cond branches must return the same number of tensors "
            f"({len(gf_true.outputs)} vs {len(gf_false.outputs)})"
        )
    try:
        nest.assert_same_structure(struct_true, struct_false)
    except ValueError as exc:
        raise InvalidArgumentError(
            f"cond branches returned different structures: {exc}"
        ) from exc
    out = execute(
        "Cond",
        [pred] + ext_true + ext_false,
        {
            "true_fn": gf_true,
            "false_fn": gf_false,
            "n_true": len(ext_true),
        },
    )
    flat = list(out) if isinstance(out, tuple) else [out]

    def restore(leaf):
        return None if leaf is None else flat[leaf]

    if not nest.is_nested(struct_true):
        return restore(struct_true)
    return nest.map_structure(restore, struct_true)


# ---------------------------------------------------------------------------
# While
# ---------------------------------------------------------------------------

def _while_infer(inputs, attrs):
    body = attrs["body_fn"]
    n_vars = attrs["n_vars"]
    # Loop-carried shapes are the merge of the initial values and the
    # body outputs (a dimension that changes across iterations is None).
    specs = []
    for init, out in zip(inputs[:n_vars], body.output_specs[:n_vars]):
        specs.append(
            TensorSpec(TensorShape_most_general(init.shape, out.shape), out.dtype)
        )
    return specs


def TensorShape_most_general(a, b):
    from repro.framework.tensor_shape import TensorShape

    return TensorShape(a).most_general(TensorShape(b))


register_op("While", infer_fn=_while_infer, is_stateful=True, has_side_effects=True)


@register_kernel("While")
def _while_kernel(inputs, attrs, device):
    cond_fn = attrs["cond_fn"]
    body_fn = attrs["body_fn"]
    n_vars = attrs["n_vars"]
    n_cond_caps = attrs["n_cond_caps"]
    max_iters = attrs.get("maximum_iterations")

    # Wrap once; iterate over Tensor objects (variant-safe: tensor-list
    # loop variables never round-trip through NumPy).
    var_dtypes = [spec.dtype for spec in body_fn.input_specs[:n_vars]]
    loop_vars = [
        Tensor._from_buffer(arr, dt, device)
        for arr, dt in zip(inputs[:n_vars], var_dtypes)
    ]
    cond_caps = _wrap_kernel_inputs(
        inputs[n_vars : n_vars + n_cond_caps], cond_fn.input_specs[n_vars:], device
    )
    body_caps = _wrap_kernel_inputs(
        inputs[n_vars + n_cond_caps :], body_fn.input_specs[n_vars:], device
    )

    iterations = 0
    while True:
        keep_going = cond_fn.run(loop_vars + cond_caps)[0]
        if not bool(np.asarray(keep_going.numpy()).reshape(())[()]):
            break
        if max_iters is not None and iterations >= max_iters:
            break
        loop_vars = list(body_fn.run(loop_vars + body_caps)[:n_vars])
        iterations += 1
    return loop_vars


@register_gradient("While")
def _while_grad(op, *grads):
    """Reverse-mode through a staged While via tensor-list stacks.

    The standard construction: an *augmented* forward loop re-runs the
    iterations (rematerialization), pushing each iteration's loop-
    variable values onto per-variable tensor lists; a backward loop then
    pops them in reverse, applying the body's (rematerializing) backward
    function and accumulating capture gradients.
    """
    from repro.core import backprop
    from repro.ops import array_ops, list_ops, math_ops
    from repro.ops.functional_ops import call_graph_function

    attrs = op.attrs
    cond_fn = attrs["cond_fn"]
    body_fn = attrs["body_fn"]
    n_vars = attrs["n_vars"]
    n_cond_caps = attrs["n_cond_caps"]
    max_iters = attrs.get("maximum_iterations")

    vars_in = list(op.inputs[:n_vars])
    cond_caps = list(op.inputs[n_vars : n_vars + n_cond_caps])
    body_caps = list(op.inputs[n_vars + n_cond_caps :])
    # Variant loop variables (tensor lists of per-iteration outputs)
    # carry list-valued gradients through the backward loop.
    diff_var = [
        t.dtype.is_differentiable or t.dtype == dtypes.variant
        for t in op.outputs
    ]

    cached = getattr(body_fn, "_remat_backward", None)
    if cached is None:
        cached = backprop.build_rematerializing_backward(body_fn)
        body_fn._remat_backward = cached
    body_backward, in_mask, out_diff_idx = cached

    # A capture has a gradient iff the body's backward produces one for
    # it — this covers variable handles, whose "gradient" is shaped like
    # the variable's value (the backward's output spec tells us how).
    # List-valued capture gradients cannot accumulate across iterations,
    # so variant-grad captures are excluded.
    cap_grad_specs = {}
    produced_pos = 0
    for i, has in enumerate(in_mask):
        if has:
            if i >= n_vars:
                cap_grad_specs[i - n_vars] = body_backward.output_specs[produced_pos]
            produced_pos += 1
    diff_cap = [
        in_mask[n_vars + j]
        and cap_grad_specs.get(j) is not None
        and cap_grad_specs[j].dtype != dtypes.variant
        for j in range(len(body_caps))
    ]

    # ---- Phase 1: augmented forward replay, stacking pre-body values.
    def aug_cond(*args):
        vals = list(args[:n_vars])
        return call_graph_function(cond_fn, vals + cond_caps)[0]

    def aug_body(*args):
        vals = list(args[:n_vars])
        lists = list(args[n_vars:])
        new_lists = [
            list_ops.tensor_list_push_back(lst, v) for lst, v in zip(lists, vals)
        ]
        new_vals = list(call_graph_function(body_fn, vals + body_caps))
        return tuple(new_vals + new_lists)

    init_lists = [list_ops.empty_tensor_list() for _ in range(n_vars)]
    aug_out = while_loop(
        aug_cond,
        aug_body,
        tuple(vars_in + init_lists),
        maximum_iterations=max_iters,
    )
    stacks = list(aug_out[n_vars:])

    # ---- Phase 2: backward loop, popping in reverse.
    var_grads = [
        g if g is not None else (backprop.zero_seed(o) if d else None)
        for g, o, d in zip(grads, op.outputs, diff_var)
    ]
    cap_grad_init = []
    for j, d in enumerate(diff_cap):
        if not d:
            cap_grad_init.append(None)
            continue
        spec = cap_grad_specs[j]
        if spec.shape.is_fully_defined:
            cap_grad_init.append(array_ops.zeros(spec.shape.as_list(), dtype=spec.dtype))
        else:
            cap_grad_init.append(array_ops.zeros_like(body_caps[j]))
    live_vg = [g for g in var_grads if g is not None]
    live_cg = [g for g in cap_grad_init if g is not None]
    state_init = tuple(stacks + live_vg + live_cg)

    def bw_cond(*state):
        return math_ops.greater(
            list_ops.tensor_list_length(state[0]), array_ops.constant(0, dtype=dtypes.int32)
        )

    def bw_body(*state):
        lists = list(state[:n_vars])
        rest = list(state[n_vars:])
        vg = list(rest[: len(live_vg)])
        cg = list(rest[len(live_vg) :])
        # Pop iteration-k inputs.
        popped = []
        new_lists = []
        for i, lst in enumerate(lists):
            lst, value = list_ops.tensor_list_pop_back(
                lst, element_dtype=op.outputs[i].dtype
            )
            new_lists.append(lst)
            popped.append(value)
        # Seed grads for the body's differentiable outputs.
        full_vg = []
        it = iter(vg)
        for d in diff_var:
            full_vg.append(next(it) if d else None)
        seeds = []
        for idx in out_diff_idx:
            g = full_vg[idx]
            seeds.append(g if g is not None else backprop.zero_seed(popped[idx]))
        produced = list(
            call_graph_function(body_backward, popped + body_caps + seeds)
        )
        # Scatter produced grads back to (vars..., caps...).
        in_grads = []
        it = iter(produced)
        for has in in_mask:
            in_grads.append(next(it) if has else None)
        new_vg = []
        for i, d in enumerate(diff_var):
            if not d:
                continue
            g = in_grads[i]
            new_vg.append(g if g is not None else backprop.zero_seed(popped[i]))
        new_cg = []
        ci = 0
        for j, d in enumerate(diff_cap):
            if not d:
                continue
            g = in_grads[n_vars + j]
            acc = cg[ci]
            new_cg.append(acc + g if g is not None else acc)
            ci += 1
        return tuple(new_lists + new_vg + new_cg)

    final_state = while_loop(bw_cond, bw_body, state_init)
    final_state = list(final_state)
    out_vg = final_state[n_vars : n_vars + len(live_vg)]
    out_cg = final_state[n_vars + len(live_vg) :]

    result = []
    it = iter(out_vg)
    for d in diff_var:
        result.append(next(it) if d else None)
    result.extend([None] * n_cond_caps)
    it = iter(out_cg)
    for d in diff_cap:
        result.append(next(it) if d else None)
    return result


def while_loop(
    cond_fn: Callable,
    body_fn: Callable,
    loop_vars: Sequence,
    maximum_iterations=None,
):
    """Repeat ``body_fn`` while ``cond_fn`` holds, over loop-carried values.

    Imperatively this is a Python loop.  Inside a trace it emits a
    single ``While`` operation, keeping the graph size constant no
    matter the trip count (unlike a Python loop, which the tracer
    "fully unrolls ... potentially creating large graphs", §4.1).
    """
    flat_vars = [convert_to_tensor(v) for v in nest.flatten(loop_vars)]
    structure = loop_vars

    if context.executing_eagerly() and all(isinstance(v, Tensor) for v in flat_vars):
        iterations = 0
        values = nest.pack_sequence_as(structure, flat_vars)
        while bool(_call_structured(cond_fn, values, structure)):
            if maximum_iterations is not None and iterations >= maximum_iterations:
                break
            result = _call_structured(body_fn, values, structure)
            flat_result = [convert_to_tensor(v) for v in nest.flatten(result)]
            if len(flat_result) != len(flat_vars):
                raise InvalidArgumentError(
                    "while_loop body must return the same structure as loop_vars"
                )
            values = nest.pack_sequence_as(structure, flat_result)
            iterations += 1
        return values

    # Staged path: trace condition and body over placeholder loop vars.
    from repro.core import tracing
    from repro.graph.function import GraphFunction
    from repro.runtime.executor import execute

    specs = [TensorSpec(v.shape, v.dtype) for v in flat_vars]
    n_vars = len(flat_vars)

    def cond_wrapper(*vars_flat):
        return cond_fn(*_unpack(structure, vars_flat))

    def body_wrapper(*vars_flat):
        result = body_fn(*_unpack(structure, vars_flat))
        flat_result = nest.flatten(result)
        if len(flat_result) != n_vars:
            raise InvalidArgumentError(
                "while_loop body must return the same structure as loop_vars"
            )
        return tuple(flat_result)

    # Shape-join fixpoint: the body trace must be valid for *every*
    # iteration, but a body may return a loop variable whose static
    # shape differs from its input spec (e.g. an accumulator built by
    # ``concat``, or autograph-threaded state that broadens).  Widen
    # each spec to the join (``most_general``) of its input and output
    # shapes and re-trace until the specs stop changing.  Widening is
    # strictly monotone on a finite lattice (dims -> None, rank ->
    # unknown), so this terminates; the rank bound below is a backstop.
    max_passes = sum(1 + (len(s.shape.as_list()) if s.shape.rank is not None else 1)
                     for s in specs) + 1
    for _ in range(max_passes):
        body_graph, body_out, _ = tracing.trace_into_graph(
            body_wrapper, specs, name="while_body"
        )
        for spec, out in zip(specs, body_out):
            if out.dtype != spec.dtype:
                raise InvalidArgumentError(
                    f"while_loop body changed a loop variable dtype: "
                    f"{spec.dtype} -> {out.dtype}"
                )
        widened = [
            TensorSpec(spec.shape.most_general(out.shape), spec.dtype)
            for spec, out in zip(specs, body_out)
        ]
        if all(w.shape == s.shape for w, s in zip(widened, specs)):
            break
        specs = widened
    cond_graph, cond_out, _ = tracing.trace_into_graph(
        cond_wrapper, specs, name="while_cond"
    )
    if len(cond_out) != 1 or cond_out[0].dtype != dtypes.bool_:
        raise InvalidArgumentError("while_loop condition must return a scalar bool")

    gf_cond = GraphFunction(
        "while_cond",
        cond_graph,
        inputs=list(cond_graph.inputs) + list(cond_graph.capture_placeholders),
        outputs=cond_out,
    )
    gf_body = GraphFunction(
        "while_body",
        body_graph,
        inputs=list(body_graph.inputs) + list(body_graph.capture_placeholders),
        outputs=body_out,
    )
    cond_caps = list(cond_graph.captured_externals)
    body_caps = list(body_graph.captured_externals)
    out = execute(
        "While",
        flat_vars + cond_caps + body_caps,
        {
            "cond_fn": gf_cond,
            "body_fn": gf_body,
            "n_vars": n_vars,
            "n_cond_caps": len(cond_caps),
            "maximum_iterations": maximum_iterations,
        },
    )
    flat_out = list(out) if isinstance(out, tuple) else [out]
    return nest.pack_sequence_as(structure, flat_out)


def _unpack(structure, vars_flat):
    packed = nest.pack_sequence_as(structure, list(vars_flat))
    if isinstance(structure, (list, tuple)):
        return tuple(packed)
    return (packed,)


def _call_structured(fn, values, structure):
    if isinstance(structure, (list, tuple)):
        return fn(*values)
    return fn(values)
