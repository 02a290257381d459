"""Differential testing of execution modes.

One program, three runtimes: the same Python function is executed
sync-eager, lazy-eager (LazyTensor-style recording flushed through the
staged pipeline), and staged through ``repro.function`` (§3.1).  The
paper's central claim is that staging is a *semantics-preserving*
performance knob; lazy execution makes the same promise for eager
dispatch.  Each :class:`Program` in :data:`CORPUS` is therefore run in
all three modes and both its outputs and its tape gradients must agree
to tight tolerances.  Three further columns re-run the staged mode
under one configuration each — graph fusion forced off, one
shape-relaxed trace, and ``jit_compile=True`` (the XLA-sim executor) —
one more re-runs sync and staged with every kernel swapped, through
the registry, for a counting wrapper, and the last re-runs sync until
the tape's backward is staged (:func:`assert_staged_backward_parity`).

The corpus is deliberately small programs — elementwise chains, dense
layers, softmax losses, convolutions, data-dependent control flow, an
RNN cell — because differential testing wants many *distinct shapes of
computation*, not large ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

import repro
from repro.ops import nn_ops

from .tracking import tracked_kernels

__all__ = [
    "CORPUS",
    "MODES",
    "Program",
    "assert_compiled_parity",
    "assert_parity",
    "assert_relaxed_parity",
    "assert_staged_backward_parity",
    "assert_tracked_parity",
    "assert_unfused_parity",
    "run_program",
    "run_program_relaxed",
    "run_program_unfused",
]

MODES = ("sync", "lazy", "staged")

# Per-dtype comparison tolerances.  Mode changes may legally reorder
# float reductions, so exact bit equality is not required; disagreement
# beyond these bounds means a kernel or gradient diverged.
_TOLERANCES = {
    "float32": dict(rtol=1e-5, atol=1e-5),
    "float64": dict(rtol=1e-9, atol=1e-11),
}


@dataclass(frozen=True)
class Program:
    """One differential-test case.

    Attributes:
        name: test id.
        make_inputs: draws the (float) input arrays from a seeded rng;
            every input is tape-watched and differentiated.
        fn: the program body, ``fn(*tensors) -> tensor``.  Must be
            traceable by ``repro.function`` (no Python side effects).
        dtypes: dtypes the program is exercised under.
        alt_inputs: optional second input draw with *different tensor
            shapes* (typically a different batch size).  Programs that
            provide it additionally run under the trace cache's shape
            relaxation policy: a warm-up call on the alternate shapes
            followed by the main call must produce one relaxed
            (symbolic) trace whose outputs and gradients still match
            sync eager.  Programs whose bodies pin a shape (fixed
            labels, literal reshape sizes) leave it None.
    """

    name: str
    make_inputs: Callable[[np.random.Generator], Sequence[np.ndarray]]
    fn: Callable
    dtypes: tuple = ("float32", "float64")
    alt_inputs: Optional[Callable[[np.random.Generator], Sequence[np.ndarray]]] = None


def run_program(program: Program, mode: str, dtype: str):
    """Run ``program`` under ``mode``; return (output, gradients) as ndarrays.

    The gradient is of ``reduce_sum(fn(*inputs))`` with respect to every
    input, so each mode exercises its backward path too (in lazy mode
    the tape records pending tensors at submission and synchronizes at
    ``gradient()`` — both ends of the pending-value contract).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    arrays = program.make_inputs(np.random.default_rng(0))
    dt = getattr(repro, dtype)
    fn = (
        repro.function(program.fn, autograph=True)
        if mode == "staged"
        else program.fn
    )
    with repro.execution_mode("sync" if mode == "staged" else mode):
        tensors = [repro.constant(a, dtype=dt) for a in arrays]
        with repro.GradientTape() as tape:
            for t in tensors:
                tape.watch(t)
            out = fn(*tensors)
            loss = repro.reduce_sum(out)
        grads = tape.gradient(loss, tensors)
        out_np = np.asarray(out.numpy())
        grads_np = [None if g is None else np.asarray(g.numpy()) for g in grads]
    return out_np, grads_np


def _assert_matches_sync(program: Program, dtype: str, what: str, out, grads) -> None:
    """``out``/``grads`` (produced by ``what``) equal sync eager's."""
    tol = _TOLERANCES[dtype]
    ref_out, ref_grads = run_program(program, "sync", dtype)
    np.testing.assert_allclose(
        out,
        ref_out,
        **tol,
        err_msg=f"{program.name}: {what} output diverged from sync eager",
    )
    assert len(grads) == len(ref_grads)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert (g is None) == (ref is None), (
            f"{program.name}: {what} gradient {i} connectivity differs "
            f"from sync eager"
        )
        if ref is not None:
            np.testing.assert_allclose(
                g,
                ref,
                **tol,
                err_msg=f"{program.name}: {what} gradient {i} diverged "
                f"from sync eager",
            )


def assert_parity(program: Program, dtype: str) -> None:
    """Assert outputs and gradients agree across all three modes."""
    for mode in MODES[1:]:
        _assert_matches_sync(program, dtype, mode, *run_program(program, mode, dtype))


def run_program_unfused(program: Program, dtype: str):
    """Run ``program`` staged with graph fusion + memory planning off.

    Forces ``context.graph_fusion`` off for the duration, so the trace
    skips the ``fuse`` pass and runs as a per-node plan without in-place
    donation.  The staged column of :func:`assert_parity` is the other
    side of this axis: fusion is on by default.
    """
    from repro.runtime.context import context

    previous = context.graph_fusion
    context.graph_fusion = False
    try:
        return run_program(program, "staged", dtype)
    finally:
        context.graph_fusion = previous


def assert_unfused_parity(program: Program, dtype: str) -> None:
    """Assert unfused staged execution matches sync eager (outputs + grads).

    Fusion is a scheduling rewrite, so the value must not depend on
    it: the unfused plan and the default fused one both match sync eager,
    including through the staged backward function.
    """
    _assert_matches_sync(
        program, dtype, "unfused staged", *run_program_unfused(program, dtype)
    )


def assert_compiled_parity(program: Program, dtype: str) -> None:
    """Assert the XLA-sim executable matches sync eager (outputs + grads).

    ``jit_compile=True`` sends a call no tape is watching through the
    compiled executable — the same clustered graph, lowered region by
    region to ``Fusion`` instructions — so the output is taken from such
    a call; the gradients are taken through the same jitted function.
    Every corpus program must compile: a program silently remembered as
    uncompilable would run the plan and prove nothing.
    """
    from repro.xla.compiler import CompiledExecutable

    arrays = program.make_inputs(np.random.default_rng(0))
    dt = getattr(repro, dtype)
    fn = repro.function(program.fn, autograph=True, jit_compile=True)
    with repro.execution_mode("sync"):
        tensors = [repro.constant(a, dtype=dt) for a in arrays]
        out = np.asarray(fn(*tensors).numpy())
        executables = fn.get_concrete_function(*tensors).graph_function.executables
        assert [type(e) for e in executables.values()] == [CompiledExecutable], (
            f"{program.name}: not compiled: {executables}"
        )
        with repro.GradientTape() as tape:
            for t in tensors:
                tape.watch(t)
            loss = repro.reduce_sum(fn(*tensors))
        grads = tape.gradient(loss, tensors)
        grads_np = [None if g is None else np.asarray(g.numpy()) for g in grads]
    _assert_matches_sync(program, dtype, "compiled", out, grads_np)


def assert_tracked_parity(program: Program, dtype: str) -> None:
    """Assert sync and staged runs with every kernel swapped for a
    counting wrapper match sync eager on the original kernels (outputs +
    grads), and that the wrappers ran: a kernel re-registration reaches
    both paths and changes no value."""
    runs = {}
    with tracked_kernels() as counts:
        for mode in ("sync", "staged"):
            counts.clear()
            runs[mode] = run_program(program, mode, dtype)
            assert counts, f"{program.name}: tracked {mode} ran no kernel"
    for mode, (out, grads) in runs.items():
        _assert_matches_sync(program, dtype, f"tracked {mode}", out, grads)


def run_program_relaxed(program: Program, dtype: str):
    """Run ``program`` through one *relaxed* (symbolic) trace.

    Warms a shape-relaxing ``repro.function`` on ``alt_inputs`` (the
    exact trace), then runs ``make_inputs`` — a different shape of the
    same rank/dtype pattern, which triggers the relaxation policy and
    executes through the symbolic trace.  Returns the main call's
    ``(output, gradients)`` plus the Function so callers can assert on
    trace counts.
    """
    if program.alt_inputs is None:
        raise ValueError(f"{program.name} has no alt_inputs; cannot relax")
    dt = getattr(repro, dtype)
    fn = repro.function(
        program.fn, experimental_relax_shapes=True, autograph=True
    )
    warm = [
        repro.constant(a, dtype=dt)
        for a in program.alt_inputs(np.random.default_rng(1))
    ]
    fn(*warm)  # exact trace at the alternate shapes
    arrays = program.make_inputs(np.random.default_rng(0))
    tensors = [repro.constant(a, dtype=dt) for a in arrays]
    with repro.GradientTape() as tape:
        for t in tensors:
            tape.watch(t)
        out = fn(*tensors)
        loss = repro.reduce_sum(out)
    grads = tape.gradient(loss, tensors)
    out_np = np.asarray(out.numpy())
    grads_np = [None if g is None else np.asarray(g.numpy()) for g in grads]
    return out_np, grads_np, fn


def assert_relaxed_parity(program: Program, dtype: str) -> None:
    """Assert the relaxed trace matches sync eager, from one retrace."""
    out, grads, fn = run_program_relaxed(program, dtype)
    stats = fn.cache_stats()
    assert fn.trace_count == 2, (
        f"{program.name}: expected exact + relaxed trace, got "
        f"{fn.trace_count} traces"
    )
    assert stats["relaxations"] == 1, f"{program.name}: {stats}"
    _assert_matches_sync(program, dtype, "relaxed-trace", out, grads)


def assert_staged_backward_parity(program: Program, dtype: str) -> None:
    """Assert the sync gradient from the tape's staged backward equals the walk's.

    An eager tape structure walks on its first sighting, walks and is
    staged on its second, and runs the staged plan from the third on.
    The artifact cache is cleared first, so the first run walks; the
    third must be a hit, and its output and gradients must match the
    first's.
    """
    from repro.core.pipeline import artifact_cache
    from repro.runtime import decisions

    artifact_cache().clear()
    before = decisions.snapshot()
    walked_out, walked_grads = run_program(program, "sync", dtype)
    run_program(program, "sync", dtype)
    staged_out, staged_grads = run_program(program, "sync", dtype)
    taken = {
        cause: n - before.get(("tape", cause), 0)
        for (site, cause), n in decisions.snapshot().items()
        if site == "tape"
    }
    assert {k: n for k, n in taken.items() if n} == {
        "first_sighting": 1,
        "built": 1,
        "hit": 1,
    }, f"{program.name}: {taken}"
    tol = _TOLERANCES[dtype]
    np.testing.assert_allclose(staged_out, walked_out, **tol)
    assert len(staged_grads) == len(walked_grads)
    for i, (g, ref) in enumerate(zip(staged_grads, walked_grads)):
        assert (g is None) == (ref is None), f"{program.name}: gradient {i} connectivity"
        if ref is not None:
            np.testing.assert_allclose(
                g, ref, **tol, err_msg=f"{program.name}: staged backward gradient {i}"
            )


# -- the corpus --------------------------------------------------------------


def _p(name: str, make_inputs, fn, **kwargs) -> Program:
    return Program(name=name, make_inputs=make_inputs, fn=fn, **kwargs)


def _vec(n):
    return lambda rng: [rng.normal(size=(n,))]


def _mat(*shape):
    return lambda rng: [rng.normal(size=shape)]


# Elementwise chains ---------------------------------------------------------


def _chain_long(x):
    for _ in range(10):
        x = repro.tanh(x * 1.1 + 0.1)
    return x


def _polynomial(x):
    return 3.0 * x * x * x - 2.0 * x * x + x - 5.0


def _smooth_abs(x):
    return repro.sqrt(repro.square(x) + 1e-4)


def _sigmoid_tanh_mix(x):
    return repro.sigmoid(x) * repro.tanh(x) + repro.exp(-repro.square(x))


def _log1p_exp(x):
    return repro.log1p(repro.exp(x))  # softplus, written long-hand


# Linear algebra -------------------------------------------------------------


def _matmul_bias_relu(x, w, b):
    return nn_ops.relu(nn_ops.bias_add(repro.matmul(x, w), b))


def _matmul_chain(x, w1, w2):
    return repro.matmul(repro.matmul(x, w1), w2)


def _mlp_two_layer(x, w1, b1, w2, b2):
    h = repro.tanh(nn_ops.bias_add(repro.matmul(x, w1), b1))
    return nn_ops.bias_add(repro.matmul(h, w2), b2)


def _transpose_matmul(x, w):
    return repro.matmul(x, w, transpose_b=True)


def _einsum_bilinear(x, a, y):
    return repro.einsum("bi,ij,bj->b", x, a, y)


# Reductions and softmax -----------------------------------------------------


def _softmax_xent(logits):
    labels = repro.constant(
        np.eye(4, dtype=np.float64)[[0, 2, 1]], dtype=logits.dtype
    )
    return nn_ops.softmax_cross_entropy_with_logits(labels, logits)


def _log_softmax_nll(logits):
    return -repro.reduce_sum(nn_ops.log_softmax(logits), axis=-1)


def _normalize_rows(x):
    mean = repro.reduce_mean(x, axis=1, keepdims=True)
    centered = x - mean
    var = repro.reduce_mean(repro.square(centered), axis=1, keepdims=True)
    return centered * repro.rsqrt(var + 1e-5)


def _logsumexp_margin(x):
    return repro.reduce_logsumexp(x, axis=-1) - repro.reduce_max(x, axis=-1)


# Shape surgery --------------------------------------------------------------


def _reshape_transpose(x):
    return repro.transpose(repro.reshape(x, (3, 4)))


def _concat_then_scale(x, y):
    joined = repro.concat([x, y], axis=0)
    return joined * repro.cast(repro.range(6), joined.dtype)


def _split_then_mix(x):
    a, b = repro.split(x, 2, axis=0)
    return a * 2.0 + b * 3.0


def _gather_rows(x):
    return repro.gather(x, repro.constant([2, 0, 1], dtype=repro.int32))


def _pad_and_sum(x):
    return repro.reduce_sum(repro.pad(x, [[1, 1], [0, 2]]), axis=0)


def _broadcast_outer(x, y):
    return repro.expand_dims(x, 1) * repro.expand_dims(y, 0)


# Control flow ---------------------------------------------------------------


def _cond_branch(x):
    return repro.cond(
        repro.reduce_sum(x) > 0.0, lambda: x * 2.0, lambda: x * 0.5
    )


def _while_power(x):
    def body(i, acc):
        return i + 1, acc * x

    _, out = repro.while_loop(
        lambda i, acc: i < 3,
        body,
        (repro.constant(0), repro.ones_like(x)),
    )
    return out


def _while_accumulate(x):
    def body(i, acc):
        return i + 1, acc + x * repro.cast(i + 1, x.dtype)

    _, out = repro.while_loop(
        lambda i, acc: i < 4,
        body,
        (repro.constant(0), repro.zeros_like(x)),
    )
    return out


# Autograph-lowered control flow ---------------------------------------------
#
# The same corpus discipline, but written as *plain Python* control
# flow over tensor values.  Eagerly these run as ordinary Python (the
# truth value of a concrete tensor exists); staged, autograph rewrites
# them onto Cond / While at trace time.  Parity across all three modes
# pins the transform end to end: outputs AND gradients.


def _ag_if_scale(x):
    if repro.reduce_sum(x) > 0.0:
        y = x * 2.0
    else:
        y = x * 0.5
    return y


def _ag_if_nested(x):
    s = repro.reduce_sum(x)
    if s > 0.0:
        if repro.reduce_max(x) > 1.0:
            y = x * 3.0
        else:
            y = x + 1.0
    else:
        y = -x
    return y


def _ag_elif_chain(x):
    s = repro.reduce_mean(x)
    if s > 1.0:
        y = x - 1.0
    elif s > 0.0:
        y = x * 2.0
    elif s > -1.0:
        y = x * -0.5
    else:
        y = x + 2.0
    return y


def _ag_boolop_pred(x):
    s = repro.reduce_sum(x)
    if s > -10.0 and s < 10.0:
        y = repro.tanh(x)
    else:
        y = x
    return y


def _ag_early_return(x):
    if repro.reduce_sum(x) < 0.0:
        return -x
    return x * 3.0


def _ag_while_bound(x):
    i = repro.constant(0)
    y = x
    while i < 3:
        y = y * 1.5 + 0.25
        i = i + 1
    return y


def _ag_while_data_bound(x):
    # Data-dependent trip count; the 0.7 decay guarantees termination.
    y = x
    while repro.reduce_sum(repro.square(y)) > 0.5:
        y = y * 0.7
    return y


def _ag_while_accum(x):
    i = repro.constant(0)
    acc = repro.zeros_like(x)
    while i < 4:
        acc = acc + x * repro.cast(i + 1, x.dtype)
        i = i + 1
    return acc


def _ag_while_break(x):
    i = repro.constant(0)
    y = x
    while i < 10:
        y = y + x
        if repro.reduce_sum(repro.abs(y)) > 4.0:
            break
        i = i + 1
    return y


def _ag_while_continue(x):
    i = repro.constant(0)
    acc = repro.zeros_like(x)
    while i < 6:
        i = i + 1
        if repro.cast(i, x.dtype) > 3.0:
            continue
        acc = acc + x * repro.cast(i, x.dtype)
    return acc


def _ag_for_scan(x):
    # RNN-style scan: iterate the leading axis, carrying hidden state.
    h = repro.reduce_sum(x, axis=0) * 0.0
    for row in x:
        h = repro.tanh(h * 0.5 + row)
    return h


def _ag_for_scan_weighted(x, w):
    h = repro.reduce_sum(x, axis=0) * 0.0
    for row in x:
        h = repro.tanh(
            repro.reshape(repro.matmul(repro.expand_dims(h, 0), w), (-1,)) + row
        )
    return h


# Small networks -------------------------------------------------------------


def _rnn_cell_step(x, h, wx, wh, b):
    return repro.tanh(repro.matmul(x, wx) + repro.matmul(h, wh) + b)


def _rnn_three_steps(x, wx, wh, b):
    h = repro.zeros_like(repro.matmul(x, wx))
    for _ in range(3):
        h = repro.tanh(repro.matmul(x, wx) + repro.matmul(h, wh) + b)
    return h


def _conv_relu_pool(img, filt):
    y = nn_ops.relu(nn_ops.conv2d(img, filt, strides=1, padding="SAME"))
    return nn_ops.max_pool2d(y, ksize=2, strides=2)


CORPUS = [
    _p("scale_shift", _vec(8), lambda x: x * 2.0 + 1.0, alt_inputs=_vec(5)),
    _p("chain_long", _vec(8), _chain_long, alt_inputs=_vec(5)),
    _p("polynomial", _vec(8), _polynomial, alt_inputs=_vec(5)),
    _p("smooth_abs", _vec(8), _smooth_abs, alt_inputs=_vec(5)),
    _p("sigmoid_tanh_mix", _vec(8), _sigmoid_tanh_mix, alt_inputs=_vec(5)),
    _p("log1p_exp", _vec(8), _log1p_exp, alt_inputs=_vec(5)),
    _p(
        "matmul_bias_relu",
        lambda rng: [
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 5)),
            rng.normal(size=(5,)),
        ],
        _matmul_bias_relu,
        alt_inputs=lambda rng: [
            rng.normal(size=(6, 4)),
            rng.normal(size=(4, 5)),
            rng.normal(size=(5,)),
        ],
    ),
    _p(
        "matmul_chain",
        lambda rng: [
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 4)),
            rng.normal(size=(4, 2)),
        ],
        _matmul_chain,
        alt_inputs=lambda rng: [
            rng.normal(size=(5, 4)),
            rng.normal(size=(4, 4)),
            rng.normal(size=(4, 2)),
        ],
    ),
    _p(
        "mlp_two_layer",
        lambda rng: [
            rng.normal(size=(2, 3)),
            rng.normal(size=(3, 5)),
            rng.normal(size=(5,)),
            rng.normal(size=(5, 2)),
            rng.normal(size=(2,)),
        ],
        _mlp_two_layer,
        alt_inputs=lambda rng: [
            rng.normal(size=(4, 3)),
            rng.normal(size=(3, 5)),
            rng.normal(size=(5,)),
            rng.normal(size=(5, 2)),
            rng.normal(size=(2,)),
        ],
    ),
    _p(
        "transpose_matmul",
        lambda rng: [rng.normal(size=(3, 4)), rng.normal(size=(5, 4))],
        _transpose_matmul,
        alt_inputs=lambda rng: [rng.normal(size=(6, 4)), rng.normal(size=(5, 4))],
    ),
    _p(
        "einsum_bilinear",
        lambda rng: [
            rng.normal(size=(2, 3)),
            rng.normal(size=(3, 4)),
            rng.normal(size=(2, 4)),
        ],
        _einsum_bilinear,
        alt_inputs=lambda rng: [
            rng.normal(size=(4, 3)),
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 4)),
        ],
    ),
    _p("softmax_xent", _mat(3, 4), _softmax_xent),
    _p("log_softmax_nll", _mat(3, 4), _log_softmax_nll, alt_inputs=_mat(5, 4)),
    _p("normalize_rows", _mat(3, 5), _normalize_rows, alt_inputs=_mat(6, 5)),
    _p("logsumexp_margin", _mat(3, 5), _logsumexp_margin, alt_inputs=_mat(6, 5)),
    _p("reshape_transpose", _vec(12), _reshape_transpose),
    _p(
        "concat_then_scale",
        lambda rng: [rng.normal(size=(3,)), rng.normal(size=(3,))],
        _concat_then_scale,
    ),
    _p("split_then_mix", _vec(6), _split_then_mix, alt_inputs=_vec(8)),
    _p("gather_rows", _mat(4, 3), _gather_rows, alt_inputs=_mat(6, 3)),
    _p("pad_and_sum", _mat(2, 3), _pad_and_sum, alt_inputs=_mat(4, 3)),
    _p(
        "broadcast_outer",
        lambda rng: [rng.normal(size=(3,)), rng.normal(size=(4,))],
        _broadcast_outer,
        alt_inputs=lambda rng: [rng.normal(size=(5,)), rng.normal(size=(6,))],
    ),
    _p("cond_branch", _vec(6), _cond_branch, alt_inputs=_vec(9)),
    _p("while_power", _vec(5), _while_power, alt_inputs=_vec(7)),
    _p("while_accumulate", _vec(5), _while_accumulate, alt_inputs=_vec(7)),
    _p("ag_if_scale", _vec(6), _ag_if_scale, alt_inputs=_vec(9)),
    _p("ag_if_nested", _vec(6), _ag_if_nested, alt_inputs=_vec(9)),
    _p("ag_elif_chain", _vec(6), _ag_elif_chain, alt_inputs=_vec(9)),
    _p("ag_boolop_pred", _vec(6), _ag_boolop_pred, alt_inputs=_vec(9)),
    _p("ag_early_return", _vec(6), _ag_early_return, alt_inputs=_vec(9)),
    _p("ag_while_bound", _vec(5), _ag_while_bound, alt_inputs=_vec(7)),
    _p("ag_while_data_bound", _vec(5), _ag_while_data_bound, alt_inputs=_vec(7)),
    _p("ag_while_accum", _vec(5), _ag_while_accum, alt_inputs=_vec(7)),
    _p("ag_while_break", _vec(5), _ag_while_break, alt_inputs=_vec(7)),
    _p("ag_while_continue", _vec(5), _ag_while_continue, alt_inputs=_vec(7)),
    _p("ag_for_scan", _mat(4, 3), _ag_for_scan, alt_inputs=_mat(6, 3)),
    _p(
        "ag_for_scan_weighted",
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(3, 3))],
        _ag_for_scan_weighted,
        alt_inputs=lambda rng: [rng.normal(size=(6, 3)), rng.normal(size=(3, 3))],
    ),
    _p(
        "rnn_cell_step",
        lambda rng: [
            rng.normal(size=(2, 3)),
            rng.normal(size=(2, 4)),
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 4)),
            rng.normal(size=(4,)),
        ],
        _rnn_cell_step,
        alt_inputs=lambda rng: [
            rng.normal(size=(5, 3)),
            rng.normal(size=(5, 4)),
            rng.normal(size=(3, 4)),
            rng.normal(size=(4, 4)),
            rng.normal(size=(4,)),
        ],
    ),
    _p(
        "rnn_three_steps",
        lambda rng: [
            rng.normal(size=(2, 3)),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3,)),
        ],
        _rnn_three_steps,
        alt_inputs=lambda rng: [
            rng.normal(size=(5, 3)),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3, 3)),
            rng.normal(size=(3,)),
        ],
    ),
    _p(
        "conv_relu_pool",
        lambda rng: [
            rng.normal(size=(1, 4, 4, 2)),
            rng.normal(size=(2, 2, 2, 3)),
        ],
        _conv_relu_pool,
        alt_inputs=lambda rng: [
            rng.normal(size=(2, 4, 4, 2)),
            rng.normal(size=(2, 2, 2, 3)),
        ],
    ),
]
