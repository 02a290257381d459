"""Runtime operators targeted by the autograph transform.

The source-to-source transform (:mod:`repro.autograph.transform`)
rewrites Python control flow into calls to the functions here.  Each
operator makes the *staging decision at run time*: when the predicate
(or loop iterate) is a tensor flowing through an active trace, the
statement lowers onto the staged control-flow ops
(:func:`repro.ops.control_flow.cond` / ``while_loop``); otherwise it
falls back to ordinary Python control flow with exactly the original
semantics — evaluation order, short-circuiting, and mutation through
``nonlocal`` cells included.

This split is what makes the transform safe to apply to *every* staged
function: code whose predicates are plain Python values behaves as if
it had never been rewritten, and only tensor-dependent control flow
pays the lowering.  Under lazy eager mode the Python fallback is also
the synchronization seam: forcing the truth value of a pending tensor
flushes the recorded lazy segment, so a lowered-in-source but
eagerly-executed loop gets its flush boundary exactly at the
conditional.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.framework import dtypes
from repro.framework.errors import InvalidArgumentError, ReproError
from repro.runtime.context import context
from repro.tensor import TensorBase, convert_to_tensor

__all__ = [
    "AutographError",
    "Undefined",
    "and_",
    "for_stmt",
    "if_stmt",
    "not_",
    "or_",
    "retval",
    "while_stmt",
]


class AutographError(ReproError, RuntimeError):
    """A Python construct could not be lowered to staged control flow.

    Raised with the symbol name and original source location so the
    failure points at the user's ``if``/``while`` line, not at
    generated code.
    """


class Undefined:
    """Sentinel for a variable with no binding yet.

    The transform materializes possibly-unbound symbols as ``Undefined``
    so state snapshots always succeed; any *use* of one raises a clear
    error naming the symbol instead of a bare ``NameError`` deep inside
    generated code.
    """

    __slots__ = ("symbol_name", "loc")

    def __init__(self, symbol_name: str, loc: Optional[str] = None) -> None:
        self.symbol_name = symbol_name
        self.loc = loc

    def __repr__(self) -> str:
        return f"<undefined symbol {self.symbol_name!r}>"

    def _complain(self):
        where = f" (control flow at {self.loc})" if self.loc else ""
        raise AutographError(
            f"Symbol {self.symbol_name!r} is used but may be undefined: it is "
            "only assigned inside tensor-dependent control flow that staging "
            "cannot prove executes. Assign it a value before the "
            f"`if`/`while` statement{where}."
        )

    # Any attempt to *use* the sentinel is an error worth explaining.
    def __getattr__(self, name):
        self._complain()

    def __bool__(self):
        self._complain()

    def __call__(self, *args, **kwargs):
        self._complain()

    def __iter__(self):
        self._complain()

    def __add__(self, other):
        self._complain()

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__
    __truediv__ = __rtruediv__ = __getitem__ = __lt__ = __gt__ = __add__


def _loc(opts: Optional[dict]) -> str:
    if not opts:
        return "<unknown location>"
    return f"{opts.get('filename', '<unknown>')}:{opts.get('lineno', '?')}"


def _should_stage(value) -> bool:
    """Lower onto graph ops iff ``value`` is a tensor inside a trace.

    Symbolic tensors always stage (their truth value does not exist).
    Concrete tensors stage only while a graph is being built — boolean-
    testing one there would silently specialize the trace to this
    call's value, the exact footgun autograph exists to remove.  In
    pure eager execution (sync, lazy) every predicate falls back to
    Python.
    """
    if not isinstance(value, TensorBase):
        return False
    from repro.graph.graph import SymbolicTensor

    if isinstance(value, SymbolicTensor):
        return True
    return context.current_graph() is not None


def retval(value):
    """Unwrap the return-value slot: an untouched slot means ``return None``."""
    if isinstance(value, Undefined):
        return None
    return value


# ---------------------------------------------------------------------------
# Boolean operators (short-circuit preserved for Python operands)
# ---------------------------------------------------------------------------


def and_(a_fn: Callable, b_fn: Callable):
    """``a and b`` that lowers to ``logical_and`` for staged tensors."""
    a = a_fn()
    if _should_stage(a):
        from repro.ops import math_ops

        b = b_fn()
        if not isinstance(b, TensorBase):
            b = convert_to_tensor(b, dtype=dtypes.bool_)
        return math_ops.logical_and(a, b)
    return a and b_fn()


def or_(a_fn: Callable, b_fn: Callable):
    """``a or b`` that lowers to ``logical_or`` for staged tensors."""
    a = a_fn()
    if _should_stage(a):
        from repro.ops import math_ops

        b = b_fn()
        if not isinstance(b, TensorBase):
            b = convert_to_tensor(b, dtype=dtypes.bool_)
        return math_ops.logical_or(a, b)
    return a or b_fn()


def not_(a):
    """``not a`` that lowers to ``logical_not`` for staged tensors."""
    if _should_stage(a):
        from repro.ops import math_ops

        return math_ops.logical_not(a)
    return not a


# ---------------------------------------------------------------------------
# if / elif / else
# ---------------------------------------------------------------------------


def if_stmt(
    pred,
    body: Callable,
    orelse: Callable,
    get_state: Callable,
    set_state: Callable,
    symbol_names: Sequence[str],
    body_vars: Sequence[str],
    orelse_vars: Sequence[str],
    opts: Optional[dict] = None,
):
    """Functional form of an ``if`` statement.

    ``symbol_names`` is the ordered union of symbols either branch
    assigns; ``get_state``/``set_state`` snapshot and restore them
    through ``nonlocal`` cells.  With a Python predicate the matching
    branch simply runs in place.  With a staged tensor predicate both
    branches are traced from the same pre-``if`` state and the modified
    symbols are threaded through a single ``Cond`` op.
    """
    if not _should_stage(pred):
        if pred:
            body()
        else:
            orelse()
        return

    from repro.framework import nest
    from repro.ops import control_flow

    init_state = tuple(get_state())
    body_set = frozenset(body_vars)
    orelse_set = frozenset(orelse_vars)
    # A symbol can ride the Cond only if it has a value on *both* paths:
    # either it was defined before the `if`, or both branches assign it.
    threaded = [
        not isinstance(init, Undefined)
        or (name in body_set and name in orelse_set)
        for name, init in zip(symbol_names, init_state)
    ]
    threaded_names = [n for n, t in zip(symbol_names, threaded) if t]
    # Per-branch nest templates: each threaded symbol may hold a
    # structure (tuple/list/dict of tensors); it rides the Cond as its
    # flattened leaves and is repacked afterwards.
    templates: dict = {}

    def make_branch(branch_fn, branch_label):
        def run_branch():
            set_state(list(init_state))
            branch_fn()
            out = get_state()
            results = []
            packed = []
            for name, value, thread in zip(symbol_names, out, threaded):
                if not thread:
                    continue
                if isinstance(value, Undefined):
                    raise AutographError(
                        f"Symbol {name!r} may be undefined after the "
                        f"conditional at {_loc(opts)}: the {branch_label} "
                        "branch did not assign it. Tensor-dependent `if` "
                        "statements must give every live symbol a value on "
                        "both paths."
                    )
                try:
                    flat = [convert_to_tensor(v) for v in nest.flatten(value)]
                except (TypeError, ValueError, ReproError) as exc:
                    raise AutographError(
                        f"Symbol {name!r} holds a non-tensor value "
                        f"({type(value).__name__}) after the {branch_label} "
                        f"branch of the conditional at {_loc(opts)}; values "
                        "threaded through a staged conditional must be "
                        "convertible to tensors."
                    ) from exc
                packed.append(nest.pack_sequence_as(value, flat))
                results.extend(flat)
            templates[branch_label] = packed
            return tuple(results)

        return run_branch

    try:
        results = control_flow.cond(
            pred, make_branch(body, "true"), make_branch(orelse, "false")
        )
    except InvalidArgumentError as exc:
        raise AutographError(
            f"Could not lower the conditional at {_loc(opts)} to a staged "
            f"Cond: {exc}"
        ) from exc
    tmpl_true = templates.get("true")
    tmpl_false = templates.get("false")
    if tmpl_true is not None and tmpl_false is not None:
        for name, a, b in zip(threaded_names, tmpl_true, tmpl_false):
            try:
                nest.assert_same_structure(a, b)
            except (TypeError, ValueError, ReproError) as exc:
                raise AutographError(
                    f"Symbol {name!r} has mismatched structures across the "
                    f"branches of the conditional at {_loc(opts)}: {exc}"
                ) from exc
    template = tmpl_true if tmpl_true is not None else tmpl_false
    if not isinstance(results, (list, tuple)):
        results = (results,)
    flat_results = list(results)
    merged = []
    idx = 0
    t_iter = iter(template)
    for init, thread in zip(init_state, threaded):
        if not thread:
            merged.append(init)
            continue
        tmpl = next(t_iter)
        n_leaves = len(nest.flatten(tmpl))
        merged.append(nest.pack_sequence_as(tmpl, flat_results[idx : idx + n_leaves]))
        idx += n_leaves
    set_state(merged)


# ---------------------------------------------------------------------------
# while
# ---------------------------------------------------------------------------


def _stage_while(test, body, get_state, set_state, symbol_names, opts, init_state):
    from repro.framework import nest
    from repro.ops import control_flow

    # Only symbols live before the loop are loop-carried state; symbols
    # first assigned inside the body are per-iteration temporaries (as
    # in Python, where reading one before assignment is an error).
    threaded = [not isinstance(v, Undefined) for v in init_state]
    loop_names = [n for n, t in zip(symbol_names, threaded) if t]
    # Each loop-carried symbol may hold a nest structure (tuple/list/
    # dict of tensors); its leaves become While loop variables and the
    # structure is repacked on every state hand-off.
    loop_init = []
    for name, value, thread in zip(symbol_names, init_state, threaded):
        if not thread:
            continue
        try:
            flat = [convert_to_tensor(v) for v in nest.flatten(value)]
        except (TypeError, ValueError, ReproError) as exc:
            raise AutographError(
                f"Symbol {name!r} holds a non-tensor value "
                f"({type(value).__name__}) entering the tensor-dependent "
                f"loop at {_loc(opts)}; loop-carried state must be "
                "convertible to tensors."
            ) from exc
        loop_init.append(nest.pack_sequence_as(value, flat))
    templates = dict(zip(loop_names, loop_init))

    def merge(state_vals):
        merged = []
        it = iter(state_vals)
        for init, thread in zip(init_state, threaded):
            merged.append(next(it) if thread else init)
        return merged

    def cond_fn(*state):
        set_state(merge(state))
        return test()

    def body_fn(*state):
        set_state(merge(state))
        body()
        out = get_state()
        results = []
        for name, value, thread in zip(symbol_names, out, threaded):
            if not thread:
                continue
            if isinstance(value, Undefined):
                raise AutographError(
                    f"Symbol {name!r} lost its value inside the loop at "
                    f"{_loc(opts)}; loop-carried state must stay defined "
                    "on every iteration."
                )
            try:
                nest.assert_same_structure(templates[name], value)
            except (TypeError, ValueError, ReproError) as exc:
                raise AutographError(
                    f"Symbol {name!r} changed structure inside the loop at "
                    f"{_loc(opts)}: loop-carried state must keep the same "
                    f"nested shape on every iteration ({exc})."
                ) from exc
            try:
                flat = [convert_to_tensor(v) for v in nest.flatten(value)]
            except (TypeError, ValueError, ReproError) as exc:
                raise AutographError(
                    f"Symbol {name!r} holds a non-tensor value "
                    f"({type(value).__name__}) inside the loop at "
                    f"{_loc(opts)}; loop-carried state must be convertible "
                    "to tensors."
                ) from exc
            results.append(nest.pack_sequence_as(value, flat))
        return tuple(results)

    try:
        final = control_flow.while_loop(cond_fn, body_fn, tuple(loop_init))
    except InvalidArgumentError as exc:
        raise AutographError(
            f"Could not lower the loop at {_loc(opts)} to a staged While "
            f"(loop-carried symbols: {loop_names}): {exc}"
        ) from exc
    if not isinstance(final, (list, tuple)):
        final = (final,)
    set_state(merge(final))


def while_stmt(
    test: Callable,
    body: Callable,
    get_state: Callable,
    set_state: Callable,
    symbol_names: Sequence[str],
    opts: Optional[dict] = None,
):
    """Functional form of a ``while`` statement.

    The loop test is evaluated once from the initial state to pick the
    dispatch: a tensor result inside a trace stages the whole loop as a
    single ``While`` op (loop-carried symbols become loop variables); a
    Python result runs the ordinary interpreted loop, reusing that
    first evaluation as iteration one's test.
    """
    init_state = tuple(get_state())
    first = test()
    if _should_stage(first):
        set_state(list(init_state))
        _stage_while(test, body, get_state, set_state, symbol_names, opts, init_state)
        return
    while first:
        body()
        first = test()


# ---------------------------------------------------------------------------
# for
# ---------------------------------------------------------------------------


def for_stmt(
    iterated,
    body: Callable,
    get_state: Callable,
    set_state: Callable,
    symbol_names: Sequence[str],
    extra_test: Optional[Callable] = None,
    opts: Optional[dict] = None,
):
    """Functional form of a ``for`` statement.

    ``body`` receives each element (it assigns the loop target through
    its ``nonlocal`` cell).  A tensor iterated inside a trace lowers to
    a counted ``While`` over ``gather(iterated, i)``; anything else —
    lists, ranges, generators, zips — runs the ordinary Python loop.
    ``extra_test`` carries a canonicalized ``break`` condition.
    """
    if not _should_stage(iterated):
        if extra_test is None:
            for value in iterated:
                body(value)
            return
        # Test the (canonicalized break) condition *before* advancing the
        # iterator, so generators are not drained one element past the
        # break — exactly where a real ``break`` would have stopped.
        source = iter(iterated)
        while extra_test():
            try:
                value = next(source)
            except StopIteration:
                break
            body(value)
        return

    from repro.ops import array_ops, math_ops

    init_state = tuple(get_state())

    def get_loop_state():
        return get_state()

    n = array_ops.gather(array_ops.shape(iterated), 0)
    index = [convert_to_tensor(0, dtype=dtypes.int32)]

    def test():
        keep = math_ops.less(index[0], n)
        if extra_test is not None:
            extra = extra_test()
            if isinstance(extra, TensorBase):
                keep = math_ops.logical_and(keep, extra)
            elif not extra:
                keep = convert_to_tensor(False, dtype=dtypes.bool_)
        return keep

    def run_body():
        body(array_ops.gather(iterated, index[0], axis=0))
        index[0] = index[0] + convert_to_tensor(1, dtype=dtypes.int32)

    # The loop index rides along as hidden state via the `index` cell.
    def get_full_state():
        return [index[0]] + list(get_loop_state())

    def set_full_state(values):
        index[0] = values[0]
        set_state(list(values[1:]))

    _stage_while(
        test,
        run_body,
        get_full_state,
        set_full_state,
        ["<loop index>"] + list(symbol_names),
        opts,
        tuple([index[0]] + list(init_state)),
    )
