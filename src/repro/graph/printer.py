"""One printer for everything that runs a scheduled list of kernels.

Graph plans (:class:`~repro.graph.executor.GraphRunner`), fused regions
(:class:`~repro.graph.fusion.FusionRegion`) and XLA-sim programs
(:class:`~repro.xla.compiler.CompiledExecutable`) run as generated
straight-line Python: values are locals, each step is one statement whose
shape is chosen at print time, and a value is dropped right after its
last use.  The text names kernels, attrs, constants and nodes only
through positional globals (``K{k}``, ``A{k}``, ``C{j}``, ...), so it
depends on the wiring alone: :func:`_code_for` compiles each distinct
text once per process, and every user binds the shared code to its own
globals.  A traceback line maps back to its step, which is how an error
names the op that raised it (:func:`raise_labelled`).
"""

from __future__ import annotations

import functools
import operator
import types
from sys import intern

import numpy as np

from repro.framework.errors import attach_op_name

__all__ = ["print_pieces", "print_region", "raise_labelled"]

#: Steps per separately compiled function: one ``compile()`` of a whole
#: 2 000-node plan peaks at ~17 MiB, a 32-step piece at ~0.3 MiB.
PIECE = 32


def _lhs(outs, listed: bool) -> str:
    if all(r < 0 for r in outs):
        return ""
    if len(outs) == 1 and not listed:
        return f"v{outs[0]} = "
    return "".join(f"v{r}, " if r >= 0 else "_, " for r in outs) + "= "


def _statement(k, form, args, outs, donate=-1, dies=(), guards=(), slow=()) -> list:
    """The lines of step ``k`` (an unused output is -1), then ``dies``
    dropped.  Forms: ``k``, ``outs = K(args, A, d)`` (one output bare,
    several as a sequence); ``p``, ``k`` trying the in-place kernel ``P``
    on the dying slot ``donate`` first, and ``q``, the same behind the
    plan's runtime guard (:func:`_donated`); ``n``, ``outs = L(args, d)``
    returning a list (a dispatch-core node, an XLA-sim instruction);
    ``g``, ``k`` wrapped as Tensors by ``G`` if every Tensor in
    ``guards`` lives on ``d``, else ``n`` over ``slow``."""
    args = ", ".join(args)
    call = f"K{k}([{args}], A{k}, d)"
    if form == "n":
        lines = [f"    {_lhs(outs, True)}L{k}([{args}], d)"]
    elif form == "g":
        lhs = _lhs(outs, True)
        lines = [
            "    if " + " and ".join(f"{g}._device is d" for g in guards) + ":",
            "        d._kernel_launches += 1",
            f"        {lhs}G{k}({call}, d)",
            "    else:",
            f"        {lhs}L{k}([{', '.join(slow)}], d)",
        ]
    elif form == "q":
        lines = [f"    {_lhs(outs, False)}Q(P{k}, K{k}, [{args}], A{k}, d, v{donate})"]
    elif form == "p":
        lhs = _lhs(outs, False)
        lines = [
            "    try:",
            f"        {lhs}P{k}([{args}], A{k}, d, v{donate})",
            "    except (ValueError, TypeError):",
            f"        {lhs}{call}",
        ]
    else:
        lines = [f"    {_lhs(outs, False)}{call}"]
    if dies:
        lines.append("    " + "".join(f"v{r} = " for r in dies) + "None")
    return lines


def _donated(inplace, kernel, args, attrs, device, buf):
    """A ``q`` step: ``inplace`` into ``buf`` if it is an array owning its
    memory and the kernel accepts it (shapes a polymorphic caller fed),
    else ``kernel``."""
    if isinstance(buf, np.ndarray) and buf.base is None:
        try:
            buf.flags.writeable = True
            return inplace(args, attrs, device, buf)
        except (ValueError, TypeError):
            pass
    return kernel(args, attrs, device)


def _source(head: list, steps: list, tail: list) -> tuple:
    """The text of ``_run`` and its line -> step table (-1 off steps)."""
    lines = list(head)
    at = [-1] * (len(lines) + 1)
    for k, step in enumerate(steps):
        lines += step
        at += [k] * len(step)
    lines += tail
    return "\n".join(lines), tuple(at + [-1] * len(tail))


@functools.lru_cache(maxsize=1024)
def _code_for(source: str) -> types.CodeType:
    """The code of the one function ``source`` defines; keyed by the text
    itself, a hit is exactly as sound as compiling again."""
    module = compile(source, "<printed>", "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def bind(code: types.CodeType, env: dict, labels: tuple, at: tuple) -> types.FunctionType:
    """``code`` over ``env``, with what :func:`raise_labelled` reads."""
    env["_labels"] = labels
    env["_lines"] = at
    return types.FunctionType(code, env)


def print_region(num_inputs: int, steps, out_refs) -> tuple:
    """``(source, line table, globals)`` of ``_run(inputs, d)`` over a
    fused region's steps (see :class:`~repro.graph.fusion.FusionRegion`):
    slots ``0..num_inputs-1`` are ``inputs``, step ``k`` writes slot
    ``num_inputs + k``, and ``out_refs`` are returned (one bare)."""
    head = ["def _run(inputs, d):"]
    if num_inputs:
        head.append("    " + "".join(f"v{i}, " for i in range(num_inputs)) + "= inputs")
    body, env = [], {}
    for k, (_op, kernel, inplace, attrs, ins, donate, dies) in enumerate(steps):
        form, args = "p" if donate >= 0 else "k", [f"v{r}" for r in ins]
        body.append(_statement(k, form, args, (num_inputs + k,), donate, dies))
        env[intern(f"K{k}")], env[intern(f"A{k}")] = kernel, attrs
        env[intern(f"P{k}")] = inplace
    outs = ", ".join(f"v{r}" for r in out_refs) + ("," if len(out_refs) > 1 else "")
    return _source(head, body, [f"    return {outs}"]) + (env,)


def print_pieces(stmts, fed, fetched, consts: dict, reps: dict) -> tuple:
    """Print a schedule as functions ``_run(s, d)`` of at most
    :data:`PIECE` steps over one value store ``s`` and the device ``d``.

    ``stmts`` holds ``(form, label, ins, outs, donate, bind)`` per step
    over hashable value keys: ``outs`` entries are None when unused,
    ``donate`` is a key or None, ``bind`` the step's globals ``K``,
    ``A``, ``P``, ``L``, ``G`` in order (None: unused).  The caller
    writes ``fed`` keys into the store and reads ``fetched`` ones back;
    ``consts`` are bound as globals; ``reps`` marks keys holding Tensors
    (``"a"``: on the CPU, ``"t"``: anywhere, guarded by a ``g`` step).
    A piece loads its live-ins (``IN(s)``), clears the entries of those
    that die in it, and stores its live-outs; its slots count from 0, so
    equal pieces share code.  Returns ``(functions, store size, key ->
    store index)``; the layout depends on the wiring alone.
    """
    last = {}
    for k, stmt in enumerate(stmts):
        for key in stmt[2]:
            last[key] = k
    for key in fetched:
        last[key] = len(stmts)
    index = {key: i for i, key in enumerate(dict.fromkeys(fed))}
    fns = []
    for lo in range(0, len(stmts), PIECE):
        hi = min(lo + PIECE, len(stmts))
        local, used, loads, clears, produced, body = {}, {}, [], [], [], []
        env = {"Q": _donated}
        for k in range(lo, hi):
            form, _label, ins, outs, donate, binding = stmts[k]
            args, slow, guards = [], [], []
            for key in ins:
                if key in consts:
                    j = used.setdefault(key, len(used))
                    env[intern(f"C{j}")] = consts[key]
                    args.append(f"C{j}")
                    slow.append(f"C{j}")
                    continue
                r = local.get(key)
                if r is None:
                    r = local[key] = len(local)
                    loads.append((r, index[key]))
                    if last[key] < hi:
                        clears.append(index[key])
                name = f"v{r}"
                slow.append(name)
                rep = reps.get(key)
                if rep is None or form == "n":
                    args.append(name)
                else:
                    args.append(name + "._array")
                    if rep == "t":
                        guards.append(name)
            once = dict.fromkeys(key for key in ins if key not in consts)
            dies = [local[key] for key in once if last[key] == k]
            # An output nothing reads (None, or not in `last`) gets no slot.
            slots = [local.setdefault(key, len(local)) if key in last else -1 for key in outs]
            produced += [key for key in outs if key in last]
            dslot = -1 if donate is None else local[donate]
            body.append(_statement(k - lo, form, args, slots, dslot, dies, guards, slow))
            for letter, value in zip("KAPLG", binding):
                if value is not None:
                    env[intern(f"{letter}{k - lo}")] = value
        head = ["def _run(s, d):"]
        if loads:
            env["IN"] = operator.itemgetter(*[i for _, i in loads])
            head.append("    " + ", ".join(f"v{r}" for r, _ in loads) + " = IN(s)")
        if clears:
            env.update((intern(f"X{m}"), i) for m, i in enumerate(clears))
            targets = "".join(f"s[X{m}] = " for m in range(len(clears)))
            head.append(f"    {targets}None")
        outs = [key for key in produced if last[key] >= hi]
        tail = []
        if outs:
            env.update(
                (intern(f"O{j}"), index.setdefault(key, len(index)))
                for j, key in enumerate(outs)
            )
            targets = ", ".join(f"s[O{j}]" for j in range(len(outs)))
            tail.append(f"    {targets} = " + ", ".join(f"v{local[key]}" for key in outs))
        source, at = _source(head, body, tail)
        labels = tuple(stmt[1] for stmt in stmts[lo:hi])
        fns.append(bind(_code_for(source), env, labels, at))
    return fns, len(index), index


def raise_labelled(exc: BaseException, envs) -> None:
    """Re-raise ``exc`` named after the op whose step raised it: the
    step at the line of the first traceback frame running over one of
    ``envs`` (a printed function's globals)."""
    tb = exc.__traceback__
    while tb is not None:
        env = tb.tb_frame.f_globals
        if any(env is e for e in envs):
            k = env["_lines"][tb.tb_lineno]
            if k >= 0:
                raise attach_op_name(exc, env["_labels"][k])
            break
        tb = tb.tb_next
    raise exc
