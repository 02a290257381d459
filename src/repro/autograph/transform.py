"""Source-to-source lowering of Python control flow (AutoGraph-style).

:func:`convert` takes a Python function and returns an equivalent one
whose ``if``/``while``/``for`` statements, ``break``/``continue``, and
early ``return`` have been rewritten into calls to the runtime
operators in :mod:`repro.autograph.operators`.  Those operators decide
*at run time* whether to stage (tensor predicate inside a trace) or to
fall back to ordinary Python control flow, so conversion is safe to
apply to every function handed to ``repro.function``.

The rewrite happens in passes over the function's AST:

1. **Return lowering** — early ``return``s become assignments to a
   return-value slot plus a definedness flag; trailing statements are
   lifted into the ``else`` branch of a definitely-returning ``if`` so
   both branches assign the slot (what a staged ``Cond`` needs).
2. **Break/continue canonicalization** — ``break`` becomes a loop-local
   flag threaded into the loop test, ``continue`` a flag guarding the
   remainder of the body; both guards are themselves ``if`` statements
   the next pass lowers.
3. **Control-flow lowering** — each ``if``/``while``/``for`` becomes a
   call to ``if_stmt``/``while_stmt``/``for_stmt`` with nested
   body/state closures over the symbols the statement assigns
   (``nonlocal`` cells preserve Python's mutation semantics).
4. **Boolean-op rewriting** — ``and``/``or``/``not`` inside the lowered
   tests become short-circuit-preserving ``and_``/``or_``/``not_``
   calls that lower to ``logical_*`` for staged tensors.

Conversion preserves closures (original cells are re-attached, so
``nonlocal`` mutation still hits the same cells), default values, and
line numbers (statements keep their original source positions and the
code object is compiled against the original filename, so tracebacks
point at the user's file).  Functions that cannot be converted —
generators, coroutines, lambdas, code without retrievable source —
are returned unchanged.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import threading
import types
import weakref
from typing import Callable, Optional

from repro.autograph import operators

__all__ = ["convert", "converted_code", "is_converted"]

#: The name generated code uses for the operators module.  Unusual on
#: purpose: a user function that already binds it is returned unconverted.
AG_NAME = "_ag__"

_CONVERTED_MARKER = "__autograph_converted__"

_CONTROL_NODES = (ast.If, ast.While, ast.For)


def is_converted(fn: Callable) -> bool:
    return bool(getattr(fn, _CONVERTED_MARKER, False))


# ---------------------------------------------------------------------------
# Symbol analysis
# ---------------------------------------------------------------------------


class _ScopedVisitor(ast.NodeVisitor):
    """A visitor that does not descend into nested scopes."""

    def visit_FunctionDef(self, node):  # noqa: N802
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


class _AssignedNames(_ScopedVisitor):
    """Names a statement list binds (this scope only)."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def _add(self, name: str) -> None:
        if name not in self.names:
            self.names.append(name)

    def _add_target(self, target) -> None:
        # Only Store-context names are bindings: ``x.attr = v`` and
        # ``x[i] = v`` mutate an object reached through a *read* of
        # ``x`` — they do not bind ``x`` in this scope.
        for node in ast.walk(target):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self._add(node.id)

    def visit_Assign(self, node):  # noqa: N802
        for t in node.targets:
            self._add_target(t)
        self.visit(node.value)

    def visit_AugAssign(self, node):  # noqa: N802
        self._add_target(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node):  # noqa: N802
        if node.value is not None:
            self._add_target(node.target)
            self.visit(node.value)

    def visit_NamedExpr(self, node):  # noqa: N802
        self._add_target(node.target)
        self.visit(node.value)

    def visit_For(self, node):  # noqa: N802
        self._add_target(node.target)
        for child in node.body + node.orelse:
            self.visit(child)
        self.visit(node.iter)

    def visit_With(self, node):  # noqa: N802
        for item in node.items:
            if item.optional_vars is not None:
                self._add_target(item.optional_vars)
        for child in node.body:
            self.visit(child)

    def visit_FunctionDef(self, node):  # noqa: N802
        self._add(node.name)  # the def itself binds its name

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):  # noqa: N802
        self._add(node.name)

    def visit_Lambda(self, node):  # noqa: N802
        pass


#: Prefix for generated *machinery* (state accessors, body closures);
#: never treated as program state by symbol analysis.  Generated state
#: symbols (return/break/continue flags) use the plain ``_ag_`` prefix
#: and thread like any user variable.
MACHINERY_PREFIX = "_agfn_"


def _assigned_names(stmts, excluded: frozenset) -> list[str]:
    visitor = _AssignedNames()
    for stmt in stmts:
        visitor.visit(stmt)
    return [
        n
        for n in visitor.names
        if n not in excluded and not n.startswith(MACHINERY_PREFIX)
    ]


class _DeclaredNames(_ScopedVisitor):
    """Names declared ``global``/``nonlocal`` anywhere in this scope."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.globals_: set[str] = set()
        self.nonlocals_: set[str] = set()

    def visit_Global(self, node):  # noqa: N802
        self.names.update(node.names)
        self.globals_.update(node.names)

    def visit_Nonlocal(self, node):  # noqa: N802
        self.names.update(node.names)
        self.nonlocals_.update(node.names)


def _contains(stmts, node_types) -> bool:
    """Whether any statement (this scope only) contains a node type."""

    class Finder(_ScopedVisitor):
        found = False

        def generic_visit(self, node):
            if isinstance(node, node_types):
                self.found = True
            if not self.found:
                super().generic_visit(node)

    f = Finder()
    for stmt in stmts:
        f.visit(stmt)
    return f.found


# ---------------------------------------------------------------------------
# AST construction helpers
# ---------------------------------------------------------------------------


def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def _store(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Store())


def _assign(name: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[_store(name)], value=value)


def _ag_attr(name: str) -> ast.Attribute:
    return ast.Attribute(value=_load(AG_NAME), attr=name, ctx=ast.Load())


def _ag_call(name: str, args: list) -> ast.Call:
    return ast.Call(func=_ag_attr(name), args=args, keywords=[])


def _const(value) -> ast.Constant:
    return ast.Constant(value=value)


def _str_tuple(names) -> ast.Tuple:
    return ast.Tuple(elts=[_const(n) for n in names], ctx=ast.Load())


def _undefined(symbol: str, loc: Optional[str] = None) -> ast.Call:
    args = [_const(symbol)]
    if loc is not None:
        args.append(_const(loc))
    return _ag_call("Undefined", args)


def _thunk(name: str, body_expr: ast.expr) -> ast.FunctionDef:
    """``def name(): return <expr>`` (reads outer locals by closure)."""
    return ast.FunctionDef(
        name=name,
        args=_no_args(),
        body=[ast.Return(value=body_expr)],
        decorator_list=[],
        returns=None,
    )


def _no_args(params: Optional[list[str]] = None) -> ast.arguments:
    return ast.arguments(
        posonlyargs=[],
        args=[ast.arg(arg=p) for p in (params or [])],
        vararg=None,
        kwonlyargs=[],
        kw_defaults=[],
        kwarg=None,
        defaults=[],
    )


def _lambda(expr: ast.expr) -> ast.Lambda:
    return ast.Lambda(args=_no_args(), body=expr)


def _opts_dict(node: ast.stmt, filename: str) -> ast.Dict:
    return ast.Dict(
        keys=[_const("filename"), _const("lineno")],
        values=[_const(filename), _const(getattr(node, "lineno", 0))],
    )


# ---------------------------------------------------------------------------
# Pass 1: return lowering
# ---------------------------------------------------------------------------


class _ReturnLowering:
    """Rewrite early returns into flag/slot assignments.

    Only applied when the function has a return that is not simply the
    last top-level statement; straight-line functions keep their AST.
    """

    def __init__(self, do_return: str, retval: str) -> None:
        self.do_return = do_return
        self.retval = retval

    def needs_lowering(self, fnode: ast.FunctionDef) -> bool:
        returns = _count_returns(fnode.body)
        if returns == 0:
            return False
        if returns == 1 and isinstance(fnode.body[-1], ast.Return):
            return False
        return True

    def apply(self, fnode: ast.FunctionDef) -> None:
        body = self._process(list(fnode.body), in_loop=False)
        prelude = [
            _assign(self.do_return, _const(False)),
            _assign(self.retval, _undefined("return value")),
        ]
        epilogue = [ast.Return(value=_ag_call("retval", [_load(self.retval)]))]
        fnode.body = prelude + body + epilogue

    def _lower_return(self, node: ast.Return, in_loop: bool) -> list:
        value = node.value if node.value is not None else _const(None)
        out = [
            _assign(self.do_return, _const(True)),
            _assign(self.retval, value),
        ]
        if in_loop:
            out.append(ast.Break())
        for stmt in out:
            ast.copy_location(stmt, node)
        return out

    def _process(self, stmts: list, in_loop: bool) -> list:
        out: list = []
        for idx, stmt in enumerate(stmts):
            rest = stmts[idx + 1 :]
            if isinstance(stmt, ast.Return):
                out.extend(self._lower_return(stmt, in_loop))
                return out  # anything after a return is unreachable
            if isinstance(stmt, ast.If) and _count_returns([stmt]):
                stmt.body = self._process(stmt.body, in_loop)
                stmt.orelse = self._process(stmt.orelse, in_loop)
                if rest and self._definitely_returns(stmt.body) and not in_loop:
                    # Balanced-branch form: the fallthrough code becomes
                    # the else branch, so both paths assign the slot.
                    stmt.orelse = stmt.orelse + self._process(rest, in_loop)
                    out.append(stmt)
                    return out
                out.append(stmt)
                if rest:
                    out.extend(self._guard(self._process(rest, in_loop), stmt))
                    return out
                return out
            if isinstance(stmt, (ast.While, ast.For)) and _count_returns([stmt]):
                stmt.body = self._process(stmt.body, in_loop=True)
                stmt.orelse = self._process(stmt.orelse, in_loop)
                out.append(stmt)
                if rest:
                    out.extend(self._guard(self._process(rest, in_loop), stmt))
                    return out
                return out
            if isinstance(stmt, ast.Try) and _count_returns([stmt]):
                stmt.body = self._process(stmt.body, in_loop)
                stmt.orelse = self._process(stmt.orelse, in_loop)
                stmt.finalbody = self._process(stmt.finalbody, in_loop)
                for handler in stmt.handlers:
                    handler.body = self._process(handler.body, in_loop)
                out.append(stmt)
                if rest:
                    out.extend(self._guard(self._process(rest, in_loop), stmt))
                    return out
                return out
            out.append(stmt)
        return out

    def _guard(self, rest: list, anchor: ast.stmt) -> list:
        if not rest:
            return []
        guard = ast.If(
            test=_ag_call("not_", [_load(self.do_return)]),
            body=rest,
            orelse=[],
        )
        ast.copy_location(guard, anchor)
        return [guard]

    def _definitely_returns(self, stmts: list) -> bool:
        """The block always sets the return flag (ends in return-lowered code)."""
        if not stmts:
            return False
        last = stmts[-1]
        if (
            isinstance(last, ast.Assign)
            and len(last.targets) == 1
            and isinstance(last.targets[0], ast.Name)
            and last.targets[0].id == self.retval
        ):
            return True
        if isinstance(last, ast.If):
            return self._definitely_returns(last.body) and self._definitely_returns(
                last.orelse
            )
        return False


def _count_returns(stmts) -> int:
    class Counter(_ScopedVisitor):
        count = 0

        def visit_Return(self, node):  # noqa: N802
            self.count += 1

    c = Counter()
    for stmt in stmts:
        c.visit(stmt)
    return c.count


# ---------------------------------------------------------------------------
# Pass 2: break / continue canonicalization
# ---------------------------------------------------------------------------


class _LoopCanonicalizer:
    """Replace ``break``/``continue`` with guarded flags, innermost-first."""

    def __init__(self, namer: "_Namer") -> None:
        self.namer = namer

    def apply(self, fnode: ast.FunctionDef) -> None:
        fnode.body = self._process_block(fnode.body)

    def _process_block(self, stmts: list) -> list:
        out = []
        for stmt in stmts:
            out.extend(self._process_stmt(stmt))
        return out

    def _process_stmt(self, stmt: ast.stmt) -> list:
        # Recurse into nested blocks first (innermost loops canonicalize
        # before their enclosing loop inspects its own body).
        for field in ("body", "orelse", "finalbody"):
            if hasattr(stmt, field) and getattr(stmt, field):
                setattr(stmt, field, self._process_block(getattr(stmt, field)))
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                handler.body = self._process_block(handler.body)
        if isinstance(stmt, (ast.While, ast.For)) and not stmt.orelse:
            return self._canonicalize_loop(stmt)
        return [stmt]

    def _canonicalize_loop(self, loop) -> list:
        prelude: list = []
        has_break = _contains_own_loop(loop.body, ast.Break)
        has_continue = _contains_own_loop(loop.body, ast.Continue)
        if has_continue:
            flag = self.namer.fresh("continue")
            loop.body = [
                ast.copy_location(_assign(flag, _const(False)), loop)
            ] + _replace_jumps(loop.body, ast.Continue, flag)
        if has_break:
            flag = self.namer.fresh("break")
            prelude.append(ast.copy_location(_assign(flag, _const(False)), loop))
            loop.body = _replace_jumps(loop.body, ast.Break, flag)
            if isinstance(loop, ast.While):
                # while (not break_) and (orig_test) — the original test
                # gets its boolean ops rewritten *now*, because once it
                # is inside the lambda the lowering pass won't descend.
                loop.test = ast.copy_location(
                    _ag_call(
                        "and_",
                        [
                            _lambda(_ag_call("not_", [_load(flag)])),
                            _lambda(_BoolOpRewriter().visit(loop.test)),
                        ],
                    ),
                    loop.test,
                )
            else:
                # Stash the extra test on the node; the lowering pass
                # forwards it to for_stmt's extra_test.
                loop._ag_extra_test = _lambda(_ag_call("not_", [_load(flag)]))
        return prelude + [loop]


def _contains_own_loop(stmts, jump_type) -> bool:
    """Whether a break/continue belongs to *this* loop (not a nested one)."""

    class Finder(_ScopedVisitor):
        found = False

        def visit_While(self, node):  # noqa: N802
            pass  # a jump inside a nested loop binds to that loop

        visit_For = visit_While

        def generic_visit(self, node):
            if isinstance(node, jump_type):
                self.found = True
            if not self.found:
                super().generic_visit(node)

    f = Finder()
    for stmt in stmts:
        f.visit(stmt)
    return f.found


def _replace_jumps(stmts: list, jump_type, flag: str) -> list:
    """Replace this loop's jumps with flag sets, guarding the remainder."""
    out: list = []
    for idx, stmt in enumerate(stmts):
        rest = stmts[idx + 1 :]
        if isinstance(stmt, jump_type):
            out.append(ast.copy_location(_assign(flag, _const(True)), stmt))
            return out  # code after an unconditional jump is unreachable
        if isinstance(stmt, ast.If) and _contains_own_loop([stmt], jump_type):
            stmt.body = _replace_jumps(stmt.body, jump_type, flag)
            stmt.orelse = _replace_jumps(stmt.orelse, jump_type, flag)
            out.append(stmt)
            if rest:
                guard = ast.If(
                    test=_ag_call("not_", [_load(flag)]),
                    body=_replace_jumps(rest, jump_type, flag),
                    orelse=[],
                )
                ast.copy_location(guard, stmt)
                out.append(guard)
                return out
            return out
        if isinstance(stmt, (ast.Try, ast.With)) and _contains_own_loop(
            [stmt], jump_type
        ):
            stmt.body = _replace_jumps(stmt.body, jump_type, flag)
            if isinstance(stmt, ast.Try):
                stmt.orelse = _replace_jumps(stmt.orelse, jump_type, flag)
                stmt.finalbody = _replace_jumps(stmt.finalbody, jump_type, flag)
                for handler in stmt.handlers:
                    handler.body = _replace_jumps(handler.body, jump_type, flag)
            out.append(stmt)
            if rest:
                guard = ast.If(
                    test=_ag_call("not_", [_load(flag)]),
                    body=_replace_jumps(rest, jump_type, flag),
                    orelse=[],
                )
                ast.copy_location(guard, stmt)
                out.append(guard)
                return out
            return out
        out.append(stmt)
    return out


# ---------------------------------------------------------------------------
# Pass 3 + 4: control-flow lowering (with boolean-op rewriting in tests)
# ---------------------------------------------------------------------------


class _BoolOpRewriter(ast.NodeTransformer):
    """``and``/``or``/``not`` -> short-circuit-preserving operator calls.

    Applied to test expressions only; elsewhere Python semantics stand.
    Does not descend into nested lambdas/defs.
    """

    def visit_Lambda(self, node):  # noqa: N802
        return node

    def visit_FunctionDef(self, node):  # noqa: N802
        return node

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_BoolOp(self, node):  # noqa: N802
        self.generic_visit(node)
        op = "and_" if isinstance(node.op, ast.And) else "or_"
        result = node.values[-1]
        for value in reversed(node.values[:-1]):
            result = ast.copy_location(
                _ag_call(op, [_lambda(value), _lambda(result)]), node
            )
        return result

    def visit_UnaryOp(self, node):  # noqa: N802
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return ast.copy_location(_ag_call("not_", [node.operand]), node)
        return node


class _Namer:
    """Fresh generated names that cannot collide with user symbols."""

    def __init__(self, taken: set[str]) -> None:
        self._taken = set(taken)
        self._counter = 0

    def fresh(self, hint: str) -> str:
        while True:
            self._counter += 1
            name = f"_ag_{hint}_{self._counter}"
            if name not in self._taken:
                self._taken.add(name)
                return name

    def machinery(self, hint: str) -> str:
        """A name symbol analysis will never treat as program state."""
        while True:
            self._counter += 1
            name = f"{MACHINERY_PREFIX}{hint}_{self._counter}"
            if name not in self._taken:
                self._taken.add(name)
                return name


class _ControlFlowLowering:
    def __init__(
        self,
        namer: _Namer,
        excluded: frozenset,
        filename: str,
        declared_globals: frozenset = frozenset(),
        declared_nonlocals: frozenset = frozenset(),
    ) -> None:
        self.namer = namer
        self.excluded = excluded
        self.filename = filename
        self.declared_globals = declared_globals
        self.declared_nonlocals = declared_nonlocals
        self.bool_rewriter = _BoolOpRewriter()

    def apply(self, fnode: ast.FunctionDef) -> None:
        fnode.body = self._process_block(fnode.body)

    def _process_block(self, stmts: list) -> list:
        out: list = []
        for stmt in stmts:
            out.extend(self._process_stmt(stmt))
        return out

    def _process_stmt(self, stmt: ast.stmt) -> list:
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt)
        if isinstance(stmt, ast.While) and not stmt.orelse:
            return self._lower_while(stmt)
        if isinstance(stmt, ast.For) and not stmt.orelse:
            return self._lower_for(stmt)
        # Recurse into other compound statements (try/with, loop-else
        # loops we leave interpreted, nested defs stay untouched).
        if isinstance(stmt, (ast.While, ast.For, ast.With, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                if hasattr(stmt, field) and getattr(stmt, field):
                    setattr(stmt, field, self._process_block(getattr(stmt, field)))
            if isinstance(stmt, ast.Try):
                for handler in stmt.handlers:
                    handler.body = self._process_block(handler.body)
        return [stmt]

    # -- shared pieces ----------------------------------------------------

    def _state_functions(self, symbols, anchor) -> tuple:
        """Build the binder, ``get_state``, and ``set_state`` for symbols."""
        get_name = self.namer.machinery("get_state")
        set_name = self.namer.machinery("set_state")
        loc = f"{self.filename}:{getattr(anchor, 'lineno', '?')}"
        binders = []
        for sym in symbols:
            # `sym = sym` is a no-op when bound; unbound becomes the
            # Undefined sentinel.  Either way the function now has a
            # top-level binding, which `nonlocal` in the nested state
            # functions requires.
            bind = ast.Try(
                body=[_assign(sym, _load(sym))],
                handlers=[
                    ast.ExceptHandler(
                        type=_load("UnboundLocalError"),
                        name=None,
                        body=[_assign(sym, _undefined(sym, loc))],
                    )
                ],
                orelse=[],
                finalbody=[],
            )
            binders.append(ast.copy_location(bind, anchor))
        get_fn = ast.FunctionDef(
            name=get_name,
            args=_no_args(),
            body=[
                ast.Return(
                    value=ast.Tuple(
                        elts=[_load(s) for s in symbols], ctx=ast.Load()
                    )
                )
            ],
            decorator_list=[],
            returns=None,
        )
        values_param = self.namer.machinery("values")
        set_body: list = []
        if symbols:
            set_body.append(ast.Nonlocal(names=list(symbols)))
            set_body.append(
                ast.Assign(
                    targets=[
                        ast.Tuple(
                            elts=[_store(s) for s in symbols], ctx=ast.Store()
                        )
                    ],
                    value=_load(values_param),
                )
            )
        else:
            set_body.append(ast.Pass())
        set_fn = ast.FunctionDef(
            name=set_name,
            args=_no_args([values_param]),
            body=set_body,
            decorator_list=[],
            returns=None,
        )
        for fn in (get_fn, set_fn):
            ast.copy_location(fn, anchor)
        return binders, get_fn, set_fn, get_name, set_name

    def _body_function(self, name_hint, stmts, symbols, anchor, params=None):
        body_name = self.namer.machinery(name_hint)
        body: list = []
        # Statements the user wrote at function level move into this
        # nested def; any assignment to a ``global``/``nonlocal``-
        # declared name needs the declaration replicated here, or the
        # assignment would silently create a fresh local instead.
        assigned = _assigned_names(stmts, frozenset())
        globals_here = [n for n in assigned if n in self.declared_globals]
        nonlocals_here = [
            n
            for n in assigned
            if n in self.declared_nonlocals and n not in symbols
        ]
        if globals_here:
            body.append(ast.Global(names=globals_here))
        nl = list(symbols) + nonlocals_here
        if nl:
            body.append(ast.Nonlocal(names=nl))
        body.extend(stmts if stmts else [ast.Pass()])
        fn = ast.FunctionDef(
            name=body_name,
            args=_no_args(params or []),
            body=body,
            decorator_list=[],
            returns=None,
        )
        ast.copy_location(fn, anchor)
        return fn, body_name

    def _rewrite_test(self, test: ast.expr) -> ast.expr:
        return self.bool_rewriter.visit(test)

    # -- if ----------------------------------------------------------------

    def _lower_if(self, node: ast.If) -> list:
        body = self._process_block(node.body)
        orelse = self._process_block(node.orelse)
        body_vars = _assigned_names(body, self.excluded)
        orelse_vars = _assigned_names(orelse, self.excluded)
        symbols = list(dict.fromkeys(body_vars + orelse_vars))
        if not symbols:
            # No state to thread: branches are effect-only (calls,
            # assert-style raises).  Still lowered, with empty state.
            pass
        binders, get_fn, set_fn, get_name, set_name = self._state_functions(
            symbols, node
        )
        body_fn, body_name = self._body_function("if_body", body, symbols, node)
        orelse_fn, orelse_name = self._body_function(
            "else_body", orelse, symbols, node
        )
        call = ast.Expr(
            value=_ag_call(
                "if_stmt",
                [
                    self._rewrite_test(node.test),
                    _load(body_name),
                    _load(orelse_name),
                    _load(get_name),
                    _load(set_name),
                    _str_tuple(symbols),
                    _str_tuple(body_vars),
                    _str_tuple(orelse_vars),
                    _opts_dict(node, self.filename),
                ],
            )
        )
        ast.copy_location(call, node)
        return binders + [get_fn, set_fn, body_fn, orelse_fn, call]

    # -- while -------------------------------------------------------------

    def _lower_while(self, node: ast.While) -> list:
        body = self._process_block(node.body)
        symbols = _assigned_names(body, self.excluded)
        binders, get_fn, set_fn, get_name, set_name = self._state_functions(
            symbols, node
        )
        test_fn = _thunk(
            self.namer.machinery("loop_test"), self._rewrite_test(node.test)
        )
        ast.copy_location(test_fn, node)
        body_fn, body_name = self._body_function("loop_body", body, symbols, node)
        call = ast.Expr(
            value=_ag_call(
                "while_stmt",
                [
                    _load(test_fn.name),
                    _load(body_name),
                    _load(get_name),
                    _load(set_name),
                    _str_tuple(symbols),
                    _opts_dict(node, self.filename),
                ],
            )
        )
        ast.copy_location(call, node)
        return binders + [get_fn, set_fn, test_fn, body_fn, call]

    # -- for ---------------------------------------------------------------

    def _lower_for(self, node: ast.For) -> list:
        body = self._process_block(node.body)
        target_names = _assigned_names([ast.Assign(targets=[node.target],
                                                   value=_const(None))],
                                       frozenset())
        # The loop target is re-bound every iteration from the iterate;
        # it is body-local, not loop-carried state.
        symbols = [
            n
            for n in _assigned_names(body, self.excluded)
            if n not in target_names
        ]
        nonlocals = list(dict.fromkeys(symbols + [
            n for n in target_names if n not in self.excluded
        ]))
        binders, get_fn, set_fn, get_name, set_name = self._state_functions(
            symbols, node
        )
        # Bind the target too, so the nested body may declare it nonlocal
        # (after the loop it holds the last element, as in Python).
        target_binders, _tg, _ts, _tgn, _tsn = self._state_functions(
            [n for n in target_names if n not in self.excluded], node
        )
        value_param = self.namer.machinery("itervalue")
        assign_target = ast.Assign(
            targets=[node.target], value=_load(value_param)
        )
        ast.copy_location(assign_target, node)
        body_fn, body_name = self._body_function(
            "for_body", [assign_target] + body, nonlocals, node, [value_param]
        )
        extra = getattr(node, "_ag_extra_test", None)
        call = ast.Expr(
            value=_ag_call(
                "for_stmt",
                [
                    node.iter,
                    _load(body_name),
                    _load(get_name),
                    _load(set_name),
                    _str_tuple(symbols),
                    extra if extra is not None else _const(None),
                    _opts_dict(node, self.filename),
                ],
            )
        )
        ast.copy_location(call, node)
        return binders + target_binders + [get_fn, set_fn, body_fn, call]


# ---------------------------------------------------------------------------
# Driver: source -> transformed function object
# ---------------------------------------------------------------------------


def converted_code(fn: Callable) -> Optional[str]:
    """The transformed source of ``fn`` (for inspection/tests), or None."""
    prepared = _prepare(fn)
    if prepared is None:
        return None
    fnode, _ = prepared
    return ast.unparse(fnode)


def _prepare(fn: Callable):
    """Parse and transform; returns (function AST, source filename)."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return None
    source = textwrap.dedent(source)
    if AG_NAME in source or MACHINERY_PREFIX in source:
        return None  # would collide with generated names
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    if not tree.body or not isinstance(tree.body[0], ast.FunctionDef):
        return None
    fnode = tree.body[0]
    fnode.decorator_list = []
    # Keep original line numbers for error attribution.
    try:
        firstlineno = fn.__code__.co_firstlineno
    except AttributeError:
        firstlineno = 1
    ast.increment_lineno(tree, firstlineno - 1)

    # Nothing to lower?  Leave the function alone entirely.
    if not _contains(fnode.body, _CONTROL_NODES):
        return None

    declared = _DeclaredNames()
    for stmt in fnode.body:
        declared.visit(stmt)
    excluded = frozenset(declared.names)

    taken = {n.id for n in ast.walk(fnode) if isinstance(n, ast.Name)}
    namer = _Namer(taken)

    ret = _ReturnLowering(namer.fresh("do_return"), namer.fresh("retval"))
    if ret.needs_lowering(fnode):
        ret.apply(fnode)
    _LoopCanonicalizer(namer).apply(fnode)

    filename = getattr(getattr(fn, "__code__", None), "co_filename", "<autograph>")
    _ControlFlowLowering(
        namer,
        excluded,
        filename,
        declared_globals=frozenset(declared.globals_),
        declared_nonlocals=frozenset(declared.nonlocals_),
    ).apply(fnode)
    ast.fix_missing_locations(tree)
    return fnode, filename


#: ``fn.__code__`` -> ``(co_filename, transformed code object or None)``.
#: Everything conversion reads apart from globals, defaults and closure
#: cells is a function of the code object (its source, its free-variable
#: names), so closures and per-instance ``repro.function`` wrappers over
#: one ``def`` share a single parse/transform/compile; ``None`` records
#: the verdict that there is nothing to lower.  Code objects compare by
#: value without their filename, hence the filename in the entry.  Weak
#: keys: an entry dies with the code it describes.  Functions carrying
#: ``__wrapped__`` are not memoized (their source is someone else's).
_TEMPLATES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_TEMPLATES_LOCK = threading.Lock()


def _template_code(fn: types.FunctionType) -> Optional[types.CodeType]:
    """The converted code object for ``fn.__code__`` (memoized), or None."""
    if hasattr(fn, "__wrapped__"):
        # inspect.getsource follows __wrapped__: the source belongs to the
        # wrapped function, while every function a functools.wraps
        # decorator returns shares the wrapper's one __code__.
        return _build_template(fn)
    code = fn.__code__
    with _TEMPLATES_LOCK:
        entry = _TEMPLATES.get(code)
    if entry is not None and entry[0] == code.co_filename:
        return entry[1]
    template = _build_template(fn)
    with _TEMPLATES_LOCK:
        _TEMPLATES[code] = (code.co_filename, template)
    return template


def _build_template(fn: types.FunctionType) -> Optional[types.CodeType]:
    """Parse, transform and compile ``fn``'s source; None if left alone."""
    prepared = _prepare(fn)
    if prepared is None:
        return None
    fnode, filename = prepared

    # Default expressions were evaluated at the original def site; strip
    # them from the AST and re-attach the evaluated objects in convert().
    fnode.args.defaults = []
    fnode.args.kw_defaults = [None] * len(fnode.args.kwonlyargs)
    for arg in (
        fnode.args.posonlyargs
        + fnode.args.args
        + fnode.args.kwonlyargs
        + [a for a in (fnode.args.vararg, fnode.args.kwarg) if a]
    ):
        arg.annotation = None
    fnode.returns = None

    # Wrap in a factory whose parameters are the free variables (plus
    # the operators module), so the compiled inner function has matching
    # co_freevars; convert() re-attaches each function's own cells.
    freevars = list(fn.__code__.co_freevars)
    factory = ast.FunctionDef(
        name="_ag_factory__",
        args=_no_args([AG_NAME] + freevars),
        body=[fnode, ast.Return(value=_load(fnode.name))],
        decorator_list=[],
        returns=None,
    )
    module = ast.Module(body=[factory], type_ignores=[])
    ast.fix_missing_locations(module)

    try:
        code = compile(module, filename, "exec")
    except (SyntaxError, ValueError):
        return None

    namespace: dict = {}
    exec(code, {"__name__": fn.__module__}, namespace)
    return namespace["_ag_factory__"](operators, *([None] * len(freevars))).__code__


def convert(fn: Callable) -> Callable:
    """Return ``fn`` rewritten for staged control flow, or ``fn`` itself.

    The returned function is call-compatible: same signature, defaults,
    closure cells (``nonlocal`` mutation reaches the original cells),
    globals, and name.  Functions that cannot or need not be converted
    — generators, coroutines, lambdas, no retrievable source, no
    control flow — are returned unchanged.
    """
    if isinstance(fn, types.MethodType):
        converted = convert(fn.__func__)
        if converted is fn.__func__:
            return fn
        return types.MethodType(converted, fn.__self__)
    if not isinstance(fn, types.FunctionType):
        return fn
    if is_converted(fn):
        return fn
    if (
        inspect.isgeneratorfunction(fn)
        or inspect.iscoroutinefunction(fn)
        or inspect.isasyncgenfunction(fn)
        or fn.__name__ == "<lambda>"
    ):
        return fn
    template = _template_code(fn)
    if template is None:
        return fn

    cell_by_name = dict(zip(fn.__code__.co_freevars, fn.__closure__ or ()))
    cell_by_name[AG_NAME] = types.CellType(operators)
    closure = tuple(
        cell_by_name[name]
        if name in cell_by_name
        else types.CellType(None)
        for name in template.co_freevars
    )
    new_fn = types.FunctionType(
        template,
        fn.__globals__,
        fn.__name__,
        fn.__defaults__,
        closure,
    )
    new_fn.__kwdefaults__ = fn.__kwdefaults__
    new_fn.__dict__.update(fn.__dict__)
    new_fn.__doc__ = fn.__doc__
    new_fn.__module__ = fn.__module__
    new_fn.__qualname__ = fn.__qualname__
    setattr(new_fn, _CONVERTED_MARKER, True)
    setattr(new_fn, "__autograph_original__", fn)
    return new_fn
