"""Negative space of the autograph transform.

The transform is default-on for every ``repro.function``, so what it
must *not* change matters as much as what it lowers.  These tests pin:

- conversion skips (no control flow, generators, lambdas, idempotence);
- exact Python semantics for non-tensor predicates — evaluation order,
  short-circuiting, generators, ``try``/``finally``, closures mutating
  ``nonlocal`` state;
- function identity: name, doc, defaults, closure cells, line numbers;
- clear errors naming the offending symbol and source line when a
  construct cannot be lowered;
- the per-function opt-out (``autograph=False``);
- the silent-specialization warning on ``bool(concrete tensor)`` inside
  a trace.
"""

import functools
import traceback

import numpy as np
import pytest

import repro
from repro.autograph import (
    AutographError,
    convert,
    converted_code,
    is_converted,
)
from repro.framework.errors import FailedPreconditionError


# ---------------------------------------------------------------------------
# Conversion skips
# ---------------------------------------------------------------------------


def _no_control_flow(x):
    return x * 2.0 + 1.0


def _gen(n):
    for i in range(n):
        yield i


def test_function_without_control_flow_is_returned_unchanged():
    assert convert(_no_control_flow) is _no_control_flow


def test_generator_function_is_returned_unchanged():
    assert convert(_gen) is _gen
    assert list(_gen(3)) == [0, 1, 2]


def test_lambda_is_returned_unchanged():
    f = lambda x: x + 1 if x > 0 else x - 1  # noqa: E731
    assert convert(f) is f


def test_conversion_is_idempotent():
    def f(x):
        if x > 0:
            return x
        return -x

    g = convert(f)
    assert g is not f
    assert is_converted(g)
    assert convert(g) is g


def test_converted_code_shows_lowered_operators():
    def f(x):
        while x > 0:
            x = x - 1
        return x

    code = converted_code(f)
    assert "_ag__.while_stmt" in code
    assert "while x > 0" not in code


# ---------------------------------------------------------------------------
# Python semantics preserved for non-tensor predicates
# ---------------------------------------------------------------------------


def test_python_control_flow_results_identical():
    def f(items):
        total = 0
        out = []
        for item in items:
            if item % 2 == 0:
                out.append(item)
            else:
                total += item
        i = 0
        while i < 3:
            total += i
            i += 1
        return total, out

    g = convert(f)
    assert g is not f
    assert g([1, 2, 3, 4, 5]) == f([1, 2, 3, 4, 5])


def test_short_circuit_evaluation_order_preserved():
    calls = []

    def a():
        calls.append("a")
        return False

    def b():
        calls.append("b")
        return True

    def f():
        if a() and b():
            return 1
        return 0

    g = convert(f)
    assert g() == 0
    assert calls == ["a"], "the `and` right operand must not run"

    calls.clear()

    def h():
        if a() or b():
            return 1
        return 0

    assert convert(h)() == 1
    assert calls == ["a", "b"]


def test_for_over_generator_with_break_does_not_overdrain():
    pulled = []

    def source():
        for i in range(10):
            pulled.append(i)
            yield i

    def f(gen):
        seen = []
        for item in gen:
            seen.append(item)
            if item >= 1:
                break
        return seen

    g = convert(f)
    assert g(source()) == [0, 1]
    # A careless canonicalization advances the iterator once past the
    # break; real Python stops exactly at the broken iteration.
    assert pulled == [0, 1]


def test_continue_semantics_preserved():
    def f(n):
        acc = []
        for i in range(n):
            if i % 2 == 0:
                continue
            acc.append(i)
        return acc

    assert convert(f)(6) == [1, 3, 5]


def test_return_inside_try_runs_finally():
    events = []

    def f(x):
        try:
            if x > 0:
                return "pos"
            return "nonpos"
        finally:
            events.append("fin")

    g = convert(f)
    assert g(1) == "pos"
    assert g(-1) == "nonpos"
    assert events == ["fin", "fin"]


def test_try_except_semantics_preserved():
    def f(x):
        caught = False
        try:
            if x > 0:
                raise ValueError("boom")
        except ValueError:
            caught = True
        return caught

    g = convert(f)
    assert g(1) is True
    assert g(-1) is False


def test_closure_mutating_nonlocal_reaches_original_cell():
    counter = {"n": 0}
    hits = 0

    def bump():
        nonlocal hits
        i = 0
        while i < 3:
            hits += 1
            counter["n"] += 1
            i += 1

    convert(bump)()
    assert hits == 3
    assert counter["n"] == 3


def _make_counter(step):
    total = 0

    def bump(n):
        nonlocal total
        i = 0
        while i < n:
            total += step
            i += 1
        return total

    return bump, lambda: total


def test_closures_sharing_code_convert_once_and_keep_their_own_cells(monkeypatch):
    """Conversion is memoized on ``__code__``: the parse/transform/compile
    happens once per ``def``; cells, defaults and globals bind per function."""
    from repro.autograph import transform

    compiles = []
    monkeypatch.setattr(
        transform,
        "compile",
        lambda *args, **kwargs: compiles.append(args[1]) or compile(*args, **kwargs),
        raising=False,
    )
    bump_a, read_a = _make_counter(1)
    bump_b, read_b = _make_counter(10)
    assert bump_a.__code__ is bump_b.__code__
    conv_a, conv_b = convert(bump_a), convert(bump_b)
    assert is_converted(conv_a) and is_converted(conv_b)
    assert len(compiles) == 1
    assert conv_a.__code__ is conv_b.__code__
    assert conv_a is not conv_b
    assert conv_a(3) == 3 and conv_b(2) == 20
    # ``nonlocal`` writes landed in each closure's own original cell.
    assert (read_a(), read_b()) == (3, 20)
    assert bump_a(1) == 4  # the unconverted original shares that cell
    # The "nothing to lower" verdict is memoized the same way: the
    # source is read and parsed at most once.
    parses = []
    prepare = transform._prepare
    monkeypatch.setattr(
        transform, "_prepare", lambda fn: parses.append(fn) or prepare(fn)
    )

    def plain(x):
        return x + 1

    assert convert(plain) is plain
    assert convert(plain) is plain
    assert len(parses) == 1
    assert len(compiles) == 1


def _passthrough(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        return f(*args, **kwargs)

    return wrapper


@_passthrough
def _wrapped_plus_one(x):
    if repro.reduce_sum(x) > 0:
        y = x + 1.0
    else:
        y = x
    return y


@_passthrough
def _wrapped_times_ten(x):
    if repro.reduce_sum(x) > 0:
        y = x * 10.0
    else:
        y = x
    return y


def test_functools_wraps_decorated_functions_do_not_share_a_conversion():
    """Every function one ``functools.wraps`` decorator returns has the
    same ``__code__`` but its source is the wrapped function's; the memo
    must not hand the second one the first one's body."""
    assert _wrapped_plus_one.__code__ is _wrapped_times_ten.__code__
    ones = repro.constant(np.ones(2, dtype=np.float32))
    first = repro.function(_wrapped_plus_one, autograph=True)
    second = repro.function(_wrapped_times_ten, autograph=True)
    np.testing.assert_array_equal(first(ones).numpy(), [2.0, 2.0])
    np.testing.assert_array_equal(second(ones).numpy(), [10.0, 10.0])
    np.testing.assert_array_equal(first(-ones).numpy(), [-1.0, -1.0])
    assert first.trace_count == 1 and second.trace_count == 1


def test_while_else_left_interpreted():
    def f(n):
        i = 0
        while i < n:
            i += 1
        else:
            i = -i
        return i

    assert convert(f)(3) == -3


# ---------------------------------------------------------------------------
# Function identity
# ---------------------------------------------------------------------------


def test_name_doc_and_defaults_preserved():
    def f(x, scale=2.0, *, bias=1.0):
        """Scale then shift."""
        if x > 0:
            return x * scale + bias
        return x

    g = convert(f)
    assert g.__name__ == "f"
    assert g.__doc__ == "Scale then shift."
    assert g.__defaults__ == (2.0,)
    assert g.__kwdefaults__ == {"bias": 1.0}
    assert g(3) == 7.0
    assert g(3, scale=10.0, bias=0.0) == 30.0


def test_runtime_error_points_at_original_source_line():
    def f(x):
        if x > 0:
            raise ValueError("marker")  # LINE: raise-site
        return x

    g = convert(f)
    try:
        g(1)
    except ValueError:
        tb = traceback.extract_tb(__import__("sys").exc_info()[2])
        frame = tb[-1]
        assert frame.filename.endswith("test_transform.py")
        with open(frame.filename) as fh:
            line = fh.readlines()[frame.lineno - 1]
        assert "LINE: raise-site" in line
    else:
        pytest.fail("expected ValueError")


# ---------------------------------------------------------------------------
# Clear errors for un-lowerable staging
# ---------------------------------------------------------------------------


def test_branch_local_symbol_used_after_staged_if_raises_with_location():
    @repro.function(autograph=True)
    def f(x):
        if repro.reduce_sum(x) > 0.0:
            y = x * 2.0
        return y  # `y` has no value on the false path

    with pytest.raises(AutographError) as err:
        f(repro.constant([1.0, 2.0]))
    msg = str(err.value)
    assert "'y'" in msg
    assert "test_transform.py" in msg


def test_body_local_temp_used_after_staged_while_raises():
    @repro.function(autograph=True)
    def f(x):
        i = repro.constant(0)
        while i < 3:
            tmp = x * repro.cast(i, x.dtype)
            i = i + 1
        return tmp  # per-iteration temporary, not loop-carried

    with pytest.raises(AutographError, match="'tmp'"):
        f(repro.constant([1.0, 2.0]))


def test_non_tensor_loop_state_raises_with_symbol_and_location():
    @repro.function(autograph=True)
    def f(x):
        label = object()  # not convertible to a tensor
        i = repro.constant(0)
        while i < 3:
            label = object()
            i = i + 1
        return x

    with pytest.raises(AutographError) as err:
        f(repro.constant([1.0]))
    msg = str(err.value)
    assert "'label'" in msg
    assert "test_transform.py" in msg


# ---------------------------------------------------------------------------
# Opt-out paths
# ---------------------------------------------------------------------------


def _tensor_branch(x):
    if x > 0.0:
        return x * 2.0
    return -x


def test_opt_out_per_function():
    f = repro.function(_tensor_branch, autograph=False)
    with pytest.raises(FailedPreconditionError, match="repro.cond"):
        f(repro.constant(1.0))


def test_default_on_single_trace_serves_both_branches():
    f = repro.function(_tensor_branch)
    assert float(f(repro.constant(2.0))) == 4.0
    assert float(f(repro.constant(-3.0))) == 3.0
    assert f.trace_count == 1


# ---------------------------------------------------------------------------
# Silent-specialization warning
# ---------------------------------------------------------------------------


def test_bool_of_concrete_tensor_during_tracing_warns_once():
    closed_over = repro.constant(1.0)

    def f(x):
        if bool(closed_over):
            return x * 2.0
        return x

    staged = repro.function(f, autograph=False)
    with pytest.warns(repro.TraceSpecializationWarning, match="test_transform.py"):
        staged(repro.constant(3.0))

    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        staged(repro.constant(np.array([1.0, 2.0], dtype=np.float32)))  # retrace
    assert not [
        w for w in seen if issubclass(w.category, repro.TraceSpecializationWarning)
    ], "the warning is rate-limited to once per call site"


def test_bool_of_concrete_tensor_outside_tracing_does_not_warn():
    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert bool(repro.constant(1.0))
    assert not [
        w for w in seen if issubclass(w.category, repro.TraceSpecializationWarning)
    ]
