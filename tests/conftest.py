"""Shared fixtures: deterministic seeds, context-knob isolation, and
numeric-gradient helpers (re-exported from :mod:`tests.harness.grad_check`)."""

from __future__ import annotations

import collections

import numpy as np
import pytest

import repro
from repro.ops import registry
from repro.runtime import dispatch, profiler
from repro.runtime.context import context
from repro.tensor import TensorSpec

# Kept importable from here for existing tests; the implementation
# lives in the harness package now.
from tests.harness.grad_check import numeric_gradient  # noqa: F401


@pytest.fixture(autouse=True)
def _seed_everything():
    repro.set_random_seed(1234)
    np.random.seed(1234)
    yield
    repro.set_random_seed(None)


@pytest.fixture(autouse=True)
def _reset_context_knobs():
    """Restore every process-global execution knob after each test.

    Tests flip ``executor_mode``, deadlines, placement policy, and
    register dispatch interceptors; a test that fails (or just forgets
    to clean up) must not leak that state into whichever test happens
    to run next.
    """
    interceptors_before = tuple(dispatch.core._interceptors)
    yield
    # Lazy traces: flush any pending segment, then *discard* the
    # deferred error — it belongs to the test that just finished.
    import sys

    lazy_mod = sys.modules.get("repro.runtime.lazy")
    if lazy_mod is not None:
        lazy_mod.flush_all_pending()
        lazy_mod.take_deferred()
    # Every knob back to its environment-derived default, through its
    # setter, so on_change effects (a kernel-cache clear, a lazy
    # flush) apply as well.
    context.reset_knobs()
    repro.tensor._specialization_warned_sites.clear()
    # RetraceWarning state is rate-limited per Function; a warning
    # consumed (or suppressed) by one test must not change whether the
    # next test sees one.
    from repro.core.function import reset_retrace_warning_state

    reset_retrace_warning_state()
    # Interceptors registered during the test and never unregistered.
    for it in tuple(dispatch.core._interceptors):
        if it not in interceptors_before:
            dispatch.core.unregister_interceptor(it)
    # A profiler left active (a failed test inside `with Profile()`).
    if profiler.active is not None:
        with profiler._lock:
            profiler.active = None


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def grad_checker():
    """Compare tape gradients against central differences."""
    from tests.harness.grad_check import check_gradient

    def check(op_fn, x_np, rtol=1e-2, atol=1e-3):
        check_gradient(op_fn, x_np, rtol=rtol, atol=atol)

    return check


#: Kernel calls of the ``boom_op`` fixture's counting ops, by op name.
CALLS = collections.Counter()


@pytest.fixture
def boom_op():
    """``TestBoomElem``: an ELEMENTWISE op (so a fusion candidate) whose
    kernel always raises.  Alongside it, ``TestBoomOnceElem`` (ELEMENTWISE)
    and ``TestBoomOnce`` (no trait, never fused) raise on their first
    call only, and ``TestCountElem`` (ELEMENTWISE) copies its input; the
    three count their calls in ``CALLS``.  All four infer their output
    from symbolic and eager inputs alike, so lazy mode records them.
    Registered for one test only."""

    def _boom(arrays, attrs, device):
        raise ValueError("boom kernel exploded")

    def _counted(name, first_call_raises):
        def kernel(arrays, attrs, device):
            CALLS[name] += 1
            if first_call_raises and CALLS[name] == 1:
                raise ValueError(f"{name} failed on its first call")
            return arrays[0].copy()

        return kernel

    kernels = {
        "TestBoomElem": (_boom, (registry.ELEMENTWISE,)),
        "TestBoomOnceElem": (_counted("TestBoomOnceElem", True), (registry.ELEMENTWISE,)),
        "TestBoomOnce": (_counted("TestBoomOnce", True), ()),
        "TestCountElem": (_counted("TestCountElem", False), (registry.ELEMENTWISE,)),
    }
    CALLS.clear()
    for name, (kernel, traits) in kernels.items():
        registry.register_op(
            name,
            infer_fn=lambda inputs, attrs: [TensorSpec.from_tensor(inputs[0])],
            traits=traits,
        )
        registry.register_kernel(name, ("CPU",))(kernel)
    yield "TestBoomElem"
    for name in kernels:
        registry.unregister_kernel(name, ("CPU",))
        del registry._OPS[name]
