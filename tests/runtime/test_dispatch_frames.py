"""Exact Python-frame counts of one eager op, per dispatch setting.

Each test counts the ``call`` events ``sys.setprofile`` reports for one
warmed-up ``repro.add`` of two CPU tensors.  The counts are pinned: a
change that adds a frame to the eager path fails here and must update
the number on purpose.  Before the eager path was collapsed into one
dispatch frame (tapes recording by a direct call instead of as an
interceptor), the same ``add`` took 26 frames with no tape, 39 under a
recording ``GradientTape``, 459 under a ``ForwardAccumulator`` and 29
with one eager interceptor registered.
"""

import gc
import sys

import pytest

import repro
from repro.runtime import dispatch

PARENT_PLAIN = 26
PARENT_TAPED = 39
FORWARD_ACCUMULATOR = 287  # the add, then its JVP through the Add gradient


def _frames(x, y) -> list:
    """Names of the Python frames one ``repro.add(x, y)`` enters.

    The garbage collector is off while the add runs: a collection that
    starts inside it would add the frames of any ``gc.callbacks``
    (hypothesis registers one) to the count.
    """
    repro.add(x, y)  # warm the kernel cache
    names = []
    previous = sys.getprofile()  # e.g. a coverage collector: keep it fed

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
        if previous is not None:
            previous(frame, event, arg)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        repro.add(x, y)
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return names


@pytest.fixture(autouse=True)
def _sync():
    with repro.execution_mode("sync"):
        yield


@pytest.fixture
def xy():
    return repro.constant([1.0, 2.0]), repro.constant([3.0, 4.0])


class _Probe(dispatch.OpInterceptor):
    name = "frame-probe"
    modes = (dispatch.EAGER,)


class TestEagerAddFrames:
    def test_no_tape(self, xy):
        names = _frames(*xy)
        assert names == [
            "add",
            "execute_binary",
            "dtype",
            "dtype",
            "execute",
            "dispatch",
            "kernel",
            "wrap_outputs",
            "adopt",
        ]
        assert len(names) <= PARENT_PLAIN - 2

    def test_recording_gradient_tape(self, xy):
        x, y = xy
        with repro.GradientTape() as tape:
            tape.watch(x)
            names = _frames(x, y)
        assert len(names) == 12
        assert names[-3:] == ["record_operation", "record", "__init__"]
        assert len(names) <= PARENT_TAPED - 2
        assert "on_complete" not in names  # not an interceptor

    def test_forward_accumulator(self, xy):
        x, y = xy
        with repro.ForwardAccumulator([x], [repro.constant([1.0, 1.0])]) as acc:
            names = _frames(x, y)
            out = repro.add(x, y)
        assert len(names) == FORWARD_ACCUMULATOR
        assert names[:7] == ["add", "execute_binary", "dtype", "dtype", "execute",
                             "dispatch", "kernel"]
        assert "record_operation" in names
        assert acc.jvp(out).numpy().tolist() == [1.0, 1.0]

    def test_registered_eager_interceptor(self, xy):
        probe = dispatch.core.register_interceptor(_Probe())
        try:
            names = _frames(*xy)
        finally:
            dispatch.core.unregister_interceptor(probe)
        assert len(names) == 15
        assert names[5:] == [
            "dispatch",
            "_intercepted",
            "<listcomp>",
            "on_start",
            "_dispatch_on",
            "resolve_kernel",
            "kernel",
            "wrap_outputs",
            "adopt",
            "on_complete",
        ]

