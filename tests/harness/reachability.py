"""Opt-in pytest plugin: every ``def`` in ``src/repro`` is entered by the
suite, or it is on :data:`ALLOWLIST` with its reason.

Run the whole suite with it::

    PYTHONPATH=src python -m pytest -x -q -p tests.harness.reachability

It installs ``sys.setprofile`` and ``threading.setprofile`` when pytest
imports it, before ``repro`` is imported, so module-level calls count.
A profile hook sees only function entries and exits, and it coexists
with a coverage tracer (which uses ``settrace``).  At session end every
code object that was entered is mapped to the ``def`` that compiled it,
by file and first line (a decorated ``def`` starts at its first
decorator), and the session fails on any ``def`` never entered that the
allowlist does not name, and on any allowlist entry that no longer
names an unentered ``def``.  Lambdas and comprehensions are not
``def``s and are not counted.

The check runs only when the whole suite ran and passed: a failed, a
``-k``/``-m``-filtered or a path-restricted session would report every
``def`` its skipped tests enter.  The plugin roughly doubles the
suite's wall time, which is why it is opt-in.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

SRC_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro")
)

# ``path::qualname  reason``, the path relative to ``src/repro``.  An
# entry is a ``def`` that no tier-1 test can reach without changing what
# it tests: a ``__repr__`` (no assertion reads it), or a base-class
# default that every registered subclass overrides.
ALLOWLIST = """
autograph/operators.py::Undefined.__repr__ __repr__
core/function.py::ConcreteFunction.__repr__ __repr__
core/function.py::Function.__repr__ __repr__
core/saved_function.py::LoadedFunction.__repr__ __repr__
core/variables.py::Variable.__repr__ __repr__
distribute/cluster.py::ClusterSpec.__repr__ __repr__
distribute/strategy.py::PerReplica.__repr__ __repr__
distribute/worker.py::WorkerServer.__repr__ __repr__
graph/fusion.py::FusionRegion.__repr__ __repr__
graph/graph.py::Node.__repr__ __repr__
graph/graph.py::Graph.__repr__ __repr__
graph/structural.py::Identity.__repr__ __repr__
runtime/device.py::DeviceSpec.__str__ __str__
runtime/device.py::Device.__repr__ __repr__
serving/server.py::ServedModel.__repr__ __repr__
serving/server.py::ModelServer.__repr__ __repr__
xla/compiler.py::CompiledExecutable.__repr__ __repr__
xla/hlo.py::HloInstruction.__repr__ __repr__
xla/hlo.py::HloComputation.__repr__ __repr__
core/checkpoint.py::Trackable._restore_from_checkpoint base-class default: raises; only NumpyState stores values, and it overrides
nn/layers.py::Layer.call base-class default: raises; every layer overrides
nn/optimizers.py::Optimizer._apply_dense base-class default: raises; SGD and Adam override
runtime/dispatch.py::OpInterceptor.on_staged base-class default: a no-op hook; the tape's interceptor, the one with STAGE mode, overrides it
runtime/dispatch.py::OpInterceptor.on_retry base-class default: a no-op hook; the profiler overrides it
runtime/workqueue.py::WorkQueue._execute_batch base-class default: raises; WorkerServer and ServedModel override
"""

# id(code) -> code: holding the code object keeps its id from being
# reused by a later, different code object.
_entered: dict[int, object] = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered[id(code)] = code


def entered_keys():
    """``(realpath, first line)`` of every code object entered so far."""
    paths: dict[str, str] = {}
    keys = set()
    for code in list(_entered.values()):
        path = paths.get(code.co_filename)
        if path is None:
            path = paths[code.co_filename] = os.path.realpath(code.co_filename)
        keys.add((path, code.co_firstlineno))
    return keys


def defs(root):
    """Yield ``(relpath, qualname, first line, line count)`` for every
    ``def`` in the ``.py`` files under ``root``."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            yield from _walk(tree, rel, "")


def _walk(node, rel, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield rel, qualname, first, child.end_lineno - first + 1
            yield from _walk(child, rel, qualname + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, rel, prefix + child.name + ".")
        else:
            yield from _walk(child, rel, prefix)


def parse_allowlist(text):
    """``{"path::qualname": reason}`` from the allowlist's lines."""
    entries = {}
    for line in text.strip().splitlines():
        name, _, reason = line.strip().partition(" ")
        if not reason.strip():
            raise ValueError("allowlist entry %r has no reason" % name)
        entries[name] = reason.strip()
    return entries


def report(root, entered, allowlist):
    """The check's failures, one line each: every ``def`` under ``root``
    whose ``(realpath, first line)`` is not in ``entered`` and whose
    ``path::qualname`` is not in ``allowlist``, then every allowlist
    entry that names no unentered ``def``."""
    root = os.path.realpath(root)
    problems, unentered = [], set()
    for rel, qualname, first, lines in defs(root):
        if (os.path.join(root, rel.replace("/", os.sep)), first) in entered:
            continue
        name = "%s::%s" % (rel, qualname)
        unentered.add(name)
        if name not in allowlist:
            problems.append("never entered: %s (line %d, %d lines)" % (name, first, lines))
    for name in allowlist:
        if name not in unentered:
            problems.append("stale allowlist entry: %s" % name)
    return problems


sys.setprofile(_profile)
threading.setprofile(_profile)

_deselected = False


def pytest_deselected(items):
    global _deselected
    _deselected = True


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    config = session.config
    writer = config.pluginmanager.get_plugin("terminalreporter")
    whole = config.args_source == config.ArgsSource.TESTPATHS and not _deselected
    if exitstatus != 0 or not whole:
        if writer is not None:
            writer.write_line(
                "reachability: not checked (the whole suite did not run and pass)"
            )
        return
    allowlist = parse_allowlist(ALLOWLIST)
    problems = report(SRC_ROOT, entered_keys(), allowlist)
    if writer is not None:
        for line in problems:
            writer.write_line("reachability: " + line, red=True)
        writer.write_line(
            "reachability: %d problem(s), %d allowlisted" % (len(problems), len(allowlist))
        )
    if problems:
        session.exitstatus = 1
