"""The knob table (`repro.runtime.context.KNOBS`), exercised row by row.

One parametrized pass over the table covers what used to be a test per
knob: defaults, environment parsing, rejection of garbage, setter
validation and the ``on_change`` side effects.  The table's consumers
are pinned here too: the conftest reset, the benchmark harness's knob
discovery, and README's "Knobs" section.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro
from repro.framework.errors import InvalidArgumentError
from repro.graph.executor import GraphRunner
from repro.graph.function import placeholder
from repro.graph.graph import Graph
from repro.runtime import dispatch
from repro.runtime.context import KNOBS, Context, context
from repro.tensor import LazyTensor

NAMES = {knob.name for knob in KNOBS}
#: Values at collection time, i.e. what this process's environment asked for.
STARTUP = {knob.name: getattr(context, knob.name) for knob in KNOBS}

knobs = pytest.mark.parametrize("knob", KNOBS, ids=lambda knob: knob.name)


def other_value(knob, current):
    """A valid value for ``knob`` different from ``current``."""
    if knob.kind == "bool":
        return not current
    if knob.kind == "mode":
        return "lazy" if current == "sync" else "sync"
    return 5 if current is None else current + 1


def clear_env(monkeypatch):
    for knob in KNOBS:
        for env in knob.env:
            monkeypatch.delenv(env, raising=False)


@knobs
def test_default_with_env_unset(knob, monkeypatch):
    clear_env(monkeypatch)
    context.reset_knobs()
    assert getattr(context, knob.name) == knob.default
    assert type(getattr(context, knob.name)) is type(knob.default)


#: kind -> (environment string, parsed value) pairs every knob of that kind accepts.
ENV_SAMPLES = {
    "bool": [("1", True), ("TRUE", True), (" yes ", True), ("On", True),
             ("0", False), ("false", False), ("NO", False), ("off", False), ("", False)],
    "int": [("3", 3), (" 17 ", 17)],
    "float": [("1500", 1500.0), ("2.5", 2.5), ("0", None), ("-1", None)],
    # its variable is a boolean selecting lazy
    "mode": [("1", "lazy"), ("yes", "lazy"), ("0", "sync"), ("", "sync")],
}


@knobs
def test_env_override_parses(knob, monkeypatch):
    for env in knob.env:
        for raw, expected in ENV_SAMPLES[knob.kind]:
            clear_env(monkeypatch)
            monkeypatch.setenv(env, raw)
            context.reset_knobs()
            assert getattr(context, knob.name) == expected, raw


ENV_GARBAGE = {
    "bool": ["ture", "banana", "2", "yes please"],
    "mode": ["ture", "banana", "lazy"],  # its variable is a boolean
    "int": ["banana", "", "0", "-3", "2.5"],
    "float": ["banana", ""],
}


@knobs
def test_env_garbage_raises_naming_the_variable(knob, monkeypatch):
    for env in knob.env:
        for raw in ENV_GARBAGE[knob.kind]:
            clear_env(monkeypatch)
            monkeypatch.setenv(env, raw)
            with pytest.raises(InvalidArgumentError, match=env):
                context.reset_knobs()
            with pytest.raises(InvalidArgumentError, match=env):
                Context(num_gpus=0, num_tpus=0)


SETTER_REJECTS = {
    "bool": [],  # coerced with bool()
    "mode": ["turbo", "async", "", None, 1],
    "int": [0, -1, "zero", None],
    "float": [0, 0.0, -1.5, "soon"],
}


@knobs
def test_setter_validates(knob):
    before = getattr(context, knob.name)
    for bad in SETTER_REJECTS[knob.kind]:
        with pytest.raises(InvalidArgumentError, match=knob.name):
            setattr(context, knob.name, bad)
        assert getattr(context, knob.name) == before
    value = other_value(knob, before)
    setattr(context, knob.name, value)
    assert getattr(context, knob.name) == value
    if knob.kind == "bool":
        setattr(context, knob.name, 0)
        assert getattr(context, knob.name) is False
    elif knob.kind == "int":
        setattr(context, knob.name, "7")
        assert getattr(context, knob.name) == 7
    elif knob.kind == "float":
        setattr(context, knob.name, None)
        assert getattr(context, knob.name) is None
        setattr(context, knob.name, 250)
        assert getattr(context, knob.name) == 250.0


# -- on_change: the two side effects -------------------------------------------
def _check_executor_mode():
    context.executor_mode = "lazy"
    y = repro.constant([1.0, 2.0]) * 2.0
    assert isinstance(y, LazyTensor) and not y.is_ready()
    context.executor_mode = "sync"  # leaving a deferred mode synchronizes
    assert y.is_ready()


def _check_soft_device_placement():
    with repro.execution_mode("sync"):
        repro.constant([1.0]) + repro.constant([2.0])
    assert dispatch.core.kernel_cache_size() > 0
    context.soft_device_placement = not context.soft_device_placement
    assert dispatch.core.kernel_cache_size() == 0


ON_CHANGE_CHECKS = {
    "executor_mode": _check_executor_mode,
    "soft_device_placement": _check_soft_device_placement,
}


def test_exactly_these_knobs_have_side_effects():
    assert {k.name for k in KNOBS if k.on_change is not None} == set(ON_CHANGE_CHECKS)


@pytest.mark.parametrize("name", sorted(ON_CHANGE_CHECKS))
def test_on_change_fires(name):
    ON_CHANGE_CHECKS[name]()


# -- the table's consumers ------------------------------------------------------
class TestConftestReset:
    """``tests/conftest.py`` resets through the table, so a knob cannot
    exist without a reset.  The two tests run in file order."""

    def test_set_every_knob_to_a_non_default(self):
        for knob in KNOBS:
            value = other_value(knob, STARTUP[knob.name])
            setattr(context, knob.name, value)
            assert getattr(context, knob.name) == value != STARTUP[knob.name]

    def test_the_fixture_restored_every_knob(self):
        assert {knob.name: getattr(context, knob.name) for knob in KNOBS} == STARTUP


def test_benchmark_knob_discovery_contract():
    """What ``benchmarks/perf/harness.environment()`` relies on."""
    discovered = {
        key
        for key in dir(type(context))
        if not key.startswith("_") and isinstance(getattr(type(context), key), property)
    }
    # Exactly the table: the benchmark's knob dump lists nothing else.
    assert discovered == NAMES and "executor_mode" in discovered
    for knob in KNOBS:
        assert isinstance(getattr(context, knob.name), (bool, int, float, str, type(None)))
        assert type(context).__dict__[knob.name].__doc__.startswith(knob.doc.strip()[:40])
    # The dispatch hot path reads this one as a plain instance attribute.
    assert vars(context)["_executor_mode"] == context.executor_mode


def test_retired_knobs_are_gone():
    for name in ("relax_retraces", "serving_max_batch", "serving_queue_depth",
                 "serving_timeout_ms", "async_eager", "lazy_eager",
                 "stream_depth", "inter_op_parallelism_threads",
                 "process_devices", "kernel_backend", "relax_shapes",
                 "autograph"):
        assert not hasattr(context, name), name
    assert not [name for name in dir(Context) if name.endswith("_from_env")]


def test_retired_modes_raise_naming_what_is_left():
    """Async eager mode and the thread-parallel graph scheduler are gone;
    asking for either fails loudly instead of silently running serial."""
    with pytest.raises(InvalidArgumentError, match='"sync" or "lazy"'):
        context.executor_mode = "async"
    with pytest.raises(InvalidArgumentError, match='"sync" or "lazy"'):
        with repro.execution_mode("async"):
            pass
    assert context.executor_mode == STARTUP["executor_mode"]

    g = Graph("p")
    x = placeholder(g, repro.float32, [2], name="x")
    with g.as_default():
        y = x + x
    feed = [(x, repro.constant([1.0, 2.0]))]
    with pytest.raises(InvalidArgumentError, match="parallel"):
        GraphRunner(g, [y]).run(feed, parallel=True)
    (out,) = GraphRunner(g, [y]).run(feed, False)  # how the benchmark's spans call it
    assert out.numpy().tolist() == [2.0, 4.0]


def knob_rows() -> list[str]:
    """README's "Knobs" table, one row per table entry."""
    rows = []
    for knob in KNOBS:
        env = " > ".join(f"`{name}`" for name in knob.env) or "—"
        doc = re.sub(r":\w+:`([\w.]+)`", r"`\1`", " ".join(knob.doc.split()))
        doc = doc.replace("``", "`")  # reStructuredText literals and roles to Markdown
        rows.append(f"| `context.{knob.name}` | {env} | `{knob.default!r}` | {doc} |")
    return rows


def test_readme_knob_rows_are_the_rendered_table():
    readme = (pathlib.Path(__file__).parents[2] / "README.md").read_text()
    section = readme.split("## Knobs", 1)[1].split("\n## ", 1)[0]
    table_rows = [line for line in section.splitlines() if line.startswith("| `context.")]
    assert table_rows == knob_rows(), "regenerate README's rows:\n" + "\n".join(knob_rows())
