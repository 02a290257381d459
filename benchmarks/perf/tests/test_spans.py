"""Span arithmetic on synthetic spans, and that the hooks come off again."""

from benchmarks.perf import metrics, spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _span(rec, clock, name, start, end, children=()):
    clock.now = start
    rec.begin(name)
    for child in children:
        _span(rec, clock, *child)
    clock.now = end
    rec.end()


def test_self_time_is_duration_minus_what_children_cover():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    # a: 0..10, holding b: 1..3 and b: 4..6, the second holding c: 4.5..5.5
    _span(rec, clock, "a", 0, 10, [("b", 1, 3), ("b", 4, 6, [("c", 4.5, 5.5)])])
    totals = rec.totals()
    assert totals["a"] == (1, 10.0, 6.0)
    assert totals["b"] == (2, 4.0, 3.0)
    assert totals["c"] == (1, 1.0, 1.0)
    # self times of a tree add up to the root's duration: nothing is lost
    assert sum(t[2] for t in totals.values()) == 10.0


def test_a_layer_that_reenters_itself_is_busy_once():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    _span(rec, clock, "f", 0, 8, [("g", 1, 7, [("f", 2, 5)])])
    count, busy, self_s = rec.totals()["f"]
    assert (count, busy) == (2, 8.0)  # not 8 + 3
    assert self_s == (8 - 6) + 3


def test_events_name_their_parent_and_step():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    rec.step = 7
    _span(rec, clock, "outer", 0, 4, [("inner", 1, 2)])
    by_name = {e[2]: e for e in rec.events()}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent id
    assert by_name["outer"][1] == -1
    assert by_name["inner"][5] == 7
    trace = spans.chrome_trace(rec.events())
    inner = next(e for e in trace["traceEvents"] if e["name"] == "inner")
    assert inner["ph"] == "X" and inner["ts"] == 1e6 and inner["dur"] == 1e6
    assert inner["args"] == {"id": by_name["inner"][0], "parent": by_name["outer"][0], "step": 7}


def test_detail_off_keeps_totals_but_no_events():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock, detail_steps=0)
    _span(rec, clock, "a", 0, 1)
    assert rec.events() == [] and rec.totals()["a"] == (1, 1.0, 1.0)


def test_subtract_gives_what_happened_in_between():
    before = {"a": (1, 2.0, 1.0), "n": 3}
    after = {"a": (4, 5.0, 2.5), "b": (1, 1.0, 1.0), "n": 10}
    assert spans.subtract(after, before) == {"a": (3, 3.0, 1.5), "b": (1, 1.0, 1.0), "n": 7}


def test_ledger_arithmetic():
    window = {
        "step": (10, 1.0, 0.1),
        "runtime.executor": (1000, 0.5, 0.002),
        "backend.kernel": (1000, 0.3, 0.3),
        "graph.executor.run": (10, 0.4, 0.1),
        "core.tracing.trace": (10, 0.2, 0.01),
    }
    counts = {"graph.executor.nodes_run": 2000, "backend.kernel.bytes": 5 * 2**20}
    setup = {"graph.optimize": (1, 0.05, 0.04)}
    out = metrics.ledger(setup, window, {"graph.nodes_traced": 70}, counts, steps=10, byte_steps=5)
    assert out["runtime.executor.calls"] == 100
    assert abs(out["runtime.executor.submit.self_us"] - 2.0) < 1e-9
    assert abs(out["backend.kernel.busy_ms"] - 30.0) < 1e-9
    assert out["backend.kernel.bytes_mb"] == 1.0
    assert abs(out["graph.executor.node.self_us"] - 50.0) < 1e-9
    assert abs(out["core.tracing.trace_ms"] - 20.0) < 1e-9  # per step, inclusive
    assert abs(out["graph.optimize.pass_ms"] - 40.0) < 1e-9  # set-up total, self
    assert out["graph.nodes_traced"] == 70
    assert abs(metrics.coverage(window, "step") - 0.412) < 1e-9


def test_hooks_install_and_come_off():
    import repro
    from repro.core.tape import GradientTape
    from repro.graph.executor import GraphRunner
    from repro.runtime import dispatch, executor

    originals = (
        executor.execute,
        vars(GraphRunner)["run"],
        vars(GradientTape)["gradient"],
        repro.ops.execute,
    )
    rec = spans.Recorder()
    hooks = spans.Hooks(rec).install()
    try:
        assert hooks.missing == []
        assert executor.execute is not originals[0]
        assert repro.ops.execute is executor.execute  # every importer's copy
        assert "perf_spans" in dispatch.core.interceptor_names()
        x = repro.constant([1.0, 2.0])
        assert list((x + x).numpy()) == [2.0, 4.0]
    finally:
        hooks.uninstall()
    totals = rec.totals()
    assert totals["runtime.executor"][0] >= 1
    assert totals["runtime.dispatch"][0] == totals["backend.kernel"][0] >= 1
    assert "perf_spans" not in dispatch.core.interceptor_names()
    assert "resolve_kernel" not in vars(dispatch.core)
    assert (
        executor.execute,
        vars(GraphRunner)["run"],
        vars(GradientTape)["gradient"],
        repro.ops.execute,
    ) == originals
