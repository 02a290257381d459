"""compare.py's verdict table."""

import json

from benchmarks.perf import compare


def test_verdicts_follow_the_bounds():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [x * 1.02 for x in base], "lower", 0.10)["verdict"] == "same"
    assert compare.verdict(base, [x * 1.20 for x in base], "lower", 0.10)["verdict"] == "worse"
    assert compare.verdict(base, [x * 0.80 for x in base], "lower", 0.10)["verdict"] == "better"
    # higher-is-better flips the direction
    assert compare.verdict(base, [x * 0.80 for x in base], "higher", 0.10)["verdict"] == "worse"
    assert compare.verdict(base, [x * 1.20 for x in base], "higher", 0.10)["verdict"] == "better"


def test_a_spread_wider_than_the_bound_is_unresolved_not_same():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    row = compare.verdict(noisy, [x * 1.3 for x in noisy], "lower", 0.10)
    assert row["verdict"] == "unresolved" and row["spread"] > 0.10


def test_the_ratio_comes_with_its_base():
    row = compare.verdict([50.0], [55.0], "lower", 0.25)
    assert row["ratio"] == 1.1 and row["base"] == 50.0
    assert row["a"] == (50.0, 50.0, 50.0)


def _results(path, p50, failed=0, layer=3.0, smoke=False):
    doc = {
        "smoke": smoke,
        "workloads": [
            {
                "workload": "l2hmc_staged",
                "attempted": 100,
                "failed": failed,
                "metrics": {"step_ms_p50": p50, "graph.executor.node.self_us": layer},
            }
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_exit_status_and_per_layer_rows(tmp_path, capsys):
    a = _results(tmp_path / "a.json", 10.0)
    same = _results(tmp_path / "same.json", 10.5, layer=3.3)
    worse = _results(tmp_path / "worse.json", 13.0)
    failing = _results(tmp_path / "failing.json", 10.0, failed=2)
    assert compare.main([a, same]) == 0
    out = capsys.readouterr().out
    assert "step_ms_p50" in out and "same" in out and "of 10" in out
    assert "graph.executor.node.self_us" in out and "+10.0% of 3" in out
    assert compare.main([a, worse]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([a, failing]) == 1
    assert "HIGHER" in capsys.readouterr().out


def test_a_directory_is_a_set_of_runs(tmp_path):
    for side, values in (("a", (10.0, 10.2, 9.8)), ("b", (10.1, 10.3, 9.9))):
        (tmp_path / side).mkdir()
        for i, value in enumerate(values):
            _results(tmp_path / side / f"run{i}.json", value)
    a, b = compare.load(str(tmp_path / "a")), compare.load(str(tmp_path / "b"))
    assert a["l2hmc_staged"]["metrics"]["step_ms_p50"] == [10.0, 10.2, 9.8]
    assert a["l2hmc_staged"]["attempted"] == 300
    lines, bad = compare.compare(a, b)
    assert not bad and any("same" in line for line in lines)


def test_smoke_results_are_refused(tmp_path):
    import pytest

    smoke = _results(tmp_path / "smoke.json", 10.0, smoke=True)
    with pytest.raises(SystemExit):
        compare.load(smoke)
