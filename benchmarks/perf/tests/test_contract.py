"""The command's contract: declared names and units, the driver's form, failures."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from benchmarks.perf import metrics
from benchmarks.perf.run import RUN_SECONDS, WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(PERF))
RUN = os.path.join("benchmarks", "perf", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    DECLARED = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def _run(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )


def test_benchmark_json_declares_what_the_code_measures():
    assert sorted(DECLARED) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert DECLARED["command"] == ["python3", RUN]
    assert DECLARED["paths"] == ["benchmarks/perf"]
    assert DECLARED["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOAD_NAMES)
    from benchmarks.perf.workloads import WORKLOADS  # the parent never imports repro

    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in DECLARED["workloads"])
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_smoke_pass_emits_exactly_the_declared_metrics(tmp_path):
    """All six workloads, untraced and traced, in 2 s windows."""
    done = _run("--smoke", "--trace", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr[-2000:]
    with open(tmp_path / "results.json") as f:
        results = json.load(f)
    assert results["smoke"] is True
    assert [r["workload"] for r in results["workloads"]] == list(WORKLOAD_NAMES)
    for record in results["workloads"]:
        assert set(record["metrics"]) == set(END_TO_END) | set(PER_LAYER), record["workload"]
        assert record["correct"] and record["failed"] == 0, record["errors"]
        assert record["missing_hooks"] == []
        assert record["metrics"]["trace.coverage_ratio"] >= 0.9, record["workload"]
        assert record["environment"]["nproc"] and "executor_mode" in record["environment"]["context"]
    by_name = {r["workload"]: r["metrics"] for r in results["workloads"]}
    assert by_name["l2hmc_staged"]["core.function.cache.hits"] == 1.0
    assert by_name["l2hmc_staged"]["core.function.cache.misses"] == 0.0
    assert by_name["staging_cold"]["core.function.cache.hits"] == 0.0
    assert by_name["staging_cold"]["core.function.cache.misses"] == 1.0
    assert by_name["adam_lazy"]["runtime.lazy.cache.hit_ratio"] == 1.0
    assert by_name["serve_mlp"]["serving.batches"] > 0
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["smoke"] is True and summary["correct"] is True
    for key, entry in summary["metrics"].items():
        workload, name = key.split("/")
        assert entry["unit"] == {**END_TO_END, **PER_LAYER}[name]
    with open(tmp_path / "l2hmc_staged.trace.json") as f:
        events = json.load(f)["traceEvents"]
    assert {"name", "ph", "ts", "dur", "pid", "tid", "args"} <= set(events[0])
    assert {"graph.executor.run", "backend.kernel", "step"} <= {e["name"] for e in events}
    assert os.path.exists(tmp_path / "ledger.json")


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_the_drivers_form_prints_one_result_object(trace, declared):
    done = _run("--workload", "adam_lazy", "--seed", "3", "--seconds", "2", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_too_few_samples_is_refused_not_reported():
    done = _run("--workload", "resnet_eager_bs1", "--seconds", "1")
    assert done.returncode != 0
    assert "percentiles need 100" in done.stderr
    assert not done.stdout.strip().startswith("{")


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """A directory that holds only BENCHMARK.json and the benchmark's own files."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        PERF, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".perf_tmp_*"),
    )
    done = _run("--workload", "adam_lazy", "--seed", "1", "--seconds", "2", "--trace", "0",
                cwd=tmp_path, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
