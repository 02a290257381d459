#!/usr/bin/env python3
"""One command for every performance number this repository reports.

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]

Every workload runs in a fresh subprocess (so ``setup_s`` and
``peak_rss_mb`` belong to it alone), with ``REPRO_*`` variables removed
and BLAS pinned to one thread.  ``--trace 0`` (default) measures the
end-to-end metrics on unmodified code; ``--trace 1`` measures the
per-layer metrics with the spans of ``spans.py`` installed; a bare
``--trace`` does both.  The last line of output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

RUN_SECONDS = 16  # the measured window; BENCHMARK.json's run_seconds
SMOKE_SECONDS = 2
SETUPS = 3  # fresh processes whose set-up times are medianed into setup_s
CHILD_SLACK_S = 90  # on top of the window: import, set-up, checks, drain
WORKLOAD_NAMES = (
    "resnet_eager_bs1",
    "resnet_staged_bs16",
    "l2hmc_staged",
    "staging_cold",
    "adam_lazy",
    "serve_mlp",
)
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def scrubbed_env() -> tuple[dict, list[str]]:
    """The child's environment, and the ``REPRO_*`` names taken out of it."""
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in _THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env, removed


# -- child: one workload, this process ---------------------------------------------

def pin_to_one_cpu() -> None:
    """Keep this process and its threads on one CPU.

    On the 2-vCPU box this was written on, an unpinned ``serve_mlp`` has
    two regimes — its three threads hand the GIL across cores or they do
    not — 26k or 40k requests/s, chosen at random per process.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError:
            pass  # not permitted here: run unpinned


def child_main(args) -> int:
    pin_to_one_cpu()
    from benchmarks.perf import harness

    name = args.workload[0]
    if args.trace:
        trace_path = None
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            trace_path = os.path.join(args.out, f"{name}.trace.json")
        result = harness.measure_traced(name, args.seed, args.seconds, trace_path)
    else:
        result = harness.measure(
            name, args.seed, args.seconds, setup_only=args.setup_only, smoke=args.smoke
        )
    if not args.setup_only:
        result["environment"] = harness.environment()
    print(json.dumps(result))
    return 0


# -- parent: fresh subprocess per workload ---------------------------------------

def _spawn(name: str, args, env: dict, trace: int, setup_only: bool = False) -> dict:
    """Run one child to completion; its result plus when it was started."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--child",
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.out and trace:
        cmd += ["--out", args.out]
    started = time.time()
    # run() kills the child and waits for it if the timeout passes
    done = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=args.seconds + CHILD_SLACK_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def run_workload(name: str, args, env: dict) -> dict:
    """All the runs one workload needs; one merged record."""
    record = {"workload": name, "seed": args.seed, "correct": True,
              "attempted": 0, "failed": 0, "metrics": {}}
    runs = []
    if args.trace != 1:
        setups = [_spawn(name, args, env, 0, setup_only=True)["setup_s"]
                  for _ in range(SETUPS - 1)]
        run = _spawn(name, args, env, 0)
        if "refused" in run:
            raise RuntimeError(f"{name}: {run['refused']}")
        setups.append(run["setup_s"])
        run["metrics"] = {"setup_s": statistics.median(setups), **run["metrics"]}
        record["setup_samples_s"] = setups
        record["informational"] = run["informational"]
        runs.append(run)
    if args.trace != 0:
        run = _spawn(name, args, env, 1)
        record["span_totals"] = run.pop("span_totals")
        record["missing_hooks"] = run["missing_hooks"]
        runs.append(run)
    for run in runs:
        record["correct"] &= run["correct"]
        record["attempted"] += run["attempted"]
        record["failed"] += run["failed"]
        record["metrics"].update(run["metrics"])
        for key in ("reference", "samples", "errors", "phases", "environment"):
            record[key] = run[key]
    return record


def _git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _print_record(record: dict) -> None:
    from benchmarks.perf.metrics import UNITS

    print(f"== {record['workload']}  seed={record['seed']}  samples={record['samples']}"
          f"  attempted={record['attempted']}  failed={record['failed']}"
          f"  reference={record['reference']}")
    for phase, numbers in record["phases"].items():
        print(f"   {phase}: " + "  ".join(f"{k}={v}" for k, v in numbers.items()))
    shown = {**record["metrics"], **record.get("informational", {})}
    for name in UNITS:  # declaration order
        if name in shown:
            note = "  (not bounded)" if name in record.get("informational", {}) else ""
            print(f"   {name:<36} {shown[name]:>14.4f} {UNITS[name]}{note}")
    for error in record["errors"]:
        print(f"   ! {error}")


def _write_out(out_dir: str, results: dict, records: list[dict]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ledger = {
        record["workload"]: record.pop("span_totals")
        for record in records
        if "span_totals" in record
    }
    with open(os.path.join(out_dir, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    if ledger:
        with open(os.path.join(out_dir, "ledger.json"), "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")


def parent_main(args) -> int:
    from benchmarks.perf.metrics import with_units

    names = args.workload or list(WORKLOAD_NAMES)
    env, removed = scrubbed_env()
    records = []
    for name in names:
        record = run_workload(name, args, env)
        _print_record(record)
        records.append(record)
    results = {
        "benchmark": "benchmarks/perf",
        "smoke": args.smoke,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": _git_commit(),
        "env_removed": removed,
        "env_set": {var: env[var] for var in _THREAD_VARS + ("PYTHONHASHSEED",)},
        "workloads": records,
    }
    if args.out:
        _write_out(args.out, results, records)
    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {},
    }
    for record in records:
        for name, entry in with_units(record["metrics"]).items():
            key = name if single else f"{record['workload']}/{name}"
            summary["metrics"][key] = entry
    if args.smoke:
        summary["smoke"] = True
    print(json.dumps(summary))
    return 0


def write_golden() -> int:
    from benchmarks.perf import reference
    from benchmarks.perf.workloads import TRAINING, WORKLOADS

    trajectories = {
        name: {
            str(seed): WORKLOADS[name](seed).golden_trajectory()
            for seed in reference.GOLDEN_SEEDS
        }
        for name in TRAINING
    }
    reference.write_golden(trajectories)
    print(f"wrote {reference.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=0, help="chooses the inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window per workload (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=2, default=0,
                        choices=(0, 1, 2),
                        help="0 end-to-end, 1 per-layer, bare flag: both")
    parser.add_argument("--out", metavar="DIR",
                        help="write results.json, ledger.json and Chrome traces here")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows for tests; never comparable")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate golden.json in sync eager mode")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else RUN_SECONDS

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"benchmarks/perf: no program to measure at {SRC}", file=sys.stderr)
        return 2
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.write_golden:
        if args.child:
            return write_golden()
        env, _removed = scrubbed_env()
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--child", "--write-golden"]
        return subprocess.run(cmd, env=env, timeout=600).returncode
    if args.child:
        return child_main(args)
    try:
        return parent_main(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmarks/perf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
