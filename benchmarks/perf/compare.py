#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``compare.py A B``.

``A`` is the base (the parent commit), ``B`` the candidate.  Each is a
``results.json`` written by ``run.py --out``, or a directory holding
several of them (one per run: ten alternated runs per side is the
rule for a claimed gain).  Prints one row per workload × end-to-end
metric — both medians with their quartiles, the ratio *and its base*,
and a verdict from the bounds in ``metrics.END_TO_END``:

    better      B improved on A by more than the bound
    same        within the bound either way
    worse       B is worse than A by more than the bound
    unresolved  the run-to-run spread of either side is wider than the bound

Unbounded numbers present on both sides (``step_ms_p90`` and the
per-layer ledger) are listed beneath each workload with their change.
Exit status is non-zero on any ``worse`` and when B fails a larger
share of its steps than A.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.perf import metrics  # noqa: E402

BOUNDS = {name: (better, bound) for name, _unit, better, bound in metrics.END_TO_END}
UNBOUNDED = [name for name, *_ in metrics.INFORMATIONAL + metrics.PER_LAYER]


def load(path: str) -> dict:
    """``{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n}}``."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
    else:
        files = [path]
    merged: dict = {}
    for file in files:
        with open(file) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or "workloads" not in doc:
            continue  # ledger.json, Chrome traces
        if doc.get("smoke"):
            raise SystemExit(f"{file}: a --smoke run is never comparable")
        for record in doc["workloads"]:
            side = merged.setdefault(
                record["workload"], {"metrics": {}, "attempted": 0, "failed": 0}
            )
            side["attempted"] += record["attempted"]
            side["failed"] += record["failed"]
            values = {**record["metrics"], **record.get("informational", {})}
            for name, value in values.items():
                side["metrics"].setdefault(name, []).append(value)
    if not merged:
        raise SystemExit(f"{path}: no results found")
    return merged


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """One row: medians, quartiles, ratio with its base, and the verdict."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    change = (b_med - a_med) / a_med
    worse_by = change if better == "lower" else -change
    if spread > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "same"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "ratio": b_med / a_med,
        "base": a_med,
        "spread": spread,
        "verdict": word,
    }


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether anything got worse."""
    lines = []
    bad = False
    for workload in a:
        if workload not in b:
            lines.append(f"== {workload}: missing from B")
            continue
        side_a, side_b = a[workload], b[workload]
        lines.append(f"== {workload}")
        lines.append(
            f"   {'metric':<18}{'A q1/median/q3':>34}{'B q1/median/q3':>34}"
            f"{'B/A':>8}  {'(base A)':<14}{'bound':>6}  verdict"
        )
        for name, (better, bound) in BOUNDS.items():
            va, vb = side_a["metrics"].get(name), side_b["metrics"].get(name)
            if not va or not vb:
                continue
            row = verdict(va, vb, better, bound)
            bad |= row["verdict"] == "worse"
            lines.append(
                f"   {name:<18}{_trio(row['a']):>34}{_trio(row['b']):>34}"
                f"{row['ratio']:>8.3f}  {'of ' + format(row['base'], '.4g'):<14}"
                f"{bound:>6.0%}  {row['verdict']}"
            )
        share_a = side_a["failed"] / max(side_a["attempted"], 1)
        share_b = side_b["failed"] / max(side_b["attempted"], 1)
        flag = "  HIGHER" if share_b > share_a else ""
        bad |= share_b > share_a
        lines.append(
            f"   failed_share      A {side_a['failed']}/{side_a['attempted']}"
            f"   B {side_b['failed']}/{side_b['attempted']}{flag}"
        )
        for name in UNBOUNDED:
            va, vb = side_a["metrics"].get(name), side_b["metrics"].get(name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue
            delta = f"{(mb - ma) / ma:+.1%} of {ma:.4g}" if ma else "new"
            lines.append(f"     {name:<36}{ma:>14.4f}{mb:>14.4f}  {delta}")
    return lines, bad


def _trio(q: tuple[float, float, float]) -> str:
    return "/".join(format(v, ".4g") for v in q)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, bad = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
