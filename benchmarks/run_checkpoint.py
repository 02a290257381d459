#!/usr/bin/env python
"""Gradient checkpointing: memory/compute trade across execution modes.

The ISSUE 10 tentpole claim: wrapping each residual block in
``repro.recompute_grad`` buys sublinear training memory — the backward
pass holds only per-block boundary activations and rematerializes block
internals — at the cost of one extra forward computation per step.
This benchmark quantifies both sides of that trade on a bottleneck
ResNet and gates them:

* **staged** — the training step is a ``repro.function``; the planner's
  static accounting is the memory oracle.  The backward's resident set
  is its plan's ``peak_live_bytes`` plus the caller-held forward
  intermediates it consumes (``input_bytes`` — exactly the tensors
  checkpointing exists to drop).  Gate: checkpointed resident set
  >= 40% below uncheckpointed, at <= 1.35x the uncheckpointed step.
* **lazy** — the same undecorated step under ``REPRO_LAZY_EAGER``;
  the flushed segments' ``max_segment_peak_bytes`` is the oracle.  Same
  two gates.
* **sync** — no memory oracle exists for true per-op eager, so this
  mode gates on *correctness*: checkpointed gradients must match the
  unwrapped model's bit-for-bit shape and tight-tolerance values.
* **forward mode** — ``jvp``/``hvp`` swept over the full parity corpus
  (sync eager, float64): forward-over-reverse must match both
  reverse-over-reverse and central differences to harness tolerance.
  This pins the forward-accumulator/tape composition the checkpointing
  machinery threads through.

Timing uses interleaved rounds with per-config minima (the repo's
min-window methodology).  The memory numbers are deterministic planner
outputs, so they are never loosened for --quick; only the time bar gets
the conventional 80% CI slack.

Usage:
    PYTHONPATH=src python benchmarks/run_checkpoint.py [--quick]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, ".")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

import repro
from benchmarks.report import bar, write_report
from repro.nn.resnet import ResNet
from repro.runtime import lazy

MEM_DROP_BAR = 0.40  # checkpointed resident set >= 40% below baseline
TIME_RATIO_BAR = 1.35  # checkpointed step <= 1.35x baseline step

# Corpus subset for --quick: one representative per program family
# (chain, matmul, softmax loss, normalization, control flow, indexing).
QUICK_CORPUS = (
    "chain_long",
    "polynomial",
    "softmax_xent",
    "normalize_rows",
    "logsumexp_margin",
    "ag_if_scale",
    "ag_while_bound",
    "ag_for_scan",
)


def make_model(checkpoint: bool, blocks, width: int, tag: str) -> ResNet:
    return ResNet(
        blocks,
        base_width=width,
        num_classes=10,
        stem_kernel=3,
        stem_stride=1,
        stem_pool=False,
        checkpoint_blocks=checkpoint,
        name=f"ckpt_bench_{tag}_{checkpoint}",
    )


def make_images(batch: int, size: int):
    return repro.constant(
        np.random.default_rng(0)
        .normal(size=(batch, size, size, 3))
        .astype(np.float32)
    )


def staged_config(checkpoint: bool, blocks, width, batch, size):
    """(step closure, resident-bytes closure) for one staged config.

    A fresh ``repro.function`` per config: the trace cache does not key
    on the checkpointing configuration, so sharing one Function across
    configs would replay the first config's trace for both.
    """
    model = make_model(checkpoint, blocks, width, tag="staged")
    x = make_images(batch, size)
    model(x)  # build variables eagerly, outside the trace

    fn = repro.function(
        lambda t: repro.reduce_sum(model(t)), name=f"ckpt_step_{checkpoint}"
    )

    def step():
        with repro.GradientTape() as tape:
            loss = fn(x)
        return tape.gradient(loss, model.trainable_variables)

    step()  # warm: trace forward, split forward/backward, plan

    def resident_bytes():
        (trace,) = fn.execution_stats()["traces"]
        bwd = trace["staged_backward"]
        return bwd["peak_live_bytes"] + bwd["input_bytes"]

    return step, resident_bytes


def lazy_config(checkpoint: bool, blocks, width, batch, size):
    """(step closure, peak-bytes closure) for one lazy-mode config.

    ``max_segment_peak_bytes`` is a process-global high-water mark, so
    the closure brackets its own measurement: reset, run one step, read
    — never trusting state left by the other config's steps.
    """
    model = make_model(checkpoint, blocks, width, tag="lazy")
    with repro.execution_mode("lazy"):
        x = make_images(batch, size)

        def step():
            with repro.execution_mode("lazy"):
                with repro.GradientTape() as tape:
                    loss = repro.reduce_sum(model(x))
                grads = tape.gradient(loss, model.trainable_variables)
                repro.sync()
            return grads

        step()  # build variables + compile the segments once

    def peak_bytes():
        lazy.reset_lazy_stats(clear_cache=False)
        step()
        return lazy.lazy_stats()["max_segment_peak_bytes"]

    return step, peak_bytes


def bench_pair(make_config, blocks, width, batch, size, rounds):
    """Interleaved min-window times + memory for ckpt on/off."""
    step_off, mem_off = make_config(False, blocks, width, batch, size)
    step_on, mem_on = make_config(True, blocks, width, batch, size)
    best = {False: float("inf"), True: float("inf")}
    for _ in range(rounds):
        start = time.perf_counter()
        step_off()
        best[False] = min(best[False], time.perf_counter() - start)
        start = time.perf_counter()
        step_on()
        best[True] = min(best[True], time.perf_counter() - start)
    return {
        "mem_off": mem_off(),
        "mem_on": mem_on(),
        "time_off": best[False],
        "time_on": best[True],
    }


def report_mode(label: str, r: dict) -> tuple[float, float]:
    drop = 1.0 - r["mem_on"] / r["mem_off"]
    ratio = r["time_on"] / r["time_off"]
    print(f"\n{label}")
    print(f"{'config':<16}{'resident KiB':>14}{'step ms':>10}")
    print("-" * 40)
    print(
        f"{'baseline':<16}{r['mem_off'] / 1024:>14.0f}"
        f"{r['time_off'] * 1e3:>10.1f}"
    )
    print(
        f"{'checkpointed':<16}{r['mem_on'] / 1024:>14.0f}"
        f"{r['time_on'] * 1e3:>10.1f}"
    )
    print("-" * 40)
    print(f"memory -{drop:.1%}, step time {ratio:.2f}x")
    return drop, ratio


def eager_parity(blocks, width, batch, size) -> float:
    """Max relative gradient delta: checkpointing on vs off, sync eager.

    One checkpointed model, same variables both times; the
    ``context.recompute`` knob (consulted at call time by the wrapper)
    toggles between the rematerializing path and a plain passthrough.
    """
    from repro.runtime.context import context

    with repro.execution_mode("sync"):
        model = make_model(True, blocks, width, tag="parity_sync")
        x = make_images(batch, size)
        model(x)  # build variables
        grads = {}
        for knob in (False, True):
            context.recompute = knob
            try:
                with repro.GradientTape() as tape:
                    loss = repro.reduce_sum(model(x))
                gs = tape.gradient(loss, model.trainable_variables)
                grads[knob] = [np.asarray(g.numpy()) for g in gs]
            finally:
                context.recompute = True
    worst = 0.0
    for a, b in zip(grads[False], grads[True]):
        denom = max(np.abs(a).max(), 1.0)
        worst = max(worst, float(np.abs(a - b).max() / denom))
    return worst


def corpus_sweep(names=None) -> tuple[int, int, list]:
    """Run check_jvp/check_hvp over parity-corpus programs (sync f64)."""
    from tests.harness.grad_check import check_hvp, check_jvp
    from tests.harness.parity import CORPUS

    ran = 0
    failures = []
    for program in CORPUS:
        if "float64" not in program.dtypes:
            continue
        if names is not None and program.name not in names:
            continue
        arrays = program.make_inputs(np.random.default_rng(0))
        x = np.asarray(arrays[0], dtype=np.float64)
        rest = [
            repro.constant(
                np.asarray(a, dtype=np.float64), dtype=repro.float64
            )
            for a in arrays[1:]
        ]
        ran += 1
        try:
            check_jvp(lambda t: program.fn(t, *rest), x)
            check_hvp(lambda t: program.fn(t, *rest), x)
        except Exception as exc:  # noqa: BLE001 — collect, report, gate
            failures.append((program.name, f"{type(exc).__name__}: {exc}"))
    return ran, len(failures), failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke run")
    parser.add_argument(
        "--blocks",
        type=int,
        nargs="+",
        default=[3, 3, 3],
        help="bottleneck blocks per stage",
    )
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--image-size", type=int, default=24)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()

    blocks = tuple(args.blocks)
    size = 16 if args.quick else args.image_size
    rounds = 3 if args.quick else args.rounds
    # The time bar is wall-clock and CI hosts are noisy: 80% slack under
    # --quick (repo convention).  The memory bars are deterministic
    # planner outputs and are NEVER loosened.
    time_bar = TIME_RATIO_BAR / 0.8 if args.quick else TIME_RATIO_BAR

    print(
        f"checkpointed ResNet: blocks {blocks}, width {args.width}, "
        f"batch {args.batch}, {size}x{size} images"
    )

    staged = bench_pair(
        staged_config, blocks, args.width, args.batch, size, rounds
    )
    staged_drop, staged_ratio = report_mode(
        "staged (planner resident set: backward peak + held inputs)", staged
    )

    lazy_r = bench_pair(
        lazy_config, blocks, args.width, args.batch, size, rounds
    )
    lazy_drop, lazy_ratio = report_mode(
        "lazy (max flushed-segment planned peak)", lazy_r
    )

    print("\neager gradient parity (checkpointed vs unwrapped model)")
    parity = eager_parity(blocks, args.width, args.batch, size)
    print(f"  sync   max rel gradient delta: {parity:.2e}")

    corpus_names = QUICK_CORPUS if args.quick else None
    ran, failed, failures = corpus_sweep(corpus_names)
    print(
        f"\nforward-mode sweep: jvp+hvp vs reverse-over-reverse and "
        f"central differences on {ran} corpus programs, {failed} failure(s)"
    )
    for name, msg in failures:
        print(f"  FAIL {name}: {msg}")

    bars = [
        bar("staged_memory_drop", staged_drop, MEM_DROP_BAR),
        bar("staged_time_ratio", staged_ratio, time_bar, op="<="),
        bar("lazy_memory_drop", lazy_drop, MEM_DROP_BAR),
        bar("lazy_time_ratio", lazy_ratio, time_bar, op="<="),
        bar("sync_gradient_parity", parity, 1e-5, op="<="),
        bar("corpus_jvp_hvp_failures", failed, 0, op="<="),
    ]
    ok = write_report(
        "checkpoint",
        speedup=1.0 / staged_ratio,
        bars=bars,
        metrics={
            "staged_resident_bytes_off": staged["mem_off"],
            "staged_resident_bytes_on": staged["mem_on"],
            "lazy_segment_peak_bytes_off": lazy_r["mem_off"],
            "lazy_segment_peak_bytes_on": lazy_r["mem_on"],
            "staged_step_ms_off": staged["time_off"] * 1e3,
            "staged_step_ms_on": staged["time_on"] * 1e3,
            "lazy_step_ms_off": lazy_r["time_off"] * 1e3,
            "lazy_step_ms_on": lazy_r["time_on"] * 1e3,
            "corpus_programs_swept": ran,
        },
    )
    if not ok:
        for b in bars:
            if b["gated"] and not b["passed"]:
                print(
                    f"FAIL: {b['name']} = {b['value']:.4g} "
                    f"(bar {b['op']} {b['threshold']:.4g})"
                )
        return 1
    print("\nall checkpoint gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
