"""Load generation for the served workload: a fixed-rate open loop and a flood.

The generator runs on the calling thread and *sleeps* until each
request is due; a collector thread waits on the futures in submission
order and stamps each completion.  Latency is counted from the time a
request was **due**, not from when it was sent, so a stall in the
system (or in the generator) is charged to every request it delayed.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

KEEP_EVERY = 50  # every 50th response is kept for the output check
RESULT_TIMEOUT_S = 30.0
BACKOFF_S = 0.0005


class Collector(threading.Thread):
    """Waits for each submitted future; ``on_done(due, done)`` per completion."""

    def __init__(self, clock, on_done, keep_every: int = KEEP_EVERY) -> None:
        super().__init__(name="perf-collector")
        self._clock = clock
        self._on_done = on_done
        self._keep_every = keep_every
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self.completed = 0
        self.errors: list[tuple[int, str]] = []
        self.kept: list[tuple[int, object]] = []

    def put(self, index: int, due: float, future) -> None:
        self._queue.put((index, due, future))

    def close(self) -> None:
        self._queue.put(None)
        self.join()

    def run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            index, due, future = item
            try:
                value = future.result(RESULT_TIMEOUT_S)
            except Exception as exc:  # boundary: a failed request is a data point
                self.errors.append((index, f"{type(exc).__name__}: {exc}"))
                continue
            self._on_done(due, self._clock())
            self.completed += 1
            if index % self._keep_every == 0:
                self.kept.append((index, value))


@dataclass
class LoadResult:
    attempted: int
    completed: int
    rejected: int
    latencies_s: list = field(default_factory=list)  # open loop: completion − due
    lags_s: list = field(default_factory=list)  # open loop: how late each was sent
    errors: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    elapsed_s: float = 0.0  # the phase plus draining what it left queued
    cpu_ms: list = field(default_factory=list)  # open loop: CPU ms/request, per block
    rates: list = field(default_factory=list)  # flood: completions/s, per time slice


def open_loop(submit, rate: float, duration: float, refused=(), blocks: int = 1,
              clock=time.perf_counter, sleep=time.sleep, on_send=None) -> LoadResult:
    """Send ``rate × duration`` requests, request ``k`` at ``t0 + k / rate``.

    ``submit(k)`` returns a future with ``result(timeout)``.  When the
    generator falls behind it sends at once and never skips, so the
    offered load is the same on every run.  A request the server refuses
    (an exception in ``refused``: its queue is full) is offered again
    after ``BACKOFF_S``; the wait shows in its latency, and in that of
    every request that fell due meanwhile.  Process CPU time is read at
    ``blocks`` evenly spaced requests.
    """
    count = max(int(rate * duration), 1)
    marks = {j * count // blocks: None for j in range(blocks)}
    latencies: list[float] = []
    collector = Collector(clock, lambda due, done: latencies.append(done - due))
    collector.start()
    lags = []
    rejected = 0
    t0 = clock() + 0.005
    try:
        for k in range(count):
            if k in marks:
                marks[k] = time.process_time()
            due = t0 + k / rate
            delay = due - clock()
            if delay > 0:
                sleep(delay)
            if on_send is not None:
                on_send(k)
            lags.append(clock() - due)
            while True:
                try:
                    future = submit(k)
                    break
                except refused:
                    rejected += 1
                    sleep(BACKOFF_S)
            collector.put(k, due, future)
    finally:
        collector.close()
    wall = clock() - t0
    edges = sorted(marks.items()) + [(count, time.process_time())]
    cpu_ms = [
        (cpu_hi - cpu_lo) / (hi - lo) * 1e3
        for (lo, cpu_lo), (hi, cpu_hi) in zip(edges, edges[1:])
    ]
    return LoadResult(
        attempted=count,
        completed=len(latencies),
        rejected=rejected,
        latencies_s=latencies,
        lags_s=lags,
        errors=collector.errors,
        kept=collector.kept,
        elapsed_s=wall,
        cpu_ms=cpu_ms,
    )


def flood(submit, duration: float, refused, slices: int = 1,
          clock=time.perf_counter, sleep=time.sleep) -> LoadResult:
    """Submit as fast as the server accepts for ``duration`` seconds.

    A refusal (full queue) is the server's back-pressure: the generator
    backs off ``BACKOFF_S`` and offers the same request again, so a
    refusal here is not a failure.  Throughput counts the requests that
    *completed* in each of ``slices`` equal parts of the phase; the queue
    is drained afterwards.
    """
    # counts only: what is kept per request would make peak RSS follow throughput
    per_slice = [0] * (slices + 1)  # the last entry: completed while draining
    t0 = clock()
    end = t0 + duration
    scale = slices / duration

    def count(_due, done):
        per_slice[min(int((done - t0) * scale), slices)] += 1

    collector = Collector(clock, count)
    collector.start()
    rejected = 0
    k = 0
    try:
        while clock() < end:
            try:
                future = submit(k)
            except refused:
                rejected += 1
                sleep(BACKOFF_S)
                continue
            collector.put(k, t0, future)
            k += 1
    finally:
        collector.close()
    del per_slice[slices]
    return LoadResult(
        attempted=k,
        completed=collector.completed,
        rejected=rejected,
        errors=collector.errors,
        kept=collector.kept,
        elapsed_s=clock() - t0,
        rates=[n * scale for n in per_slice],
    )
