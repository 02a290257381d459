"""The open-loop scheduler: latency runs from the due time, through any stall."""

import statistics
import time

import pytest

from benchmarks.perf import loadgen


class Done:
    def result(self, timeout=None):
        return None


def test_a_stall_is_charged_to_the_requests_that_fell_due_during_it():
    rate, stall_at, stall = 1000.0, 100, 0.050

    def submit(k):
        if k == stall_at:
            time.sleep(stall)  # the system (or the generator) freezes for 50 ms
        return Done()

    result = loadgen.open_loop(submit, rate, 0.3)
    latency = result.latencies_s
    assert result.completed == result.attempted == len(latency) == 300
    assert statistics.median(latency[:stall_at]) < 0.005
    assert latency[stall_at] >= stall
    # request k + j fell due j ms into the stall and waited out the rest of it
    for j in (1, 10, 25, 40):
        assert latency[stall_at + j] >= stall - j / rate - 0.002
    # the generator reports how late it ran, and catches up without skipping
    assert max(result.lags_s[stall_at + 1 : stall_at + 40]) >= stall - 0.045
    assert statistics.median(latency[stall_at + 80 :]) < 0.005


def test_a_refusal_is_retried_and_shows_in_latency():
    class Full(Exception):
        pass

    refusals = iter([True] * 20)

    def submit(k):
        if k == 5 and next(refusals, False):
            raise Full()
        return Done()

    result = loadgen.open_loop(submit, 1000.0, 0.05, refused=(Full,), blocks=5)
    assert result.rejected == 20 and result.completed == result.attempted
    assert result.latencies_s[5] >= 20 * loadgen.BACKOFF_S
    assert len(result.cpu_ms) == 5 and all(ms >= 0 for ms in result.cpu_ms)


def test_flood_counts_what_completed_inside_the_phase():
    class Full(Exception):
        pass

    calls = []

    def submit(k):
        calls.append(k)
        if len(calls) % 10 == 0:
            raise Full()
        return Done()

    result = loadgen.flood(submit, 0.1, (Full,), slices=4)
    assert result.rejected > 0
    assert result.attempted == result.completed
    assert result.elapsed_s >= 0.1
    # one rate per slice of the phase; what completed while draining is left out
    assert len(result.rates) == 4
    in_phase = sum(result.rates) * (0.1 / 4)
    assert in_phase == pytest.approx(round(in_phase)) and 0 < in_phase <= result.completed
