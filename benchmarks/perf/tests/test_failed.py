"""The output check can fail: a corrupted kernel turns into failed steps."""

import statistics
import time

from repro.ops import registry

from benchmarks.perf import harness, loadgen, reference
from benchmarks.perf.workloads import AdamLazy, ServeMLP


def test_a_corrupted_kernel_makes_failed_share_positive(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the workload writes its saved model under cwd
    workload = ServeMLP(seed=3)
    workload.setup()
    original = registry.get_kernel("MatMul", "CPU")

    def off_by_one(inputs, attrs, device):
        return original(inputs, attrs, device) + 1.0

    registry.unregister_kernel("MatMul", ("CPU",))
    registry.register_kernel("MatMul", ("CPU",))(off_by_one)
    try:
        # the loaded function's plan bound the real kernel at set-up
        workload.model.fn.graph_function.release_plan()
        window = workload.run(1.0)
    finally:
        registry.unregister_kernel("MatMul", ("CPU",))
        registry.register_kernel("MatMul", ("CPU",))(original)
        workload.close()
    kept = window.attempted // loadgen.KEEP_EVERY
    assert window.failed >= kept - 2 > 0
    assert window.failed / window.attempted > 0
    assert "disagrees with the NumPy MLP" in window.errors[0]


def test_a_step_that_raises_is_a_failed_step_and_gives_no_sample():
    workload = AdamLazy(seed=0)
    workload.setup()
    real_step = workload.step

    def flaky(i):
        if i % 3 == 0:
            raise ValueError("injected")
        return real_step(i)

    workload.step = flaky
    try:
        window = harness.closed_loop(workload, 0.3)
    finally:
        workload.close()
    assert window.failed == window.attempted // 3 > 0
    assert len(window.latencies_ms) == window.attempted - window.failed
    assert "ValueError: injected" in window.errors[0]


def test_time_spent_checking_is_not_charged_to_the_system():
    workload = AdamLazy(seed=0)
    workload.setup()
    real_check = workload.check

    def slow_check(i, out, before=None):
        time.sleep(0.02)
        return real_check(i, out, before)

    workload.check = slow_check
    try:
        window = harness.closed_loop(workload, 0.3)
    finally:
        workload.close()
    step_s = statistics.median(window.latencies_ms) / 1e3
    steps_per_s = statistics.median(window.rates) / workload.items_per_step
    assert steps_per_s > 0.5 / step_s  # not 1 / (step + 20 ms)
    assert statistics.median(window.cpu_ms) < step_s * 1e3 * 2
    # the window is 0.3 s of the system's own time, however long the checks took
    assert sum(window.latencies_ms) / 1e3 > 0.2


def test_wrong_losses_are_caught_against_golden_and_cross_mode():
    assert reference.losses_match([1.0, 2.0], [1.001, 2.5]) == [True, False]
    assert reference.losses_match([float("nan")], [1.0]) == [False]
    assert reference.load_golden("l2hmc_staged", 0) is not None
    assert reference.load_golden("l2hmc_staged", 12345) is None
