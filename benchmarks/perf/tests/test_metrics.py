"""The percentile helper."""

import pytest

from benchmarks.perf import metrics


def test_percentile_interpolates_between_ranks():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert metrics.percentile(samples, 0) == 1.0
    assert metrics.percentile(samples, 50) == 3.0
    assert metrics.percentile(samples, 100) == 5.0
    assert metrics.percentile(samples, 90) == pytest.approx(4.6)
    assert metrics.percentile([7.0], 90) == 7.0


def test_percentile_matches_numpy():
    np = pytest.importorskip("numpy")
    samples = list(np.random.default_rng(0).exponential(size=257))
    for q in (50, 90, 99):
        assert metrics.percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_blocks_are_consecutive_equal_and_never_tiny():
    assert metrics.block_bounds(160) == [(i * 20, (i + 1) * 20) for i in range(8)]
    assert metrics.block_bounds(1000)[-1] == (875, 1000)
    assert metrics.block_bounds(70) == [(0, 23), (23, 46), (46, 70)]  # 3 blocks, not 8 of 8
    assert metrics.block_bounds(5) == [(0, 5)]


def test_a_burst_moves_one_block_not_the_metric():
    quiet = [10.0 + 0.01 * (i % 7) for i in range(800)]
    burst = list(quiet)
    burst[300:400] = [30.0] * 100  # an eighth of the window, three times slower
    assert metrics.percentile(burst, 90) == 30.0  # pooled: the burst *is* the p90
    assert metrics.block_median(burst, 90) == metrics.block_median(quiet, 90)
    assert metrics.block_median(burst, 50) == metrics.block_median(quiet, 50)


def test_every_metric_has_a_unit_and_a_direction():
    for name, unit, better, *rest in metrics.END_TO_END + metrics.PER_LAYER:
        assert unit and better in ("lower", "higher"), name
    assert [name for name, *_ in metrics.END_TO_END].count("setup_s") == 1
    assert all(0 < bound <= 0.25 for *_, bound in metrics.END_TO_END)
