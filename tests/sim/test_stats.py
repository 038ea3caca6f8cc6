"""Counters, histograms, and the registry."""

import pytest

from repro.sim.stats import Counter, Histogram, StatsRegistry


def test_counter_increments():
    counter = Counter("x")
    counter.increment()
    counter.increment(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").increment(-1)


def test_counter_reset():
    counter = Counter("x")
    counter.increment(9)
    counter.reset()
    assert counter.value == 0


def test_histogram_order_statistics():
    histogram = Histogram("h")
    for sample in [5, 1, 9, 3, 7]:
        histogram.record(sample)
    assert histogram.minimum == 1
    assert histogram.maximum == 9
    assert histogram.median == 5
    assert histogram.count == 5
    assert histogram.total == 25
    assert histogram.mean == 5.0


def test_histogram_empty_defaults():
    histogram = Histogram("h")
    assert histogram.median == 0
    assert histogram.maximum == 0
    assert histogram.mean == 0.0


def test_percentile_bounds_checked():
    histogram = Histogram("h")
    histogram.record(1)
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_percentile_extremes():
    histogram = Histogram("h")
    for sample in range(1, 101):
        histogram.record(sample)
    assert histogram.percentile(0.0) == 1
    assert histogram.percentile(1.0) == 100


def test_registry_creates_and_caches():
    registry = StatsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("b") is registry.histogram("b")


def test_registry_snapshot_includes_both_kinds():
    registry = StatsRegistry()
    registry.counter("events").increment(3)
    registry.histogram("sizes").record(10)
    snapshot = registry.snapshot()
    assert snapshot["events"] == 3
    assert snapshot["sizes.count"] == 1


def test_registry_reset_clears_everything():
    registry = StatsRegistry()
    registry.counter("events").increment(3)
    registry.histogram("sizes").record(10)
    registry.reset()
    assert registry.counter("events").value == 0
    assert registry.histogram("sizes").count == 0


def test_registry_snapshot_summarizes_histograms():
    registry = StatsRegistry()
    histogram = registry.histogram("sizes")
    for sample in range(1, 101):
        histogram.record(sample)
    snapshot = registry.snapshot()
    assert snapshot["sizes.count"] == 100
    assert snapshot["sizes.mean"] == pytest.approx(50.5)
    assert snapshot["sizes.max"] == 100
    assert snapshot["sizes.p95"] == histogram.percentile(0.95)


def test_registry_histograms_iterator_sorted():
    registry = StatsRegistry()
    registry.histogram("zeta").record(1)
    registry.histogram("alpha").record(2)
    names = [name for name, _ in registry.histograms()]
    assert names == ["alpha", "zeta"]
    pairs = dict(registry.histograms())
    assert pairs["alpha"].total == 2


def test_a_counter_that_never_counted_is_not_reported():
    registry = StatsRegistry()
    bound = registry.counter("bound")
    registry.counter("zero").increment(0)
    registry.counter("counted").increment(2)
    assert registry.snapshot() == {"counted": 2}
    assert list(registry.counters()) == [("counted", 2)]
    bound.value += 1
    registry.counter("zero").increment()
    assert registry.snapshot() == {"bound": 1, "counted": 2, "zero": 1}
    assert list(registry.counters()) == [("bound", 1), ("counted", 2), ("zero", 1)]


def test_a_reset_counter_leaves_the_report():
    registry = StatsRegistry()
    registry.counter("events").increment(3)
    registry.reset()
    assert "events" not in registry.snapshot()
    assert list(registry.counters()) == []
