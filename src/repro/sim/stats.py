"""Lightweight statistics collection.

Components register named :class:`Counter` and :class:`Histogram`
instances with a :class:`StatsRegistry`; harnesses snapshot the registry
to produce the paper's tables.

Percentiles delegate to :func:`repro.obs.metrics.nearest_rank` so the
whole repo answers order-statistic queries with one rule.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.obs.metrics import nearest_rank


class Counter:
    """A monotonically increasing event counter.

    :attr:`value` is a plain slot so a per-access hot path can bump it
    with ``counter.value += 1``; every other caller goes through
    :meth:`increment`, which refuses a negative amount.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Collects integer samples and reports order statistics."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[int] = []

    def record(self, sample: int) -> None:
        self._samples.append(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> int:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> int:
        return max(self._samples) if self._samples else 0

    @property
    def minimum(self) -> int:
        return min(self._samples) if self._samples else 0

    def percentile(self, fraction: float) -> int:
        """Nearest-rank percentile; ``fraction`` in [0, 1]."""
        return nearest_rank(sorted(self._samples), fraction)

    @property
    def median(self) -> int:
        return self.percentile(0.5)

    def reset(self) -> None:
        self._samples.clear()

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.2f})"


class StatsRegistry:
    """Namespace of counters and histograms for one simulated machine.

    A counter whose value is 0 is not reported: :meth:`counters` and
    :meth:`snapshot` skip it.  Components can therefore bind every
    counter they may bump once, at construction, and a counter that
    never counted adds nothing to the stats.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it on first use."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        """Return the histogram called ``name``, creating it on first use."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def counters(self) -> Iterator[Tuple[str, int]]:
        """``(name, value)`` of every non-zero counter, sorted by name."""
        for name in sorted(self._counters):
            value = self._counters[name].value
            if value:
                yield name, value

    def histograms(self) -> Iterator[Tuple[str, Histogram]]:
        for name in sorted(self._histograms):
            yield name, self._histograms[name]

    def snapshot(self) -> Dict[str, float]:
        """Copy of the non-zero counter values plus histogram summaries.

        Each histogram contributes ``.count``, ``.mean``, ``.max`` and
        ``.p95`` entries so snapshots capture distribution shape, not
        just sample volume.
        """
        data: Dict[str, float] = {
            name: counter.value for name, counter in self._counters.items() if counter.value
        }
        for name, histogram in self._histograms.items():
            data[f"{name}.count"] = histogram.count
            data[f"{name}.mean"] = histogram.mean
            data[f"{name}.max"] = histogram.maximum
            data[f"{name}.p95"] = histogram.percentile(0.95)
        return data

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
