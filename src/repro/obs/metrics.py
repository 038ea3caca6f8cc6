"""Deterministic run metrics: counters, gauges, histograms, time series.

The tracer (PR 1) records *events*; this module turns the same
observation points into *aggregates with temporal shape*:

* :class:`LogBucketHistogram` — HDR-style log-bucket histogram with an
  exact linear range and bounded-relative-error octaves above it, plus
  nearest-rank p50/p95/p99 (the one percentile rule the whole codebase
  shares — ``sim.stats.Histogram`` delegates here).
* :class:`TimeSeries` — fixed-cycle-window series keyed to the
  **simulated** clock (never wall-clock, so the ``simcheck`` SIM-D
  determinism rules hold), bounded by ring-style eviction of the oldest
  window.
* :class:`MetricsHub` — the opt-in sink, a fold over the
  :class:`~repro.obs.tracer.EventTracer` event log (the tracer's records,
  by kind, in emission order), plus a periodic sampler over the
  resilience pressure sensors (signature fill, FP estimate, OT
  occupancy, CST density, resilience-rung residency).

The hub is purely observational: folding never touches simulated
state, so a metrics-armed run is bit-identical to an unarmed one
(tests/obs/test_metrics.py).  It sees every recorded event whatever the
tracer beside it keeps (tests/obs/test_event_log.py).  Everything
iterates in sorted order and draws no randomness, so the JSON artifact
is itself deterministic.

This module imports nothing from the simulator at module level (only
:mod:`repro.obs.causality` and :mod:`repro.obs.events`, which are
stdlib-pure): ``sim.stats`` imports the percentile helpers from here,
and the sampler's ``repro.resilience.pressure`` import is deferred
into the call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.obs.causality import AbortRecord
from repro.obs.events import EVENT_KINDS, SCHED_KINDS, UNATTRIBUTED_KIND

#: Percentiles every histogram summary reports.
PERCENTILES = (0.50, 0.95, 0.99)

#: Default fixed window width (simulated cycles) for time series.
DEFAULT_WINDOW_CYCLES = 2048

#: Default scheduler steps between pressure-sensor sweeps.
DEFAULT_SAMPLE_INTERVAL = 256


def nearest_rank_index(count: int, fraction: float) -> int:
    """Index of the nearest-rank percentile in a sorted sequence.

    The single percentile rule shared by :class:`LogBucketHistogram`
    and ``sim.stats.Histogram``: ``min(n-1, round(fraction * (n-1)))``.
    Returns -1 for an empty population.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    if count <= 0:
        return -1
    return min(count - 1, int(round(fraction * (count - 1))))


def nearest_rank(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of an already-sorted sequence (0 if empty)."""
    index = nearest_rank_index(len(ordered), fraction)
    return ordered[index] if index >= 0 else 0


class LogBucketHistogram:
    """Log-bucket histogram: exact small values, ~12.5% error above.

    Values below ``linear_max`` land in exact unit buckets.  Above,
    each power-of-two octave is split into ``subbuckets`` equal slices,
    so a reported percentile is the *lower bound* of its bucket and
    under-reports by at most ``1/subbuckets`` of the true value.
    Memory is O(buckets touched), never O(samples) — this is what lets
    the hub histogram every commit/abort without unbounded growth.
    """

    __slots__ = ("name", "linear_max", "subbuckets", "_buckets",
                 "_count", "_total", "_max", "_min")

    def __init__(self, name: str, linear_max: int = 128, subbuckets: int = 8):
        if linear_max < 1 or linear_max & (linear_max - 1):
            raise ValueError("linear_max must be a positive power of two")
        if subbuckets < 1 or subbuckets & (subbuckets - 1):
            raise ValueError("subbuckets must be a positive power of two")
        self.name = name
        self.linear_max = linear_max
        self.subbuckets = subbuckets
        #: bucket lower bound -> sample count.
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._max = 0
        self._min = 0

    def _bucket_of(self, value: int) -> int:
        """Lower bound of the bucket holding ``value``."""
        if value < self.linear_max:
            return value
        octave = value.bit_length() - 1
        width = (1 << octave) // self.subbuckets
        sub = (value - (1 << octave)) // width
        return (1 << octave) + sub * width

    def record(self, value: int) -> None:
        value = max(0, int(value))
        bucket = self._bucket_of(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
        if self._count == 0 or value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._count += 1
        self._total += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def maximum(self) -> int:
        return self._max

    @property
    def minimum(self) -> int:
        return self._min

    def percentile(self, fraction: float) -> int:
        """Nearest-rank percentile (bucket lower bound above linear_max)."""
        rank = nearest_rank_index(self._count, fraction)
        if rank < 0:
            return 0
        seen = 0
        for bucket in sorted(self._buckets):
            seen += self._buckets[bucket]
            if seen > rank:
                return bucket
        return self._max  # unreachable: counts sum to _count

    @property
    def p50(self) -> int:
        return self.percentile(0.50)

    @property
    def p95(self) -> int:
        return self.percentile(0.95)

    @property
    def p99(self) -> int:
        return self.percentile(0.99)

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self._count,
            "mean": round(self.mean, 4),
            "min": self._min,
            "max": self._max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": [[b, self._buckets[b]] for b in sorted(self._buckets)],
        }


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class TimeSeries:
    """One metric bucketed into fixed windows of the simulated clock.

    Windows are ``cycle // window_cycles``; ``mode`` is ``"sum"``
    (event counts, accumulated cycles) or ``"max"`` (gauge-style
    readings).  Out-of-order arrivals are fine — processors advance
    independently, so cross-processor cycles interleave — and when the
    window map outgrows ``capacity`` the *oldest* window is evicted
    (ring-buffer semantics keyed by window index, with an eviction
    count so truncation is never silent).
    """

    __slots__ = ("name", "window_cycles", "capacity", "mode",
                 "_windows", "evicted")

    def __init__(self, name: str, window_cycles: int,
                 capacity: int = 512, mode: str = "sum"):
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if mode not in ("sum", "max"):
            raise ValueError("mode must be 'sum' or 'max'")
        self.name = name
        self.window_cycles = window_cycles
        self.capacity = capacity
        self.mode = mode
        self._windows: Dict[int, int] = {}
        self.evicted = 0

    def record(self, cycle: int, amount: int = 1) -> None:
        window = cycle // self.window_cycles
        windows = self._windows
        current = windows.get(window)
        if current is not None:
            # The map does not grow, so nothing is evicted.
            if self.mode == "sum":
                windows[window] = current + amount
            elif amount > current:
                windows[window] = amount
            return
        windows[window] = amount
        while len(windows) > self.capacity:
            windows.pop(min(windows))
            self.evicted += 1

    def points(self) -> List[List[int]]:
        """``[[window_start_cycle, value], ...]``, cycle-ascending."""
        return [
            [window * self.window_cycles, self._windows[window]]
            for window in sorted(self._windows)
        ]

    def by_window(self) -> Dict[int, int]:
        """Window index -> value (for the pathology annotators)."""
        return dict(self._windows)

    def to_dict(self) -> Dict[str, object]:
        return {
            "window_cycles": self.window_cycles,
            "mode": self.mode,
            "evicted_windows": self.evicted,
            "points": self.points(),
        }


class MetricsHub:
    """The deterministic metrics sink for one simulated run.

    A fold over an :class:`~repro.obs.tracer.EventTracer`'s event log:
    armed via ``ExperimentConfig(metrics=MetricsHub())`` or
    ``FlexTMMachine.attach(metrics=hub)``, :func:`~repro.obs.tracer.tee`
    attaches it to the tracer armed beside it (or to a private log when
    armed alone), and the log hands it every record, in emission order,
    before the tracer's settings thin what the trace keeps.  Its
    aggregates are therefore a function of the event stream and can be
    rebuilt offline from a saved JSONL trace.  The log folds in chunks,
    so aggregates are complete after ``finalize`` (the end of every
    scheduler run) or the tracer's ``flush``.  Folding never mutates
    simulated state, which is the bit-identical contract the
    determinism tests pin.
    """

    def __init__(
        self,
        window_cycles: int = DEFAULT_WINDOW_CYCLES,
        sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
        series_capacity: int = 512,
        max_abort_records: int = 4096,
    ):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.window_cycles = window_cycles
        self.sample_interval = sample_interval
        self.series_capacity = series_capacity
        self.max_abort_records = max_abort_records
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, LogBucketHistogram] = {}
        self.series_map: Dict[str, TimeSeries] = {}
        self.abort_records: List[AbortRecord] = []
        self.abort_records_dropped = 0
        self.proc_cycles: List[int] = []
        self.samples_taken = 0
        self._steps = 0
        self._begin_cycle: Dict[int, int] = {}
        #: kind -> the fold of one record of that kind; other kinds
        #: (accesses, responses, samples, watchdog) only reach the trace.
        self._folds: Dict[str, Callable[[tuple], None]] = {
            "tx_begin": self._fold_begin,
            "tx_commit": self._fold_commit,
            "tx_abort": self._fold_abort,
            "conflict_detected": self._fold_conflict,
            "aou_alert": self._fold_alert,
            "conflict_stall": self._fold_stall,
            "coh_request": self._fold_request,
            "coh_evict": self._fold_evict,
            "degrade_escalate": self._fold_escalate,
        }
        for kind in sorted(SCHED_KINDS):
            self._folds[kind] = self._fold_sched
        for kind in sorted(EVENT_KINDS):
            if kind.startswith("overflow_"):
                self._folds[kind] = self._fold_overflow

    # -- primitive accessors ---------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> LogBucketHistogram:
        if name not in self.histograms:
            self.histograms[name] = LogBucketHistogram(name)
        return self.histograms[name]

    def series(self, name: str, mode: str = "sum") -> TimeSeries:
        if name not in self.series_map:
            self.series_map[name] = TimeSeries(
                name, self.window_cycles, capacity=self.series_capacity,
                mode=mode,
            )
        return self.series_map[name]

    # -- the fold --------------------------------------------------------------

    def fold(self, records: Sequence[tuple]) -> None:
        """Aggregate event-log records ``(kind, cycle, proc, thread,
        line, dur, cause, data)`` in order."""
        folds = self._folds
        for record in records:
            fold = folds.get(record[0])
            if fold is not None:
                fold(record)

    # -- transaction lifecycle -------------------------------------------------

    # The three most frequent kinds (begins, commits, granted requests)
    # bump their counter and their series' window in place; a series
    # calls ``TimeSeries.record`` only to open a window.

    def _fold_begin(self, record: tuple) -> None:
        cycle = record[1]
        counters = self.counters
        counters["tx.begins"] = counters.get("tx.begins", 0) + 1
        self._begin_cycle[record[3]] = cycle
        series = self.series_map.get("tx.begins") or self.series("tx.begins")
        windows = series._windows
        window = cycle // series.window_cycles
        if window in windows:
            windows[window] += 1
        else:
            series.record(cycle)

    def _fold_commit(self, record: tuple) -> None:
        cycle = record[1]
        counters = self.counters
        counters["tx.commits"] = counters.get("tx.commits", 0) + 1
        series = self.series_map.get("tx.commits") or self.series("tx.commits")
        windows = series._windows
        window = cycle // series.window_cycles
        if window in windows:
            windows[window] += 1
        else:
            series.record(cycle)
        begin = self._begin_cycle.pop(record[3], None)
        if begin is not None:
            histogram = (self.histograms.get("tx.commit_cycles")
                         or self.histogram("tx.commit_cycles"))
            histogram.record(max(0, cycle - begin))

    def _fold_abort(self, record: tuple) -> None:
        _, cycle, proc, thread, _, _, _, data = record
        kind = data.get("conflict") or UNATTRIBUTED_KIND
        self.count("tx.aborts")
        self.count(f"tx.aborts.{kind}")
        self.series("tx.aborts").record(cycle)
        begin = self._begin_cycle.pop(thread, None)
        wasted = max(0, cycle - begin) if begin is not None else 0
        self.histogram("tx.wasted_cycles").record(wasted)
        self.series("tx.wasted_cycles").record(cycle, wasted)
        if len(self.abort_records) < self.max_abort_records:
            self.abort_records.append(
                AbortRecord(
                    cycle=cycle, thread=thread,
                    proc=proc if proc is not None else -1,
                    by=data["by"], kind=kind, wasted_cycles=wasted,
                )
            )
        else:
            self.abort_records_dropped += 1

    # -- conflicts, alerts and contention --------------------------------------

    def _fold_conflict(self, record: tuple) -> None:
        self.count("conflicts.total")
        self.count(f"conflicts.{record[7]['cst']}")
        self.series("conflicts").record(record[1])

    def _fold_alert(self, record: tuple) -> None:
        self.count("aou.alerts")
        self.series("aou.alerts").record(record[1])

    def _fold_stall(self, record: tuple) -> None:
        dur = record[5]
        self.count("stalls")
        self.histogram("stall_cycles").record(dur)
        self.series("stall_cycles").record(record[1], dur)

    # -- overflow machinery ----------------------------------------------------

    def _fold_overflow(self, record: tuple) -> None:
        self.count(f"overflow.{record[0][len('overflow_'):]}")
        self.series("overflow.events").record(record[1])
        if record[5]:
            self.histogram("overflow_cycles").record(record[5])

    # -- scheduling ------------------------------------------------------------

    def _fold_sched(self, record: tuple) -> None:
        what = record[0]
        self.count(f"sched.{what}")
        if what in ("preempt", "yield"):
            self.series("sched.switches").record(record[1])

    # -- coherence -------------------------------------------------------------

    def _fold_request(self, record: tuple) -> None:
        """Counts granted directory requests.

        A NACKed request (``cause`` ends in ``->NACK``) never reached
        the holders, so it is not a coherence message.
        """
        if record[6].endswith("->NACK"):
            return
        cycle = record[1]
        counters = self.counters
        counters["coh.messages"] = counters.get("coh.messages", 0) + 1
        series = self.series_map.get("coh.messages") or self.series("coh.messages")
        windows = series._windows
        window = cycle // series.window_cycles
        if window in windows:
            windows[window] += 1
        else:
            series.record(cycle)

    def _fold_evict(self, record: tuple) -> None:
        self.count("coh.evictions")

    # -- degradation ladder ----------------------------------------------------

    def _fold_escalate(self, record: tuple) -> None:
        self.count(f"resilience.escalations.{record[7]['rung']}")
        self.series("resilience.escalations").record(record[1])

    # -- run boundary ----------------------------------------------------------

    def step(self, scheduler, steps: int) -> int:
        """Count ``steps`` more scheduler steps (from the tracer whose log
        this hub folds) and sweep the sensors when the count reaches a
        multiple of ``sample_interval``.

        Returns the steps to the next sweep.  The scheduler calls again
        no later than that, so ``steps`` never passes a sweep.
        """
        self._steps += steps
        remainder = self._steps % self.sample_interval
        if remainder:
            return self.sample_interval - remainder
        self.sample(scheduler.machine)
        return self.sample_interval

    def finalize(self, proc_cycles: List[int], steps: int = 0) -> None:
        """Called once per run, after the last fold, with each
        processor's final clock and the steps run after the last
        :meth:`step` call (fewer than its budget, so no sweep is due)."""
        self._steps += steps
        self.proc_cycles = list(proc_cycles)
        self.gauge("cycles.total").set(max(proc_cycles, default=0))

    # -- the periodic pressure sampler -----------------------------------------

    def sample(self, machine) -> None:
        """One sweep over the PR 4 pressure sensors (observational)."""
        from repro.resilience.pressure import sample_machine

        cycle = machine.max_cycle()
        # The worst signature readings and the total OT occupancy (every
        # reading is >= 0, so 0.0 and 0 start the scan).
        sig_fill = sig_fp = 0.0
        ot_occupancy = 0
        for reading in sample_machine(machine):
            sig_fill = max(sig_fill, reading.sig_fill)
            sig_fp = max(sig_fp, reading.sig_fp)
            ot_occupancy += reading.ot_occupancy
        cst_density = sum(
            proc.csts.conflict_degree() for proc in machine.processors
        )
        fill_pct = int(sig_fill * 100)
        fp_pct = int(sig_fp * 100)
        self.gauge("pressure.sig_fill_pct").set(fill_pct)
        self.gauge("pressure.sig_fp_pct").set(fp_pct)
        self.gauge("pressure.ot_occupancy").set(ot_occupancy)
        self.gauge("pressure.cst_density").set(cst_density)
        self.series("pressure.sig_fill_pct", mode="max").record(cycle, fill_pct)
        self.series("pressure.sig_fp_pct", mode="max").record(cycle, fp_pct)
        self.series("pressure.ot_occupancy", mode="max").record(cycle, ot_occupancy)
        self.series("pressure.cst_density", mode="max").record(cycle, cst_density)
        resilience = machine.resilience
        if resilience is not None:
            census = resilience.rung_census()
            for rung in sorted(census):
                self.gauge(f"resilience.rung.{rung}").set(census[rung])
                self.series(f"resilience.rung.{rung}", mode="max").record(
                    cycle, census[rung]
                )
        self.samples_taken += 1
        tracer = machine.tracer
        if tracer.enabled:
            tracer.metrics(
                cycle, "sample",
                sig_fill_pct=fill_pct, sig_fp_pct=fp_pct,
                ot_occupancy=ot_occupancy, cst_density=cst_density,
            )

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The deterministic JSON-ready view (sorted everywhere)."""
        return {
            "window_cycles": self.window_cycles,
            "sample_interval": self.sample_interval,
            "samples_taken": self.samples_taken,
            "proc_cycles": list(self.proc_cycles),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].value for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
            "series": {
                k: self.series_map[k].to_dict()
                for k in sorted(self.series_map)
            },
            "abort_records": [r.to_dict() for r in self.abort_records],
            "abort_records_dropped": self.abort_records_dropped,
        }

    def commits_by_window(self) -> Dict[int, int]:
        """Window index -> commit count (for the pathology annotators)."""
        series = self.series_map.get("tx.commits")
        return series.by_window() if series is not None else {}
