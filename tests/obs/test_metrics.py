"""The metrics subsystem: percentile rule, histograms, series, hub.

Three contracts are pinned here:

* **one percentile rule** — ``sim.stats.Histogram`` and
  ``LogBucketHistogram`` answer order-statistic queries through the
  same :func:`nearest_rank` helper (golden edge cases included);
* **bounded error** — log buckets are exact below ``linear_max`` and
  under-report by at most one sub-bucket width above it;
* **observational purity** — a metrics-armed run is bit-identical to
  an unarmed one on every backend, and the artifact itself is
  deterministic across repeated runs.
"""

import json

import pytest

from repro.harness.metrics import build_artifact, validate_metrics_artifact
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.metrics import (
    Gauge,
    LogBucketHistogram,
    MetricsHub,
    TimeSeries,
    nearest_rank,
    nearest_rank_index,
)
from repro.obs.export import to_jsonl
from repro.obs.tracer import EventTracer, tee
from repro.params import small_test_params
from repro.resilience import DegradeSpec
from repro.sim.stats import Histogram

SYSTEMS = ["CGL", "FlexTM", "RTM-F", "RSTM", "TL2", "LogTM-SE", "HTM-BE"]

CYCLES = 30_000


# -- the one percentile rule --------------------------------------------------


def test_nearest_rank_empty_population():
    assert nearest_rank_index(0, 0.5) == -1
    assert nearest_rank([], 0.5) == 0
    assert nearest_rank([], 0.0) == 0


def test_nearest_rank_single_sample():
    for fraction in (0.0, 0.5, 0.95, 1.0):
        assert nearest_rank([7], fraction) == 7


def test_nearest_rank_rejects_out_of_range_fractions():
    with pytest.raises(ValueError):
        nearest_rank_index(3, -0.01)
    with pytest.raises(ValueError):
        nearest_rank([1, 2, 3], 1.01)


def test_nearest_rank_golden_values():
    ordered = list(range(1, 11))  # 1..10
    assert nearest_rank(ordered, 0.0) == 1
    assert nearest_rank(ordered, 0.5) == 5  # round(0.5 * 9) = 4 -> value 5
    assert nearest_rank(ordered, 0.95) == 10
    assert nearest_rank(ordered, 1.0) == 10


def test_sim_stats_histogram_uses_the_shared_rule():
    """Satellite: sim.stats percentiles delegate to obs.metrics."""
    histogram = Histogram("x")
    assert histogram.percentile(0.5) == 0  # empty
    samples = [5, 1, 9, 3, 7]
    for sample in samples:
        histogram.record(sample)
    ordered = sorted(samples)
    for fraction in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
        assert histogram.percentile(fraction) == nearest_rank(ordered, fraction)
    with pytest.raises(ValueError):
        histogram.percentile(2.0)


# -- log-bucket histogram ------------------------------------------------------


def test_log_bucket_empty():
    histogram = LogBucketHistogram("h")
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.p50 == 0
    assert histogram.p99 == 0
    assert histogram.to_dict()["buckets"] == []


def test_log_bucket_single_sample_is_exact():
    histogram = LogBucketHistogram("h")
    histogram.record(37)
    assert (histogram.p50, histogram.p95, histogram.p99) == (37, 37, 37)
    assert histogram.minimum == histogram.maximum == 37


def test_log_bucket_exact_below_linear_max():
    histogram = LogBucketHistogram("h", linear_max=128)
    for value in range(128):
        assert histogram._bucket_of(value) == value


def test_log_bucket_boundary_octave():
    """At linear_max the octave splits into subbucket-width slices."""
    histogram = LogBucketHistogram("h", linear_max=128, subbuckets=8)
    # Octave [128, 256) has width 128/8 = 16 per sub-bucket.
    assert histogram._bucket_of(128) == 128
    assert histogram._bucket_of(143) == 128
    assert histogram._bucket_of(144) == 144
    assert histogram._bucket_of(255) == 240
    # Next octave [256, 512): width 32.
    assert histogram._bucket_of(256) == 256
    assert histogram._bucket_of(287) == 256
    assert histogram._bucket_of(288) == 288


def test_log_bucket_percentile_reports_bucket_lower_bound():
    histogram = LogBucketHistogram("h", linear_max=128, subbuckets=8)
    for _ in range(10):
        histogram.record(150)  # bucket 144
    assert histogram.p50 == 144
    assert histogram.maximum == 150
    # Relative error bounded by one sub-bucket width (16/150 < 1/8).
    assert 150 - histogram.p50 <= 150 / 8


def test_log_bucket_clamps_negative_samples():
    histogram = LogBucketHistogram("h")
    histogram.record(-5)
    assert histogram.minimum == 0
    assert histogram.p50 == 0


def test_log_bucket_rejects_non_power_of_two_geometry():
    with pytest.raises(ValueError):
        LogBucketHistogram("h", linear_max=100)
    with pytest.raises(ValueError):
        LogBucketHistogram("h", subbuckets=3)


# -- time series ---------------------------------------------------------------


def test_series_windows_sum_and_sort():
    series = TimeSeries("s", window_cycles=100)
    series.record(50)
    series.record(250)
    series.record(99)
    series.record(210, amount=3)
    assert series.points() == [[0, 2], [200, 4]]


def test_series_max_mode():
    series = TimeSeries("s", window_cycles=100, mode="max")
    series.record(10, 5)
    series.record(20, 9)
    series.record(30, 2)
    assert series.points() == [[0, 9]]


def test_series_accepts_out_of_order_cycles():
    series = TimeSeries("s", window_cycles=100)
    series.record(500)
    series.record(100)  # processors advance independently
    assert series.points() == [[100, 1], [500, 1]]


def test_series_evicts_oldest_window_past_capacity():
    series = TimeSeries("s", window_cycles=10, capacity=3)
    for cycle in (5, 15, 25, 35):
        series.record(cycle)
    assert series.evicted == 1
    assert series.points() == [[10, 1], [20, 1], [30, 1]]


def test_series_rejects_bad_geometry():
    with pytest.raises(ValueError):
        TimeSeries("s", window_cycles=0)
    with pytest.raises(ValueError):
        TimeSeries("s", window_cycles=10, capacity=0)
    with pytest.raises(ValueError):
        TimeSeries("s", window_cycles=10, mode="median")


def test_gauge_last_value_wins():
    gauge = Gauge("g")
    gauge.set(4)
    gauge.set(2)
    assert gauge.value == 2


# -- hub determinism -----------------------------------------------------------


def _config(system, **overrides):
    base = dict(
        workload="HashTable",
        system=system,
        threads=4,
        cycle_limit=CYCLES,
        seed=9,
        params=small_test_params(4),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("system", SYSTEMS)
def test_armed_run_is_bit_identical_to_unarmed(system):
    """The tentpole contract: metrics observe, never perturb."""
    plain = run_experiment(_config(system))
    armed = run_experiment(_config(system, metrics=MetricsHub()))
    assert plain == armed  # RunResult equality ignores trace/metrics


def test_hub_sees_the_run_it_rode():
    hub = MetricsHub()
    result = run_experiment(_config("FlexTM", metrics=hub))
    assert result.metrics is hub
    assert hub.counters["tx.commits"] == result.commits
    assert hub.counters.get("tx.aborts", 0) == result.aborts
    assert hub.samples_taken > 0
    assert hub.series_map["tx.commits"].points()
    assert max(hub.proc_cycles) == hub.gauges["cycles.total"].value


def test_unarmed_run_result_has_no_metrics():
    assert run_experiment(_config("FlexTM")).metrics is None


def test_artifact_is_deterministic_and_valid():
    documents = []
    for _ in range(2):
        hub = MetricsHub()
        result = run_experiment(_config("FlexTM", metrics=hub))
        documents.append(build_artifact(hub, result, run_info={"label": "t"}))
    assert documents[0] == documents[1]
    assert validate_metrics_artifact(documents[0]) is None


@pytest.mark.parametrize("system", SYSTEMS)
def test_contended_artifact_builds_with_int_wounders(system):
    """An STM validation abort names no wounder: it must read as -1
    ("unattributed"), so the wounded-by chains still build."""
    hub = MetricsHub()
    result = run_experiment(_config(
        system, workload="RBTree", threads=8, seed=7,
        params=small_test_params(8), metrics=hub))
    document = build_artifact(hub, result, run_info={"label": system})
    assert validate_metrics_artifact(document) is None
    assert all(
        isinstance(record.by, int) and record.by >= -1
        for record in hub.abort_records
    )


def test_hub_bounds_abort_records():
    hub = MetricsHub(max_abort_records=2)
    log = tee(hub)
    for cycle in (10, 20, 30, 40):
        log.tx_abort(0, 0, cycle, "aborted", by=1, conflict="W-W")
    log.flush()
    assert len(hub.abort_records) == 2
    assert hub.abort_records_dropped == 2


def test_degrade_armed_hub_samples_rung_census():
    hub = MetricsHub(sample_interval=64)
    run_experiment(
        _config(
            "FlexTM",
            metrics=hub,
            degrade=DegradeSpec(boost_after=1, eager_after=2,
                                irrevocable_after=3),
        )
    )
    assert "resilience.rung.healthy" in hub.gauges


# -- one observation API: the hub folds the tracer's event log ----------------


@pytest.mark.parametrize("system", SYSTEMS)
def test_hub_armed_beside_a_tracer_matches_each_observer_alone(system):
    """Co-arming changes neither observer: one log feeds both the same events."""
    alone = MetricsHub()
    run_experiment(_config(system, metrics=alone))
    tracer_only = EventTracer()
    run_experiment(_config(system, tracer=tracer_only))
    hub, tracer = MetricsHub(), EventTracer()
    run_experiment(_config(system, metrics=hub, tracer=tracer))
    assert hub.to_dict() == alone.to_dict()
    # The hub's periodic pressure samples land in the trace as
    # metrics_sample events; every other event is the tracer-only stream.
    samples = [e for e in tracer.events if e.kind == "metrics_sample"]
    assert len(samples) == hub.samples_taken > 0
    assert [e for e in tracer.events if e.kind != "metrics_sample"] == \
        tracer_only.events


def _replay(lines):
    """A fresh hub fed each JSONL trace line through its log's Tracer method."""
    hub = MetricsHub()
    log = tee(hub)
    for line in lines:
        event = json.loads(line)
        kind, cycle, proc = event.pop("kind"), event.pop("cycle"), event.pop("proc")
        thread = event.get("thread", -1)
        target = event.get("line", -1)
        cause = event.get("cause", "")
        if kind == "tx_begin":
            log.tx_begin(proc, thread, cycle, event["system"], event["incarnation"])
        elif kind == "tx_commit":
            log.tx_commit(proc, thread, cycle)
        elif kind == "tx_abort":
            log.tx_abort(proc, thread, cycle, cause, by=event["by"],
                         conflict=event.get("conflict", ""))
        elif kind in ("tx_read", "tx_write"):
            log.tx_access(proc, thread, cycle, kind[3:], target)
        elif kind == "conflict_detected":
            log.conflict(proc, cycle, event["responder"], event["cst"], target)
        elif kind == "aou_alert":
            log.aou_alert(proc, cycle, target, cause)
        elif kind == "conflict_stall":
            log.stall(proc, cycle, event.get("dur", 0), enemy=event["enemy"],
                      settled=event["settled"])
        elif kind.startswith("overflow_"):
            log.overflow(proc, cycle, kind[len("overflow_"):], target,
                         dur=event.get("dur", 0))
        elif kind.startswith("coh_"):
            log.coherence(proc, cycle, kind, target,
                          responder=event.get("responder", -1), detail=cause)
        elif kind in ("preempt", "yield", "dispatch", "retire"):
            log.sched(proc, cycle, kind, thread, status=cause)
        elif kind.startswith("degrade_"):
            log.degrade(cycle, kind[len("degrade_"):], **event)
        elif kind.startswith("watchdog_"):
            log.watchdog(cycle, kind[len("watchdog_"):], **event)
        else:
            assert kind == "metrics_sample", kind
    log.flush()
    return hub


def _replayable_series(hub):
    """Every series except the sampler's live-machine readings."""
    return {
        name: series.to_dict()
        for name, series in hub.series_map.items()
        if not name.startswith(("pressure.", "resilience.rung."))
    }


@pytest.mark.parametrize("overrides", [
    {},
    {"threads": 8, "processors": 4, "quantum": 2_000,
     "degrade": DegradeSpec(boost_after=1, eager_after=2, irrevocable_after=3)},
], ids=["plain", "preempted-degrade"])
def test_metrics_rebuild_offline_from_a_jsonl_trace(overrides):
    """Replaying a saved trace reproduces the live hub's aggregates."""
    live, tracer = MetricsHub(), EventTracer()
    run_experiment(_config("FlexTM", metrics=live, tracer=tracer, **overrides))
    replayed = _replay(to_jsonl(tracer))
    assert replayed.counters == live.counters
    assert {k: v.to_dict() for k, v in replayed.histograms.items()} == \
        {k: v.to_dict() for k, v in live.histograms.items()}
    assert [r.to_dict() for r in replayed.abort_records] == \
        [r.to_dict() for r in live.abort_records]
    assert _replayable_series(replayed) == _replayable_series(live)
    assert live.counters["coh.messages"] > 0
