"""Every harness report carries the same cause-fidelity keys.

PR 6's schema unification: chaos cells, degrade cells, and metrics
artifacts all expose ``aborts_by_kind`` *and* ``escalations`` (plus
the windowed ``series``) uniformly, so downstream tooling never
special-cases which harness produced a report.
"""

from repro.harness.chaos import run_chaos_matrix
from repro.harness.degrade import run_degrade_matrix
from repro.harness.metrics import (
    METRICS_REQUIRED_KEYS,
    TOTALS_REQUIRED_KEYS,
    build_artifact,
)
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.metrics import MetricsHub
from repro.params import small_test_params

#: The keys every harness cell report must carry, regardless of which
#: harness (chaos or degrade) produced it.
UNIFORM_CELL_KEYS = {
    "backend", "profile", "classification", "injected",
    "commits", "aborts", "cycles",
    "aborts_by_kind", "escalations", "series",
    "detail",
}


def test_chaos_cell_schema_is_uniform():
    cells = run_chaos_matrix(
        ["FlexTM"], ["storm"], seed=2, threads=2, txns=3,
        cycle_limit=50_000_000,
    )
    doc = cells[0].to_json()
    assert UNIFORM_CELL_KEYS <= set(doc)
    assert isinstance(doc["aborts_by_kind"], dict)
    assert isinstance(doc["escalations"], dict)
    assert isinstance(doc["series"], dict)
    assert set(doc["series"]) == {"tx.commits", "tx.aborts"}
    for series in doc["series"].values():
        assert set(series) >= {"window_cycles", "mode", "points"}


def test_degrade_cell_schema_is_uniform():
    cells = run_degrade_matrix(
        ["FlexTM"], ["storm"], seed=2, threads=2, txns=3,
        cycle_limit=50_000_000,
    )
    doc = cells[0].to_json()
    assert UNIFORM_CELL_KEYS <= set(doc)
    assert isinstance(doc["aborts_by_kind"], dict)
    assert isinstance(doc["escalations"], dict)
    assert set(doc["series"]) == {"tx.commits", "tx.aborts"}


def test_metrics_artifact_totals_schema():
    hub = MetricsHub()
    result = run_experiment(ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=2,
        cycle_limit=20_000, params=small_test_params(2), metrics=hub,
    ))
    document = build_artifact(hub, result, run_info={"label": "schema"})
    assert set(METRICS_REQUIRED_KEYS) <= set(document)
    assert set(TOTALS_REQUIRED_KEYS) <= set(document["totals"])
    assert isinstance(document["totals"]["aborts_by_kind"], dict)
    assert isinstance(document["totals"]["escalations"], dict)
    # PR 9's hybrid-HTM keys exist on every artifact; for a backend
    # without the fallback ladder they are identically zero.
    assert document["totals"]["commits_by_path"] == {
        "htm": 0, "sw": 0, "irrevocable": 0,
    }
    assert document["totals"]["fallback_rate"] == 0.0


def test_htmbe_cell_carries_fallback_telemetry():
    cells = run_chaos_matrix(
        ["HTM-BE"], ["overflow"], seed=2, threads=2, txns=3,
        cycle_limit=50_000_000,
    )
    doc = cells[0].to_json()
    assert UNIFORM_CELL_KEYS <= set(doc)
    escalations = doc["escalations"]
    fallback_keys = {k for k in escalations if k.startswith("fallback_")}
    assert fallback_keys  # the ladder's telemetry reached the report
    # The ladder's keys are namespaced under ``fallback_`` so they can
    # never collide with the resilience controller's bare ladder keys.
    assert fallback_keys <= {
        "fallback_commits_htm", "fallback_commits_sw",
        "fallback_commits_irrevocable", "fallback_grants",
        "fallback_dooms", "fallback_capacity_fastfails",
        "fallback_peak_streak",
    }
    # Capacity aborts surface under the uniform aborts_by_kind taxonomy.
    assert set(doc["aborts_by_kind"]) <= {
        "capacity", "htm-conflict", "explicit", "fallback", "unattributed",
    }


def test_htmbe_metrics_totals_report_the_commit_paths():
    hub = MetricsHub()
    result = run_experiment(ExperimentConfig(
        workload="HashTable", system="HTM-BE", threads=2,
        cycle_limit=20_000, params=small_test_params(2), metrics=hub,
    ))
    document = build_artifact(hub, result, run_info={"label": "htmbe"})
    totals = document["totals"]
    paths = totals["commits_by_path"]
    assert set(paths) == {"htm", "sw", "irrevocable"}
    assert sum(paths.values()) == totals["commits"] == result.commits
    assert 0.0 <= totals["fallback_rate"] <= 1.0
