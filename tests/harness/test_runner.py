"""Experiment runner plumbing."""

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness.runner import (
    ExperimentConfig,
    SYSTEMS,
    cgl_baseline,
    normalized_throughput,
    run_experiment,
)
from repro.params import small_test_params
from repro.workloads import WORKLOADS


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        run_experiment(ExperimentConfig(workload="Nope", system="FlexTM", threads=1))


def test_unknown_system_rejected():
    with pytest.raises(KeyError):
        run_experiment(ExperimentConfig(workload="HashTable", system="Nope", threads=1))


def test_registry_completeness():
    assert set(SYSTEMS) == {
        "CGL", "FlexTM", "RTM-F", "RSTM", "TL2", "LogTM-SE", "HTM-BE",
    }
    assert set(WORKLOADS) == {
        "HashTable",
        "RBTree",
        "LFUCache",
        "RandomGraph",
        "Delaunay",
        "Vacation-Low",
        "Vacation-High",
        "KMeans",
    }


def test_basic_run_produces_commits():
    result = run_experiment(
        ExperimentConfig(
            workload="HashTable",
            system="FlexTM",
            threads=2,
            cycle_limit=60_000,
            params=small_test_params(4),
        )
    )
    assert result.commits > 0
    assert result.throughput > 0


def test_runs_are_deterministic():
    config = ExperimentConfig(
        workload="RBTree",
        system="FlexTM",
        threads=2,
        mode=ConflictMode.LAZY,
        cycle_limit=50_000,
        params=small_test_params(4),
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.commits == second.commits
    assert first.aborts == second.aborts


def test_yield_on_abort_prime_work_makes_progress():
    result = run_experiment(
        ExperimentConfig(
            workload="LFUCache",
            system="FlexTM",
            threads=2,
            yield_on_abort=True,
            cycle_limit=60_000,
            params=small_test_params(4),
        )
    )
    assert result.nontx_items > 0  # Prime made progress


def test_normalized_throughput():
    baseline = cgl_baseline("HashTable", cycle_limit=60_000, params=small_test_params(4))
    result = run_experiment(
        ExperimentConfig(
            workload="HashTable",
            system="CGL",
            threads=1,
            cycle_limit=60_000,
            params=small_test_params(4),
        )
    )
    assert normalized_throughput(result, baseline) == pytest.approx(1.0, rel=0.05)


def test_repro_cycles_read_at_resolve_time(monkeypatch):
    from repro.harness import runner

    config = ExperimentConfig(workload="HashTable", system="FlexTM", threads=1)
    monkeypatch.delenv("REPRO_CYCLES", raising=False)
    assert config.resolved_cycle_limit() == runner.DEFAULT_CYCLE_LIMIT
    # A post-import environment change takes effect immediately — the
    # old code froze the value at import time.
    monkeypatch.setenv("REPRO_CYCLES", "123456")
    assert config.resolved_cycle_limit() == 123456
    monkeypatch.delenv("REPRO_CYCLES")
    assert config.resolved_cycle_limit() == runner.DEFAULT_CYCLE_LIMIT


def test_repro_cycles_rejects_garbage(monkeypatch):
    config = ExperimentConfig(workload="HashTable", system="FlexTM", threads=1)
    monkeypatch.setenv("REPRO_CYCLES", "not-a-number")
    with pytest.raises(ValueError):
        config.resolved_cycle_limit()


def test_explicit_cycle_limit_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CYCLES", "123456")
    config = ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=1, cycle_limit=777
    )
    assert config.resolved_cycle_limit() == 777
