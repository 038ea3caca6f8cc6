"""The parallel experiment executor.

The load-bearing invariant (same one PR 1 established for tracing):
fanning points out across worker processes changes *when* they run,
never *what* they compute — ``--jobs N`` rows are bit-identical to
``--jobs 1`` for every TM backend.  Worker failure modes (exception,
crash, timeout) must surface as structured outcomes, not dead sweeps.
The executor runs plain ``(label, task)`` points, so its own tests use
plain tasks.
"""

from __future__ import annotations

import json
import os
import time
from functools import partial

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness import parallel
from repro.harness.parallel import (
    PointOutcome,
    PointSpec,
    bench_payload,
    effective_jobs,
    run_points,
    unwrap,
    validate_bench_payload,
)
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment, run_point
from repro.harness.sweep import ROW_FIELDS, SweepSpec, run_sweep
from repro.params import small_test_params


def _config(workload="HashTable", system="FlexTM", threads=2, seed=7):
    return ExperimentConfig(
        workload=workload,
        system=system,
        threads=threads,
        mode=ConflictMode.EAGER,
        cycle_limit=10_000,
        seed=seed,
        params=small_test_params(4),
    )


@pytest.fixture
def all_backend_spec():
    return SweepSpec(
        workloads=["HashTable"],
        systems=sorted(SYSTEMS),
        thread_counts=(1, 2),
        modes=(ConflictMode.EAGER,),
        seeds=(7,),
        cycle_limit=10_000,
        params=small_test_params(4),
    )


def test_parallel_rows_bit_identical_to_serial(all_backend_spec):
    serial = run_sweep(all_backend_spec, jobs=1)
    fanned = run_sweep(all_backend_spec, jobs=3)
    assert serial == fanned
    assert len(serial) == all_backend_spec.size()
    assert {row["system"] for row in serial} == set(SYSTEMS)
    assert all(row["status"] == "ok" for row in serial)


def _after(delay, value):
    time.sleep(delay)
    return value


def test_outcomes_ordered_by_submission_index():
    # The first point finishes last: completion order is not row order.
    specs = [
        PointSpec(f"p{number}", partial(_after, delay, number))
        for number, delay in ((4, 0.4), (1, 0.0), (3, 0.1), (2, 0.0))
    ]
    outcomes = run_points(specs, jobs=2)
    assert [outcome.index for outcome in outcomes] == [0, 1, 2, 3]
    assert [outcome.label for outcome in outcomes] == ["p4", "p1", "p3", "p2"]
    assert [outcome.result for outcome in outcomes] == [4, 1, 3, 2]
    assert all(outcome.ok for outcome in outcomes)


@pytest.mark.parametrize("jobs", [1, 2])
def test_exception_becomes_error_row_not_dead_sweep(jobs):
    spec = SweepSpec(
        workloads=["HashTable", "NoSuchWorkload"],
        systems=["FlexTM"],
        thread_counts=(1,),
        modes=(ConflictMode.EAGER,),
        seeds=(7,),
        cycle_limit=10_000,
        params=small_test_params(4),
    )
    rows = run_sweep(spec, jobs=jobs)
    assert len(rows) == 2
    good, bad = rows
    assert good["status"] == "ok" and good["commits"] > 0
    assert bad["workload"] == "NoSuchWorkload"
    assert bad["status"] == "exception"
    assert "NoSuchWorkload" in bad["error"]
    assert bad["commits"] == 0 and bad["throughput"] == 0.0
    assert set(bad) == set(ROW_FIELDS)


def test_crashed_worker_is_isolated_and_retried():
    specs = [
        PointSpec("ok-point", partial(run_experiment, _config())),
        PointSpec("crash-point", partial(os._exit, 3)),
    ]
    outcomes = run_points(specs, jobs=2, retries=1)
    assert outcomes[0].ok and outcomes[0].status == "ok"
    assert outcomes[0].result.commits > 0
    crashed = outcomes[1]
    assert not crashed.ok
    assert crashed.status == "crash"
    assert "exit code 3" in crashed.error
    assert crashed.attempts == 2  # initial launch + one retry
    with pytest.raises(RuntimeError, match="crash-point"):
        unwrap(crashed)


def test_hung_worker_times_out_without_killing_the_sweep():
    specs = [
        PointSpec("hung-point", partial(time.sleep, 60)),
        PointSpec("ok-point", partial(run_experiment, _config())),
    ]
    started = time.perf_counter()
    outcomes = run_points(specs, jobs=2, timeout=0.5, retries=0)
    assert time.perf_counter() - started < 30
    hung, fine = outcomes
    assert hung.status == "timeout" and not hung.ok
    assert hung.attempts == 1
    assert "0.5s budget" in hung.error
    assert fine.ok


def test_serial_path_never_forks(monkeypatch):
    def boom(*args, **kwargs):  # pragma: no cover — would fail the test
        raise AssertionError("jobs=1 must not spawn workers")

    monkeypatch.setattr(parallel, "_run_pool", boom)
    outcomes = run_points([PointSpec("p", partial(run_experiment, _config()))], jobs=1)
    assert outcomes[0].ok


def test_parallel_figures_match_serial():
    from repro.harness.figure4 import run_figure4
    from repro.harness.figure5 import run_multiprogramming, run_policy_comparison

    assert run_figure4(
        workloads=["HashTable"], thread_points=(1, 2), cycle_limit=10_000, jobs=2
    ) == run_figure4(
        workloads=["HashTable"], thread_points=(1, 2), cycle_limit=10_000, jobs=1
    )
    assert run_policy_comparison(
        workloads=["RBTree"], thread_points=(1, 2), cycle_limit=10_000, jobs=2
    ) == run_policy_comparison(
        workloads=["RBTree"], thread_points=(1, 2), cycle_limit=10_000, jobs=1
    )
    assert run_multiprogramming(
        workloads=["LFUCache"], thread_points=(2,), cycle_limit=10_000, jobs=2
    ) == run_multiprogramming(
        workloads=["LFUCache"], thread_points=(2,), cycle_limit=10_000, jobs=1
    )


def test_parallel_traces_written_by_workers(tmp_path):
    specs = [
        PointSpec(
            f"t{threads}",
            partial(run_point, _config(threads=threads), trace_dir=str(tmp_path),
                    name=f"point_{threads}t"),
        )
        for threads in (1, 2)
    ]
    outcomes = run_points(specs, jobs=2)
    for outcome, threads in zip(outcomes, (1, 2)):
        assert outcome.ok
        assert outcome.result.trace is None  # tracer stays in the worker
        document = json.loads((tmp_path / f"point_{threads}t.json").read_text())
        assert document["traceEvents"]


def test_figure4_artifacts_identical_serial_and_parallel(tmp_path):
    """The per-point files of a figure do not depend on ``jobs``; the
    STM backends (RSTM here) abort unattributed and must write too."""
    from repro.harness.figure4 import run_figure4

    trees = {}
    for jobs in (1, 2):
        root = tmp_path / f"jobs{jobs}"
        results = run_figure4(
            workloads=["RBTree"], thread_points=(1, 2), cycle_limit=10_000,
            trace_out=str(root / "t"), metrics_out=str(root / "m"), jobs=jobs,
        )
        trees[jobs] = (results, {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*.json"))
        })
    assert trees[1] == trees[2]
    files = trees[1][1]
    assert "m/figure4_RBTree_RSTM_2t.json" in files
    assert len(files) == 2 * 4 * 2  # (trace, metrics) x backends x threads


def test_bench_json_written_and_valid(all_backend_spec, tmp_path):
    bench_path = tmp_path / "BENCH_sweep.json"
    run_sweep(all_backend_spec, jobs=2, bench_out=str(bench_path))
    document = json.loads(bench_path.read_text())
    assert validate_bench_payload(document) is None
    assert document["jobs"] == 2
    assert document["num_points"] == all_backend_spec.size()
    assert document["num_errors"] == 0
    assert document["total_wall_time_s"] > 0
    assert document["serial_estimate_s"] > 0
    assert document["sweep"]["systems"] == sorted(SYSTEMS)
    assert document["host"]["cpu_count"] == os.cpu_count()


def test_validate_bench_payload_rejects_junk():
    assert validate_bench_payload([]) is not None
    assert validate_bench_payload({"schema": "nope"}) is not None
    good = bench_payload(
        [PointOutcome(index=0, label="p", ok=True, status="ok", wall_time=0.1)],
        jobs=2,
        total_wall_time=0.1,
    )
    assert validate_bench_payload(good) is None
    broken = dict(good, num_errors=5)
    assert validate_bench_payload(broken) is not None


def test_benchgate_cli(all_backend_spec, tmp_path, capsys):
    from repro.harness.benchgate import main as benchgate

    bench_path = tmp_path / "BENCH_sweep.json"
    run_sweep(all_backend_spec, jobs=2, bench_out=str(bench_path))
    assert benchgate([str(bench_path), "--baseline", str(bench_path)]) == 0
    assert "benchgate: OK" in capsys.readouterr().out

    # A 1000x-faster fake baseline must trip the regression gate.
    fast = json.loads(bench_path.read_text())
    fast["total_wall_time_s"] = fast["total_wall_time_s"] / 1000.0
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(fast))
    assert (
        benchgate([str(bench_path), "--baseline", str(baseline_path)]) == 1
    )
    assert "FAIL" in capsys.readouterr().out


def test_effective_jobs():
    assert effective_jobs(None) == (os.cpu_count() or 1)
    assert effective_jobs(0) == (os.cpu_count() or 1)
    assert effective_jobs(1) == 1
    assert effective_jobs(7) == 7
