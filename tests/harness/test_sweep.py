"""Sweep utility."""

import csv
import io

import pytest

from repro.core.descriptor import ConflictMode
from repro.harness.sweep import (
    ROW_FIELDS,
    SweepSpec,
    run_sweep,
    run_sweep_command,
    to_csv,
    write_csv,
)
from repro.params import small_test_params


@pytest.fixture
def spec():
    return SweepSpec(
        workloads=["HashTable"],
        systems=["FlexTM", "CGL"],
        thread_counts=(1, 2),
        modes=(ConflictMode.LAZY,),
        seeds=(1,),
        cycle_limit=20_000,
        params=small_test_params(4),
    )


def test_size_and_config_generation(spec):
    assert spec.size() == 4
    configs = list(spec.configs())
    assert len(configs) == 4
    assert {c.system for c in configs} == {"FlexTM", "CGL"}


def test_run_sweep_rows_complete(spec):
    seen = []
    rows = run_sweep(spec, progress=lambda done, total: seen.append((done, total)))
    assert len(rows) == 4
    for row in rows:
        assert set(row) == set(ROW_FIELDS)
        assert row["commits"] >= 0
    assert seen[-1] == (4, 4)


def test_csv_roundtrip(spec, tmp_path):
    rows = run_sweep(spec)
    text = to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 4
    assert parsed[0]["workload"] == "HashTable"
    target = tmp_path / "sweep.csv"
    write_csv(rows, str(target))
    assert target.read_text() == text


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--workloads", ",", "--systems", "FlexTM"], "workloads"),
        (["--workloads", "HashTable", "--systems", ","], "systems"),
    ],
)
def test_cli_rejects_an_empty_selection(argv, what):
    with pytest.raises(SystemExit, match=f"no {what} selected"):
        run_sweep_command(argv + ["--quiet"])
