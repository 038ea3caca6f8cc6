"""The ``repro.harness chaos`` fault-matrix harness."""

import json

import pytest

from repro.harness.chaos import (
    FAILING,
    FAULT_PROFILES,
    CellResult,
    _classify,
    profile_spec,
    render_matrix,
    run_chaos_command,
    run_chaos_matrix,
)
from repro.harness.degrade import run_degrade_matrix


def _run(**overrides):
    base = {
        "commits": 8,
        "aborts": 3,
        "cycles": 1000,
        "aborts_by_kind": {},
        "escalations": {},
        "series": {},
        "injected": {"coherence.drop": 2},
        "watchdog": {},
        "invariant_checks": 5,
        "serializable": True,
        "memory_ok": True,
        "error": "",
        "error_kind": "",
    }
    base.update(overrides)
    return base


BASELINE = _run(injected={})


def test_profile_specs_are_deterministic_and_distinct():
    assert profile_spec("storm", 1, "CGL") == profile_spec("storm", 1, "CGL")
    assert profile_spec("storm", 1, "CGL") != profile_spec("storm", 2, "CGL")
    assert profile_spec("storm", 1, "CGL") != profile_spec("storm", 1, "TL2")
    assert profile_spec("storm", 1, "CGL") != profile_spec("sched", 1, "CGL")
    with pytest.raises(KeyError):
        profile_spec("nope", 1, "CGL")


def test_every_profile_arms_at_least_one_site():
    for name in FAULT_PROFILES:
        assert profile_spec(name, 1, "FlexTM").any_faults, name


def test_classify_crash():
    cell = _classify(_run(error="ZeroDivisionError: boom", error_kind="crash"),
                     BASELINE, 8)
    assert cell.classification == "crash"
    assert not cell.ok


def test_classify_diagnosed_on_repro_error():
    cell = _classify(
        _run(error="InvariantViolation: [cst-symmetry] ...", error_kind="repro"),
        BASELINE, 8,
    )
    assert cell.classification == "diagnosed"
    assert cell.ok


def test_classify_wedged_on_commit_shortfall():
    cell = _classify(_run(commits=5), BASELINE, 8)
    assert cell.classification == "wedged"
    assert not cell.ok


def test_classify_silent_corruption_on_memory_divergence():
    cell = _classify(_run(memory_ok=False), BASELINE, 8)
    assert cell.classification == "silent-corruption"
    assert not cell.ok


def test_classify_clean_when_nothing_fired():
    cell = _classify(_run(injected={}), BASELINE, 8)
    assert cell.classification == "clean"


def test_classify_masked_vs_degraded():
    masked = _classify(_run(), BASELINE, 8)
    assert masked.classification == "masked"
    degraded = _classify(_run(aborts=7), BASELINE, 8)
    assert degraded.classification == "degraded"
    assert masked.ok and degraded.ok


def test_failing_set_is_locked():
    assert set(FAILING) == {"crash", "wedged", "silent-corruption"}


def test_backend_matrix_runs_and_classifies():
    rows = run_chaos_matrix(
        ["CGL"], ["sched"], seed=2, threads=2, txns=3, cycle_limit=50_000_000
    )
    assert [cell.profile for cell in rows] == ["sched"]
    assert all(cell.ok for cell in rows)
    assert rows[0].backend == "CGL"
    assert rows[0].commits == 6


def test_backend_matrix_is_deterministic():
    kwargs = dict(seed=4, threads=2, txns=3, cycle_limit=50_000_000)
    first = run_chaos_matrix(["FlexTM"], ["coherence"], **kwargs)
    second = run_chaos_matrix(["FlexTM"], ["coherence"], **kwargs)
    assert [c.to_json() for c in first] == [c.to_json() for c in second]


def test_matrix_order_independent_of_jobs():
    serial = run_chaos_matrix(["CGL", "TL2"], ["sched"], 2, jobs=1,
                              threads=2, txns=2)
    parallel = run_chaos_matrix(["CGL", "TL2"], ["sched"], 2, jobs=2,
                                threads=2, txns=2)
    assert [c.to_json() for c in serial] == [c.to_json() for c in parallel]
    serial = run_degrade_matrix(["CGL", "TL2"], ["sched", "aou"], 2, jobs=1,
                                threads=2, txns=2)
    parallel = run_degrade_matrix(["CGL", "TL2"], ["sched", "aou"], 2, jobs=2,
                                  threads=2, txns=2)
    assert [c.to_json() for c in serial] == [c.to_json() for c in parallel]
    assert [(c.backend, c.profile) for c in parallel] == [
        ("CGL", "sched"), ("CGL", "aou"), ("TL2", "sched"), ("TL2", "aou"),
    ]


def test_wedged_baseline_is_classified_wedged():
    # 2 000 cycles cannot fit 40 CGL transactions: the fault-free
    # baseline wedges, and only its row is reported.
    rows = run_chaos_matrix(["CGL"], ["sched"], 1, cycle_limit=2_000)
    assert [(c.profile, c.classification) for c in rows] == [
        ("baseline", "wedged"),
    ]
    assert rows[0].detail.startswith("fault-free baseline failed: ")
    assert "commits at cycle budget" in rows[0].detail
    assert not rows[0].ok


def test_render_matrix_marks_failures():
    rows = [
        CellResult(backend="CGL", profile="aou", classification="masked",
                   injected={"aou.drop": 1}),
        CellResult(backend="TL2", profile="storm", classification="wedged",
                   injected={}, detail="3/8 commits"),
    ]
    text = render_matrix(rows)
    assert "masked" in text
    assert "FAIL" in text
    assert "3/8 commits" in text


def test_cli_smoke_and_report(tmp_path, capsys):
    report = tmp_path / "chaos.json"
    code = run_chaos_command([
        "--backends", "CGL", "--profiles", "sched", "--seed", "2",
        "--threads", "2", "--txns", "3", "--report", str(report), "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "chaos:" in out
    document = json.loads(report.read_text())
    assert document["ok"] is True
    assert document["seed"] == 2
    assert len(document["cells"]) == 1
    assert document["cells"][0]["classification"] not in FAILING


def test_cli_rejects_unknown_names():
    with pytest.raises(SystemExit):
        run_chaos_command(["--backends", "Nope", "--quiet"])
    with pytest.raises(SystemExit):
        run_chaos_command(["--profiles", "Nope", "--quiet"])
