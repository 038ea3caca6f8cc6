"""The ``python -m repro.harness analyze`` command surface."""

from __future__ import annotations

import json
import textwrap

from repro.harness.analyze import run_analyze_command

_BAD = """
class Machine:
    def step(self):
        self.tracer.tx_begin(0, 1, 2)
"""


def _seed_violation(tmp_path):
    target = tmp_path / "repro/core/bad.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(_BAD), encoding="utf-8")
    return target


def test_exits_nonzero_on_violation(tmp_path, capsys):
    _seed_violation(tmp_path)
    status = run_analyze_command(
        ["--root", str(tmp_path), "--no-baseline", str(tmp_path / "repro")]
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "SIM-H102" in out


def test_exits_zero_on_clean_tree(tmp_path, capsys):
    target = tmp_path / "repro/core/ok.py"
    target.parent.mkdir(parents=True)
    target.write_text("class Machine:\n    pass\n", encoding="utf-8")
    status = run_analyze_command(
        ["--root", str(tmp_path), "--no-baseline", str(tmp_path / "repro")]
    )
    assert status == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_exits_zero_on_repo_at_head(capsys):
    # The acceptance criterion: the committed tree analyzes clean.
    status = run_analyze_command([])
    assert status == 0, capsys.readouterr().out


def test_update_baseline_then_gate_passes(tmp_path, capsys):
    _seed_violation(tmp_path)
    target = str(tmp_path / "repro")
    assert run_analyze_command(["--root", str(tmp_path), target]) == 1
    assert (
        run_analyze_command(["--root", str(tmp_path), "--update-baseline", target])
        == 0
    )
    assert (tmp_path / "simcheck-baseline.json").exists()
    assert run_analyze_command(["--root", str(tmp_path), target]) == 0
    capsys.readouterr()


def test_rule_selection_and_unknown_rule(tmp_path, capsys):
    _seed_violation(tmp_path)
    target = str(tmp_path / "repro")
    # The violation is SIM-H102; selecting only determinism rules passes.
    status = run_analyze_command(
        ["--root", str(tmp_path), "--no-baseline", "--rule", "SIM-D001", target]
    )
    assert status == 0
    assert run_analyze_command(["--rule", "SIM-X999"]) == 2
    capsys.readouterr()


def test_list_rules(capsys):
    assert run_analyze_command(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM-D001", "SIM-H101", "SIM-E201", "SIM-E203"):
        assert rule_id in out


def test_list_rules_json_includes_scope_and_model_rules(capsys):
    assert run_analyze_command(["--list-rules", "--format", "json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    by_id = {entry["id"]: entry for entry in catalog}
    assert {"id", "severity", "scope", "description"} <= set(by_id["SIM-D001"])
    assert by_id["SIM-D001"]["scope"] == "module"
    for index in range(1, 8):
        rule_id = f"SIM-M40{index}"
        assert by_id[rule_id]["scope"] == "modelcheck"
        assert by_id[rule_id]["severity"] == "error"


def test_prune_baseline_drops_stale_keeps_live(tmp_path, capsys):
    from repro.analysis.baseline import load_baseline

    _seed_violation(tmp_path)
    target = str(tmp_path / "repro")
    # Baseline the real finding, then plant a stale entry beside it.
    assert run_analyze_command(["--root", str(tmp_path), "--update-baseline", target]) == 0
    baseline_path = tmp_path / "simcheck-baseline.json"
    live = load_baseline(baseline_path)
    assert len(live) == 1

    data = json.loads(baseline_path.read_text(encoding="utf-8"))
    data["suppressions"]["deadbeefdeadbeefdead"] = {
        "rule": "SIM-X999", "path": "gone.py", "message": "stale", "count": 1,
    }
    baseline_path.write_text(json.dumps(data), encoding="utf-8")

    status = run_analyze_command(["--root", str(tmp_path), "--prune-baseline", target])
    assert status == 0
    out = capsys.readouterr().out
    assert "pruned 1 stale baseline entry (1 kept)" in out
    assert load_baseline(baseline_path) == live
    # Idempotent: a second prune removes nothing.
    assert run_analyze_command(["--root", str(tmp_path), "--prune-baseline", target]) == 0
    assert "pruned 0 stale baseline entries (1 kept)" in capsys.readouterr().out


def test_prune_baseline_without_file_is_a_noop(tmp_path, capsys):
    target = tmp_path / "repro/core/ok.py"
    target.parent.mkdir(parents=True)
    target.write_text("class Machine:\n    pass\n", encoding="utf-8")
    status = run_analyze_command(
        ["--root", str(tmp_path), "--prune-baseline", str(tmp_path / "repro")]
    )
    assert status == 0
    assert "pruned 0" in capsys.readouterr().out


def test_analyze_modelcheck_merges_clean_at_head(capsys):
    status = run_analyze_command(["--modelcheck", "--modelcheck-caches", "2"])
    assert status == 0, capsys.readouterr().out
    capsys.readouterr()


def test_modelcheck_command_exit_codes(tmp_path, capsys):
    from repro.harness.modelcheck import run_modelcheck_command

    assert run_modelcheck_command(["--caches", "2"]) == 0
    out = capsys.readouterr().out
    assert "states=360" in out
    assert "all invariants hold" in out

    assert run_modelcheck_command(["--caches", "7"]) == 2
    capsys.readouterr()

    out_file = tmp_path / "mc.json"
    assert (
        run_modelcheck_command(
            ["--caches", "2", "--format", "json", "--out", str(out_file)]
        )
        == 0
    )
    capsys.readouterr()
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["schema"] == "repro.modelcheck/v1"
    assert payload["ok"] is True
    assert payload["replays"] == []


def test_json_report_to_file(tmp_path, capsys):
    _seed_violation(tmp_path)
    out_file = tmp_path / "report.json"
    status = run_analyze_command(
        [
            "--root",
            str(tmp_path),
            "--no-baseline",
            "--format",
            "json",
            "--out",
            str(out_file),
            str(tmp_path / "repro"),
        ]
    )
    assert status == 1
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["summary"]["errors"] == 1
    capsys.readouterr()
