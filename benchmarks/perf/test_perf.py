"""Self-test of the benchmark at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.runner import run_experiment

from benchmarks.perf import cli, workloads
from benchmarks.perf.compare import EXACT, compare, verdict
from benchmarks.perf.layers import LAYERS, LayerTracer
from benchmarks.perf.timing import traced
from benchmarks.perf.workloads import SMOKE_SCALE, WORKLOADS, fingerprint, load_declaration


def _wrapped_methods():
    for targets in LAYERS.values():
        for cls, methods in targets:
            for method in methods:
                yield cls, method


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    code = cli.main(["--smoke", "--seed", "42", "--out", str(out / "result.json"),
                     "--trace-dir", str(out / "traces")])
    with open(out / "result.json") as handle:
        return code, json.load(handle), out


def test_smoke_run_matches_the_goldens(smoke):
    code, report, _ = smoke
    goldens = workloads.load_goldens()
    assert code == 0
    for name, entry in report["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, entry["errors"]
        assert entry["end_to_end"]["error_rate"] == 0
        assert entry["fingerprint"] == goldens[WORKLOADS[name].golden_key(42, SMOKE_SCALE)]
    assert report["workloads"]["observed"]["fingerprint"] == \
        report["workloads"]["flash-commit"]["fingerprint"]


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    _, report, _ = smoke
    declaration = load_declaration()
    assert [w["name"] for w in declaration["workloads"]] == list(WORKLOADS)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        single = {**report, "workloads": {"long-tx": report["workloads"]["long-tx"]}}
        line = cli._summary_line(single, trace)
        assert line["correct"] and line["failed"] == 0
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in declaration[kind]
        }


def test_spans_export_as_valid_chrome_traces(smoke):
    _, _, out = smoke
    for name in WORKLOADS:
        with open(out / "traces" / f"{name}.json") as handle:
            document = json.load(handle)
        assert any(event["ph"] == "X" for event in document["traceEvents"])


def test_parent_classes_are_unpatched_after_the_traced_phase(smoke):
    for cls, method in _wrapped_methods():
        assert not hasattr(cls.__dict__[method], "__wrapped__"), (cls, method)


def test_wrappers_are_transparent_and_removed_on_exit():
    originals = {(cls, method): cls.__dict__[method] for cls, method in _wrapped_methods()}
    config = WORKLOADS["flash-commit"].config
    untraced = fingerprint(run_experiment(config(7, SMOKE_SCALE)))
    with LayerTracer() as tracer:
        assert all(cls.__dict__[method] is not original
                   for (cls, method), original in originals.items())
        traced_result = run_experiment(config(7, SMOKE_SCALE))
    assert fingerprint(traced_result) == untraced
    assert tracer.steps > 0 and tracer.spans
    assert all(cls.__dict__[method] is original for (cls, method), original in originals.items())


def test_layers_account_for_the_traced_run():
    result = traced("flash-commit", 42, 0.25, 0, None)
    assert len(set(result["fingerprints"])) == 1
    assert result["metrics"]["trace.accounted_share"] >= 0.98


@pytest.fixture
def corrupted_goldens(monkeypatch, tmp_path):
    corrupted = tmp_path / "golden.json"
    corrupted.write_text(json.dumps(
        {"fingerprints": {key: "0" * 64 for key in workloads.load_goldens()}}))
    monkeypatch.setattr(workloads, "GOLDEN_PATH", corrupted)


def _smoke_stm(tmp_path, seed: int):
    out = tmp_path / "result.json"
    code = cli.main(["--smoke", "--workload", "stm-software", "--seed", str(seed),
                     "--trace", "0", "--out", str(out)])
    return code, json.loads(out.read_text())["workloads"]["stm-software"]


def test_corrupted_golden_fails_every_run(corrupted_goldens, tmp_path, capsys):
    code, entry = _smoke_stm(tmp_path, 42)
    assert code == 1
    assert entry["end_to_end"]["error_rate"] == 1.0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_corrupted_pin_fails_a_run_at_an_unpinned_seed(corrupted_goldens, tmp_path):
    seed = 5
    assert WORKLOADS["stm-software"].golden_key(seed, SMOKE_SCALE) not in workloads.load_goldens()
    code, entry = _smoke_stm(tmp_path, seed)
    assert code == 1
    assert entry["failed"] == 1 and entry["attempted"] == 2  # the pin, then one repeat
    assert entry["errors"][0].startswith("seed 42 at smoke scale")


BASE = [10.0, 10.1, 9.9, 10.2, 9.8, 10.05, 9.95, 10.15, 9.85, 10.0]


@pytest.mark.parametrize("change, expected", [
    ([v * 0.8 for v in BASE], "better"),
    ([v * 1.3 for v in BASE], "worse"),
    ([v * 1.01 for v in BASE], "unchanged"),
    ([v * 0.99 for v in BASE], "unchanged"),
])
def test_compare_verdicts_on_host_metrics(change, expected):
    assert verdict(BASE, change, "lower", 0.1)["verdict"] == expected
    mirrored = verdict([1 / v for v in BASE], [1 / v for v in change], "higher", 0.1)
    assert mirrored["verdict"] == expected


def test_compare_needs_ten_pairs_to_call_a_gain():
    assert verdict(BASE[:9], [v * 0.8 for v in BASE[:9]], "lower", 0.1)["verdict"] == \
        "unchanged"


def test_compare_reports_noisy_metrics_as_unresolved():
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)["verdict"] == "unresolved"
    # Every change run beating every base run is not left unresolved.
    assert verdict(noisy, [v / 10 for v in noisy], "lower", 0.1)["verdict"] == "better"


def test_compare_exact_metrics_compare_exactly():
    assert verdict([5.0] * 3, [5.0] * 3, "higher", 0.15, exact=True)["verdict"] == "unchanged"
    assert verdict([5.0] * 3, [4.999] * 3, "higher", 0.15, exact=True)["verdict"] == "worse"


def test_compare_rows_cover_each_workload_and_metric():
    def document(wall_s, commits_per_mcycle=1000.0):
        metrics = {m["name"]: 1.0 for m in load_declaration()["end_to_end"]}
        return {"workloads": {"long-tx": {"end_to_end": {
            **metrics, "wall_s": wall_s, "sim_commits_per_mcycle": commits_per_mcycle,
            "error_rate": 0.0}}}}

    rows = compare([document(v) for v in BASE], [document(v * 1.5) for v in BASE])
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts.pop("wall_s") == "worse"
    assert set(verdicts.values()) == {"unchanged"}
    assert len(rows) == len(load_declaration()["end_to_end"]) + len(EXACT)
    # The simulated commit rate has no bound: a 1% shift is a change.
    rows = compare([document(v) for v in BASE], [document(v, 990.0) for v in BASE])
    assert {row["metric"]: row["verdict"] for row in rows}["sim_commits_per_mcycle"] == "worse"


def test_readme_bounds_match_the_declaration():
    readme = Path(__file__).with_name("README.md").read_text()
    table = {}
    for line in readme.splitlines():
        # Rows of the end-to-end table: | `name` | unit | better | bound | meaning |
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 5 and cells[2] in ("lower", "higher"):
            table[cells[0].strip("`")] = cells[3]
    assert table == {m["name"]: str(m["bound"]) for m in load_declaration()["end_to_end"]}
