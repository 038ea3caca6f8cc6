"""Robust matrix cells: a hung or crashed cell becomes one structured row.

The chaos, degrade and adversary matrices fan out one executor point
per cell.  At ``--jobs 2`` a cell over the per-cell budget and a cell
whose worker dies must each come back as a failing row in its own
position, every other row must match an unpatched serial run byte for
byte, and the CLI must exit 1.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.adversary import conformance
from repro.harness import chaos, degrade, matrix
from repro.harness.adversary import run_adversary_command

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault-injection via module patching needs fork start method",
)

BACKENDS = ["CGL", "TL2"]
PROFILES = ["sched", "aou"]
SCHEDULES = ["prog-read-read", "prog-wr-conflict"]
HUNG = ("CGL", PROFILES[1])
DEAD = ("TL2", PROFILES[0])


def _profile_of(args):
    """The profile a chaos/degrade ``run_cell`` call was built for."""
    backend, seed, spec = args[:3]
    if spec is None:
        return "baseline"
    return next(
        name for name in PROFILES
        if chaos.profile_spec(name, seed, backend) == spec
    )


def _fault_harness(module, command, run_matrix):
    return dict(
        module=module,
        attr="run_cell",
        cell=lambda args: (args[0], _profile_of(args)),
        argv=["--backends", ",".join(BACKENDS),
              "--profiles", ",".join(PROFILES),
              "--threads", "2", "--txns", "2"],
        command=command,
        reference=lambda: run_matrix(BACKENDS, PROFILES, 1, threads=2, txns=2),
        key=lambda cell: (cell["backend"], cell["profile"]),
        hung=lambda cell: cell["classification"] == "wedged",
        dead=lambda cell: cell["classification"] == "crash",
        hung_key=HUNG,
        dead_key=DEAD,
    )


HARNESSES = {
    "chaos": _fault_harness(chaos, chaos.run_chaos_command, chaos.run_chaos_matrix),
    "degrade": _fault_harness(
        degrade, degrade.run_degrade_command, degrade.run_degrade_matrix
    ),
    "adversary": dict(
        module=conformance,
        attr="run_schedule_cell",
        cell=lambda args: (args[0], args[1]),
        argv=["--backends", ",".join(BACKENDS),
              "--schedules", ",".join(SCHEDULES)],
        command=run_adversary_command,
        reference=lambda: conformance.run_adversary_matrix(BACKENDS, SCHEDULES, 1),
        key=lambda cell: (cell["backend"], cell["schedule"]),
        hung=lambda cell: cell["verdict"] == "violates",
        dead=lambda cell: cell["verdict"] == "violates",
        hung_key=("CGL", SCHEDULES[1]),
        dead_key=("TL2", SCHEDULES[0]),
    ),
}


def _canonical(document):
    return json.dumps(document, sort_keys=True)


@needs_fork
@pytest.mark.parametrize("name", sorted(HARNESSES))
def test_hung_and_crashed_cells_become_rows(name, monkeypatch, tmp_path, capsys):
    harness = HARNESSES[name]
    reference = {
        harness["key"](cell.to_json()): _canonical(cell.to_json())
        for cell in harness["reference"]()
    }
    real = getattr(harness["module"], harness["attr"])

    def faulty(*args):
        cell = harness["cell"](args)
        if cell == harness["hung_key"]:
            time.sleep(60)
        if cell == harness["dead_key"]:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(harness["module"], harness["attr"], faulty)
    monkeypatch.setattr(matrix, "CELL_TIMEOUT_S", 1.0)
    command = harness["command"]
    report = tmp_path / "report.json"
    started = time.perf_counter()
    status = command(
        harness["argv"] + ["--jobs", "2", "--quiet", "--report", str(report)]
    )
    assert time.perf_counter() - started < 30
    capsys.readouterr()
    assert status == 1
    document = json.loads(report.read_text())
    assert document["ok"] is False
    cells = {harness["key"](cell): cell for cell in document["cells"]}
    assert list(cells) == list(reference)  # every row, in input order

    hung = cells.pop(harness["hung_key"])
    assert harness["hung"](hung)
    assert hung["detail"] == "timeout: point exceeded 1s budget"
    dead = cells.pop(harness["dead_key"])
    assert harness["dead"](dead)
    assert dead["detail"] == "crash: worker died (exit code 1)"
    for key, cell in cells.items():
        assert _canonical(cell) == reference[key], key
