"""The conformance matrix: verdicts, determinism, probe transparency.

The heavyweight guarantees of the adversary engine live here:

* zero ``violates`` verdicts anywhere in the 6-backend x 10-schedule
  matrix at the CI seed — including zero opacity violations;
* progressiveness schedules commit with zero aborts on every backend;
* a cell replays bit-identically (the whole ScheduleCell document);
* arming the OpacityProbe changes nothing — RunResult and final memory
  are bit-identical to an unarmed run on every backend;
* strict invariants turn wound-attribution loss into a diagnosable
  error instead of a silent ``kind=""`` row (the ``abort_exception`` hook that
  builds every delivered abort).
"""

import types

import pytest

from repro.adversary.conformance import cell_seed, run_schedule_cell
from repro.adversary.schedules import SCHEDULES
from repro.chaos.invariants import InvariantChecker, InvariantViolation
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.errors import TransactionAborted
from repro.harness.runner import SYSTEMS
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread

BACKENDS = list(SYSTEMS)
SEED = 1  # the CI seed: tests and the workflow gate the same matrix


# ---------------------------------------------------------------- the matrix


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_backend_violates_any_schedule(backend):
    for schedule in SCHEDULES:
        cell = run_schedule_cell(backend, schedule, seed=SEED)
        assert cell.ok, (
            f"{backend}/{schedule}: {cell.verdict} — {cell.detail}\n"
            f"directives: {cell.directives}"
        )
        assert cell.probe["violations"] == 0
        if SCHEDULES[schedule].forbid_aborts:
            assert cell.verdict == "conforms"
            assert cell.aborts == 0, (
                f"{backend}/{schedule}: progressiveness schedule aborted"
            )


def test_catalog_meets_the_theory_floor():
    assert len(SCHEDULES) >= 8
    assert any(spec.forbid_aborts for spec in SCHEDULES.values())
    for spec in SCHEDULES.values():
        assert spec.citation, f"{spec.name} cites no theory source"


def test_conflict_schedules_actually_force_aborts_somewhere():
    # The catalog is not vacuous: its conflict schedules make at least
    # one backend abort (FlexTM's eager CSTs fire on every W-R duel).
    cell = run_schedule_cell("FlexTM", "prog-wr-conflict", seed=SEED)
    assert cell.verdict == "aborts-as-required"
    assert cell.aborts > 0


def test_zombie_probe_schedule_exercises_the_oracle():
    # The zombie schedule must make the probe actually check snapshots
    # of aborted attempts on at least one backend — otherwise the
    # opacity gate would be trivially green.
    checked = 0
    for backend in BACKENDS:
        cell = run_schedule_cell(backend, "zombie-probe", seed=SEED)
        assert cell.ok
        checked += cell.probe["snapshots_checked"]
    assert checked > 0


# -------------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "backend,schedule",
    [("FlexTM", "zombie-probe"), ("TL2", "commit-duel"),
     ("LogTM-SE", "wound-convoy")],
)
def test_cells_replay_bit_identically(backend, schedule):
    first = run_schedule_cell(backend, schedule, seed=SEED)
    second = run_schedule_cell(backend, schedule, seed=SEED)
    assert first.to_json() == second.to_json()


def test_cell_seed_mixing_separates_cells():
    seeds = {
        cell_seed(SEED, backend, schedule)
        for backend in BACKENDS
        for schedule in SCHEDULES
    }
    assert len(seeds) == len(BACKENDS) * len(SCHEDULES)


# ------------------------------------------------------- probe transparency


def _bare_run(backend_name, armed):
    """One commit-duel workload with or without the probe armed."""
    from repro.adversary.director import ScheduleDirector
    from repro.adversary.probes import OpacityProbe
    import itertools

    spec = SCHEDULES["commit-duel"]
    machine = FlexTMMachine(small_test_params(max(spec.threads, 2)))
    if armed:
        probe = OpacityProbe()
        machine.attach(probes=probe)
    line = machine.params.line_bytes
    cells = [machine.allocate(line, line_aligned=True) for _ in range(spec.cells)]
    for index, cell in enumerate(cells):
        machine.memory.write(cell, index)
        if armed:
            probe.note_initial(cell, index)
    backend = SYSTEMS[backend_name](machine, ConflictMode.EAGER)
    unique = itertools.count(1000)
    bodies, script = spec.build(cells, unique)
    threads = [
        TxThread(thread_id, backend, items)
        for thread_id, items in enumerate(bodies)
    ]
    result = Scheduler(
        machine, threads, director=ScheduleDirector(script)
    ).run(cycle_limit=10_000_000)
    memory = [machine.memory.read(cell) for cell in cells]
    return result, memory


@pytest.mark.parametrize("backend", BACKENDS)
def test_probe_armed_run_is_bit_identical_to_unarmed(backend):
    armed_result, armed_memory = _bare_run(backend, armed=True)
    bare_result, bare_memory = _bare_run(backend, armed=False)
    assert armed_result == bare_result
    assert armed_memory == bare_memory


# ------------------------------------ strict wound-attribution (abort hook)


def _backend(strict, system="FlexTM"):
    machine = FlexTMMachine(small_test_params(2))
    machine.attach(invariants=InvariantChecker(strict=strict))
    return SYSTEMS[system](machine, ConflictMode.EAGER)


def _thread(descriptor):
    return types.SimpleNamespace(thread_id=0, descriptor=descriptor)


def test_attribution_loss_is_diagnosed_under_strict_invariants():
    backend = _backend(strict=True)
    bare = types.SimpleNamespace(wounded_by=-1, wound_kind="")
    with pytest.raises(InvariantViolation, match="wound-attribution"):
        backend.abort_exception(_thread(bare), "status word changed")


def test_attribution_loss_is_tolerated_without_strict():
    backend = _backend(strict=False)
    bare = types.SimpleNamespace(wounded_by=-1, wound_kind="")
    exc = backend.abort_exception(_thread(bare), "status word changed")
    assert isinstance(exc, TransactionAborted)
    assert exc.conflict == ""


def test_staged_attribution_flows_into_the_abort():
    backend = _backend(strict=True)
    wounded = types.SimpleNamespace(wounded_by=3, wound_kind="W-W")
    exc = backend.abort_exception(_thread(wounded), "status word changed")
    assert (exc.by, exc.conflict) == (3, "W-W")


def test_descriptorless_threads_are_exempt_from_strict_attribution():
    # STM backends raise their own aborts; the OS path has nothing to
    # attribute, so strict mode must not fire on a None descriptor.
    backend = _backend(strict=True, system="TL2")
    exc = backend.abort_exception(_thread(None), "status word changed")
    assert isinstance(exc, TransactionAborted)
    assert (exc.by, exc.conflict) == (-1, "")
