"""The forward path: signature-qualified answers and sticky listings.

``L1Controller.handle_forwarded`` snoops a forwarded request once: one
array peek and, on a miss, one victim-buffer extract.
``FlexTMProcessor.classify_remote`` skips an empty Rsig or Wsig without
a probe whenever chaos cannot corrupt the answer.  Every forward and
chaos roll of the scenarios below is pinned by the op-digest oracle
(``tests/op_digest.py``, checked by ``tests/test_op_digest.py``).  These
tests check, from the counts the oracle's taps keep, that each scenario
still exercises what it is there for, so a repin cannot leave it
vacuous.
"""

import pytest

from repro.coherence.messages import ResponseKind
from repro.harness.runner import SYSTEMS
from tests.op_digest import pinned_cell, run_cell, tally

#: Per backend, a workload whose 12k-cycle cell forwards over a hundred
#: requests and commits.
BUSY_WORKLOAD = {
    "CGL": "HashTable", "FlexTM": "RBTree", "HTM-BE": "HashTable", "LogTM-SE": "RBTree",
    "RSTM": "HashTable", "RTM-F": "HashTable", "TL2": "HashTable",
}

HOLDERS = ["overflow-table", "tmi-victims"]


def _forwards(name):
    """The cell and its forwards per (response, retained, cached, side)."""
    cell = run_cell(name)
    assert cell.result.commits > 0, name
    return cell, tally(cell, "forward")


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_forward_matches_the_reference(system):
    """The reference is the pinned digest of every forward of the run."""
    name = f"{BUSY_WORKLOAD[system]}/{system}/eager/none/dedicated"
    pinned_cell(name)
    _, forwards = _forwards(name)
    assert sum(forwards.values()) > 100
    assert any(not retained for _, retained, *_ in forwards)


@pytest.mark.parametrize("holder", HOLDERS)
def test_evicted_tmi_lines_still_answer(holder):
    cell, forwards = _forwards(f"named/hot-lines/{holder}")
    assert ResponseKind.THREATENED in {kind for kind, *_ in forwards}
    if holder == "tmi-victims":
        assert any(side for *_, side in forwards)
    else:
        assert cell.result.stats["ot.spills"] > 0


@pytest.mark.parametrize("holder", HOLDERS)
def test_a_missed_signature_still_retains_an_evicted_tmi_line(holder):
    # Signature false negatives hide the TMI line from both registers,
    # so only the side buffer or the overflow table keeps it listed.
    cell, forwards = _forwards(f"named/hot-lines/{holder}/sig-fn")
    assert cell.counts["roll", "signature"] > 0
    assert any(kind is None and retained and not cached
               for kind, retained, cached, _ in forwards)


@pytest.mark.parametrize("system", ["FlexTM", "LogTM-SE"])
def test_signature_faults_draw_the_same_rolls(system):
    name = f"HashTable/{system}/eager/signature/dedicated"
    pinned_cell(name)
    cell, _ = _forwards(name)
    assert cell.counts["roll", "signature"] > 0


def test_software_tm_forwards_probe_no_signature():
    """TL2 never loads a signature, so its forwards probe none; a
    hardware backend's run shows the probe count is live."""
    cell, forwards = _forwards("HashTable/TL2/eager/none/dedicated")
    assert sum(forwards.values()) > 100
    assert cell.counts["probe",] == 0
    assert run_cell("HashTable/FlexTM/eager/none/dedicated").counts["probe",] > 0
