"""Every cell of the op-digest oracle reproduces its pinned digest.

The grid, the taps and the repin script are in ``tests/op_digest.py``;
the pins are in ``tests/op_digest.json``.  A cell moves when any op,
forward or chaos roll of its run differs, even when the ``RunResult``
does not.
"""

from tests.op_digest import CELLS, entry, load_table, run_cell, tally


def test_every_cell_matches_its_pin():
    pinned = load_table()
    assert sorted(pinned) == sorted(CELLS)
    moved = [name for name in CELLS if entry(name) != pinned[name]]
    assert not moved, (
        f"{len(moved)} of {len(CELLS)} cells moved from their pins: {moved}; "
        "a change meant to move results repins with `python -m tests.op_digest`"
    )


def test_every_cell_executes_ops_and_the_grid_rolls_every_chaos_site():
    sites = set()
    for name in CELLS:
        cell = run_cell(name)
        assert tally(cell, "op"), name
        sites |= {site for site, in tally(cell, "roll")}
    assert sites == {"aou", "coherence", "l1", "overflow", "sched", "signature"}


def test_every_named_cell_commits():
    """A named cell is a scenario some test reads; grid cells that
    commit nothing (LFUCache on LogTM-SE, say) stay as they are."""
    idle = [name for name in CELLS if name.startswith("named/") and not run_cell(name).result.commits]
    assert not idle
