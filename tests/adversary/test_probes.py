"""OpacityProbe unit tests against synthetic shadow histories.

These drive the probe's hook surface directly — no machine, no
scheduler — so every oracle decision (consistent snapshot, torn
snapshot, zombie accounting, overlay atomicity) is pinned to a tiny,
readable event sequence.
"""

from repro.adversary.probes import OpacityProbe

A, B = 0x100, 0x140


def _probe():
    probe = OpacityProbe()
    probe.note_initial(A, 0)
    probe.note_initial(B, 0)
    return probe


def test_consistent_snapshot_passes():
    probe = _probe()
    probe.on_begin(0)
    probe.on_read(0, A, 0)
    probe.on_read(0, B, 0)
    probe.on_commit(0)
    assert probe.violations == []
    assert probe.summary() == {
        "reads_checked": 2,
        "snapshots_checked": 1,
        "zombie_attempts": 0,
        "stale_reads": 0,
        "violations": 0,
    }


def test_snapshot_at_a_later_version_passes():
    probe = _probe()
    probe.on_memory_write(A, 11)
    probe.on_memory_write(B, 22)
    probe.on_begin(0)
    probe.on_read(0, A, 11)
    probe.on_read(0, B, 22)
    probe.on_commit(0)
    assert probe.violations == []


def test_torn_snapshot_is_flagged():
    # T0 reads A before a writer updates both cells, then reads B after:
    # the classic zombie read — no single committed version has (A=0, B=22).
    probe = _probe()
    probe.on_begin(0)
    probe.on_read(0, A, 0)
    probe.on_memory_write(A, 11)
    probe.on_memory_write(B, 22)
    probe.on_read(0, B, 22)
    probe.on_abort(0)
    assert len(probe.violations) == 1
    violation = probe.violations[0]
    assert violation.thread == 0
    assert violation.outcome == "abort"
    assert violation.reads == ((A, 0), (B, 22))
    assert "no single committed version" in violation.detail
    assert probe.stale_reads == 1


def test_aborted_zombies_are_checked_and_counted():
    # An abort with a consistent view is fine (TL2 kills zombies at
    # validation); it still counts as a zombie attempt.
    probe = _probe()
    probe.on_begin(0)
    probe.on_read(0, A, 0)
    probe.on_abort(0)
    assert probe.zombie_attempts == 1
    assert probe.violations == []
    # A committed attempt is not a zombie.
    probe.on_begin(1)
    probe.on_read(1, A, 0)
    probe.on_commit(1)
    assert probe.zombie_attempts == 1


def test_commit_flash_is_one_atomic_version():
    # A cas_commit overlay flashes A and B at a single point: a reader
    # must see both updates or neither, and both orders are consistent.
    probe = _probe()
    probe.on_commit_flash({A: 11, B: 22})
    for thread, (va, vb) in enumerate([(11, 22), (0, 0)]):
        probe.on_begin(thread)
        probe.on_read(thread, A, va)
        probe.on_read(thread, B, vb)
        probe.on_commit(thread)
    assert probe.violations == []
    # Half the overlay is torn by construction — must be flagged.
    probe.on_begin(9)
    probe.on_read(9, A, 0)
    probe.on_read(9, B, 22)
    probe.on_commit(9)
    assert len(probe.violations) == 1
    assert probe.violations[0].outcome == "commit"


def test_read_own_write_is_not_an_observation():
    probe = _probe()
    probe.on_begin(0)
    probe.on_write(0, A, 999)
    probe.on_read(0, A, 999)  # private buffer, not committed state
    probe.on_commit(0)
    assert probe.reads_checked == 0
    assert probe.snapshots_checked == 0  # no first-reads -> nothing to check
    assert probe.violations == []


def test_only_first_read_per_address_is_recorded():
    # Later reads may legitimately see the transaction's own view; the
    # opacity obligation is on the first observation of committed state.
    probe = _probe()
    probe.on_begin(0)
    probe.on_read(0, A, 0)
    probe.on_memory_write(A, 11)
    probe.on_read(0, A, 11)  # not recorded: A was already observed
    probe.on_commit(0)
    assert probe.reads_checked == 1
    assert probe.violations == []


def test_untracked_addresses_are_ignored():
    probe = _probe()
    probe.on_begin(0)
    probe.on_read(0, 0xDEAD, 5)
    probe.on_memory_write(0xDEAD, 6)
    probe.on_commit(0)
    assert probe.reads_checked == 0
    assert probe.violations == []
