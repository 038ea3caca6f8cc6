"""Summary signatures at the directory (Section 5)."""

import pytest

from repro.signatures.bloom import Signature
from repro.signatures.summary import SummarySignatures


def _sig(*lines, bits=256, hashes=2):
    signature = Signature(bits, hashes)
    signature.insert_all(lines)
    return signature


@pytest.fixture
def summaries():
    return SummarySignatures(signature_bits=256, num_hashes=2, num_processors=4)


def test_empty_summaries_never_conflict(summaries):
    assert summaries.is_empty
    assert not summaries.hits_read_summary(123)
    assert not summaries.hits_write_summary(123)


def test_install_reflects_read_and_write_sets(summaries):
    summaries.install(7, _sig(10), _sig(20), last_processor=1)
    assert summaries.hits_read_summary(10)
    assert summaries.hits_write_summary(20)
    # Each set lands in its own summary only.  Which hit is a conflict
    # is the machine's summary handler's call (tests/core/
    # test_context_switch.py and tests/coherence/
    # test_summary_conformance.py).
    assert not summaries.hits_write_summary(10)
    assert not summaries.hits_read_summary(20)


def test_remove_rebuilds_from_remaining(summaries):
    summaries.install(1, _sig(10), _sig(), last_processor=0)
    summaries.install(2, _sig(30), _sig(), last_processor=2)
    summaries.remove(1)
    assert not summaries.hits_read_summary(10)
    assert not summaries.hits_write_summary(10)
    assert summaries.hits_read_summary(30)
    assert summaries.suspended_threads() == [2]


def test_cores_summary_tracks_processors(summaries):
    summaries.install(1, _sig(10), _sig(), last_processor=3)
    assert summaries.core_in_summary(3)
    assert not summaries.core_in_summary(0)
    summaries.remove(1)
    assert not summaries.core_in_summary(3)


def test_sticky_sharer_requires_core_and_line(summaries):
    summaries.install(1, _sig(10), _sig(11), last_processor=2)
    assert summaries.sticky_sharer(10, 2)
    assert summaries.sticky_sharer(11, 2)
    assert not summaries.sticky_sharer(10, 0)  # wrong core
    assert not summaries.sticky_sharer(999_999, 2)  # line not in summary


def test_install_validates_processor(summaries):
    with pytest.raises(ValueError):
        summaries.install(1, _sig(), _sig(), last_processor=99)


def test_reinstall_same_thread_replaces(summaries):
    summaries.install(1, _sig(10), _sig(), last_processor=0)
    summaries.install(1, _sig(20), _sig(), last_processor=0)
    assert not summaries.hits_read_summary(10)
    assert summaries.hits_read_summary(20)
