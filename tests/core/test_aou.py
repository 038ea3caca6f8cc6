"""Alert-on-update unit."""

from repro.core.aou import AlertUnit, PendingAlert


def test_alert_requires_mark():
    unit = AlertUnit()
    unit.raise_alert(10, "invalidated")
    assert not unit.pending


def test_marked_line_alerts():
    unit = AlertUnit()
    unit.mark(10)
    unit.raise_alert(10, "invalidated")
    assert unit.pending == [PendingAlert(10, "invalidated")]


def test_signature_alerts_bypass_marks():
    """FlexWatcher's 'activate' path raises alerts without per-line marks."""
    unit = AlertUnit()
    unit.raise_alert(99, "signature")
    assert unit.pending


def test_drain_delivers_fifo_through_handler():
    unit = AlertUnit()
    seen = []
    unit.set_handler(seen.append)
    unit.mark(1)
    unit.mark(2)
    unit.raise_alert(1, "invalidated")
    unit.raise_alert(2, "evicted")
    delivered = unit.drain()
    assert [alert.line_address for alert in delivered] == [1, 2]
    assert seen == delivered
    assert not unit.pending
    assert unit.alerts_delivered == 2


def test_unmark_stops_alerts():
    unit = AlertUnit()
    unit.mark(1)
    unit.unmark(1)
    unit.raise_alert(1, "invalidated")
    assert not unit.pending


def test_clear_drops_marks_and_pending():
    unit = AlertUnit()
    unit.mark(1)
    unit.raise_alert(1, "invalidated")
    unit.clear()
    assert not unit.pending
    assert not unit.is_marked(1)


def test_counters():
    unit = AlertUnit()
    unit.mark(1)
    unit.raise_alert(1, "invalidated")
    assert unit.alerts_raised == 1
    unit.drain()
    assert unit.alerts_delivered == 1
