"""A descheduled transaction answers as a running one does (Section 5).

For every ``(request, category)`` cell of ``RESPONSE_TABLE``, a
transaction whose signatures hit the line in that category is asked
twice: running, through ``FlexTMProcessor.classify_remote``, and
suspended, through the directory's summary handler on a real request
from another core.  Both must give the same conflict response and set
the same CST (the suspended one in ``descriptor.saved.csts``).  On the
``STRONG_ISOLATION_ABORTS`` cells the suspended transaction is also
aborted with kind ``"SI"`` by the storer.
"""

import pytest

from repro.coherence.messages import RequestType
from repro.coherence.spec import STRONG_ISOLATION_ABORTS
from repro.coherence.tables import RESPONSE_TABLE
from repro.core.descriptor import RunState
from repro.core.machine import FlexTMMachine
from repro.core.tsw import TxStatus
from repro.params import small_test_params
from tests.helpers import begin_hardware_transaction

#: The responder's access that puts the line in each signature category.
_FILL = {"wsig": "tstore", "rsig_only": "tload"}
#: The requestor's access that issues each request, and whether it runs
#: inside a transaction.
_ISSUE = {
    RequestType.GETS: ("tload", True),
    RequestType.GETX: ("store", False),
    RequestType.TGETX: ("tstore", True),
}
_RESPONDER, _REQUESTOR = 0, 1


def _filled_machine(category):
    """A machine whose core 0 runs a transaction hitting the line in ``category``."""
    machine = FlexTMMachine(small_test_params(4))
    address = machine.allocate(machine.params.line_bytes, line_aligned=True)
    descriptor = begin_hardware_transaction(machine, _RESPONDER)
    if _FILL[category] == "tstore":
        machine.tstore(_RESPONDER, address, 1)
    else:
        machine.tload(_RESPONDER, address)
    return machine, descriptor, address


def _running_answer(request, category):
    machine, _, address = _filled_machine(category)
    proc = machine.processors[_RESPONDER]
    response = proc.classify_remote(_REQUESTOR, request, machine.amap.line_of(address))
    conflict = response if response is not None and response.signals_conflict else None
    return conflict, proc.csts.save()


def _suspend(machine, descriptor):
    """OS suspend path against machine internals (runtime-free)."""
    descriptor.run_state = RunState.SUSPENDED
    saved = machine.processors[_RESPONDER].save_transactional_state()
    descriptor.saved = saved
    machine.summary.install(descriptor.thread_id, saved.rsig, saved.wsig, _RESPONDER)
    machine.register_suspended(descriptor)


def _issue(machine, request, address):
    """Issue ``request`` from the requestor core; returns the op result."""
    op, transactional = _ISSUE[request]
    if transactional:
        begin_hardware_transaction(machine, _REQUESTOR)
    counter = machine.stats.counter(f"dir.requests.{request.value}")
    before = counter.value
    if op == "tload":
        result = machine.tload(_REQUESTOR, address)
    elif op == "tstore":
        result = machine.tstore(_REQUESTOR, address, 2)
    else:
        result = machine.store(_REQUESTOR, address, 2)
    assert counter.value == before + 1, f"{op} did not issue {request.value}"
    return result


@pytest.mark.parametrize(
    "request_type, category",
    sorted(RESPONSE_TABLE, key=lambda cell: (cell[0].value, cell[1])),
    ids=lambda value: getattr(value, "value", value),
)
def test_suspended_answers_as_running(request_type, category):
    running_conflict, running_csts = _running_answer(request_type, category)
    assert running_conflict in (RESPONSE_TABLE[request_type, category], None)

    machine, descriptor, address = _filled_machine(category)
    _suspend(machine, descriptor)
    result = _issue(machine, request_type, address)
    expected = [] if running_conflict is None else [(_RESPONDER, running_conflict)]
    assert result.conflicts == expected
    assert descriptor.saved.csts == running_csts

    strong_isolation = (request_type.value, category) in STRONG_ISOLATION_ABORTS
    if strong_isolation:
        assert machine.read_status(descriptor) is TxStatus.ABORTED
        assert (descriptor.wounded_by, descriptor.wound_kind) == (_REQUESTOR, "SI")
    else:
        assert machine.read_status(descriptor) is TxStatus.ACTIVE
