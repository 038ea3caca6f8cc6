"""The CMT keeps each descriptor in one list, its last processor's.

A transaction never runs on two processors (resuming it elsewhere
aborts it), so ``register`` on a new processor moves the descriptor and
``unregister`` visits only the list of ``last_processor``.
"""

from repro.core.cmt import ConflictManagementTable
from repro.core.descriptor import TransactionDescriptor
from repro.core.machine import FlexTMMachine
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.txthread import TxThread


def _lists(cmt):
    return [cmt.active_on(proc) for proc in range(cmt.num_processors)]


def test_register_on_a_new_processor_moves_the_descriptor():
    cmt = ConflictManagementTable(4)
    descriptor = TransactionDescriptor(thread_id=1, tsw_address=64)
    cmt.register(0, descriptor)
    cmt.register(2, descriptor)
    assert _lists(cmt) == [[], [], [descriptor], []]
    cmt.unregister(descriptor)
    assert _lists(cmt) == [[], [], [], []]


def test_unregister_of_a_never_registered_descriptor_is_a_no_op():
    cmt = ConflictManagementTable(2)
    other = TransactionDescriptor(thread_id=2, tsw_address=128)
    cmt.register(1, other)
    cmt.unregister(TransactionDescriptor(thread_id=1, tsw_address=64))
    assert _lists(cmt) == [[], [other]]


def _drive(machine, proc, ops):
    """Execute a backend generator's ops on ``proc`` directly."""
    result = None
    while True:
        try:
            op = ops.send(result)
        except StopIteration:
            return
        result = None if op[0] == "work" else getattr(machine, op[0])(proc, *op[1:])


def test_a_migration_aborted_resume_then_on_abort_leaves_every_list_empty():
    machine = FlexTMMachine(small_test_params(4))
    runtime = FlexTMRuntime(machine)
    thread = TxThread(0, runtime, iter(()))
    thread.processor = 0
    _drive(machine, 0, runtime.begin(thread))
    thread.in_transaction = True
    descriptor = thread.descriptor
    assert _lists(runtime.cmt) == [[descriptor], [], [], []]

    saved = runtime.suspend(thread)
    assert saved is not None
    thread.processor = None
    assert runtime.resume(thread, 2, saved) == "aborted"
    assert descriptor.wound_kind == "migration"
    # The aborted descriptor is not re-registered on the new processor.
    assert _lists(runtime.cmt) == [[descriptor], [], [], []]

    thread.processor = 2
    _drive(machine, 2, runtime.on_abort(thread))
    assert _lists(runtime.cmt) == [[], [], [], []]
    assert len(runtime.cmt) == 0
