"""TxContext's read/write: the backend's own generator unless probes are armed."""

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import small_test_params
from repro.runtime.api import TxContext
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.txthread import TxThread
from repro.stm.tl2 import Tl2Runtime
from tests.helpers import drive

BACKENDS = {
    "FlexTM": lambda m: FlexTMRuntime(m, mode=ConflictMode.LAZY),
    "TL2": Tl2Runtime,
}


class RecordingProbe:
    """Logs every transactional read and write the context reports."""

    def __init__(self):
        self.log = []

    def attach(self, machine):
        pass

    def on_memory_write(self, address, value):
        pass

    def on_commit_flash(self, overlay):
        pass

    def on_begin(self, thread):
        pass

    def on_commit(self, thread):
        pass

    def on_abort(self, thread):
        pass

    def on_read(self, thread, address, value):
        self.log.append(("read", thread, address, value))

    def on_write(self, thread, address, value):
        self.log.append(("write", thread, address, value))


def _context(name):
    machine = FlexTMMachine(small_test_params(4))
    backend = BACKENDS[name](machine)
    thread = TxThread(3, backend, iter(()))
    thread.processor = 0
    return machine, backend, thread, TxContext(backend, thread)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_unprobed_accesses_are_the_backends_own_generators(name):
    machine, backend, thread, ctx = _context(name)
    address = machine.allocate_words(1)
    drive(machine, 0, backend.begin(thread))
    write = ctx.write(address, 9)
    assert write.gi_code is type(backend).write.__code__
    drive(machine, 0, write)
    read = ctx.read(address)
    assert read.gi_code is type(backend).read.__code__
    assert drive(machine, 0, read) == 9


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_armed_probe_sees_every_value_in_order(name):
    machine, backend, thread, ctx = _context(name)
    probe = RecordingProbe()
    machine.attach(probes=probe)
    a, b = machine.allocate_words(1, line_aligned=True), machine.allocate_words(1, line_aligned=True)
    machine.store(1, b, 4)

    def body():
        first = yield from ctx.read(a)
        yield from ctx.write(a, first + 5)
        seen = yield from ctx.read(b)
        yield from ctx.write(b, seen * 2)
        yield from ctx.write(a, 11)
        final = yield from ctx.read(a)
        return final

    drive(machine, 0, backend.begin(thread))
    assert ctx.read(a).gi_code is not type(backend).read.__code__
    assert drive(machine, 0, body()) == 11
    drive(machine, 0, backend.commit(thread))
    assert probe.log == [
        ("read", 3, a, 0),
        ("write", 3, a, 5),
        ("read", 3, b, 4),
        ("write", 3, b, 8),
        ("write", 3, a, 11),
        ("read", 3, a, 11),
    ]
    assert machine.memory.read(a) == 11 and machine.memory.read(b) == 8
