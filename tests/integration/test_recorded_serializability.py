"""Every TM system's recorded histories must pass the oracle.

The strongest correctness statement in the suite: arm a HistoryRecorder
as the machine's probe, run contended random read/write transactions on
each backend, and feed the committed history to the
conflict-serializability checker.
"""

import itertools

import pytest

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.sim.rng import DeterministicRng
from repro.stm.cgl import CglRuntime
from repro.stm.rstm import RstmRuntime
from repro.stm.rtmf import RtmfRuntime
from repro.stm.logtmse import LogTmSeRuntime
from repro.stm.tl2 import Tl2Runtime
from repro.verify.history import (
    HistoryRecorder,
    check_serializable,
    replays_serially,
    seed_cells,
)

NUM_CELLS = 6

BACKENDS = [
    ("CGL", lambda machine: CglRuntime(machine)),
    ("FlexTM-eager", lambda machine: FlexTMRuntime(machine, mode=ConflictMode.EAGER)),
    ("FlexTM-lazy", lambda machine: FlexTMRuntime(machine, mode=ConflictMode.LAZY)),
    ("RTM-F", lambda machine: RtmfRuntime(machine)),
    ("RSTM", lambda machine: RstmRuntime(machine)),
    ("TL2", lambda machine: Tl2Runtime(machine)),
    ("LogTM-SE", lambda machine: LogTmSeRuntime(machine)),
]


def _random_items(cells, rng, count, unique):
    """Transactions writing globally unique values, so the checker's
    reads-from attribution is exact (value -> writer is injective)."""

    def make(reads, writes):
        def body(ctx):
            for address in reads:
                yield from ctx.read(address)
            yield from ctx.work(10)
            for address in writes:
                yield from ctx.write(address, next(unique))

        return body

    for _ in range(count):
        reads = rng.sample(cells, rng.randint(1, 3))
        writes = rng.sample(cells, rng.randint(1, 2))
        yield WorkItem(make(tuple(reads), tuple(writes)))


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
def test_recorded_history_is_serializable(name, factory):
    machine = FlexTMMachine(small_test_params(4))
    recorder = HistoryRecorder()
    machine.attach(probes=recorder)
    backend = factory(machine)
    cells = seed_cells(machine, recorder, NUM_CELLS)
    unique = itertools.count(1000)
    threads = [
        TxThread(i, backend, _random_items(cells, DeterministicRng(50 + i), 20, unique))
        for i in range(4)
    ]
    result = Scheduler(machine, threads).run(cycle_limit=100_000_000)
    assert result.commits == 80, f"{name}: not all transactions committed"
    assert len(recorder.committed) == 80
    witness = check_serializable(recorder)
    assert len(witness) == 80
    # Final memory state must equal replaying the witness serially.
    assert replays_serially(machine.memory, recorder, witness, cells), (
        f"{name}: final state diverges"
    )
