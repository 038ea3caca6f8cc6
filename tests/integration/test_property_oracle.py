"""Hypothesis-driven serializability fuzzing.

Random transaction mixes (random read/write sets over a small cell
pool, random thread counts) run on FlexTM in both modes; every run's
committed history must pass the conflict-serializability oracle and
replay to the final memory state.  This is the test that originally
caught the two write-skew bugs documented in EXPERIMENTS.md.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.verify.history import (
    HistoryRecorder,
    check_serializable,
    replays_serially,
    seed_cells,
)

NUM_CELLS = 4

# One transaction = (reads mask, writes mask) over the cell pool.
txn_strategy = st.tuples(
    st.integers(min_value=0, max_value=(1 << NUM_CELLS) - 1),
    st.integers(min_value=1, max_value=(1 << NUM_CELLS) - 1),
)
schedule_strategy = st.lists(
    st.lists(txn_strategy, min_size=1, max_size=6), min_size=2, max_size=3
)


def _bits(mask):
    return [index for index in range(NUM_CELLS) if (mask >> index) & 1]


@given(schedule=schedule_strategy, lazy=st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_mixes_are_serializable(schedule, lazy):
    machine = FlexTMMachine(small_test_params(4))
    mode = ConflictMode.LAZY if lazy else ConflictMode.EAGER
    recorder = HistoryRecorder()
    machine.attach(probes=recorder)
    backend = FlexTMRuntime(machine, mode=mode)
    cells = seed_cells(machine, recorder, NUM_CELLS)
    unique = itertools.count(100)

    def items(per_thread):
        def make(read_mask, write_mask):
            def body(ctx):
                for index in _bits(read_mask):
                    yield from ctx.read(cells[index])
                yield from ctx.work(5)
                for index in _bits(write_mask):
                    yield from ctx.write(cells[index], next(unique))

            return body

        for read_mask, write_mask in per_thread:
            yield WorkItem(make(read_mask, write_mask))

    threads = [
        TxThread(thread_id, backend, items(per_thread))
        for thread_id, per_thread in enumerate(schedule)
    ]
    result = Scheduler(machine, threads).run(cycle_limit=100_000_000)
    expected = sum(len(per_thread) for per_thread in schedule)
    assert result.commits == expected

    witness = check_serializable(recorder)
    assert replays_serially(machine.memory, recorder, witness, cells)
