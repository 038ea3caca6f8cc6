"""The forward path against the definitions it replaced.

``L1Controller.handle_forwarded`` snoops a forwarded request once: one
array peek and, on a miss, one victim-buffer extract.
``FlexTMProcessor.classify_remote``
skips an empty Rsig or Wsig without a probe whenever chaos cannot
corrupt the answer.  This module keeps the earlier definitions of both
as the reference: every probe goes through ``_sig_member``, and
``retained`` re-reads the array and both victim buffers after the
transition.  Each test runs one short experiment twice, once on the
reference and once on the shipped code.  It records every forward:
the ``(kind, retained)`` answer, the line's array and victim-buffer
states afterwards, and the responder's CST bits.  The two records, the
two results and the number of rolls drawn from the chaos engine's
``signature`` stream must be identical.
"""

from typing import NamedTuple, Optional

import pytest

from repro.chaos.engine import ChaosEngine, ChaosSpec
from repro.coherence.l1 import L1Controller
from repro.coherence.messages import RequestType, ResponseKind
from repro.coherence.states import LineState
from repro.coherence.tables import REMOTE_NEXT_STATE, RESPONDER_CST, RESPONSE_TABLE
from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.core.processor import FlexTMProcessor
from repro.harness.chaos import profile_spec
from repro.harness.runner import SYSTEMS, ExperimentConfig, run_experiment
from repro.params import small_test_params
from repro.runtime.flextm import FlexTMRuntime
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem
from repro.signatures.bloom import Signature

CYCLE_LIMIT = 20_000


class Forward(NamedTuple):
    """One forward and the responder's state right after it."""

    responder: int
    requestor: int
    req_type: RequestType
    line: int
    kind: Optional[ResponseKind]
    retained: bool
    state: Optional[LineState]  # in the array
    victim: Optional[LineState]  # in the victim buffer
    tmi_victim: Optional[LineState]  # in the TMI side buffer
    csts: tuple  # (R-W, W-R, W-W)


def reference_classify_remote(self, requestor, req_type, line_address):
    """``FlexTMProcessor.classify_remote`` before the empty-signature skip."""
    if self._sig_member("wsig", line_address):
        category = "wsig"
    elif self._sig_member("rsig", line_address):
        category = "rsig_only"
    else:
        return None
    cst = RESPONDER_CST.get((req_type, category))
    if cst is not None:
        self._record_conflict(cst, requestor)
    response = RESPONSE_TABLE[req_type, category]
    if response is ResponseKind.THREATENED:
        self.stats.counter("cst.threatened_responses").increment()
    elif response is ResponseKind.EXPOSED_READ:
        self.stats.counter("cst.exposed_read_responses").increment()
    return response


def reference_handle_forwarded(self, requestor, req_type, line_address):
    """``L1Controller.handle_forwarded`` before the one-snoop rewrite."""
    kind = self.hooks.classify_remote(requestor, req_type, line_address)
    line = self.array.peek(line_address)
    if line is not None:
        state = line.state
        next_state = REMOTE_NEXT_STATE[req_type, state]
        if state is LineState.M:
            self.stats.counter("l1.remote_flushes").increment()
        if next_state is LineState.I:
            self._drop_line(line)
        elif next_state is not state:
            line.state = next_state
    elif self.victims.contains(line_address):
        state = self.victims.extract(line_address)
        self.victims.insert(line_address, REMOTE_NEXT_STATE[req_type, state])
    retained = (
        kind is not None
        or self.array.peek(line_address) is not None
        or self.victims.contains(line_address)
        or (self.tmi_victims is not None and self.tmi_victims.contains(line_address))
        or self.hooks.holds_overflow(line_address)
    )
    return kind, retained


def _recording(handle_forwarded, log):
    """Wrap a ``handle_forwarded`` so each call appends its outcome to ``log``."""

    def recorded(self, requestor, req_type, line_address):
        kind, retained = handle_forwarded(self, requestor, req_type, line_address)
        line = self.array.peek(line_address)
        csts = self.hooks.csts
        log.append(Forward(
            self.proc_id, requestor, req_type, line_address, kind, retained,
            None if line is None else line.state,
            self.victims._entries.get(line_address),
            None if self.tmi_victims is None else self.tmi_victims._entries.get(line_address),
            (csts.r_w.value, csts.w_r.value, csts.w_w.value),
        ))
        return kind, retained

    return recorded


def _run(monkeypatch, execute, reference):
    """One call of ``execute``: (forward log, its result, signature rolls drawn)."""
    log, rolls = [], []
    roll = ChaosEngine._roll

    def counting_roll(self, site, prob):
        if site == "signature" and prob > 0.0:
            rolls.append(site)
        return roll(self, site, prob)

    with monkeypatch.context() as patch:
        handle_forwarded = L1Controller.handle_forwarded
        if reference:
            handle_forwarded = reference_handle_forwarded
            patch.setattr(FlexTMProcessor, "classify_remote", reference_classify_remote)
        patch.setattr(L1Controller, "handle_forwarded", _recording(handle_forwarded, log))
        patch.setattr(ChaosEngine, "_roll", counting_roll)
        result = execute()
    return log, result, len(rolls)


def _check(monkeypatch, execute):
    expected_log, expected, expected_rolls = _run(monkeypatch, execute, reference=True)
    log, result, rolls = _run(monkeypatch, execute, reference=False)
    assert len(log) == len(expected_log)
    for index, (got, want) in enumerate(zip(log, expected_log)):
        assert got == want, (index, got, want)
    assert result == expected
    assert rolls == expected_rolls
    assert result.commits > 0
    return log, result, rolls


def _experiment(system, **kwargs):
    config = ExperimentConfig(
        workload="HashTable", system=system, threads=4, cycle_limit=CYCLE_LIMIT,
        params=small_test_params(4), **kwargs,
    )
    return lambda: run_experiment(config)


def _hot_lines(tmi_to_victim, chaos=None):
    """Lazy FlexTM transactions that write a shared line, then enough
    private lines to evict it: its TMI copy answers forwards from the
    TMI side buffer or from the overflow table."""

    def execute():
        machine = FlexTMMachine(small_test_params(4), tmi_to_victim=tmi_to_victim)
        if chaos is not None:
            machine.set_chaos(ChaosEngine(chaos, stats=machine.stats))
        runtime = FlexTMRuntime(machine, mode=ConflictMode.LAZY)
        line = machine.params.line_bytes
        hot = [machine.allocate(line, line_aligned=True) for _ in range(2)]
        private = [[machine.allocate(line, line_aligned=True) for _ in range(24)]
                   for _ in range(4)]

        def items(thread_id):
            k = 0
            while True:
                def txn(ctx, k=k):
                    address = hot[k % len(hot)]
                    value = yield from ctx.read(address)
                    yield from ctx.write(address, value + 1)
                    for address in private[thread_id]:
                        yield from ctx.write(address, k)

                yield WorkItem(txn)
                k += 1

        threads = [TxThread(thread_id, runtime, items(thread_id)) for thread_id in range(4)]
        return Scheduler(machine, threads).run(cycle_limit=CYCLE_LIMIT)

    return execute


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_every_forward_matches_the_reference(monkeypatch, system):
    log, _, _ = _check(monkeypatch, _experiment(system))
    assert len(log) > 100
    assert any(not forward.retained for forward in log)


_HOLDS = [False, True]
_HOLDS_IDS = ["overflow-table", "tmi-victims"]


@pytest.mark.parametrize("tmi_to_victim", _HOLDS, ids=_HOLDS_IDS)
def test_evicted_tmi_lines_still_answer(monkeypatch, tmi_to_victim):
    log, result, _ = _check(monkeypatch, _hot_lines(tmi_to_victim))
    assert ResponseKind.THREATENED in {forward.kind for forward in log}
    if tmi_to_victim:
        assert any(forward.tmi_victim is LineState.TMI for forward in log)
    else:
        assert result.stats["ot.spills"] > 0


@pytest.mark.parametrize("tmi_to_victim", _HOLDS, ids=_HOLDS_IDS)
def test_a_missed_signature_still_retains_an_evicted_tmi_line(monkeypatch, tmi_to_victim):
    # Signature false negatives hide the TMI line from both registers,
    # so only the side buffer or the overflow table keeps it listed.
    chaos = ChaosSpec(seed=5, sig_false_negative=0.5)
    log, _, rolls = _check(monkeypatch, _hot_lines(tmi_to_victim, chaos))
    assert rolls > 0
    assert any(
        forward.kind is None and forward.retained
        and forward.state is None and forward.victim is None
        for forward in log
    )


@pytest.mark.parametrize("system", ["FlexTM", "LogTM-SE"])
def test_signature_faults_draw_the_same_rolls(monkeypatch, system):
    experiment = _experiment(system, chaos=profile_spec("signature", 7, system))
    _, _, rolls = _check(monkeypatch, experiment)
    assert rolls > 0


def test_software_tm_forwards_probe_no_signature(monkeypatch):
    """TL2 never loads a signature, so the shipped forwards probe none."""
    member = Signature.member
    probes = {}
    for reference in (True, False):
        calls = probes[reference] = []

        def counting_member(self, address, calls=calls):
            calls.append(address)
            return member(self, address)

        monkeypatch.setattr(Signature, "member", counting_member)
        log, _, _ = _run(monkeypatch, _experiment("TL2"), reference)
        assert log
    assert probes[True] and not probes[False]
