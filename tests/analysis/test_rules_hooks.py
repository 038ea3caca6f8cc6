"""Positive and negative fixtures for the SIM-H1xx hook-hygiene rules."""

from __future__ import annotations

from tests.analysis.helpers import analyze_snippet, rule_ids


class TestOptionalHookGuard:
    def test_flags_unguarded_chaos(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/coherence/bad.py",
            """
            class Cache:
                def evict(self, n):
                    return self.chaos.pick(n)
            """,
            ["SIM-H101"],
        )
        assert rule_ids(report) == ["SIM-H101"]

    def test_flags_unguarded_invariants(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/bad.py",
            """
            class Machine:
                def tload(self, proc_id, address):
                    self.invariants.on_access_conflicts(proc_id, ())
                    if self.invariants is not None:
                        self.invariants.on_access_conflicts(proc_id, ())
            """,
            ["SIM-H101"],
        )
        assert rule_ids(report) == ["SIM-H101"]

    def test_if_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/coherence/ok.py",
            """
            class Cache:
                def evict(self, n):
                    if self.chaos is not None:
                        return self.chaos.pick(n)
                    return None
            """,
            ["SIM-H101"],
        )
        assert report.findings == []

    def test_early_return_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/ok.py",
            """
            class Walker:
                def walk_penalty(self):
                    if self.chaos is None or not self.chaos.enabled:
                        return 0
                    return self.chaos.walk_cycles()
            """,
            ["SIM-H101"],
        )
        assert report.findings == []

    def test_and_chain_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/ok.py",
            """
            class Sched:
                def maybe(self):
                    return self.resilience is not None and self.resilience.active()
            """,
            ["SIM-H101"],
        )
        assert report.findings == []

    def test_guard_in_caller_does_not_count(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/bad.py",
            """
            class Machine:
                def outer(self):
                    if self.chaos is not None:
                        self.inner()

                def inner(self):
                    self.chaos.flip()
            """,
            ["SIM-H101"],
        )
        assert rule_ids(report) == ["SIM-H101"]

    def test_out_of_scope_directory_is_ignored(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/harness/anything.py",
            """
            class Runner:
                def go(self):
                    return self.chaos.pick(3)
            """,
            ["SIM-H101"],
        )
        assert report.findings == []


class TestTracerEmitGuard:
    def test_flags_unguarded_emit(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/bad.py",
            """
            class Machine:
                def step(self):
                    self.tracer.tx_begin(0, 1, 2)
            """,
            ["SIM-H102"],
        )
        assert rule_ids(report) == ["SIM-H102"]

    def test_enabled_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/ok.py",
            """
            class Machine:
                def step(self):
                    if self.tracer.enabled:
                        self.tracer.tx_begin(0, 1, 2)
            """,
            ["SIM-H102"],
        )
        assert report.findings == []

    def test_alias_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/ok.py",
            """
            class Thread:
                def run(self):
                    tracer = self.machine.tracer
                    if tracer.enabled:
                        tracer.tx_commit(0, 1, 2)
            """,
            ["SIM-H102"],
        )
        assert report.findings == []

    def test_early_return_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/ok.py",
            """
            class Machine:
                def _trace_access(self, now):
                    if not self.tracer.enabled:
                        return
                    self.tracer.tx_access(0, 1, now, "read", 64)
            """,
            ["SIM-H102"],
        )
        assert report.findings == []

    def test_enabled_read_itself_is_clean(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/ok.py",
            """
            class Machine:
                def active(self):
                    return self.tracer.enabled
            """,
            ["SIM-H102"],
        )
        assert report.findings == []

    def test_unguarded_step_in_the_loop_flags(self, tmp_path):
        # The scheduler's cadence test alone does not license the call.
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/bad.py",
            """
            class Scheduler:
                def run(self, tracer, log):
                    due, told, steps = 1, 0, 0
                    while True:
                        steps += 1
                        if steps >= due or len(log) >= CHUNK_RECORDS:
                            due = steps + tracer.step(self, steps - told)
                            told = steps
            """,
            ["SIM-H102"],
        )
        assert rule_ids(report) == ["SIM-H102"]

    def test_enabled_in_an_or_does_not_guard_the_step(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/bad.py",
            """
            class Scheduler:
                def run(self, tracer, log):
                    due, told, steps = 1, 0, 0
                    while True:
                        steps += 1
                        if tracer.enabled or steps >= due:
                            due = steps + tracer.step(self, steps - told)
            """,
            ["SIM-H102"],
        )
        assert rule_ids(report) == ["SIM-H102"]

    def test_enabled_and_cadence_guard_is_recognized(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/ok.py",
            """
            class Scheduler:
                def run(self, tracer, log):
                    due, told, steps = 1, 0, 0
                    while True:
                        steps += 1
                        if tracer.enabled and (steps >= due or len(log) >= CHUNK_RECORDS):
                            due = steps + tracer.step(self, steps - told)
                            told = steps
            """,
            ["SIM-H102"],
        )
        assert report.findings == []

    def test_wrong_alias_guard_still_flags(self, tmp_path):
        # Guarding other.enabled must not license self.tracer emits.
        report = analyze_snippet(
            tmp_path,
            "repro/core/bad.py",
            """
            class Machine:
                def step(self, other):
                    if other.enabled:
                        self.tracer.tx_begin(0, 1, 2)
            """,
            ["SIM-H102"],
        )
        assert rule_ids(report) == ["SIM-H102"]


class TestInlineSuppression:
    def test_ignore_comment_silences_one_site(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/bad.py",
            """
            class Machine:
                def step(self):
                    self.tracer.tx_begin(0, 1, 2)  # simcheck: ignore[SIM-H102]
                    self.tracer.tx_abort(0, 1, 2)
            """,
            ["SIM-H102"],
        )
        assert rule_ids(report) == ["SIM-H102"]
        assert len(report.inline_suppressed) == 1
        assert report.findings[0].message.startswith("self.tracer.tx_abort")
