"""Fixtures for the SIM-E2xx tracer-event registry rules."""

from __future__ import annotations

from repro.obs.events import EVENT_KINDS, EVENT_REGISTRY, is_registered

from tests.analysis.helpers import analyze_snippet, rule_ids


class TestRegistryModule:
    def test_registry_is_nonempty_and_consistent(self):
        assert EVENT_KINDS == frozenset(EVENT_REGISTRY)
        assert is_registered("tx_begin")
        assert not is_registered("tx_warp")

    def test_every_kind_has_a_description(self):
        for kind, description in EVENT_REGISTRY.items():
            assert description.strip(), f"event {kind} has no description"


class TestUnregisteredEvent:
    def test_flags_unknown_literal_kind(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/bad.py",
            """
            class Sched:
                def run(self):
                    if self.tracer.enabled:
                        self.tracer.sched(0, 1, "telport", 2)
            """,
            ["SIM-E201"],
        )
        assert rule_ids(report) == ["SIM-E201"]
        assert "'telport'" in report.findings[0].message

    def test_prefixed_methods_apply_prefix(self, tmp_path):
        # watchdog("escalate") resolves to watchdog_escalate: registered.
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/ok.py",
            """
            class Watch:
                def bark(self, now):
                    if self.tracer.enabled:
                        self.tracer.watchdog(now, "escalate", tx=3)
            """,
            ["SIM-E201"],
        )
        assert report.findings == []

    def test_conditional_expression_is_resolved(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/mixed.py",
            """
            class Machine:
                def trace(self, kind, writing):
                    rw = "read" if not writing else "wrote"
                    if self.tracer.enabled:
                        self.tracer.tx_access(0, 1, 2, rw, 64)
            """,
            ["SIM-E201"],
        )
        # "tx_read" is registered, "tx_wrote" is not.
        assert rule_ids(report) == ["SIM-E201"]
        assert "'tx_wrote'" in report.findings[0].message

    def test_dynamic_kind_is_skipped_not_guessed(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/dynamic.py",
            """
            class Machine:
                def trace(self, what):
                    if self.tracer.enabled:
                        self.tracer.degrade(3, what)
            """,
            ["SIM-E201"],
        )
        assert report.findings == []

    def test_fixed_kind_methods_are_always_registered(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/core/ok.py",
            """
            class Machine:
                def finish(self):
                    if self.tracer.enabled:
                        self.tracer.tx_commit(0, 1, 2)
                        self.tracer.conflict(0, 1, 2, "r_w", 64)
            """,
            ["SIM-E201"],
        )
        assert report.findings == []

    def test_flags_unknown_kind_in_an_event_log_record(self, tmp_path):
        # The tracer appends flat records; their kind literal is checked.
        report = analyze_snippet(
            tmp_path,
            "repro/obs/bad_tracer.py",
            """
            class Tracer:
                def tx_commit(self, proc, thread, cycle):
                    self._append(("tx_comit", cycle, proc, thread, -1, 0, "", None))
            """,
            ["SIM-E201"],
        )
        assert rule_ids(report) == ["SIM-E201"]
        assert "'tx_comit'" in report.findings[0].message

    def test_registered_record_kinds_and_other_tuples_pass(self, tmp_path):
        # A registered record kind is fine; a tuple of another width is
        # not an event-log record and is not read as one.
        report = analyze_snippet(
            tmp_path,
            "repro/obs/ok_tracer.py",
            """
            class Tracer:
                def tx_commit(self, proc, thread, cycle):
                    self._append(("tx_commit", cycle, proc, thread, -1, 0, "", None))

                def remember(self, rows):
                    rows.append(("not_a_kind", 1, 2))
            """,
            ["SIM-E201"],
        )
        assert report.findings == []


class TestDeadEvent:
    def test_reports_registered_kind_with_no_emitter(self, tmp_path):
        # Analyze a scratch tree containing the registry module and one
        # emitter: every other registered kind is dead.
        from repro.analysis import all_rules, run_analysis

        registry_copy = tmp_path / "repro/obs/events.py"
        registry_copy.parent.mkdir(parents=True)
        registry_copy.write_text(
            "EVENT_REGISTRY = {}\n",  # content irrelevant; rule keys on path
            encoding="utf-8",
        )
        emitter = tmp_path / "repro/runtime/only_emitter.py"
        emitter.parent.mkdir(parents=True)
        emitter.write_text(
            "class Sched:\n"
            "    def run(self):\n"
            "        if self.tracer.enabled:\n"
            '            self.tracer.sched(0, 1, "dispatch", 2)\n',
            encoding="utf-8",
        )
        report = run_analysis(
            tmp_path, [tmp_path], rules=[all_rules()["SIM-E202"]]
        )
        dead = {finding.message.split("'")[1] for finding in report.findings}
        assert "dispatch" not in dead
        assert "tx_begin" in dead
        assert all(finding.severity == "warning" for finding in report.findings)

    def test_skipped_when_registry_module_not_analyzed(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/only_emitter.py",
            """
            class Sched:
                def run(self):
                    if self.tracer.enabled:
                        self.tracer.sched(0, 1, "dispatch", 2)
            """,
            ["SIM-E202"],
        )
        assert report.findings == []
