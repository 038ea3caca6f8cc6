"""Fixtures for the SIM-E203/E204 wound-kind registry rules."""

from __future__ import annotations

from repro.analysis import all_rules, run_analysis
from repro.obs.events import (
    UNATTRIBUTED_KIND,
    WOUND_KIND_REGISTRY,
    WOUND_KINDS,
)

from tests.analysis.helpers import analyze_snippet, copy_repro_subtree, rule_ids


class TestRegistryModule:
    def test_registry_is_nonempty_and_consistent(self):
        assert WOUND_KINDS == frozenset(WOUND_KIND_REGISTRY)
        assert "W-W" in WOUND_KINDS
        assert "adversary" in WOUND_KINDS
        assert "stall-deadlock" in WOUND_KINDS
        # The fallback bucket is deliberately NOT a registered kind: it
        # marks attribution loss, and nothing may stage it on purpose.
        assert UNATTRIBUTED_KIND not in WOUND_KINDS

    def test_every_kind_has_a_description(self):
        for kind, description in WOUND_KIND_REGISTRY.items():
            assert description.strip(), f"wound kind {kind} has no description"


class TestUnregisteredWoundKind:
    def test_flags_unknown_literal_kind(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/bad.py",
            """
            class Manager:
                def resolve(self, tsw, by):
                    self.machine.stage_wound(tsw, by, "warpstorm")
            """,
            ["SIM-E203"],
        )
        assert rule_ids(report) == ["SIM-E203"]
        assert "'warpstorm'" in report.findings[0].message

    def test_flags_missing_kind_argument(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/chaos/bad.py",
            """
            class Dog:
                def bite(self, machine, victim):
                    machine.force_abort(victim, by=-1)
            """,
            ["SIM-E203"],
        )
        assert rule_ids(report) == ["SIM-E203"]
        assert "unattributed" in report.findings[0].message

    def test_registered_literal_is_clean(self, tmp_path):
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/ok.py",
            """
            class Manager:
                def resolve(self, tsw, by):
                    self.machine.stage_wound(tsw, by, "W-W")
                def migrate(self, machine, victim):
                    machine.force_abort(victim, by=-1, kind="migration")
            """,
            ["SIM-E203"],
        )
        assert report.findings == []

    def test_conditional_expression_is_resolved(self, tmp_path):
        # Both arms registered: clean.  One arm a typo: flagged.
        clean = analyze_snippet(
            tmp_path,
            "repro/runtime/cond_ok.py",
            """
            class Manager:
                def resolve(self, tsw, by, writer):
                    kind = "W-W" if writer else "W-R"
                    self.machine.stage_wound(tsw, by, kind)
            """,
            ["SIM-E203"],
        )
        assert clean.findings == []
        dirty = analyze_snippet(
            tmp_path,
            "repro/runtime/cond_bad.py",
            """
            class Manager:
                def resolve(self, tsw, by, writer):
                    kind = "W-W" if writer else "WR"
                    self.machine.stage_wound(tsw, by, kind)
            """,
            ["SIM-E203"],
        )
        assert rule_ids(dirty) == ["SIM-E203"]
        assert "'WR'" in dirty.findings[0].message

    def test_dynamic_kind_is_skipped(self, tmp_path):
        # CST_LABELS[...] lookups and parameter pass-through are
        # genuinely dynamic: the runtime strict check owns those, the
        # static rule must not guess.
        report = analyze_snippet(
            tmp_path,
            "repro/runtime/dynamic.py",
            """
            class Manager:
                def resolve(self, tsw, by, kind):
                    self.machine.stage_wound(tsw, by, kind)
                def classify_and_wound(self, tsw, by, sets):
                    self.machine.stage_wound(tsw, by, self.classify(sets))
            """,
            ["SIM-E203"],
        )
        assert report.findings == []

    def test_pristine_tree_is_clean(self):
        from tests.analysis.helpers import SRC_ROOT

        registry = all_rules()
        report = run_analysis(
            SRC_ROOT,
            [SRC_ROOT],
            rules=[registry["SIM-E203"], registry["SIM-E204"]],
        )
        assert report.findings == []


class TestDeadWoundKind:
    def _run(self, root):
        registry = all_rules()
        return run_analysis(root, [root], rules=[registry["SIM-E204"]])

    def test_registry_alone_flags_every_kind_dead(self, tmp_path):
        # Only the registry module in the file set: no literal uses
        # anywhere, so every kind is dead taxonomy.
        root = copy_repro_subtree(tmp_path, "obs/events.py")
        report = self._run(root)
        assert sorted(f.message.split("'")[1] for f in report.findings) == (
            sorted(WOUND_KINDS)
        )
        assert all(f.severity == "warning" for f in report.findings)
        assert all(
            f.path.endswith("repro/obs/events.py")
            for f in report.findings
        )

    def test_used_kinds_are_not_flagged(self, tmp_path):
        root = copy_repro_subtree(tmp_path, "obs/events.py")
        users = "\n".join(
            f'    KINDS.append("{kind}")' for kind in sorted(WOUND_KINDS)
        )
        emitters = root / "repro" / "obs" / "emitters.py"
        emitters.write_text(
            "KINDS = []\n\ndef use_all():\n" + users + "\n",
            encoding="utf-8",
        )
        report = self._run(root)
        assert report.findings == []

    def test_registry_outside_file_set_skips(self, tmp_path):
        # Mirrors SIM-E202: without the registry module in view, the
        # deadness check would flag every kind — skip instead.
        target = tmp_path / "repro" / "runtime" / "other.py"
        target.parent.mkdir(parents=True)
        target.write_text("VALUE = 1\n", encoding="utf-8")
        report = self._run(tmp_path)
        assert report.findings == []
