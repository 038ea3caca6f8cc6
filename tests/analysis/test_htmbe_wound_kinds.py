"""Acceptance: the HTM-BE wound kinds are registered and alive.

The best-effort backend introduced four wound kinds (``capacity``,
``htm-conflict``, ``explicit``, ``fallback``).  This is the simcheck
acceptance gate: all four live in ``WOUND_KIND_REGISTRY`` with
descriptions, and the grown tree stays at zero SIM-E203 (unregistered
kind at a staging site) and zero SIM-E204 (registered-but-dead kind)
findings — i.e. the taxonomy and the backend agree exactly.
"""

from repro.analysis import all_rules, run_analysis
from repro.obs.events import WOUND_KIND_REGISTRY
from tests.analysis.helpers import SRC_ROOT, copy_repro_subtree, mutate

HTMBE_KINDS = ("capacity", "htm-conflict", "explicit", "fallback")


def test_htmbe_kinds_are_registered_with_descriptions():
    for kind in HTMBE_KINDS:
        assert kind in WOUND_KIND_REGISTRY
        assert WOUND_KIND_REGISTRY[kind].strip()


def test_grown_tree_has_zero_wound_findings():
    registry = all_rules()
    report = run_analysis(
        SRC_ROOT,
        [SRC_ROOT],
        rules=[registry["SIM-E203"], registry["SIM-E204"]],
    )
    assert report.findings == []


def test_dropping_a_htmbe_emitter_is_caught(tmp_path):
    # Remove htmbe's one staging of the "fallback" kind: the registered
    # kind goes dead and SIM-E204 must notice (proves the acceptance
    # test above cannot pass vacuously).
    root = copy_repro_subtree(tmp_path, "obs/events.py", "stm/htmbe.py")
    registry = all_rules()

    def dead_kinds():
        report = run_analysis(root, [root], rules=[registry["SIM-E204"]])
        return {finding.message.split("'")[1] for finding in report.findings}

    assert "fallback" not in dead_kinds()
    mutate(root, "repro/stm/htmbe.py", 'kind="fallback"', 'kind="conflict"')
    assert "fallback" in dead_kinds()
