"""Byte-identity pins of the observers' artifacts.

Three small armed runs (a tracer and a metrics hub on each) export the
JSONL trace, the Chrome trace and the hub's ``to_dict()``; the sha256 of
each is pinned below.  A change to how the tracer records, the log
flushes, the hub folds or the sampler samples that moves one byte of an
artifact fails here.

The cells are chosen so that no pin is vacuous: each commits and emits
at least six distinct event kinds, and the chaos cell (a storm profile,
more threads than processors) also emits scheduler, overflow, alert and
eviction records.

Repin only when the artifacts are meant to change, and say why in
CHANGES.md::

    PYTHONPATH=src python -m tests.obs.test_artifact_digest
"""

import hashlib
import json

import pytest

from repro.harness.chaos import profile_spec
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.obs.events import SCHED_KINDS
from repro.obs.export import to_chrome_trace, to_jsonl
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import EventTracer
from repro.params import small_test_params

#: cell -> the run's config keywords (tracer and hub added per run).
CELLS = {
    "flextm-hashtable": dict(workload="HashTable", system="FlexTM", threads=4,
                             cycle_limit=40_000, params=small_test_params(4)),
    "tl2-rbtree": dict(workload="RBTree", system="TL2", threads=8,
                       cycle_limit=60_000, params=small_test_params(8)),
    "flextm-chaos": dict(workload="HashTable", system="FlexTM", threads=6,
                         processors=4, cycle_limit=40_000,
                         params=small_test_params(4),
                         chaos=profile_spec("storm", 3, "FlexTM")),
}

#: cell -> artifact -> sha256.
PINS = {
    "flextm-hashtable": {
        "jsonl": "e9fee99ca04271a40b53151a9a1d679bf167a0b54b4b5a44ea284eac1a3888d1",
        "chrome": "48cea666bb5becb757dbf3346300e6f3a29624abfc4ffef05e20f08abf4a53b6",
        "metrics": "887415be154b078fa0018a5912c911ec6bd4a219e40764deed6c5b46b231d055",
    },
    "tl2-rbtree": {
        "jsonl": "3b14420bf1e60ebeac88051741dd0452c7f1cce9f26bef36598e8a95e0dc4dd2",
        "chrome": "d164d94c0c99dcb20e5cf9a3865aea0af696ead347942b5efcde91f3a66b4cfd",
        "metrics": "e892ede0a4433e2c0fce391d070a5730e593086740c7ecd024ee868a9725af1c",
    },
    "flextm-chaos": {
        "jsonl": "10923921db1ce04a5ba0ba54a929b4f63caafd1bda47984939839484c2226075",
        "chrome": "8a03cb1203b120a3e6187e943e5ffee79aa35aafa5463c396a8dab6f543328ef",
        "metrics": "b22ca9e8bd3e89097b1aa13276dad96c7155082378c2c968d7defdef8a4815a2",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cell(cell: str):
    """One armed run: its result, tracer and hub."""
    tracer, hub = EventTracer(), MetricsHub()
    result = run_experiment(ExperimentConfig(
        seed=7, tracer=tracer, metrics=hub, **CELLS[cell]))
    return result, tracer, hub


def digests(tracer: EventTracer, hub: MetricsHub):
    """artifact -> sha256 of its bytes as the exporters write them."""
    return {
        "jsonl": _sha("".join(line + "\n" for line in to_jsonl(tracer))),
        "chrome": _sha(json.dumps(to_chrome_trace(tracer))),
        "metrics": _sha(json.dumps(hub.to_dict(), sort_keys=True)),
    }


@pytest.fixture(scope="module")
def runs():
    return {cell: run_cell(cell) for cell in CELLS}


@pytest.mark.parametrize("cell", CELLS)
def test_the_cell_is_not_vacuous(cell, runs):
    result, tracer, hub = runs[cell]
    kinds = {event.kind for event in tracer.events}
    assert result.commits > 0
    assert len(kinds) >= 6
    assert hub.samples_taken > 0
    assert hub.counters["tx.commits"] == result.commits


def test_the_chaos_cell_reaches_the_rare_records(runs):
    _, tracer, _ = runs["flextm-chaos"]
    kinds = {event.kind for event in tracer.events}
    assert kinds & SCHED_KINDS
    assert any(kind.startswith("overflow_") for kind in kinds)
    assert {"aou_alert", "coh_evict"} <= kinds


@pytest.mark.parametrize("cell", CELLS)
def test_artifacts_match_their_pins(cell, runs):
    _, tracer, hub = runs[cell]
    assert digests(tracer, hub) == PINS[cell]


if __name__ == "__main__":
    print(json.dumps(
        {cell: digests(*run_cell(cell)[1:]) for cell in CELLS}, indent=4))
