"""The benchmark's workloads, their run configs, and result fingerprints.

Every workload is one ``run_experiment(ExperimentConfig(...))`` call in
eager mode; the benchmark's ``--seed`` goes to the workload generator
and nothing else.  Why each one was chosen is recorded in
``BENCHMARK.json`` and ``README.md`` beside this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.harness.runner import ExperimentConfig
from repro.obs.metrics import MetricsHub
from repro.obs.tracer import EventTracer
from repro.runtime.scheduler import RunResult

#: The repository root (``BENCHMARK.json`` lives there).
ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: The untimed warm-up run's share of the cycle budget.  It fills the
#: process-wide hash-family memo before the first timed repeat.
WARMUP_SCALE = 0.1
#: Budget scale of ``--smoke`` (the self-test's size).
SMOKE_SCALE = 0.05
#: Seeds whose fingerprints ``golden.json`` pins at full scale: 42 is
#: the default, 1729 the held-out seed, and 0-31 cover small seeds.
GOLDEN_SEEDS = (*range(32), 42, 1729)
#: Seeds pinned at smoke scale.
SMOKE_GOLDEN_SEEDS = (42, 1729)
#: Every worker also runs its workload once at this seed and smoke
#: scale and checks the pin, so a change to the simulated machine fails
#: at every ``--seed``, pinned or not.
PIN_SEED = 42


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed simulator configuration."""

    name: str
    program: str
    system: str
    threads: int
    cycles: int
    #: Arm a MetricsHub and a default EventTracer on every run.  Armed
    #: observers never change a simulated number, so the runs must
    #: reproduce the unarmed twin's exactly.
    armed: bool = False

    def cycle_limit(self, scale: float) -> int:
        return max(1, int(self.cycles * scale))

    def config(self, seed: int, scale: float = 1.0) -> ExperimentConfig:
        """A fresh config (armed observers are per run, never shared)."""
        return ExperimentConfig(
            workload=self.program,
            system=self.system,
            threads=self.threads,
            cycle_limit=self.cycle_limit(scale),
            seed=seed,
            metrics=MetricsHub() if self.armed else None,
            tracer=EventTracer() if self.armed else None,
        )

    def golden_key(self, seed: int, scale: float = 1.0) -> str:
        """Key of this run in ``golden.json``.

        It names the simulated machine only, so an armed workload shares
        the key (and the pinned fingerprint) of its unarmed twin.
        """
        return (f"{self.program}/{self.system}/{self.threads}t/"
                f"{self.cycle_limit(scale)}c/seed{seed}")


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("flash-commit", "HashTable", "FlexTM", 16, 100_000),
        Workload("long-tx", "Vacation-High", "FlexTM", 8, 80_000),
        Workload("stm-software", "RBTree", "TL2", 16, 120_000),
        Workload("observed", "HashTable", "FlexTM", 16, 100_000, armed=True),
    )
}


def fingerprint(result: RunResult) -> str:
    """sha256 over the canonical JSON of every simulated result field."""
    document = {
        "cycles": result.cycles,
        "commits": result.commits,
        "aborts": result.aborts,
        "nontx_items": result.nontx_items,
        "per_thread": result.per_thread,
        "stats": result.stats,
        "conflict_degrees": result.conflict_degrees,
        "aborts_by_kind": result.aborts_by_kind,
        "escalations": result.escalations,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_goldens() -> Dict[str, str]:
    """Pinned fingerprints keyed by :meth:`Workload.golden_key`."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)["fingerprints"]


def load_declaration() -> dict:
    """``BENCHMARK.json``: workloads, metric units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
