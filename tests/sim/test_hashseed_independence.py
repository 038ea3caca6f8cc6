"""Simulated results do not depend on ``PYTHONHASHSEED``.

The protocol enums hash by identity, every protocol table is a dict
(which keeps insertion order), and no simulator code iterates a set
(SIM-D005).  So the string hash, which ``PYTHONHASHSEED`` salts, must
never reach a simulated number.  These tests run smoke-scale
configurations in fresh interpreters with different hash seeds and
compare the ``RunResult`` fingerprints.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Two salts for the string hash; "0" turns the salting off.
HASH_SEEDS = ("0", "2718")

#: Runs in a fresh interpreter; prints one fingerprint per config.
_RUNNER = r"""
import hashlib
import json

from repro.harness.chaos import profile_spec
from repro.harness.runner import ExperimentConfig, run_experiment

CONFIGS = {
    "HashTable/FlexTM/16t": ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=16, cycle_limit=8_000, seed=42),
    "RBTree/TL2/16t": ExperimentConfig(
        workload="RBTree", system="TL2", threads=16, cycle_limit=8_000, seed=42),
    "Vacation-High/FlexTM/8t-on-3p-quantum": ExperimentConfig(
        workload="Vacation-High", system="FlexTM", threads=8, processors=3,
        quantum=1_500, cycle_limit=12_000, seed=7),
    "HashTable/FlexTM/8t-storm": ExperimentConfig(
        workload="HashTable", system="FlexTM", threads=8, cycle_limit=8_000, seed=5,
        chaos=profile_spec("storm", 5, "FlexTM")),
}


def fingerprint(result):
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
    return result.commits, hashlib.sha256(canonical.encode()).hexdigest()


print(json.dumps({name: fingerprint(run_experiment(config)) for name, config in CONFIGS.items()}))
"""


def _fingerprints(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_fingerprints_identical_across_hash_seeds():
    first, second = (_fingerprints(seed) for seed in HASH_SEEDS)
    assert first == second
    assert len(first) == 4
    # Every config did real work, and the configs are distinct runs.
    assert all(commits > 0 for commits, _ in first.values())
    assert len({digest for _, digest in first.values()}) == len(first)


def test_string_hash_really_differs_across_hash_seeds():
    """The two interpreters salt ``str`` hashes differently, so the
    test above compares runs whose set orders of strings differ."""
    probe = "import sys; print(hash('LineState.TMI'))"
    hashes = set()
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        hashes.add(completed.stdout.strip())
    assert len(hashes) == len(HASH_SEEDS)
