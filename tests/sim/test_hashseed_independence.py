"""Simulated results do not depend on ``PYTHONHASHSEED``.

The protocol enums hash by identity, every protocol table is a dict
(which keeps insertion order), and no simulator code iterates a set
(SIM-D005).  So the string hash, which ``PYTHONHASHSEED`` salts, must
never reach a simulated number.  These tests run the op-digest
oracle's hash-seed cells (``tests/op_digest.py``) in fresh interpreters
with different hash seeds: each interpreter must reproduce the pinned
digests and fingerprints, and the two must agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Two salts for the string hash; "0" turns the salting off.
HASH_SEEDS = ("0", "2718")

#: Runs in a fresh interpreter; prints each cell's commits and entry and
#: fails unless the entry is the pinned one.
_RUNNER = r"""
import json

from tests.op_digest import HASHSEED_CELLS, entry, load_table, run_cell

pinned = load_table()
moved = [name for name in HASHSEED_CELLS if entry(name) != pinned[name]]
assert not moved, f"moved from their pins: {moved}"
print(json.dumps({name: [run_cell(name).result.commits, entry(name)] for name in HASHSEED_CELLS}))
"""


def _cells(hash_seed: str) -> dict:
    path = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    completed = subprocess.run(
        [sys.executable, "-c", _RUNNER], cwd=ROOT,
        env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_fingerprints_identical_across_hash_seeds():
    first, second = (_cells(seed) for seed in HASH_SEEDS)
    assert first == second
    assert len(first) == 4
    # Every config did real work, and the configs are distinct runs.
    assert all(commits > 0 for commits, _ in first.values())
    assert len({cell["digest"] for _, cell in first.values()}) == len(first)


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
