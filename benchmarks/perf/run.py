"""Benchmark entry point that needs no PYTHONPATH.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload flash-commit --seed 1 --seconds 25 --trace 0

It puts the repository root and ``src`` on the import path, then runs
``benchmarks.perf.cli.main``.  Without ``src`` (the simulator's source)
it fails on import, before printing a result.
"""

import signal
import sys
from pathlib import Path

if __name__ == "__main__":
    # Exit through the ``finally`` blocks that stop and wait for the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ROOT = Path(__file__).resolve().parents[2]
    # Replace this file's directory, so no module here shadows another.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.perf.cli import main

    sys.exit(main())
