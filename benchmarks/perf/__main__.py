"""``PYTHONPATH=src python -m benchmarks.perf ...`` (see ``cli.py``)."""

import signal
import sys

from benchmarks.perf.cli import main

if __name__ == "__main__":
    # Exit through the ``finally`` blocks that stop and wait for the workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
