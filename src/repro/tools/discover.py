"""A Discover-style binary instrumenter baseline.

"Discover" is Sun's SPARC binary instrumentation tool the paper
compares against: it rewrites every memory access with checking code,
so its cost is per-access instrumentation — tens of cycles each —
regardless of whether the access is anywhere near a watched region.
The published slowdowns are 17x-75x depending on the binary's memory
access density; programs Discover did not support are reported N/A.
"""

from __future__ import annotations

from typing import Optional

from repro.tools.bugbench import BugBenchProgram


class DiscoverInstrumenter:
    """Cost model for whole-binary instrumentation."""

    def __init__(self, dispatch_overhead_cycles: int = 2):
        self.dispatch_overhead_cycles = dispatch_overhead_cycles

    def slowdown(self, program: BugBenchProgram) -> Optional[float]:
        """Estimated runtime multiple vs the uninstrumented binary.

        Every access pays the program's instrumentation cost (lookup in
        the shadow-memory structures, bounds checks), modelled from the
        per-binary instrumentation density.
        """
        if program.discover_cycles_per_access is None:
            return None  # the paper reports N/A for this benchmark
        per_access = program.discover_cycles_per_access + self.dispatch_overhead_cycles
        # Baseline cost is ~1 cycle/access in our synthetic programs.
        return 1.0 + per_access
