"""E1 — Figure 4(a)-(g): throughput and scalability.

Regenerates the normalized-throughput series for every workload and
checks the paper's qualitative claims:

* FlexTM tracks CGL at one thread (within ~2x) and scales on the
  scalable workloads;
* FlexTM beats RTM-F (~2x), RSTM (~5.5x) and TL2 (~4.5x) once threads
  and working sets grow;
* LFUCache and RandomGraph do not scale;
* Delaunay (data-parallel) keeps FlexTM near CGL.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.harness.figure4 import render_figure4, run_figure4

_RESULTS = {}


def _series(points, system):
    return {p.threads: p.normalized for p in points if p.system == system}


@pytest.mark.parametrize(
    "workload",
    ["HashTable", "RBTree", "LFUCache", "RandomGraph", "Delaunay", "Vacation-Low", "Vacation-High"],
)
def test_figure4_workload(benchmark, workload, thread_points, bench_cycles):
    result = run_once(
        benchmark,
        lambda: run_figure4(
            workloads=[workload], thread_points=thread_points, cycle_limit=bench_cycles
        ),
    )
    points = result[workload]
    _RESULTS[workload] = points
    print()
    print(render_figure4(result))

    flextm = _series(points, "FlexTM")
    cgl = _series(points, "CGL")
    top = max(thread_points)

    if workload == "Delaunay":
        # Delaunay is data-parallel outside its tiny transactions, so
        # *everything* scales; the paper's claim is that FlexTM and CGL
        # track closely while the STMs halve (metadata cache misses).
        assert max(cgl.values()) > 1.5  # CGL does scale here
        assert flextm[top] > cgl[top] * 0.6
    else:
        # A single lock serializes every other workload: CGL's best
        # point stays within noise of one thread.
        assert max(cgl.values()) <= cgl[1] * 1.6

    # FlexTM at one thread is in CGL's neighbourhood (no bookkeeping).
    assert flextm[1] > 0.4

    if workload in ("HashTable", "RBTree", "Vacation-Low", "Vacation-High"):
        # Scalable workloads: FlexTM beats 1-thread CGL clearly.
        assert flextm[top] > 1.5
        assert flextm[top] > cgl[top] * 1.5
    if workload in ("LFUCache", "RandomGraph"):
        # No concurrency to exploit under eager management: throughput
        # stays flat or collapses (Figure 4c/4d).
        assert flextm[top] < flextm[1] * 2.5

    if workload in ("Vacation-Low", "Vacation-High"):
        tl2 = _series(points, "TL2")
        # FlexTM ~4x TL2 at one thread (Section 7.3).
        assert flextm[1] / max(tl2[1], 1e-9) > 2.0
    else:
        rstm = _series(points, "RSTM")
        rtmf = _series(points, "RTM-F")
        # Bookkeeping hierarchy at the top thread count:
        # FlexTM > RTM-F > RSTM on contended/scalable structures.
        if workload in ("HashTable", "RBTree"):
            assert flextm[top] > rtmf[top] > rstm[top]
            assert flextm[top] / max(rstm[top], 1e-9) > 2.0
