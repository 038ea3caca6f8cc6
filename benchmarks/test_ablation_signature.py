"""Ablation — signature sizing (DESIGN.md).

Sweeps the Bloom-filter width.  Undersized signatures alias wildly:
false-positive Threatened/Exposed-Read responses manufacture conflicts
that abort innocent transactions.  The paper's 2048-bit choice sits on
the flat part of the curve; this bench regenerates that curve.
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.params import SystemParams


def _params(signature_bits: int) -> SystemParams:
    return SystemParams(num_processors=16, signature_bits=signature_bits)


def test_signature_size_sweep(benchmark, bench_cycles):
    """RBTree under lazy management: every thread shares the tree top,
    so forwarded requests constantly sample the signatures; an
    undersized filter aliases, manufacturing commit-time wounds."""
    from repro.core.descriptor import ConflictMode

    sizes = (16, 64, 2048)

    def sweep():
        out = {}
        for bits in sizes:
            result = run_experiment(
                ExperimentConfig(
                    workload="RBTree",
                    system="FlexTM",
                    threads=8,
                    mode=ConflictMode.LAZY,
                    cycle_limit=bench_cycles,
                    params=_params(bits),
                )
            )
            out[bits] = result
        return out

    results = run_once(benchmark, sweep)
    print()
    print("  bits  throughput  commits  aborts")
    for bits, result in results.items():
        print(
            f"  {bits:5d} {result.throughput:10.1f} {result.commits:8d} {result.aborts:7d}"
        )

    tiny, paper = results[16], results[2048]
    # Aliasing manufactures wounds: abort counts fall with filter size.
    assert tiny.aborts > 3 * max(1, results[64].aborts) or tiny.aborts > 5 * max(
        1, paper.aborts
    )
    assert results[64].aborts >= paper.aborts
    # And the false conflicts cost throughput.
    assert paper.throughput > tiny.throughput
