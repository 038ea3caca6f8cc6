"""Experiment harnesses: the paper's tables and figures, the grids and
matrices around them, and their command lines.

Runs and their executor:

* :mod:`repro.harness.runner` — one (workload, system, threads) run;
  ``run_point`` also writes a point's trace/metrics artifacts
* :mod:`repro.harness.parallel` — the process pool every grid fans its
  ``(label, task)`` points out through
* :mod:`repro.harness.sweep` — design-space sweeps with CSV export

Paper tables and figures:

* :mod:`repro.harness.figure4` — throughput & scalability (Fig. 4a-g)
  and the conflicting-transactions table
* :mod:`repro.harness.figure5` — eager vs lazy (Fig. 5a-d) and the
  multiprogramming mix (Fig. 5e-f)
* :mod:`repro.harness.table2` — area estimation (Table 2)
* :mod:`repro.harness.table4` — FlexWatcher slowdowns (Table 4b)
* :mod:`repro.harness.overflow` — the Section 7.3 OT/redo-log study
* :mod:`repro.harness.capacity` — HTM-BE commit rate vs working-set
  size (the limited-HTM straw man)

Matrices (one cell per backend x case, see :mod:`repro.harness.matrix`):

* :mod:`repro.harness.chaos` — seeded fault injection
* :mod:`repro.harness.degrade` — fault injection with the degradation
  ladder armed
* :mod:`repro.harness.adversary` — the conformance matrix over
  adversarial schedules

Single-run inspectors and analysis:

* :mod:`repro.harness.trace` — one traced run and its cycle profile
* :mod:`repro.harness.metrics` — one metrics-armed run, its artifact,
  dashboard and ``compare``
* :mod:`repro.harness.pathology` — Bobba-taxonomy run diagnosis
* :mod:`repro.harness.analyze`, :mod:`repro.harness.modelcheck` —
  the analysis and model-checker CLIs
* :mod:`repro.harness.benchgate` — the CI wall-time gate
* :mod:`repro.harness.report`, :mod:`repro.harness.charts` —
  paper-style text and ASCII charts

``python -m repro.harness`` dispatches the subcommands; run
``python -m repro.harness all`` to regenerate every paper artifact.
"""

from repro.harness.runner import ExperimentConfig, run_experiment, SYSTEMS
from repro.harness.report import format_series, format_table

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "SYSTEMS",
    "format_table",
    "format_series",
]
