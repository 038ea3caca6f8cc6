"""Observability: transaction-lifecycle tracing and cycle profiling.

The subsystem has four pieces (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.tracer` — the :class:`Tracer` protocol, the
  zero-overhead :class:`NullTracer` default, and the recording
  :class:`EventTracer`;
* :mod:`repro.obs.profiler` — attributes every simulated cycle to
  useful-work / stalled / aborted / overflow-walk / non-tx buckets;
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  JSONL exporters plus a schema validator;
* :mod:`repro.obs.report` — the plain-text per-run report joining the
  profile with the machine's statistics registry;
* :mod:`repro.obs.metrics` — the deterministic :class:`MetricsHub`
  (counters, gauges, log-bucket histograms, sim-clock time series);
* :mod:`repro.obs.causality` — the wounded-by DAG, chain extraction and
  windowed pathology annotators over abort-attribution records;
* :mod:`repro.obs.dashboard` — the zero-dependency self-contained HTML
  dashboard renderer.
"""

from repro.obs.tracer import (
    CST_KINDS,
    EventTracer,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)
from repro.obs.profiler import (
    BUCKETS,
    CycleProfile,
    CycleProfiler,
    ProcessorProfile,
    profile_run,
)
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import render_profile, render_run_report
from repro.obs.causality import (
    AbortRecord,
    Chain,
    annotate_pathologies,
    build_edges,
    extract_chains,
    longest_chain,
)
from repro.obs.metrics import (
    Gauge,
    LogBucketHistogram,
    MetricsHub,
    TimeSeries,
    nearest_rank,
    nearest_rank_index,
)
from repro.obs.dashboard import render_dashboard

__all__ = [
    "CST_KINDS",
    "BUCKETS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EventTracer",
    "TraceEvent",
    "CycleProfile",
    "CycleProfiler",
    "ProcessorProfile",
    "profile_run",
    "to_chrome_trace",
    "to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "render_profile",
    "render_run_report",
    "AbortRecord",
    "Chain",
    "annotate_pathologies",
    "build_edges",
    "extract_chains",
    "longest_chain",
    "Gauge",
    "LogBucketHistogram",
    "MetricsHub",
    "TimeSeries",
    "nearest_rank",
    "nearest_rank_index",
    "render_dashboard",
]
