"""The ``trace`` subcommand: run one traced experiment and inspect it.

Usage::

    python -m repro.harness trace <workload> <system> [--threads N]
        [--cycles N] [--seed N] [--mode eager|lazy]
        [--trace-out FILE.json] [--jsonl-out FILE.jsonl]
        [--sample N] [--no-coherence] [--max-events N]

Attaches an :class:`~repro.obs.tracer.EventTracer` to a single
measurement point, prints the cycle-attribution report, and optionally
exports the event stream as Chrome/Perfetto ``trace_event`` JSON (open
at https://ui.perfetto.dev) and/or JSONL.

The module also provides :func:`write_point_trace`, the shared helper
behind the figure/overflow harnesses' ``--trace-out`` directories.
"""

from __future__ import annotations

import os

from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profiler import CycleProfiler
from repro.obs.report import render_run_report
from repro.obs.tracer import EventTracer


def make_tracer(args) -> EventTracer:
    return EventTracer(
        sample_memory=args.sample,
        trace_coherence=not args.no_coherence,
        max_events=args.max_events,
    )


def sweep_tracer() -> EventTracer:
    """Tracer settings for whole-sweep tracing (one file per point).

    Sweeps run dozens of points, so coherence chatter is off and memory
    accesses are sampled sparsely to keep the output browsable.
    """
    return EventTracer(sample_memory=64, trace_coherence=False)


def write_point_trace(
    tracer: EventTracer, directory: str, point_name: str, label: str = ""
) -> str:
    """Write one sweep point's Chrome trace into ``directory``.

    Used by :func:`repro.harness.runner.run_point` for the
    figure4/figure5/overflow harnesses' ``--trace-out DIR``; returns
    the file path written.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{point_name}.json")
    write_chrome_trace(tracer, path, label=label or point_name)
    return path


def run_trace_command(argv=None) -> int:
    # Imported here, not at module top: repro.harness.runner builds the
    # machine layer, and keeping it lazy makes `--help` instant.
    from repro.harness.matrix import single_run_config, single_run_parser
    from repro.harness.runner import run_experiment

    parser = single_run_parser(
        "trace", "Run one traced experiment and print its cycle profile."
    )
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write Chrome trace_event JSON here")
    parser.add_argument("--jsonl-out", metavar="FILE",
                        help="write the raw event stream as JSONL here")
    parser.add_argument("--sample", type=int, default=16,
                        help="record every Nth transactional access (default 16)")
    parser.add_argument("--no-coherence", action="store_true",
                        help="skip coherence-protocol events (smaller traces)")
    parser.add_argument("--max-events", type=int, default=None,
                        help="cap recorded events (extras counted as dropped)")
    args = parser.parse_args(argv)
    if args.sample < 1:
        parser.error("--sample must be >= 1")

    tracer = make_tracer(args)
    config = single_run_config(args, tracer=tracer)
    result = run_experiment(config)

    profile = CycleProfiler(tracer).profile()
    title = f"{config.workload} / {config.system} / {args.threads} threads (seed {args.seed})"
    print(render_run_report(profile, result=result, title=title))
    print()
    print(f"events recorded: {len(tracer)}  dropped: {tracer.dropped}")

    if args.trace_out:
        document = to_chrome_trace(tracer, label=title)
        error = validate_chrome_trace(document)
        if error is not None:
            print(f"trace schema error: {error}")
            return 1
        write_chrome_trace(tracer, args.trace_out, label=title)
        print(f"chrome trace written: {args.trace_out} "
              f"(open at https://ui.perfetto.dev)")
    if args.jsonl_out:
        write_jsonl(tracer, args.jsonl_out)
        print(f"jsonl written: {args.jsonl_out}")
    return 0
