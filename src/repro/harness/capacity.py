"""Capacity sweep: commit rate vs. working-set size for HTM-BE.

The experiment that quantifies FlexTM's headline claim (unbounded,
decoupled TM) against a limited-HTM straw man: each thread repeatedly
runs a transaction over its own *private* working set of N cache
lines — disjoint across threads, so no conflicts ever fire — and the
sweep grows N across the configured hardware read/write-set bounds
(``params.htm_read_lines`` / ``params.htm_write_lines``).

Below the bounds every transaction commits on the hardware path with
zero aborts.  The first size above the write bound makes every
transaction take exactly one deterministic ``capacity`` abort, after
which the fallback ladder fast-fails the remaining HTM budget and the
software slow path commits — the fallback-rate curve jumps from 0.0
to 1.0 at the bound.  Everything is RNG-free, so a repeated run (or a
re-run under ``--jobs`` elsewhere) is bit-identical: same seed ->
identical fallback counts.

CLI::

    python -m repro.harness capacity [--sizes 2,4,8,12,16,24]
        [--threads 4] [--txns 4] [--read-lines N] [--write-lines N]
        [--json-out FILE]

Exit status is non-zero if determinism or the expected ladder
engagement fails (a capacity abort below the bound, or a hardware
commit above it).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.core.descriptor import ConflictMode
from repro.core.machine import FlexTMMachine
from repro.harness.sweep import int_list
from repro.params import small_test_params
from repro.runtime.scheduler import Scheduler
from repro.runtime.txthread import TxThread, WorkItem

REPORT_SCHEMA = "repro.capacity/v1"

DEFAULT_SIZES = (2, 4, 8, 12, 16, 24)
DEFAULT_THREADS = 4
DEFAULT_TXNS = 4
DEFAULT_CYCLE_LIMIT = 50_000_000


def _body(cells: Sequence[int]):
    """Read-modify-write every cell of the private working set."""

    def body(ctx):
        total = 0
        for address in cells:
            value = yield from ctx.read(address)
            total += value
            yield from ctx.write(address, value + 1)
        return total

    return body


def run_capacity_point(
    size: int,
    *,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    read_lines: Optional[int] = None,
    write_lines: Optional[int] = None,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
    backend_name: str = "HTM-BE",
) -> Dict[str, object]:
    """One sweep point: ``threads`` x ``txns`` transactions of ``size`` lines."""
    from repro.harness.runner import SYSTEMS

    params = small_test_params(threads)
    overrides = {}
    if read_lines is not None:
        overrides["htm_read_lines"] = read_lines
    if write_lines is not None:
        overrides["htm_write_lines"] = write_lines
    if overrides:
        params = dataclasses.replace(params, **overrides)
    machine = FlexTMMachine(params)
    backend = SYSTEMS[backend_name](machine, ConflictMode.EAGER)
    line = params.line_bytes
    tx_threads: List[TxThread] = []
    for thread_id in range(threads):
        cells = [machine.allocate(line, line_aligned=True) for _ in range(size)]
        for cell in cells:
            machine.memory.write(cell, 0)
        items = [WorkItem(_body(cells)) for _ in range(txns)]
        tx_threads.append(TxThread(thread_id, backend, items))
    result = Scheduler(machine, tx_threads).run(cycle_limit=cycle_limit)
    from repro.harness.metrics import commits_by_path, fallback_rate

    escalations = result.escalations
    return {
        "set_size": size,
        "read_capacity": params.htm_read_lines,
        "write_capacity": params.htm_write_lines,
        "cycles": result.cycles,
        "commits": result.commits,
        "aborts": result.aborts,
        "aborts_by_kind": result.aborts_by_kind,
        "commits_by_path": commits_by_path(escalations),
        "fallback_rate": fallback_rate(result.commits, escalations),
        "escalations": escalations,
    }


def run_capacity_sweep(
    sizes: Sequence[int] = DEFAULT_SIZES,
    *,
    threads: int = DEFAULT_THREADS,
    txns: int = DEFAULT_TXNS,
    read_lines: Optional[int] = None,
    write_lines: Optional[int] = None,
    cycle_limit: int = DEFAULT_CYCLE_LIMIT,
) -> List[Dict[str, object]]:
    return [
        run_capacity_point(
            size,
            threads=threads,
            txns=txns,
            read_lines=read_lines,
            write_lines=write_lines,
            cycle_limit=cycle_limit,
        )
        for size in sizes
    ]


def check_ladder(rows: Sequence[Dict[str, object]]) -> List[str]:
    """Cross-check each row against the deterministic ladder contract.

    Working sets are thread-private, so *every* abort must be a
    capacity abort; below both bounds nothing aborts and everything
    commits on hardware, above either bound every transaction falls
    back to software.
    """
    problems = []
    for row in rows:
        size = row["set_size"]
        within = (
            size <= row["read_capacity"] and size <= row["write_capacity"]
        )
        unexpected = {
            kind: count
            for kind, count in row["aborts_by_kind"].items()
            if kind != "capacity"
        }
        if unexpected:
            problems.append(
                f"size {size}: non-capacity aborts on disjoint sets: "
                f"{unexpected}"
            )
        paths = row["commits_by_path"]
        if within:
            if row["aborts"]:
                problems.append(
                    f"size {size}: {row['aborts']} abort(s) below the "
                    f"capacity bound"
                )
            if paths["sw"] or paths["irrevocable"]:
                problems.append(
                    f"size {size}: fallback engaged below the bound: {paths}"
                )
        else:
            if paths["htm"]:
                problems.append(
                    f"size {size}: {paths['htm']} hardware commit(s) above "
                    f"the capacity bound"
                )
            if not row["aborts_by_kind"].get("capacity"):
                problems.append(
                    f"size {size}: no capacity aborts above the bound"
                )
    return problems


def render_capacity(rows: Sequence[Dict[str, object]]) -> str:
    header = (
        f"{'size':>5} {'commits':>8} {'aborts':>7} {'capacity':>9} "
        f"{'htm':>6} {'sw':>6} {'irrev':>6} {'fb_rate':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        paths = row["commits_by_path"]
        lines.append(
            f"{row['set_size']:>5} {row['commits']:>8} {row['aborts']:>7} "
            f"{row['aborts_by_kind'].get('capacity', 0):>9} "
            f"{paths['htm']:>6} {paths['sw']:>6} {paths['irrevocable']:>6} "
            f"{row['fallback_rate']:>8.4f}"
        )
    return "\n".join(lines) + "\n"


def run_capacity_command(argv=None) -> int:
    """``python -m repro.harness capacity`` — the fallback-ladder sweep."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness capacity",
        description="Sweep per-thread working-set size across the HTM-BE "
        "read/write-set capacity bounds and report the fallback-rate "
        "curve; fail if the ladder engages non-deterministically or at "
        "the wrong sizes.",
    )
    parser.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)),
                        type=int_list, help="comma-separated working-set sizes in lines")
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS,
                        help="transactional threads (disjoint working sets)")
    parser.add_argument("--txns", type=int, default=DEFAULT_TXNS,
                        help="transactions per thread per point")
    parser.add_argument("--read-lines", type=int, default=None,
                        help="override params.htm_read_lines")
    parser.add_argument("--write-lines", type=int, default=None,
                        help="override params.htm_write_lines")
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLE_LIMIT,
                        help="cycle budget per point")
    parser.add_argument("--json-out", metavar="FILE",
                        help="write the JSON sweep report here")
    args = parser.parse_args(argv)

    sizes = args.sizes
    if not sizes:
        raise SystemExit("no sizes selected")
    kwargs = dict(
        threads=args.threads, txns=args.txns, read_lines=args.read_lines,
        write_lines=args.write_lines, cycle_limit=args.cycles,
    )
    rows = run_capacity_sweep(sizes, **kwargs)
    replay = run_capacity_sweep(sizes, **kwargs)
    problems = check_ladder(rows)
    if rows != replay:
        problems.append("sweep is not deterministic: replay differs")
    sys.stdout.write(render_capacity(rows))
    for problem in problems:
        sys.stdout.write(f"FAIL: {problem}\n")
    if args.json_out:
        document = {
            "schema": REPORT_SCHEMA,
            "threads": args.threads,
            "txns": args.txns,
            "ok": not problems,
            "problems": problems,
            "rows": rows,
        }
        with open(args.json_out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if problems else 0
