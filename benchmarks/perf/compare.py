"""Compare invocations of a parent commit and a change.

    python -m benchmarks.perf compare BASE.json... -- CHANGE.json...

Each file is one invocation's ``--out`` document; pair the i-th base
file with the i-th change file, alternating which side ran first.  For
every (workload, end-to-end metric) a row gives each side's median and
quartiles, the fraction of pairs the change wins (ties count for
neither), and a verdict, using the bound and direction declared in
``BENCHMARK.json``:

* ``better``: at least ten pairs, the change wins at least 9 in 10 of
  them, and its median beats the base median by more than the base's
  quartile spread;
* ``unresolved``: otherwise, when the base's quartile spread is wider than
  the bound and not every change run beats every base run;
* ``worse``: otherwise, when the change median is worse than the base
  median by more than the bound;
* ``unchanged``: otherwise.

Exact metrics (simulated or counted) compare exactly: any difference is
``better`` or ``worse`` by direction.  They are not among the bounded
end-to-end metrics of ``BENCHMARK.json``, whose bounds must cover the
spread across seeds.  The exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List, Sequence, Tuple

from benchmarks.perf.workloads import load_declaration

#: Metrics that repeat exactly for one seed: (name, better).
EXACT = (("sim_commits_per_mcycle", "higher"), ("error_rate", "lower"))
#: Share of pairs the change must win to be ``better``, and the fewest
#: pairs that can show it.
WIN_FRACTION = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float,
            exact: bool = False) -> dict:
    """One comparison row for one (workload, metric)."""
    sign = 1 if better == "higher" else -1
    b_q1, b_median, b_q3 = quartiles(base)
    c_q1, c_median, c_q3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs) / len(pairs)
    gain = sign * (c_median - b_median)
    if exact:
        outcome = ("unchanged" if sorted(base) == sorted(change)
                   else "better" if gain > 0 else "worse")
    elif len(pairs) >= MIN_PAIRS and wins >= WIN_FRACTION and gain > b_q3 - b_q1:
        outcome = "better"
    elif (b_q3 - b_q1) > bound * abs(b_median) and not all(
            sign * (c - b) > 0 for c in change for b in base):
        outcome = "unresolved"
    elif -gain > bound * abs(b_median):
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"base": (b_q1, b_median, b_q3), "change": (c_q1, c_median, c_q3),
            "wins": wins, "pairs": len(pairs), "verdict": outcome}


def _values(documents: List[dict], workload: str, metric: str) -> List[float]:
    return [doc["workloads"][workload]["end_to_end"][metric] for doc in documents
            if metric in doc["workloads"].get(workload, {}).get("end_to_end", {})]


def compare(base: List[dict], change: List[dict]) -> List[dict]:
    """Rows for every (workload, metric) both sides measured."""
    metrics = [(m["name"], m["better"], m["bound"], False)
               for m in load_declaration()["end_to_end"]]
    metrics += [(name, better, 0.0, True) for name, better in EXACT]
    workloads: Dict[str, None] = {}
    for doc in base + change:
        workloads.update(dict.fromkeys(doc["workloads"]))
    rows = []
    for workload in workloads:
        for metric, better, bound, exact in metrics:
            base_values = _values(base, workload, metric)
            change_values = _values(change, workload, metric)
            if base_values and change_values:
                row = verdict(base_values, change_values, better, bound, exact)
                rows.append({"workload": workload, "metric": metric, "bound": bound, **row})
    return rows


def main(argv: List[str]) -> int:
    if "--" not in argv or argv.index("--") in (0, len(argv) - 1):
        print("usage: python -m benchmarks.perf compare BASE.json... -- CHANGE.json...")
        return 2
    split = argv.index("--")
    sides = []
    for paths in (argv[:split], argv[split + 1:]):
        documents = []
        for path in paths:
            with open(path) as handle:
                documents.append(json.load(handle))
        sides.append(documents)
    rows = compare(*sides)
    print(f"{'workload':<13} {'metric':<23} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>5} verdict (bound)")
    for row in rows:
        base = "/".join(f"{v:.5g}" for v in row["base"])
        change = "/".join(f"{v:.5g}" for v in row["change"])
        print(f"{row['workload']:<13} {row['metric']:<23} {base:>30} {change:>30} "
              f"{row['wins']:>5.0%} {row['verdict']} ({row['bound']:.0%})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0
