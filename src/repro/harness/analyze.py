"""The ``analyze`` subcommand: run simcheck over the source tree.

Examples::

    python -m repro.harness analyze
    python -m repro.harness analyze --format sarif --out simcheck.sarif
    python -m repro.harness analyze --rule SIM-D001 --rule SIM-E203
    python -m repro.harness analyze --update-baseline
    python -m repro.harness analyze --prune-baseline
    python -m repro.harness analyze --list-rules --format json
    python -m repro.harness analyze --modelcheck

Exit status is 1 when any *new* error-severity finding survives the
baseline and inline suppressions (and, with ``--strict``, when any
warning does), 0 otherwise.  See docs/ANALYSIS.md for the rule catalog
and the suppression workflow.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import json as _json

from repro.analysis import all_rules, run_analysis
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.analysis.output import render_json, render_sarif, render_text


def _find_root(start: Path) -> Path:
    """Nearest ancestor holding pyproject.toml (else ``start`` itself)."""
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness analyze",
        description="Run the simcheck static-analysis engine.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=[],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root paths are reported relative to "
        "(default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to suppress every current finding "
        "(prunes stale entries) and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline fingerprints no current finding matches "
        "(existing entries stay untouched), print the pruned count, "
        "exit 0",
    )
    parser.add_argument(
        "--modelcheck",
        action="store_true",
        help="also run the exhaustive TMESI/CST model checker and merge "
        "any SIM-M violation into the report",
    )
    parser.add_argument(
        "--modelcheck-caches",
        type=int,
        default=3,
        metavar="N",
        help="cache count for --modelcheck (default: 3)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as gating too",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also list baselined and inline-suppressed findings (text "
        "format only)",
    )
    return parser


def run_analyze_command(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    rules = all_rules()

    if args.list_rules:
        if args.format == "json":
            catalog = [
                {
                    "id": name,
                    "severity": rules[name].severity,
                    "scope": rules[name].scope,
                    "description": rules[name].description,
                }
                for name in sorted(rules)
            ]
            print(_json.dumps(catalog, indent=2))
        else:
            for name in sorted(rules):
                rule = rules[name]
                print(
                    f"{name}  [{rule.severity:7s}]  [{rule.scope}]  "
                    f"{rule.description}"
                )
        return 0

    if args.rule:
        unknown = [rule_id for rule_id in args.rule if rule_id not in rules]
        if unknown:
            print(f"unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        selected = [rules[rule_id] for rule_id in args.rule]
    else:
        selected = list(rules.values())

    root = Path(args.root).resolve() if args.root else _find_root(Path.cwd().resolve())
    targets = [Path(target) for target in (args.targets or ["src/repro"])]
    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    )

    if args.no_baseline:
        fingerprints = {}
    else:
        try:
            fingerprints = load_baseline(baseline_path)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2

    if args.update_baseline:
        # Re-run with no baseline so every current finding is captured.
        report = run_analysis(root, targets, rules=selected)
        write_baseline(baseline_path, report.findings)
        print(
            f"simcheck: baseline updated with {len(report.findings)} "
            f"finding(s) -> {baseline_path}"
        )
        return 0

    if args.prune_baseline:
        report = run_analysis(root, targets, rules=selected)
        try:
            kept, pruned = prune_baseline(baseline_path, report.findings)
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(
            f"simcheck: pruned {pruned} stale baseline entr"
            f"{'y' if pruned == 1 else 'ies'} ({kept} kept) "
            f"-> {baseline_path}"
        )
        return 0

    report = run_analysis(
        root, targets, rules=selected, baseline_fingerprints=fingerprints
    )

    if args.modelcheck:
        from repro.analysis.modelcheck import check, findings_from

        result = check(caches=args.modelcheck_caches)
        report.findings.extend(findings_from(result, root))
        if result.dead_cells:
            print(
                f"modelcheck: {len(result.dead_cells)} dead spec cell(s): "
                + ", ".join(result.dead_cells),
                file=sys.stderr,
            )

    if args.format == "json":
        rendered = render_json(report)
    elif args.format == "sarif":
        rendered = render_sarif(report, selected)
    else:
        rendered = render_text(report, verbose=args.verbose)

    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        # Keep the one-line summary on stdout so CI logs stay readable.
        print(
            f"simcheck: wrote {args.format} report to {args.out} "
            f"({len(report.errors)} error(s), {len(report.warnings)} "
            "warning(s))"
        )
    else:
        sys.stdout.write(rendered)

    return report.exit_code(strict=args.strict)
