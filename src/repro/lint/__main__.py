"""CLI: ``python -m repro.lint [paths...]``.

Exit codes (stable, CI keys on them):

* ``0`` -- clean (after suppressions and baseline filtering),
* ``1`` -- at least one finding,
* ``2`` -- usage or internal error (bad path, unknown rule id).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint import RULE_PACK_VERSION
from repro.lint.engine import run_paths
from repro.lint.reporters import render_json, render_text


def _list_rules() -> str:
    from repro.lint.rules import ALL_RULES

    width = max(len(rule.id) for rule in ALL_RULES)
    lines = [f"rule pack {RULE_PACK_VERSION} (docs/lint-rules.md):"]
    for rule in ALL_RULES:
        lines.append(f"  {rule.id:<{width}}  {rule.title}: "
                     f"{rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based MPC-invariant linter for this repo.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", dest="fmt")
    parser.add_argument("--select",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--baseline",
                        help="JSON baseline file; matching findings "
                             "are filtered out")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite --baseline from this run's "
                             "findings and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule pack and exit")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule wall time and finding "
                             "counts after the report")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = args.select.split(",") if args.select else None
    try:
        if args.write_baseline:
            if not args.baseline:
                parser.error("--write-baseline requires --baseline")
            report = run_paths(args.paths, select=select)
            from repro.lint.baseline import write_baseline

            count = write_baseline(args.baseline, report.findings)
            print(f"wrote {count} finding(s) to {args.baseline}")
            return 0
        report = run_paths(args.paths, select=select,
                           baseline_path=args.baseline)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = (render_json(report) if args.fmt == "json"
           else render_text(report))
    print(out, end="" if out.endswith("\n") else "\n")
    if args.stats:
        from repro.lint.reporters import render_stats

        print(render_stats(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
