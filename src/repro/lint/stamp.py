"""A cached repo-level lint verdict for harnesses to embed.

The benchmark harness stamps every ``BENCH_ingest.json`` write with the
rule-pack version and finding count, so a perf trajectory entry also
records that the tree it measured obeyed the MPC conventions (a number
measured on a tree with unjustified hot-path loops or uncharged bulk
ops is not comparable to one that wasn't).
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Dict


@lru_cache(maxsize=1)
def lint_stamp() -> Dict[str, object]:
    """Lint ``src/`` against the checked-in baseline, once per process.

    Returns ``{"rule_pack", "findings", "suppressed", "errors"}`` where
    ``findings`` is the unsuppressed/unbaselined count and ``errors``
    renders each one -- callers that gate (the benchmark conftest)
    fail fast when ``findings`` is nonzero.
    """
    from repro.lint import RULE_PACK_VERSION
    from repro.lint.engine import find_project_root, run_paths

    root = find_project_root(Path(__file__))
    baseline = root / "lint-baseline.json"
    report = run_paths(
        [str(root / "src")],
        baseline_path=str(baseline) if baseline.exists() else None,
    )
    return {
        "rule_pack": RULE_PACK_VERSION,
        "findings": len(report.findings),
        "suppressed": len(report.suppressed),
        "errors": [f.render() for f in report.findings],
    }
