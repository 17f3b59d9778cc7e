"""Compare two result files of ``bench/run.py --all``.

    python bench/compare.py BASE.json NEW.json

For every workload and end-to-end metric: base, new, new/base, the
metric's bound from ``BENCHMARK.json`` and a verdict.

* ``within`` -- the medians differ by no more than the bound;
* ``better`` / ``worse`` -- they differ by more, and no rep of one side
  reads as the other side's reps do (the rep ranges do not overlap);
* ``unresolved`` -- they differ by more, but the rep ranges overlap: the
  run-to-run spread is wider than the bound, so this is not "unchanged".

Exits non-zero on any ``worse`` and on a higher ``failure_rate``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(base: Dict[str, float], new: Dict[str, float], better: str,
            bound: float) -> str:
    """``base`` and ``new`` hold a metric's ``value``, ``min`` and ``max``
    over reps; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "lower" else -1
    # Positive = worse, as a share of the base median.
    change = sign * (new["value"] - base["value"]) / abs(base["value"] or 1)
    if abs(change) <= bound:
        return "within"
    overlap = new["min"] <= base["max"] and base["min"] <= new["max"]
    if overlap:
        return "unresolved"
    return "worse" if change > 0 else "better"


def compare(base: Dict[str, object], new: Dict[str, object],
            metrics: List[Dict[str, object]]) -> int:
    """Print the table; the number of regressions."""
    regressions = 0
    print(f"{'workload':<18} {'metric':<22} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for name, old in base["workloads"].items():
        now = new["workloads"].get(name)
        if now is None:
            print(f"{name:<18} missing from the new file")
            regressions += 1
            continue
        for metric in metrics:
            a = old["end_to_end"].get(metric["name"])
            b = now["end_to_end"].get(metric["name"])
            if a is None or b is None:
                print(f"{name:<18} {metric['name']:<22} missing")
                regressions += 1
                continue
            outcome = verdict(a, b, metric["better"], metric["bound"])
            ratio = b["value"] / a["value"] if a["value"] else float("nan")
            print(f"{name:<18} {metric['name']:<22} {a['value']:>12.6g} "
                  f"{b['value']:>12.6g} {ratio:>9.3f} "
                  f"{metric['bound']:>6.0%}  {outcome}")
            regressions += outcome == "worse"
    return regressions


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1]) as handle:
        base = json.load(handle)
    with open(argv[2]) as handle:
        new = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    # Any failure more than the base had is a regression, whatever the
    # timings say; verdict() has no bound to give it.
    metrics.append({"name": "failure_rate", "better": "lower", "bound": 0.0})
    regressions = compare(base, new, metrics)
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
