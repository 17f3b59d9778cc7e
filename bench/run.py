"""The GraphSession stream benchmark: one command, every metric by name.

    python bench/run.py --all [--seed S] [--reps 3] [--out PATH]
    python bench/run.py --all --trace
    python bench/run.py --workload NAME --seed N --seconds T --trace 0|1

``--all`` runs the four workloads of ``bench/workloads.py``, each in its
own fresh process (``bench/worker.py``), checks every answer against an
exact oracle, and prints the nine end-to-end metrics of each with unit,
median over reps and range.  ``--trace`` is the separate traced pass: one
untraced rep for the baseline, one traced rep for the per-layer metrics,
a Chrome trace per workload in ``bench/out/`` and a "where the time
goes" table.  End-to-end numbers never come from the traced rep.

The ``--workload`` form is the one ``BENCHMARK.json`` names: one workload,
measured for at least ``--seconds`` seconds and at least ``--reps`` reps,
with the result as one JSON object on the last line of standard output.
The exit code is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, SRC)

import numpy  # noqa: E402

import workloads  # noqa: E402
from repro import kernels  # noqa: E402
from repro.mpc.backend import available_cpus  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
#: failure_rate is printed with the others, but the driver of
#: BENCHMARK.json takes failures from ``attempted`` / ``failed`` (a metric
#: there may never read 0), so the file does not list it.
END_TO_END = CONTRACT["end_to_end"] + [
    {"name": "failure_rate", "unit": "ratio", "better": "lower",
     "bound": 0.0}]
PER_LAYER = CONTRACT["per_layer"]


def run_worker(workload: str, args, trace_path: Optional[str] = None
               ) -> Dict[str, object]:
    """One workload in a fresh process; its result object."""
    spec = {"workload": workload, "seed": args.seed, "reps": args.reps,
            "seconds": args.seconds, "toy": args.toy, "trace": trace_path}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("REPRO_KERNELS_PROFILE", None)
    if trace_path:
        env["REPRO_KERNELS_PROFILE"] = "1"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"),
         json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"worker for {workload} printed no result "
                         f"(exit code {done.returncode})")
    return json.loads(lines[-1])


def measure(workload: str, args) -> Dict[str, object]:
    """The end-to-end pass and, with ``--trace``, the traced pass too."""
    result = run_worker(workload, args)
    if not args.trace:
        return result
    trace_path = os.path.join(OUT, f"trace_{workload}.json")
    traced = run_worker(workload, args, trace_path)
    for key in ("attempted", "failed"):
        result[key] += traced[key]
    result["errors"] += [f"traced pass: {e}" for e in traced["errors"]]
    if "per_layer" in traced and "phase_p50_ms" in result["end_to_end"]:
        layers = traced["per_layer"]
        layers["trace.overhead_frac"] = (
            traced["end_to_end"]["phase_p50_ms"]["value"]
            / result["end_to_end"]["phase_p50_ms"]["value"] - 1)
        result["per_layer"] = layers
        result["budget"] = traced["budget"]
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result


def provenance(args, wall_s: float) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "cpus": available_cpus(),
        "kernel_tier": kernels.active_tier(),
        "numba_available": kernels.numba_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": args.seed,
        "reps": args.reps,
        "toy": args.toy,
        "wall_s": wall_s,
    }


def fmt(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def print_result(result: Dict[str, object]) -> None:
    params = result["params"]
    print(f"\n== {result['workload']}: n={params['n']}, "
          f"tasks={'+'.join(params['tasks'])}, backend={params['backend']}, "
          f"batch={params['batch_size']}, reps={result['reps']} ==")
    print(f"   why: {result['why']}")
    metrics = result["end_to_end"]
    print(f"    {'metric':<22} {'median':>12} {'min':>12} {'max':>12}  "
          f"{'unit':<7} bound")
    for entry in END_TO_END:
        row = metrics.get(entry["name"])
        if row is None:
            continue
        print(f"    {entry['name']:<22} {fmt(row['value']):>12} "
              f"{fmt(row['min']):>12} {fmt(row['max']):>12}  "
              f"{entry['unit']:<7} {entry['bound']:.0%} {entry['better']}")
    samples = result["samples"]
    print(f"    samples per rep: {samples['timed_phases']} timed phases "
          f"(p90 has {samples['timed_phases'] // 10} beyond it), "
          f"{samples['query_rounds']} query rounds; operations: "
          f"attempted={result['attempted']} failed={result['failed']}")
    theory = result["theory"]
    if "rounds_per_batch_max" in metrics:
        print(f"    rounds_per_batch_max "
              f"{fmt(metrics['rounds_per_batch_max']['value'])} vs "
              f"rounds_bound_per_batch(0.5) = "
              f"{fmt(theory['rounds_bound_per_batch'])}; memory_words_peak "
              f"{fmt(metrics['memory_words_peak']['value'])} vs "
              f"connectivity_total_memory_bound(n) = "
              f"{fmt(theory['connectivity_total_memory_bound'])}")
    for error in result["errors"]:
        print(f"    FAILED {error}")
    if "per_layer" in result:
        print(f"   per layer (traced rep; {result['trace_file']}):")
        for entry in PER_LAYER:
            print(f"    {entry['name']:<44} "
                  f"{fmt(result['per_layer'][entry['name']]):>12}  "
                  f"{entry['unit']}")
        print("   where the time goes:")
        print(f"    {'layer':<14} {'self ms/phase':>14} {'share':>8} "
              f"{'calls/phase':>12}")
        for row in result["budget"]:
            print(f"    {row['layer']:<14} "
                  f"{row['self_ms_per_phase']:>14.3f} "
                  f"{row['share_of_phase']:>8.1%} "
                  f"{row['calls_per_phase']:>12.1f}")


def cross_check(results: Dict[str, Dict[str, object]]) -> None:
    """conn_churn is the fleet's bit-identity oracle: same stream, same
    sketch seed, so the forests at every checked phase must be equal."""
    sequential = results.get("conn_churn")
    fleet = results.get("conn_churn_fleet")
    if not sequential or not fleet or sequential["failed"] or fleet["failed"]:
        return
    fleet["attempted"] += 1
    if sequential["digests"] != fleet["digests"]:
        fleet["failed"] += 1
        fleet["errors"].append("forests differ from conn_churn's")
        print("    FAILED conn_churn_fleet: forests differ from "
              "conn_churn's")
    else:
        print(f"\nconn_churn_fleet forests equal conn_churn's at all "
              f"{len(fleet['digests'])} checked phases")


def contract_line(result: Dict[str, object], traced: bool) -> str:
    """The last line of standard output that BENCHMARK.json's driver
    reads.  It needs a number for every metric, so a per-layer metric
    that does not apply to the workload reads 0 here (and ``null`` in the
    result file)."""
    if traced:
        metrics = {e["name"]: {"value": result["per_layer"][e["name"]] or 0,
                               "unit": e["unit"]} for e in PER_LAYER}
    else:
        metrics = {e["name"]: {"value": result["end_to_end"][e["name"]]
                               ["value"], "unit": e["unit"]}
                   for e in CONTRACT["end_to_end"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true",
                       help="run every workload")
    which.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (the sketch seed stays fixed)")
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh sessions per workload, at least")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting reps until this much time "
                             "has been measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced pass")
    parser.add_argument("--toy", action="store_true",
                        help="smoke-test sizes (n=128, 6 phases)")
    parser.add_argument("--out", help="write the result object here "
                        "(default with --all: bench/out/result.json)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.trace:
        # One untraced rep is the baseline of the one traced rep.
        args.reps, args.seconds = 1, 0.0

    began = time.perf_counter()
    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    results: Dict[str, Dict[str, object]] = {}
    for name in names:
        results[name] = measure(name, args)
        print_result(results[name])
    cross_check(results)
    failed = sum(r["failed"] for r in results.values())

    document = {
        "schema": 1,
        "claim": None,  # this benchmark's own runs claim no gain
        "provenance": provenance(args, time.perf_counter() - began),
        "workloads": results,
    }
    print(f"\nprovenance: {json.dumps(document['provenance'])}")
    out = args.out
    if out is None and args.all:
        out = os.path.join(
            OUT, "result_trace.json" if args.trace else "result.json")
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1)
        print(f"wrote {os.path.relpath(out)}")
    print(f"{'FAILED' if failed else 'ok'}: "
          f"{sum(r['attempted'] for r in results.values())} operations "
          f"attempted, {failed} failed")
    if not args.all:
        # No line when a phase raised: there are no timings to print.
        result = results[args.workload]
        if "setup_s" in result["end_to_end"] and (
                not args.trace or "per_layer" in result):
            print(contract_line(result, bool(args.trace)))
    return 1 if failed else 0


# Behind the guard: the fleet's spawned workers import the main module.
if __name__ == "__main__":
    sys.exit(main())
