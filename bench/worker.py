"""One workload in one fresh process: sessions, oracle checks, metrics.

``bench/run.py`` starts this file once per workload (and once more, with
``REPRO_KERNELS_PROFILE=1``, for the traced pass), so ``peak_rss_mb`` and
the sketch layer's LRU memos are per workload.  The result is one JSON
object on the last line of standard output.

Load model: closed loop, one client.  The caller submits one batch of
exactly ``session.batch_size`` updates, waits, runs one query round,
submits the next -- the paper's phase model.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import trace as bench_trace
import workloads
from repro import GraphSession
from repro.analysis.theory import (
    connectivity_total_memory_bound,
    rounds_bound_per_batch,
)
from repro.baselines import DynamicConnectivityOracle, UnionFind, is_bipartite
from repro.kernels import profile

#: Oracle checks run after every CHECK_EVERY-th timed phase and the last.
CHECK_EVERY = 10
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Tally:
    """Operations attempted and failed, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, problems: List[str], where: str = "") -> None:
        """One operation; it failed if ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += [where + problem for problem in problems]

    def merge(self, other: "Tally", where: str) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += [where + error for error in other.errors]


def query_round(session: GraphSession, workload: workloads.Workload,
                pairs: List[List[int]]) -> Dict[str, object]:
    answers: Dict[str, object] = {
        "connected": [session.connected(u, v) for u, v in pairs],
        "components": session.num_components(),
        "forest": session.spanning_forest().edges,
    }
    if "bipartiteness" in workload.tasks:
        answers["bipartite"] = session.is_bipartite()
    if "matching" in workload.tasks:
        answers["matching"] = session.matching().edges
    return answers


def check_answers(answers: Dict[str, object], pairs: List[List[int]],
                  oracle: DynamicConnectivityOracle) -> List[str]:
    """Every disagreement between one query round and the exact oracle."""
    problems: List[str] = []
    components = oracle.num_components()
    if answers["components"] != components:
        problems.append(f"num_components {answers['components']} != "
                        f"oracle {components}")
    wrong = sum(bool(got) != oracle.connected(u, v)
                for (u, v), got in zip(pairs, answers["connected"]))
    if wrong:
        problems.append(f"{wrong} of {len(pairs)} connected() answers "
                        "wrong")
    forest = answers["forest"]
    if not all(v in oracle.adj[u] for u, v in forest):
        problems.append("spanning forest holds an edge that is not live")
    joined = UnionFind(oracle.n)
    if not all(joined.union(u, v) for u, v in forest):
        problems.append("spanning forest has a cycle")
    if len(forest) != oracle.n - components:
        problems.append(f"spanning forest has {len(forest)} edges, "
                        f"expected {oracle.n - components}")
    if "bipartite" in answers:
        expected = is_bipartite(oracle.n, oracle.edges())
        if answers["bipartite"] != expected:
            problems.append(f"is_bipartite {answers['bipartite']} != "
                            f"oracle {expected}")
    if "matching" in answers:
        matching = answers["matching"]
        if not all(v in oracle.adj[u] for u, v in matching):
            problems.append("matching holds an edge that is not live")
        ends = [x for edge in matching for x in edge]
        if len(set(ends)) != len(ends):
            problems.append("matching edges share a vertex")
    return problems


def forest_digest(forest) -> str:
    return hashlib.sha1(repr(forest).encode()).hexdigest()


def fleet_problems(session: GraphSession) -> List[str]:
    """A degraded fleet answers correctly at sequential speed; it must
    not pass as a fleet measurement."""
    problems = []
    if session.fleet_health().get("degrades", 0):
        problems.append(f"fleet degraded: {session.fleet_health()}")
    described = session.cluster.backend.describe()
    if "degraded" in described:
        problems.append(f"backend reports itself degraded: {described}")
    return problems


def run_rep(workload: workloads.Workload, seed: int,
            tracer: Optional[bench_trace.Tracer] = None,
            reference: bool = False) -> Dict[str, object]:
    """One fresh session fed the workload's stream.

    With ``reference`` the session is the sequential twin of a fleet
    workload and stops after ``workload.reference_phases`` timed phases.
    """
    fleet = workload.backend != "sequential" and not reference
    timed_phases = (workload.reference_phases if reference
                    else workload.timed_phases)
    tally = Tally()
    started = time.perf_counter()
    session = GraphSession(
        workload.n, tasks=workload.tasks, seed=workloads.SKETCH_SEED,
        backend="sequential" if reference else workload.backend,
        backend_workers=None if reference else workload.backend_workers,
    )
    construct_s = time.perf_counter() - started
    try:
        prefill, timed, pairs = workloads.make_stream(
            workload, seed, session.batch_size)
        for batch in prefill:
            session.apply_batch(batch)
        setup_s = time.perf_counter() - started

        if fleet:
            tally.record(fleet_problems(session), "after construction: ")
        oracle = DynamicConnectivityOracle(workload.n)
        for batch in prefill:
            oracle.apply_batch(batch)
        durations: List[float] = []
        query_durations: List[float] = []
        phases = []
        digests: Dict[str, str] = {}
        stats_before = dict(session.query("connectivity").stats)
        counters_before = profile.counters()
        for index, batch in enumerate(timed[:timed_phases]):
            if tracer is not None:
                tracer.phase = index
            try:
                start = time.perf_counter()
                phase = session.apply_batch(batch)
                middle = time.perf_counter()
                answers = query_round(session, workload, pairs[index])
                end = time.perf_counter()
            except Exception as exc:  # the program failed: count, report
                tally.record([f"{type(exc).__name__}: {exc}"],
                             f"phase {index} raised ")
                break
            finally:
                if tracer is not None:
                    tracer.phase = None
            durations.append(middle - start)
            query_durations.append(end - middle)
            phases.append(phase)
            events = [phase.route.backend_events,
                      *(m.backend_events for m in phase.per_task.values())]
            tally.record(["fleet degraded"] if any(
                e.get("degrades") for e in events) else [],
                f"phase {index}: ")
            oracle.apply_batch(batch)
            if (index + 1) % CHECK_EVERY == 0 or index + 1 == timed_phases:
                tally.record(check_answers(answers, pairs[index], oracle),
                             f"check after phase {index}: ")
                digests[str(index)] = forest_digest(answers["forest"])
        counters_after = profile.counters()

        rep: Dict[str, object] = {
            "setup_s": setup_s,
            "construct_s": construct_s,
            "batch_size": session.batch_size,
            "durations": durations,
            "query_durations": query_durations,
            "rounds": [p.rounds for p in phases],
            "memory_words_peak":
                session.cluster.metrics.peak_total_memory,
            "digests": digests,
            "tally": tally,
        }
        if tally.failed:
            return rep
        if workload.checkpoint:
            rep["checkpoint_mb"] = checkpoint_round_trip(
                session, tracer, timed_phases, tally)
        if fleet:
            tally.record(fleet_problems(session), "after the run: ")
        if tracer is not None and not reference:
            rep["layers"] = layer_metrics(
                session, fleet, tracer, phases, stats_before,
                counters_before, counters_after, rep)
        return rep
    finally:
        session.close(close_backend=True)


def checkpoint_round_trip(session: GraphSession,
                          tracer: Optional[bench_trace.Tracer],
                          phase: int, tally: Tally) -> float:
    """checkpoint -> restore; the restored session must answer alike.
    Returns the checkpoint's size in MiB."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"checkpoint_{os.getpid()}.bin")
    if tracer is not None:
        tracer.phase = phase  # past the timed phases: spans of their own
    try:
        session.checkpoint(path)
        restored = GraphSession.restore(path)
        if tracer is not None:
            tracer.phase = None
        try:
            same = (
                restored.spanning_forest().edges
                == session.spanning_forest().edges
                and restored.is_bipartite() == session.is_bipartite()
                and restored.matching().edges == session.matching().edges
            )
        finally:
            restored.close()
        tally.record([] if same else
                     ["restored session answers differently"])
        return os.path.getsize(path) / 2 ** 20
    finally:
        if tracer is not None:
            tracer.phase = None
        if os.path.exists(path):
            os.remove(path)


def layer_metrics(session, fleet, tracer, phases, stats_before,
                  counters_before, counters_after, rep
                  ) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced rep (``None`` = the layer did
    no observable work on this workload)."""
    count = len(phases)
    updates = count * rep["batch_size"]
    layers = tracer.layers(count)
    layers.update(bench_trace.profile_layers(
        counters_before, counters_after, count, fleet))
    layers["session.checkpoint_mb"] = rep.get("checkpoint_mb")

    stats = session.query("connectivity").stats
    for key in ("tree_edge_deletions", "replacement_edges",
                "sketch_failures"):
        layers[f"core.connectivity.{key}"] = stats[key] - stats_before[key]
    layers["core.connectivity.agm_iterations_max"] = stats["agm_iterations"]
    deleted = layers["core.connectivity.tree_edge_deletions"]
    layers["core.connectivity.replacement_ratio"] = (
        layers["core.connectivity.replacement_edges"] / deleted
        if deleted else None)

    snapshots = [m for p in phases for m in (p.route, *p.per_task.values())]
    layers["mpc.rounds_per_batch_p50"] = statistics.median(
        p.rounds for p in phases)
    layers["mpc.words_sent_per_update"] = (
        sum(m.words_sent for m in snapshots) / updates)
    layers["mpc.capacity_violations"] = sum(
        m.capacity_violations for m in snapshots)

    backend = session.cluster.backend
    health = session.fleet_health()
    layers["mpc.backend.ring_dispatches"] = (
        backend.ring_dispatches if fleet else None)
    layers["mpc.backend.raw_dispatches"] = (
        backend.raw_dispatches if fleet else None)
    for key in ("respawns", "retries", "degrades"):
        layers[f"mpc.backend.{key}"] = health[key] if fleet else None
    layers["mpc.backend.spawn_s"] = rep["construct_s"] if fleet else None
    return layers


def end_to_end(rep: Dict[str, object]) -> Dict[str, float]:
    durations = rep["durations"]
    return {
        "setup_s": rep["setup_s"],
        "updates_per_s": len(durations) * rep["batch_size"]
        / sum(durations),
        "phase_p50_ms": statistics.median(durations) * 1e3,
        "phase_p90_ms": float(np.percentile(durations, 90)) * 1e3,
        "query_p50_ms": statistics.median(rep["query_durations"]) * 1e3,
        "rounds_per_batch_max": max(rep["rounds"]),
        "memory_words_peak": rep["memory_words_peak"],
    }


def run_workload(spec: Dict[str, object]) -> Dict[str, object]:
    """Warm up, run the reps, and reduce them to medians.

    ``spec`` keys: ``workload``, ``seed``, ``reps`` and ``seconds`` (reps
    keep starting until both are met), ``toy``, ``trace`` (a path: run
    one traced rep instead and write its Chrome trace there).
    """
    workload = workloads.WORKLOADS[spec["workload"]]
    if spec.get("toy"):
        workload = workload.toy()
    seed = int(spec["seed"])
    tracer = None
    if spec.get("trace"):
        tracer = bench_trace.Tracer()
        tracer.install()
    tally = Tally()
    try:
        # Untimed warm-up: imports, numpy dispatch caches, sketch memos.
        run_rep(workloads.WORKLOADS["conn_churn"].toy(n=256, timed_phases=4),
                seed)
        reference = None
        if workload.reference_phases:
            reference = run_rep(workload, seed, tracer, reference=True)
            tally.merge(reference["tally"], "sequential reference: ")
            if tracer is not None:
                tracer.reset()

        reps: List[Dict[str, object]] = []
        want = 1 if tracer is not None else int(spec["reps"])
        seconds = 0.0 if tracer is not None else float(spec["seconds"])
        began = time.perf_counter()
        while len(reps) < want or time.perf_counter() - began < seconds:
            gc.collect()  # the previous session's pool, before the next
            reps.append(run_rep(workload, seed, tracer))
            tally.merge(reps[-1]["tally"], f"rep {len(reps) - 1}: ")
            if tally.failed:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    first = reps[0]
    metrics: Dict[str, Dict[str, object]] = {}
    # A failed check leaves the timings whole; a phase that raised does not.
    if all(len(rep["durations"]) == workload.timed_phases for rep in reps):
        per_rep = [end_to_end(rep) for rep in reps]
        for name in per_rep[0]:
            values = [row[name] for row in per_rep]
            metrics[name] = {"value": statistics.median(values),
                             "min": min(values), "max": max(values)}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = {"value": rss, "min": rss, "max": rss}
        # Same stream, same sketch seed: every rep must count the same
        # rounds and words and hold the same forests, and the fleet the
        # same forests as its sequential twin.
        tally.record(
            [f"{name} differs between reps"
             for name in ("rounds_per_batch_max", "memory_words_peak")
             if metrics[name]["min"] != metrics[name]["max"]]
            + ["spanning forests differ between reps"
               for rep in reps[1:] if rep["digests"] != first["digests"]])
        if reference is not None:
            tally.record(
                [f"forest after phase {index} differs from the fleet's"
                 for index, digest in reference["digests"].items()
                 if first["digests"][index] != digest],
                "sequential reference: ")
    rate = tally.failed / tally.attempted
    metrics["failure_rate"] = {"value": rate, "min": rate, "max": rate}

    result: Dict[str, object] = {
        "workload": workload.name,
        "why": workload.why,
        "params": {**workload.params(), "batch_size": first["batch_size"]},
        "reps": len(reps),
        "samples": {"timed_phases": len(first["durations"]),
                    "query_rounds": len(first["query_durations"])},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "end_to_end": metrics,
        "digests": first["digests"],
        "theory": {
            "rounds_bound_per_batch": rounds_bound_per_batch(0.5),
            "connectivity_total_memory_bound":
                connectivity_total_memory_bound(workload.n),
        },
    }
    if "layers" in first:
        layers = first["layers"]
        layers["mpc.backend.speedup_vs_sequential"] = None
        if reference is not None:
            # Both sides traced, same process, same leading phases.
            shared = len(reference["durations"])
            layers["mpc.backend.speedup_vs_sequential"] = (
                sum(reference["durations"])
                / sum(first["durations"][:shared]))
        result["per_layer"] = layers
        result["budget"] = tracer.budget(len(first["durations"]))
        os.makedirs(os.path.dirname(spec["trace"]), exist_ok=True)
        tracer.write_chrome(spec["trace"])
    return result


def main(argv: List[str]) -> int:
    result = run_workload(json.loads(argv[1]))
    print(json.dumps(result))
    return 1 if result["failed"] else 0


# The fleet starts its workers with the spawn method, which imports this
# file again in each worker: without the guard the workers crash, the
# supervisor degrades to in-process, and the run "succeeds" at
# sequential speed.
if __name__ == "__main__":
    sys.exit(main(sys.argv))
