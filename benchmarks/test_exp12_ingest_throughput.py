"""EXP-12: sketch ingestion throughput, per-edge vs vectorized bulk.

The batch-dynamic regime funnels ~O(n^phi) updates per phase through the
per-vertex AGM sketches, so ingestion throughput bounds every
algorithm's wall-clock.  EXP-12 measures edges/second for the same edge
batch ingested

* **sequentially** -- one :meth:`VertexSketch.apply_edge` call per
  (edge, endpoint), the scalar reference path, and
* **bulk** -- one :meth:`SketchFamily.apply_edges_bulk` call, the
  group-by-endpoint scatter used by ``MPCConnectivity`` phases and
  ``preload``,

asserts the two leave bit-identical sketch state, and writes the
numbers to ``BENCH_ingest.json`` so future PRs can track the perf
trajectory.

The experiment runs at two ``(n, batch)`` points -- (512, 256) and
(1024, 512) -- per the ROADMAP's trajectory-tracking item; the file
keeps the n=512 numbers at the top level for continuity and the full
per-point table under ``"points"``.  Families are pinned to the
*sequential* execution backend: this measures the vectorization win in
isolation; the backend comparison is EXP-14
(``test_exp14_backend_throughput.py``), and the production query path
(membership groups) is measured end to end by ``bench/``.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from conftest import update_bench_ingest

from repro.analysis import print_table
from repro.sketch import SketchFamily

#: (n, batch, reps) measurement points; the first is the legacy point
#: whose keys stay at the top level of BENCH_ingest.json.
POINTS = [
    (512, 256, 7),
    (1024, 512, 5),
]
# The measured margin is ~9x on a quiet machine; CI sets the env var
# to a conservative floor so shared-runner noise cannot fail the build
# while local/driver runs still enforce the full 5x contract.
SPEEDUP_FLOOR = float(os.environ.get("INGEST_SPEEDUP_FLOOR", "5.0"))

def _columns_for(n: int) -> int:
    """The algorithms' default column count, max(4, ceil(2 log2 n))."""
    return max(4, math.ceil(2.0 * math.log2(max(2, n))))


def _edge_batch(n: int, batch: int):
    rng = np.random.default_rng(2024)
    edges = set()
    while len(edges) < batch:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    return edges, us, vs


def _fresh_family(n: int):
    family = SketchFamily(n, columns=_columns_for(n),
                          rng=np.random.default_rng(42),
                          backend="sequential")
    sketches = {v: family.new_vertex_sketch(v) for v in range(n)}
    return family, sketches


def _time_sequential(n, edges):
    family, sketches = _fresh_family(n)
    start = time.perf_counter()
    for u, v in edges:
        sketches[u].apply_edge(u, v, +1)
        sketches[v].apply_edge(u, v, +1)
    return time.perf_counter() - start, family


def _time_bulk(n, us, vs):
    family, _ = _fresh_family(n)
    deltas = np.ones(len(us), dtype=np.int64)
    start = time.perf_counter()
    family.apply_edges_bulk(us, vs, deltas)
    return time.perf_counter() - start, family


def _measure_ingest_point(n: int, batch: int, reps: int) -> dict:
    edges, us, vs = _edge_batch(n, batch)

    # Warm-up (first-call numpy dispatch), then best-of-reps each way.
    _time_sequential(n, edges)
    _time_bulk(n, us, vs)
    seq_time, seq_family = min(
        (_time_sequential(n, edges) for _ in range(reps)),
        key=lambda pair: pair[0],
    )
    bulk_time, bulk_family = min(
        (_time_bulk(n, us, vs) for _ in range(reps)),
        key=lambda pair: pair[0],
    )

    # Same randomness, same edges => the two paths must leave
    # bit-identical pool state (the tentpole's correctness contract).
    assert np.array_equal(seq_family.pool.cells, bulk_family.pool.cells)

    seq_eps = batch / seq_time
    bulk_eps = batch / bulk_time
    return {
        "n": n,
        "batch": batch,
        "columns": _columns_for(n),
        "sequential_edges_per_sec": seq_eps,
        "bulk_edges_per_sec": bulk_eps,
        "speedup": bulk_eps / seq_eps,
        "reps": reps,
        "_seq_time": seq_time,
        "_bulk_time": bulk_time,
    }


def test_exp12_ingest_throughput(benchmark):
    rows = []
    results = []
    for n, batch, reps in POINTS:
        point = _measure_ingest_point(n, batch, reps)
        results.append(point)
        for name, secs, eps in (
            ("per-edge", point["_seq_time"],
             point["sequential_edges_per_sec"]),
            ("bulk", point["_bulk_time"], point["bulk_edges_per_sec"]),
        ):
            rows.append({
                "n": n,
                "batch": batch,
                "path": name,
                "time/batch (ms)": round(secs * 1e3, 3),
                "edges/sec": round(eps),
            })
    speedups = ", ".join("%.1fx" % p["speedup"] for p in results)
    print_table(rows, title=f"EXP-12 ingestion throughput "
                            f"(speedups: {speedups})")

    points = [{k: v for k, v in p.items() if not k.startswith("_")}
              for p in results]
    update = dict(points[0])  # legacy top-level keys: the n=512 point
    update["points"] = points
    update_bench_ingest(lambda payload: payload.update(update))

    for point in points:
        assert point["speedup"] >= SPEEDUP_FLOOR, (
            f"bulk ingestion speedup {point['speedup']:.2f}x at "
            f"n={point['n']} below the {SPEEDUP_FLOOR}x floor"
        )

    n, batch, _ = POINTS[0]
    _, us, vs = _edge_batch(n, batch)
    benchmark(lambda: _time_bulk(n, us, vs)[0])


# ---------------------------------------------------------------------------
# EXP-12 deletion-mix point (ROADMAP: deletion-heavy trajectory)
# ---------------------------------------------------------------------------

#: The deletion-mix point: (n, base batch, reps) plus the mix shape --
#: insert everything, delete 60% of it, reinsert half of the deleted
#: edges (the insert->delete->reinsert churn of a turnover-heavy
#: stream).  >=30% of the resulting update sequence is deletions.
MIX_POINT = (512, 256, 7)


def _mixed_update_arrays(n: int, batch: int):
    """An insert/delete/reinsert sequence over one edge batch."""
    edges, us, vs = _edge_batch(n, batch)
    cut = int(0.6 * batch)
    re = cut // 2
    seq_us = np.concatenate([us, us[:cut], us[:re]])
    seq_vs = np.concatenate([vs, vs[:cut], vs[:re]])
    deltas = np.concatenate([
        np.ones(batch, dtype=np.int64),
        -np.ones(cut, dtype=np.int64),
        np.ones(re, dtype=np.int64),
    ])
    return seq_us, seq_vs, deltas


def test_exp12_deletion_mix(benchmark):
    """Deletion-heavy ingestion throughput, per-edge vs bulk.

    Deletions take the same scatter with ``delta = -1``, so the bulk
    win must survive a churn-shaped stream (the regime the batch-
    dynamic deletion phases actually see); recorded under
    ``deletion_mix`` in BENCH_ingest.json.
    """
    n, batch, reps = MIX_POINT
    us, vs, deltas = _mixed_update_arrays(n, batch)
    total = len(deltas)
    delete_fraction = float((deltas < 0).sum()) / total
    assert delete_fraction >= 0.30, "the mix must stay deletion-heavy"

    def run_sequential():
        family, sketches = _fresh_family(n)
        start = time.perf_counter()
        for u, v, d in zip(us.tolist(), vs.tolist(), deltas.tolist()):
            sketches[u].apply_edge(u, v, d)
            sketches[v].apply_edge(u, v, d)
        return time.perf_counter() - start, family

    def run_bulk():
        family, _ = _fresh_family(n)
        start = time.perf_counter()
        family.apply_edges_bulk(us, vs, deltas)
        return time.perf_counter() - start, family

    run_sequential()
    run_bulk()
    seq_time, seq_family = min((run_sequential() for _ in range(reps)),
                               key=lambda pair: pair[0])
    bulk_time, bulk_family = min((run_bulk() for _ in range(reps)),
                                 key=lambda pair: pair[0])
    assert np.array_equal(seq_family.pool.cells, bulk_family.pool.cells)

    speedup = (total / bulk_time) / (total / seq_time)
    print_table(
        [{"path": name, "time/stream (ms)": round(secs * 1e3, 3),
          "updates/sec": round(total / secs)}
         for name, secs in (("per-edge", seq_time), ("bulk", bulk_time))],
        title=f"EXP-12 deletion mix (n={n}, updates={total}, "
              f"{delete_fraction:.0%} deletions, {speedup:.1f}x)",
    )
    update_bench_ingest(lambda payload: payload.update({
        "deletion_mix": {
            "n": n,
            "updates": total,
            "delete_fraction": delete_fraction,
            "columns": _columns_for(n),
            "sequential_updates_per_sec": total / seq_time,
            "bulk_updates_per_sec": total / bulk_time,
            "speedup": speedup,
            "reps": reps,
        }
    }))
    assert speedup >= SPEEDUP_FLOOR, (
        f"deletion-mix bulk speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    benchmark(lambda: run_bulk()[0])
