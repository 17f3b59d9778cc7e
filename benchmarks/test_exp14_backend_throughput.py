"""EXP-14: execution-backend throughput, sequential vs shared-memory.

EXP-12 measures the vectorization win inside one process; EXP-14
measures the *execution backend* layer on top of it
(:mod:`repro.mpc.backend`): the same fused ingestion + query workload
run on

* the ``sequential`` backend (in-process, the default), and
* the ``shared_memory`` backend at 2 and 4 worker processes, where the
  family's :class:`~repro.sketch.sparse_recovery.RecoveryPool` lives in
  shared memory and vertex rows are sharded across workers.

One rep is a realistic phase-shaped unit of work at n=1024: bulk-ingest
a 4096-edge batch, answer one AGM halving iteration's fused zero-test +
cut-edge recovery over all vertex rows shipped as contiguous 8-row
membership groups (``SketchFamily.query_iteration_groups``, the query
shape every driver uses), then bulk-delete the batch
(which keeps the pool state identical across reps and backends).  The
experiment asserts the parallel backend is **bit-identical** to the
sequential one -- same pool cells, same query answers -- and records
wall-clock throughput per backend into ``BENCH_ingest.json``.

The speedup gate is core- and tier-aware: descriptor shipping cannot
beat a single CPU, so the acceptance floor (``BACKEND_SPEEDUP_FLOOR``,
combined ingestion+query at 4 workers: >2x on the compiled
``REPRO_KERNELS`` tier, >1.5x on the numpy fallback) arms only when at
least 4 CPUs are actually available (affinity-aware); below that the
numbers are recorded, the parity assertions still run, and a sanity
floor keeps the overhead bounded.  The recorded ``cpus`` and
``kernels`` fields make every trajectory point interpretable.

``test_exp14_small_batch_fanout`` adds the *small-batch* point (batch
<= 64): a dispatch that small is all fan-out latency, so it isolates
the descriptor transport -- the preallocated shared-memory ring buffer
(tokens only on the pipe) against the legacy per-call pickled
descriptors -- and records the win under
``exp14_backend.small_batch`` with its own core-aware gate
(``SMALL_BATCH_RING_FLOOR``).
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import update_bench_ingest

from repro import kernels
from repro.analysis import print_table
from repro.mpc.backend import (
    SharedMemoryBackend,
    available_cpus,
    get_backend,
)
from repro.sketch import SketchFamily

N = 1024
BATCH = 4096
COLUMNS = 20  # max(4, 2*log2(n)) for n = 1024, the algorithms' default
REPS = 5
WORKER_COUNTS = (2, 4)
QUERY_COLUMN = 0
#: The query phase ships every vertex row once, as N/8 supernodes.
GROUP_ROWS = 8
GROUPS = [np.arange(start, start + GROUP_ROWS, dtype=np.int64)
          for start in range(0, N, GROUP_ROWS)]

#: The small-batch fan-out point: at batch <= 64 a dispatch is all
#: latency, no work, so it measures the descriptor *transport* -- the
#: ring buffer vs per-call pipe pickling.
SMALL_BATCH = 64
SMALL_REPS = 30
SMALL_WORKERS = 2

#: Floor on the 4-worker combined speedup.  Defaults are tier-aware
#: (PR 8): on the compiled kernel tier the slimmed dispatch loop plus
#: jitted cores must clear the 2x acceptance contract at >= 4 CPUs; on
#: the numpy tier the original 1.5x contract holds; and a
#: bounded-overhead sanity check (descriptor shipping must stay within
#: ~3x of sequential) applies when the host cannot physically run
#: workers in parallel -- a 1-CPU container measures ~0.5-0.8x.
if available_cpus() >= 4:
    _DEFAULT_FLOOR = "2.0" if kernels.active_tier() == "numba" else "1.5"
else:
    _DEFAULT_FLOOR = "0.35"
SPEEDUP_FLOOR = float(os.environ.get("BACKEND_SPEEDUP_FLOOR",
                                     _DEFAULT_FLOOR))


def _edge_batch(count: int = BATCH, seed: int = 2026):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, N, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    return us, vs


def _run_backend(backend, us, vs):
    """Best-of-REPS phase time on one backend, plus final state."""
    family = SketchFamily(N, columns=COLUMNS,
                          rng=np.random.default_rng(7), backend=backend)
    ones = np.ones(len(us), dtype=np.int64)

    def phase():
        family.apply_edges_bulk(us, vs, ones)
        answers = family.query_iteration_groups(GROUPS, QUERY_COLUMN)
        family.apply_edges_bulk(us, vs, -ones)
        return answers

    phase()  # warm-up (numpy dispatch, worker code paths)
    best = float("inf")
    answers = None
    for _ in range(REPS):
        start = time.perf_counter()
        answers = phase()
        best = min(best, time.perf_counter() - start)

    # Leave the batch ingested so pool cells can be compared across
    # backends in a non-trivial state.
    family.apply_edges_bulk(us, vs, ones)
    return best, answers, family


def test_exp14_backend_throughput(benchmark):
    us, vs = _edge_batch()
    cpus = available_cpus()

    seq_time, seq_answers, seq_family = _run_backend(
        get_backend("sequential"), us, vs
    )
    rows = [{
        "backend": "sequential",
        "workers": 1,
        "time/phase (ms)": round(seq_time * 1e3, 3),
        "edges+queries/sec": round((2 * BATCH + N) / seq_time),
        "speedup": 1.0,
    }]

    measured = {}
    for workers in WORKER_COUNTS:
        backend = SharedMemoryBackend(num_workers=workers)
        try:
            shm_time, shm_answers, shm_family = _run_backend(
                backend, us, vs
            )
            # The acceptance contract: the parallel backend must be
            # bit-identical to the sequential one -- same pool cells,
            # same zero tests, same recovered edges.
            assert np.array_equal(seq_family.pool.cells,
                                  shm_family.pool.cells)
            assert np.array_equal(seq_answers[0], shm_answers[0])
            assert seq_answers[1] == shm_answers[1]
        finally:
            backend.close()
        speedup = seq_time / shm_time
        measured[str(workers)] = {
            "time_per_phase_sec": shm_time,
            "throughput_per_sec": (2 * BATCH + N) / shm_time,
            "speedup": speedup,
        }
        rows.append({
            "backend": "shared_memory",
            "workers": workers,
            "time/phase (ms)": round(shm_time * 1e3, 3),
            "edges+queries/sec": round((2 * BATCH + N) / shm_time),
            "speedup": round(speedup, 2),
        })

    print_table(rows, title=f"EXP-14 backend throughput "
                            f"(n={N}, batch={BATCH}, cpus={cpus}, "
                            f"floor {SPEEDUP_FLOOR}x)")

    # Merge-update: the small-batch test nests its point under the same
    # key, and a solo run of this test must not wipe it.
    update_bench_ingest(
        lambda payload: payload.setdefault("exp14_backend", {}).update({
            "n": N,
            "batch": BATCH,
            "columns": COLUMNS,
            "group_rows": GROUP_ROWS,
            "reps": REPS,
            "cpus": cpus,
            "sequential_time_per_phase_sec": seq_time,
            "sequential_throughput_per_sec": (2 * BATCH + N) / seq_time,
            "workers": measured,
            "speedup_4_workers": measured["4"]["speedup"],
            "speedup_floor": SPEEDUP_FLOOR,
            "kernel_tier": kernels.active_tier(),
        }))

    assert measured["4"]["speedup"] >= SPEEDUP_FLOOR, (
        f"4-worker combined ingestion+query speedup "
        f"{measured['4']['speedup']:.2f}x below the {SPEEDUP_FLOOR}x "
        f"floor ({cpus} cpus available)"
    )

    # Benchmark one sequential ingest+delete round on the warm family
    # (the full _run_backend would respawn workers per round).
    ones = np.ones(len(us), dtype=np.int64)

    def one_round():
        seq_family.apply_edges_bulk(us, vs, -ones)
        seq_family.apply_edges_bulk(us, vs, ones)

    benchmark(one_round)


# ---------------------------------------------------------------------------
# Small-batch fan-out latency: ring transport vs pipe pickling
# ---------------------------------------------------------------------------

#: Floor on the ring-vs-pipe small-batch speedup.  The ring removes
#: per-dispatch descriptor pickling, which does not need spare cores to
#: win -- but on a contended 1/2-CPU host the numbers are scheduler
#: noise, so the full >=1x gate arms with the same core-awareness as
#: the main EXP-14 floor and a loose sanity bound applies below that.
_SMALL_DEFAULT_FLOOR = "1.0" if available_cpus() >= 4 else "0.5"
SMALL_BATCH_RING_FLOOR = float(os.environ.get("SMALL_BATCH_RING_FLOOR",
                                              _SMALL_DEFAULT_FLOOR))


def _run_small_batch(backend, us, vs):
    """Best-of-reps time for one small ingest+delete dispatch pair."""
    family = SketchFamily(N, columns=COLUMNS,
                          rng=np.random.default_rng(7), backend=backend)
    ones = np.ones(len(us), dtype=np.int64)

    def phase():
        family.apply_edges_bulk(us, vs, ones)
        family.apply_edges_bulk(us, vs, -ones)

    phase()  # warm-up
    best = float("inf")
    for _ in range(SMALL_REPS):
        start = time.perf_counter()
        phase()
        best = min(best, time.perf_counter() - start)
    family.apply_edges_bulk(us, vs, ones)
    return best, family


def test_exp14_small_batch_fanout():
    """The tentpole's latency claim: at batch <= 64 the ring transport
    ships only (seq, offset, length) tokens -- no per-call descriptor
    pickling -- and must not lose to the pickled-pipe path."""
    us, vs = _edge_batch(count=SMALL_BATCH, seed=1312)
    cpus = available_cpus()

    seq_time, seq_family = _run_small_batch(get_backend("sequential"),
                                            us, vs)

    ring_backend = SharedMemoryBackend(num_workers=SMALL_WORKERS)
    try:
        ring_time, ring_family = _run_small_batch(ring_backend, us, vs)
        # Every small-batch dispatch must have taken the ring: zero
        # pickled descriptor fallbacks (the unit-level contract).
        assert ring_backend.ring_dispatches > 0
        assert ring_backend.raw_dispatches == 0
        assert np.array_equal(seq_family.pool.cells,
                              ring_family.pool.cells)
    finally:
        ring_backend.close()

    pipe_backend = SharedMemoryBackend(num_workers=SMALL_WORKERS,
                                       ring_words=0)
    try:
        pipe_time, pipe_family = _run_small_batch(pipe_backend, us, vs)
        assert pipe_backend.ring_dispatches == 0
        assert np.array_equal(seq_family.pool.cells,
                              pipe_family.pool.cells)
    finally:
        pipe_backend.close()

    ring_vs_pipe = pipe_time / ring_time
    rows = [
        {"transport": "sequential (no fan-out)", "time/phase (us)":
            round(seq_time * 1e6, 1), "speedup vs pipe": "-"},
        {"transport": "pipe (pickled descriptors)", "time/phase (us)":
            round(pipe_time * 1e6, 1), "speedup vs pipe": 1.0},
        {"transport": "ring (seq/offset tokens)", "time/phase (us)":
            round(ring_time * 1e6, 1),
            "speedup vs pipe": round(ring_vs_pipe, 2)},
    ]
    print_table(rows, title=f"EXP-14 small-batch fan-out latency "
                            f"(n={N}, batch={SMALL_BATCH}, "
                            f"workers={SMALL_WORKERS}, cpus={cpus}, "
                            f"floor {SMALL_BATCH_RING_FLOOR}x)")

    update_bench_ingest(
        lambda payload: payload.setdefault("exp14_backend", {}).update(
            small_batch={
                "n": N,
                "batch": SMALL_BATCH,
                "workers": SMALL_WORKERS,
                "reps": SMALL_REPS,
                "cpus": cpus,
                "sequential_time_per_phase_sec": seq_time,
                "pipe_time_per_phase_sec": pipe_time,
                "ring_time_per_phase_sec": ring_time,
                "ring_vs_pipe_speedup": ring_vs_pipe,
                "ring_floor": SMALL_BATCH_RING_FLOOR,
                "kernel_tier": kernels.active_tier(),
            }))

    assert ring_vs_pipe >= SMALL_BATCH_RING_FLOOR, (
        f"ring transport small-batch speedup {ring_vs_pipe:.2f}x vs the "
        f"pipe path is below the {SMALL_BATCH_RING_FLOOR}x floor "
        f"({cpus} cpus available)"
    )
