"""Execution backends: where the sketch-pool work actually runs.

The cluster simulator *charges* MPC rounds and words per machine; this
module runs the work those charges describe.  An
:class:`ExecutionBackend` turns the family-level bulk operations --
edge-batch ingestion into a
:class:`~repro.sketch.sparse_recovery.RecoveryPool` and the fused
zero-test / cut-edge recovery over merged *groups* of pool rows -- into
*work descriptors* (numpy index arrays) and decides where they run:

* :class:`SequentialBackend` (the default) runs them in-process: each
  routed call is one call to the op table (:func:`_execute_op`) on the
  whole batch.  Zero dependencies, fully deterministic.
* :class:`SharedMemoryBackend` splits every routed call into one share
  per worker thread and runs the shares through the same
  :func:`_execute_op` on a thread pool over the one in-process pool.
  Scatter shares follow the block partition
  :class:`~repro.mpc.partition.VertexPartition` uses for machines, so
  each thread writes only its own block of rows; group reads are pure,
  so group shares are contiguous slices balanced by member count.

Choosing a backend
------------------
Results are **bit-identical** across backends: the scatter shares write
disjoint rows, integer addition is order-independent, and a cell's
fingerprint is its canonical residue mod p whichever thread added to
it.  Pick by workload, not by correctness:

* ``sequential`` -- always the right default.  On a 2-CPU host it is
  the faster of the two: the Euler-tour work is serial and the thread
  handoff costs more than the numpy kernels win back.
* ``shared_memory`` -- spreads the pool scatters and group queries over
  ``min(4, cpus)`` threads by default; numpy releases the GIL inside
  the kernels, so large batches on many cores can overlap.

The executor is chosen once, where the work starts:
``GraphSession(backend=..., backend_workers=...)`` or
``Cluster(config, backend=...)`` take one of the two names or an
instance, and :func:`open_backend` turns it into a live backend.
Nested clusters and sketch families receive that instance; whoever
created it owns it, and ``close()`` closes it.

A backend is a plain object its holders reference directly: the routed
calls take the pool itself, so nothing is registered, and a pickled
backend is its class and worker count, so a checkpoint carries no
threads and unpickling builds one fresh backend that every cluster and
family of the restored session shares.

Failure model: a share that raises re-raises its exception unchanged
in the caller, but only after every share of the call has finished, so
no thread is still writing when the caller sees it.  A closed backend
raises :class:`~repro.errors.SketchError`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SketchError
from repro.mpc.config import check_count
from repro.mpc.partition import VertexPartition

SEQUENTIAL = "sequential"
SHARED_MEMORY = "shared_memory"


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


class ExecutionBackend:
    """Protocol for executing pool-level sketch work.

    Three routed methods carry all sketch work, one bulk write and two
    bulk reads, each taking the :class:`~repro.sketch.sparse_recovery.
    RecoveryPool` and its shared randomness (hashing / fingerprint
    checks) directly:

    * ``scatter_edges`` ingests an edge batch into both endpoints'
      rows (op ``apply``);
    * ``query_groups`` / ``zero_groups`` answer the AGM-iteration
      queries over *membership groups* of pool rows, which the backend
      merges where the pool lives (ops ``gquery`` / ``gzero``).
      Groups have one shape: ``members`` (every group's rows back to
      back) and ``glens`` (the group sizes).  A single row is the
      size-1 group; there is no per-row query surface.

    The op names are listed once in :data:`ROUTED_OPS` and executed by
    :func:`_execute_op`; ``tests/test_backend.py`` checks the protocol
    methods and the op table stay closed over each other.
    ``last_split`` is diagnostics: the per-*worker-shard* entry counts
    of the most recent routed call (tests read it to see how work fanned
    out).  Worker shards are not model machines: the cost model charges
    the same rounds and words on every backend.
    """

    name: str = "abstract"
    num_workers: int = 1

    def __init__(self) -> None:
        self.last_split: Dict[int, int] = {}

    def __reduce__(self):
        """Pickle as the class and its constructor arguments: threads
        are process-local, so unpickling builds a fresh backend."""
        return type(self), ()

    # -- routed work ----------------------------------------------------
    def scatter_edges(self, pool, randomness, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        """Ingest one edge batch: ``+delta`` into row ``hi[i]``,
        ``-delta`` into row ``lo[i]`` at coordinate ``idxs[i]``."""
        raise NotImplementedError

    # -- routed supernode (group) work ----------------------------------
    # The AGM halving iterations query *merged* supernode sketches.
    # Instead of materialising merged cells, these ops take fragment
    # **membership** (flat ``members`` + ``glens``); the backend merges
    # the member rows where the pool lives and answers bit-identically
    # to merging first (sum + query commute, see
    # SketchFamily.query_iteration_groups).

    def query_groups(self, pool, randomness, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fused zero test + one-column recovery per merged group."""
        raise NotImplementedError

    def zero_groups(self, pool, randomness, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        """Per-group all-columns zero test over merged member rows."""
        raise NotImplementedError

    def close(self) -> None:
        """Release execution resources (no-op when in-process)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministic teardown: ``with SharedMemoryBackend(...) as
        backend`` joins the worker threads on scope exit."""
        self.close()

    @property
    def usable(self) -> bool:
        return True

    def health_counters(self) -> Dict[str, int]:
        """Cumulative execution-health counters; the cluster metrics
        snapshot them around each phase to attribute events per phase.
        Empty unless a backend reports any."""
        return {}

    def describe(self) -> str:
        return f"{self.name}(workers={self.num_workers})"


class SequentialBackend(ExecutionBackend):
    """The in-process backend: every routed call is one
    :func:`_execute_op` call on the whole batch."""

    name = SEQUENTIAL
    num_workers = 1

    def scatter_edges(self, pool, randomness, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        args = _apply_args(randomness, hi, lo, idxs, deltas)
        self.last_split = {0: int(args[0].shape[0])}
        _execute_op("apply", pool.cells, randomness, args)

    def query_groups(self, pool, randomness, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self.last_split = {0: int(members.shape[0])}
        return _execute_op("gquery", pool.cells, randomness,
                           [glens, members, cols])

    def zero_groups(self, pool, randomness, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        self.last_split = {0: int(members.shape[0])}
        return _execute_op("gzero", pool.cells, randomness,
                           [glens, members])


# ---------------------------------------------------------------------------
# The op table
# ---------------------------------------------------------------------------

#: The routed ops, one per routed method of :class:`ExecutionBackend`.
ROUTED_OPS = ("apply", "gquery", "gzero")


def _apply_args(randomness, hi: np.ndarray, lo: np.ndarray,
                idxs: np.ndarray, deltas: np.ndarray) -> List[np.ndarray]:
    """The ``apply`` op's entries for an edge batch: one per (edge,
    endpoint), each edge hashed once for both of its endpoints."""
    col_levels = randomness.levels_of_many(idxs)
    zpows = randomness.zpow_many(idxs)
    return [np.concatenate([hi, lo]),
            np.concatenate([col_levels, col_levels], axis=0),
            np.concatenate([idxs, idxs]),
            np.concatenate([deltas, -deltas]),
            np.concatenate([zpows, zpows])]


def _execute_op(op: str, cells: np.ndarray, randomness,
                args: List[np.ndarray]):
    """One routed op over descriptor arrays.

    The op table, and the only executor: the worker threads run it on
    their share and :class:`SequentialBackend` on the whole batch, so
    answers are bit-identical wherever the op executes.

    Group ops consume the flat shape (``glens``/``members``) directly
    through the :mod:`repro.kernels` group-merge kernel, which gathers
    only the one column each group reads -- no per-group Python list
    and no full member row is built on the hot path.
    """
    from repro import kernels as _kernels
    from repro.sketch.l0_sampler import query_cells

    if op == "apply":
        # ``args`` = (slots, col_levels, idxs, deltas, zpows): see
        # _apply_args.
        _, _, columns, levels = cells.shape
        _kernels.pool_scatter(cells.reshape(-1), columns, levels, *args)
        return None
    if op == "gquery":
        glens, members, cols = args
        merged = _kernels.merge_groups(cells, members, glens, cols)
        return query_cells(merged, randomness)
    if op == "gzero":
        # Column 0 answers for every column (the column invariant of
        # repro.sketch.sparse_recovery).
        glens, members = args
        return _kernels.is_zero_cells(_kernels.merge_groups(
            cells, members, glens, np.zeros(glens.shape[0], np.int64)))
    raise ValueError(f"unknown backend op {op!r}")


# ---------------------------------------------------------------------------
# The thread executor
# ---------------------------------------------------------------------------

class SharedMemoryBackend(ExecutionBackend):
    """Thread executor over the one in-process pool.

    Every routed call is split into at most ``num_workers`` shares that
    run through :func:`_execute_op` on one thread pool; the call returns
    once every share has finished.  The name predates threads: the
    workers share the parent's memory.  ``num_workers`` defaults to
    ``min(4, cpus)``.
    """

    name = SHARED_MEMORY

    def __init__(self, num_workers: Optional[int] = None):
        super().__init__()
        self.num_workers = (min(4, available_cpus()) if num_workers is None
                            else check_count("num_workers", num_workers))
        # The frozen bench/worker.py reads these two counters: shares
        # handed to the threads, and pickled-pipe dispatches (none).
        self.ring_dispatches = 0
        self.raw_dispatches = 0
        self._closed = False
        self._threads = ThreadPoolExecutor(
            self.num_workers, thread_name_prefix="repro-shard")
        # Bound once so the per-call profiling sections cost one
        # attribute lookup; :func:`repro.kernels.profile.timed` is a
        # shared no-op unless REPRO_KERNELS_PROFILE enabled it.
        from repro.kernels import profile as _kernel_profile
        self._profile = _kernel_profile

    def __reduce__(self):
        return type(self), (self.num_workers,)

    @property
    def usable(self) -> bool:
        return not self._closed

    def health_counters(self) -> Dict[str, int]:
        # The frozen bench/worker.py reads these keys off the parallel
        # backend; threads are never respawned, retried or degraded.
        return {"respawns": 0, "retries": 0, "degrades": 0}

    def _ensure_open(self) -> None:
        if self._closed:
            raise SketchError("shared-memory backend is closed")

    def _run(self, cells: np.ndarray, randomness,
             jobs: List[tuple]) -> List[object]:
        """Run ``(worker_id, op, arrays)`` shares on the threads and
        return their results in job order.

        Waits for every share before re-raising the exception of the
        lowest failing worker id unchanged, so no thread is still
        writing once the call returns or raises.
        """
        self._ensure_open()
        with self._profile.timed("backend.exchange"):
            futures = [self._threads.submit(_execute_op, op, cells,
                                            randomness, arrays)
                       for _, op, arrays in jobs]
            self.ring_dispatches += len(futures)
            wait(futures)
        for future in futures:
            if future.exception() is not None:
                raise future.exception()
        return [future.result() for future in futures]

    def _sharded_jobs(self, rows: int, slots: np.ndarray,
                      payloads: List[np.ndarray],
                      op: str) -> List[tuple]:
        """Split entry arrays by owning worker into ``(worker_id, op,
        arrays)`` shares: each share touches only its worker's rows.

        Row ownership is the block partition of a ``rows``-row pool over
        the workers, the one :mod:`repro.mpc.partition` uses to place
        vertices on machines."""
        with self._profile.timed("backend.shard"):
            owners = VertexPartition(
                rows, self.num_workers).machines_of_vertices(slots)
            # One stable sort replaces a full ``owners == wid`` scan per
            # worker; each slice is the same ascending index mask the
            # scan produced.
            order = np.argsort(owners, kind="stable")
            counts = np.bincount(owners, minlength=self.num_workers)
            starts = np.zeros(self.num_workers + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            jobs: List[tuple] = []
            split: Dict[int, int] = {}
            for wid in range(self.num_workers):
                lo, hi = int(starts[wid]), int(starts[wid + 1])
                if lo == hi:
                    continue
                mask = order[lo:hi]
                split[wid] = hi - lo
                jobs.append((wid, op, [slots[mask],
                                       *[p[mask] for p in payloads]]))
            self.last_split = split
        return jobs

    def _group_jobs(self, members: np.ndarray, glens: np.ndarray,
                    cols: Optional[np.ndarray], op: str) -> List[tuple]:
        """Cut the groups into contiguous runs of about equal member
        count, one per worker, as ``[glens, members(, cols)]`` slices.

        Threads read any pool row, so placement only balances load; the
        shares keep the group order, so their answers concatenate back.
        """
        with self._profile.timed("backend.shard"):
            weight = np.cumsum(np.maximum(glens, 1))
            total = int(weight[-1])
            cuts = np.searchsorted(
                weight, total * np.arange(1, self.num_workers)
                // self.num_workers, side="right")
            bounds = [0, *cuts.tolist(), glens.shape[0]]
            offsets = np.zeros(glens.shape[0] + 1, dtype=np.int64)
            np.cumsum(glens, out=offsets[1:])
            jobs: List[tuple] = []
            split: Dict[int, int] = {}
            for wid in range(self.num_workers):
                g0, g1 = bounds[wid], bounds[wid + 1]
                if g0 == g1:
                    continue
                m0, m1 = int(offsets[g0]), int(offsets[g1])
                arrays = [glens[g0:g1], members[m0:m1]]
                if cols is not None:
                    arrays.append(cols[g0:g1])
                split[wid] = m1 - m0
                jobs.append((wid, op, arrays))
            self.last_split = split
        return jobs

    def scatter_edges(self, pool, randomness, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        slots, *payloads = _apply_args(randomness, hi, lo, idxs, deltas)
        self._run(pool.cells, randomness, self._sharded_jobs(
            pool.count, slots, payloads, "apply"))

    def query_groups(self, pool, randomness, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        results = self._run(pool.cells, randomness, self._group_jobs(
            members, glens, cols, "gquery"))
        return (np.concatenate([zeros for zeros, _ in results]),
                np.concatenate([found for _, found in results]))

    def zero_groups(self, pool, randomness, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        return np.concatenate(self._run(pool.cells, randomness,
                                        self._group_jobs(
                                            members, glens, None, "gzero")))

    def close(self) -> None:
        """Join the worker threads (idempotent); later calls raise."""
        self._closed = True
        self._threads.shutdown(wait=True)


# ---------------------------------------------------------------------------
# Choosing the executor
# ---------------------------------------------------------------------------

def open_backend(spec=None, workers: Optional[int] = None) -> ExecutionBackend:
    """A live backend for ``spec``: a backend name, an instance, or
    ``None`` for ``sequential``.

    A name builds a fresh backend, which the caller owns; ``workers``
    sizes a ``shared_memory`` one, and must be ``None`` or 1 for
    ``sequential``.  An instance passes through, unless it is closed
    (:class:`~repro.errors.SketchError`, so a dead backend fails where
    it is handed over, not at the first batch) or ``workers``
    contradicts its worker count (``ConfigurationError``).
    """
    if workers is not None:
        workers = check_count("backend_workers", workers)
    if isinstance(spec, ExecutionBackend):
        if not spec.usable:
            raise SketchError(
                f"execution backend {spec.describe()} is closed")
        if workers is not None and workers != spec.num_workers:
            raise ConfigurationError(
                f"backend_workers={workers} contradicts the backend "
                f"instance {spec.describe()}")
        return spec
    if spec is None or spec == SEQUENTIAL:
        if workers not in (None, 1):
            raise ConfigurationError(
                f"backend_workers={workers} contradicts the {SEQUENTIAL!r} "
                "backend, which runs on one thread")
        return SequentialBackend()
    if spec == SHARED_MEMORY:
        return SharedMemoryBackend(workers)
    raise ConfigurationError(
        f"unknown execution backend {spec!r}; expected {SEQUENTIAL!r}, "
        f"{SHARED_MEMORY!r} or an ExecutionBackend instance")
