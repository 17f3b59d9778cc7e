"""Execution backends: where the sketch-pool work actually runs.

The cluster simulator *charges* MPC rounds and words, but until now every
super-step still executed on one Python thread.  This module introduces
the execution layer underneath the accounting: an :class:`ExecutionBackend`
turns the family-level bulk operations -- edge-batch ingestion into a
:class:`~repro.sketch.sparse_recovery.RecoveryPool` and the fused
zero-test / cut-edge recovery over merged *groups* of pool rows -- into
*work descriptors* (numpy index arrays, never pickled sketches) and
decides where they run:

* :class:`SequentialBackend` (the default) runs them in-process: its
  reads are one call to the op table (:func:`_execute_op`) on the whole
  batch -- the sequential backend is one share of the same op table the
  workers execute.  Zero dependencies, fully deterministic.
* :class:`SharedMemoryBackend` spawns persistent worker processes, maps
  each attached pool's cell block into ``multiprocessing.shared_memory``,
  and shards vertex rows across workers with the same block partition
  :class:`~repro.mpc.partition.VertexPartition` uses for machines.  A
  batch is split by owning worker; each worker hashes its shard's
  coordinates (rebuilt from the family's spawn-safe randomness params)
  and scatters into its own rows, so no two workers ever write the same
  cache line and no sketch state ever crosses a pipe.

Choosing a backend
------------------
Results are **bit-identical** across backends: the scatter targets
disjoint rows, integer addition is order-independent, and a cell's
fingerprint is its canonical residue mod p whichever worker added to
it.  Pick by workload, not by correctness:

* ``sequential`` -- always the right default, and the only sensible
  choice for small ``n`` or tiny batches, where descriptor shipping
  costs more than the scatter it parallelizes.
* ``shared_memory`` -- wins wall-clock when batches are large (thousands
  of entries per phase), ``n`` is large enough that pool scatters and
  group queries dominate, and real cores are available.  Worker count
  defaults to ``min(4, cpus)``.

Select it per run with ``MPCConfig(backend="shared_memory",
backend_workers=4)``, per algorithm with the ``backend=`` knob on
``MPCConnectivity`` / ``AGMStaticConnectivity`` / ``SketchFamily``, or
globally with the environment variables ``REPRO_BACKEND`` /
``REPRO_BACKEND_WORKERS`` (how CI runs the tier-1 suite against the
cluster backend).

Failure model: a worker that dies or deadlocks surfaces as
:class:`~repro.errors.SketchError` on the next backend call (liveness is
polled while waiting, with a configurable ``REPRO_BACKEND_TIMEOUT``), so
a crashed shard can never silently corrupt a phase.  The environment
knobs are validated at read time: a garbage ``REPRO_BACKEND_WORKERS``
or ``REPRO_BACKEND_TIMEOUT`` value raises a ``SketchError`` naming the
variable instead of detonating deep inside backend startup.

Ring-buffer descriptor transport
--------------------------------
Shipping a routed call's index arrays through the pipes means pickling
a fresh ``(slots, idxs, deltas)`` descriptor per dispatch -- at small
batch sizes that serialisation, not the GF(2^61-1) work, dominates the
fan-out.  Each worker therefore owns a preallocated shared-memory
**ring buffer** for descriptors, and the pipe carries only a tiny
constant-size token.

*Wire layout.*  A ring is one int64 segment of ``ring_words`` words.
A dispatch packs its descriptor arrays in place at the current write
offset::

    [n_arrays, len_0 .. len_{n-1}, data_0 .. data_{n-1}]

wrapping to offset 0 when the tail is too short for the whole record.
The pipe command is then ``("rb", op, pool_token, seq, offset,
words)``; descriptors larger than the ring fall back to the legacy
pickled-pipe path (large batches amortise their pickling anyway).

*Seq/ack discipline.*  The parent increments a per-worker sequence
number on every ring write; the worker checks each token continues the
sequence and rejects any gap as a desync (stale bytes are never
silently decoded).  At most one command per worker is ever in flight
(:meth:`SharedMemoryBackend._dispatch` is a synchronous fan-out/fan-in)
and the worker acknowledges on the existing liveness channel only
*after* consuming the descriptor, so the parent can never overwrite a
region that is still being read -- the single-writer/single-reader ring
needs no locks.

*Crash semantics.*  The parent owns the ring segments and unlinks them
on :meth:`close` (or when the fleet degrades); workers hold only
name-based attachments that die with their process.  Rings are
process-local execution state: checkpoints never contain them, and a
checkpoint restored onto a fresh backend simply attaches its pools to
that backend's own rings.

Self-healing supervisor
-----------------------
A lost worker no longer bricks the backend.  Every routed dispatch runs
under a supervisor loop (:meth:`SharedMemoryBackend._dispatch_ops`):

* **Detection** -- a dead worker (liveness poll), a hung worker (the
  ``REPRO_BACKEND_TIMEOUT`` call deadline), and a rejected ring record
  (transport desync) all surface as per-worker transport failures, not
  exceptions.
* **Recovery** -- the failed worker is killed (if still wedged) and
  respawned in place: fresh process and pipe, ring seq/offset and
  status slot reset, and every registered pool re-attached by replaying
  its token through the new pipe -- the shared-memory segments
  themselves survived the child, so no sketch state is lost.  The
  failed share of the dispatch is then retried with bounded exponential
  backoff (``REPRO_BACKEND_RETRIES`` attempts beyond the first --
  validated at read time like every other knob -- with a base delay of
  :data:`DEFAULT_BACKOFF` seconds).
* **Scatter safety** -- a small shared **status slot** per worker makes
  mutating retries provably safe: the worker writes ``-opid`` before
  executing a routed op and ``+opid`` after, so the parent can classify
  a lost scatter as *never started* (safe to retry), *completed with
  the ack lost* (counted as success, never re-applied), or *partial*
  (the one unrecoverable case: the backend latches broken rather than
  serve corrupt cells).
* **Graceful degradation** -- when retries are exhausted (or a respawn
  itself fails), the backend *degrades* instead of breaking: the
  remaining shares of the in-flight call, and every later call, execute
  in-process through the same :func:`_execute_op` the workers ran, so
  answers stay bit-identical -- only the parallelism is lost.  A
  degraded backend keeps ``usable`` true and reports itself in
  :meth:`describe`.

Respawn / retry / degrade counts are exposed via ``health_counters()``
and flow into :class:`~repro.mpc.metrics.PhaseMetrics` and
``GraphSession.report()``.  Deterministic fault injection for all of
the above lives in :mod:`repro.mpc.faults` (``REPRO_BACKEND_FAULTS``).

The seq/ack + status-slot + respawn discipline above is not just
documented -- it is *model checked*.  :mod:`repro.lint.protocol`
extracts the state machine from this module's AST
(``_worker_main`` / ``_classify_failures`` / ``_dispatch_ops`` /
``_respawn_worker``) and exhaustively explores bounded
parent x worker x fault interleavings on every lint run (rule RL012),
failing the run if an edit makes a double-apply, a half-applied retry,
or a stale ring read reachable.  See ``docs/protocol-model.md``.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SketchError
from repro.mpc.config import env_float, env_int, read_env
from repro.mpc.faults import FaultPlan
from repro.mpc.partition import VertexPartition

#: Environment knobs: backend name and worker count used when a config /
#: constructor leaves the backend unspecified.
ENV_BACKEND = "REPRO_BACKEND"
ENV_WORKERS = "REPRO_BACKEND_WORKERS"
#: Seconds a single backend call may wait on workers before the call is
#: declared dead (deadlocked worker -> SketchError instead of a hang).
ENV_TIMEOUT = "REPRO_BACKEND_TIMEOUT"
#: Supervisor knob: retry attempts after respawning lost workers
#: (integer >= 0, default 2).
ENV_RETRIES = "REPRO_BACKEND_RETRIES"
#: Exponential-backoff base between those attempts, in seconds.
DEFAULT_BACKOFF = 0.05

SEQUENTIAL = "sequential"
SHARED_MEMORY = "shared_memory"
_ALIASES = {
    "sequential": SEQUENTIAL,
    "shared_memory": SHARED_MEMORY,  # hyphens normalize to underscores
    "shm": SHARED_MEMORY,
}

#: Default per-worker descriptor ring size, in int64 words (256 KiB).
#: Comfortably holds the small-batch descriptors the ring exists for;
#: anything larger falls back to the pickled pipe path.
DEFAULT_RING_WORDS = 1 << 15


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def default_worker_count() -> int:
    """Worker count when unspecified: env override, else ``min(4, cpus)``."""
    env = env_int(ENV_WORKERS, minimum=1)
    if env is not None:
        return env
    return max(1, min(4, available_cpus()))


@dataclass
class PoolHandle:
    """A pool registered with a backend.

    Carries everything a routed call needs: the pool (for zero-copy
    sequential reads and writes), the shared randomness (hashing /
    fingerprint checks), the backend-assigned
    token, and the row shard map.  ``shards`` uses the same block
    partition as the machine placement in :mod:`repro.mpc.partition`,
    so row ownership lines up with the model's vertex placement.
    """

    pool: "object"
    randomness: "object"
    token: int
    shards: Optional[VertexPartition] = None

    def owners_of(self, slots: np.ndarray) -> np.ndarray:
        """The owning worker of each slot (the block partition map)."""
        assert self.shards is not None
        return self.shards.machines_of_vertices(slots)


class ExecutionBackend:
    """Protocol for executing pool-level sketch work.

    ``attach_pool`` / ``detach_pool`` manage pool placement.  Three
    routed methods carry all sketch work, one bulk write and two bulk
    reads:

    * ``scatter_edges`` ingests an edge batch into both endpoints'
      rows (wire op ``apply``);
    * ``query_groups`` / ``zero_groups`` answer the AGM-iteration
      queries over *membership groups* of pool rows, which the backend
      merges where the pool lives (wire ops ``gquery`` / ``gzero``).
      Groups have one shape, the wire's: ``members`` (every group's
      rows back to back) and ``glens`` (the group sizes).  A single
      row is the size-1 group; there is no per-row query surface.

    The wire op names are listed once in
    :data:`repro.mpc.faults.ROUTED_OPS` and executed by
    :func:`_execute_op`; ``tests/test_backend.py`` checks the three
    lists (protocol methods, op table, fault grammar) stay closed over
    each other.  ``last_split`` is diagnostics: the per-*worker-shard*
    entry counts of the most recent routed call (tests and experiments
    read it to see how work fanned out).  Note worker shards are not
    model machines -- the per-machine metrics attribution lives in the
    cluster layer, keyed by the machine partition.
    """

    name: str = "abstract"
    parallel: bool = False
    num_workers: int = 1
    #: Why the backend fell back to a degraded execution mode, or
    #: ``None`` while healthy.  Only supervised parallel backends ever
    #: set it; a degraded backend stays ``usable`` (answers are
    #: bit-identical, only the parallelism is lost).
    degraded: Optional[str] = None
    #: True for instances handed out by the process-wide factory cache
    #: (:func:`get_backend`): many clusters/sessions share them, so
    #: owner-style teardown (``Cluster.close``, ``GraphSession.close``)
    #: leaves them running by default.  Privately constructed instances
    #: stay False and are closed deterministically by their owner.
    cached: bool = False

    def __init__(self) -> None:
        self.last_split: Dict[int, int] = {}

    # -- pool lifecycle -------------------------------------------------
    def attach_pool(self, pool, randomness) -> PoolHandle:
        raise NotImplementedError

    def detach_pool(self, handle: PoolHandle) -> None:
        raise NotImplementedError

    # -- routed work ----------------------------------------------------
    def scatter_edges(self, handle: PoolHandle, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        """Ingest one edge batch: ``+delta`` into row ``hi[i]``,
        ``-delta`` into row ``lo[i]`` at coordinate ``idxs[i]``."""
        raise NotImplementedError

    # -- routed supernode (group) work ----------------------------------
    # The AGM halving iterations query *merged* supernode sketches.
    # Instead of materialising merged cells in the parent, these ops
    # ship fragment **membership** (flat ``members`` + ``glens``); the
    # backend merges the member rows where the pool lives and answers
    # bit-identically to merging first (sum + query commute, see
    # SketchFamily.query_iteration_groups).

    def query_groups(self, handle: PoolHandle, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fused zero test + one-column recovery per merged group."""
        raise NotImplementedError

    def zero_groups(self, handle: PoolHandle, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        """Per-group all-columns zero test over merged member rows."""
        raise NotImplementedError

    def close(self) -> None:
        """Release workers / shared segments (no-op when in-process)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deterministic teardown: ``with SharedMemoryBackend(...) as
        backend`` shuts the worker fleet down on scope exit instead of
        waiting for GC / atexit finalizers."""
        self.close()

    @property
    def usable(self) -> bool:
        return True

    def health_counters(self) -> Dict[str, int]:
        """Cumulative fleet-health events (``respawns`` / ``retries`` /
        ``degrades`` / ``faults_injected``).  Empty when the backend
        has no fleet to supervise; the cluster metrics snapshot this
        around each phase to attribute events per phase."""
        return {}

    def describe(self) -> str:
        return f"{self.name}(workers={self.num_workers})"


class SequentialBackend(ExecutionBackend):
    """The in-process backend: reads are one :func:`_execute_op` call on
    the whole batch; the write keeps a body that hashes each edge once
    for both endpoints (the wire form hashes per endpoint)."""

    name = SEQUENTIAL
    parallel = False
    num_workers = 1

    def __init__(self) -> None:
        super().__init__()
        self._tokens = itertools.count()

    def attach_pool(self, pool, randomness) -> PoolHandle:
        return PoolHandle(pool=pool, randomness=randomness,
                          token=next(self._tokens))

    def detach_pool(self, handle: PoolHandle) -> None:
        pass

    def scatter_edges(self, handle: PoolHandle, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        randomness = handle.randomness
        col_levels = randomness.levels_of_many(idxs)
        zpows = randomness.zpow_many(idxs)
        slots = np.concatenate([hi, lo])
        signed = np.concatenate([deltas, -deltas])
        handle.pool.apply_points(
            slots,
            np.concatenate([col_levels, col_levels], axis=0),
            np.concatenate([idxs, idxs]),
            signed,
            np.concatenate([zpows, zpows]),
        )
        self.last_split = {0: int(slots.shape[0])}

    def query_groups(self, handle: PoolHandle, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self.last_split = {0: int(members.shape[0])}
        return _execute_op("gquery", handle.pool.cells,
                           handle.randomness, [glens, members, cols])

    def zero_groups(self, handle: PoolHandle, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        self.last_split = {0: int(members.shape[0])}
        return _execute_op("gzero", handle.pool.cells,
                           handle.randomness, [glens, members])


# ---------------------------------------------------------------------------
# Shared-memory worker process
# ---------------------------------------------------------------------------

def _ring_read(view: np.ndarray, offset: int, words: int) -> List[np.ndarray]:
    """Unpack ``[n, len_0..len_{n-1}, data...]`` starting at ``offset``.

    Returns zero-copy views into the ring; they stay valid until the
    worker acknowledges the command (the parent never overwrites an
    unacknowledged record).
    """
    n = int(view[offset])
    lens = view[offset + 1:offset + 1 + n]
    args: List[np.ndarray] = []
    pos = offset + 1 + n
    for length in lens:
        length = int(length)
        args.append(view[pos:pos + length])
        pos += length
    if pos - offset != words:
        raise RuntimeError(
            f"ring descriptor length mismatch: token said {words} "
            f"words, header decodes to {pos - offset}"
        )
    return args


def _execute_op(op: str, cells: np.ndarray, randomness,
                args: List[np.ndarray]):
    """One routed op over descriptor arrays.

    The op table, and the only executor: the worker processes run it
    on their share, :class:`SequentialBackend`'s reads on the whole
    batch, and a degraded fleet on whatever was left (``cells`` is then
    the very segment the workers were writing), so answers are
    bit-identical wherever the op executes.

    Group ops consume the wire shape (``glens``/flat ``members``)
    directly through the :mod:`repro.kernels` group-merge kernel,
    which gathers only the one column each group reads -- no
    per-group Python list and no full member row is built on the hot
    path.
    """
    from repro import kernels as _kernels
    from repro.sketch.l0_sampler import query_cells

    if op == "apply":
        slots, idxs, deltas = args
        col_levels = randomness.levels_of_many(idxs)
        zpows = randomness.zpow_many(idxs)
        _, _, columns, levels = cells.shape
        _kernels.pool_scatter(cells.reshape(-1), columns, levels, slots,
                              col_levels, idxs, deltas, zpows)
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


def _worker_main(worker_id: int, conn, ring_name: Optional[str] = None,
                 status_name: Optional[str] = None) -> None:
    """Persistent worker loop: attach pools, scatter, answer queries.

    Runs in a *spawned* process: everything it needs arrives through
    the pipe (small commands, spawn-safe randomness params), the
    descriptor ring (index-array payloads, see the module docstring's
    wire protocol), or the named shared-memory cell blocks.  All heavy
    math goes through :func:`_execute_op` -- the same vectorized code
    the sequential backend runs -- so results are bit-identical by
    construction.

    Routed ops carry a per-worker monotone ``opid``; the worker writes
    ``-opid`` into its status slot before executing and ``+opid``
    after, so the parent supervisor can classify a crash as
    not-started / partial / completed (module docstring).  Transport-
    layer failures (ring seq gap, truncated record) reply with a
    ``("desync", reason)`` tag so the parent respawns-and-retries
    instead of treating them as application errors.
    """
    # Imports happen in the child; keep them inside so the parent's
    # module import stays cheap and cycle-free.
    from multiprocessing import shared_memory

    pools: Dict[int, tuple] = {}
    ring = None
    ring_view = None
    if ring_name is not None:
        ring = shared_memory.SharedMemory(name=ring_name)
        ring_view = np.ndarray((ring.size // 8,), dtype=np.int64,
                               buffer=ring.buf)
    status = None
    status_view = None
    if status_name is not None:
        status = shared_memory.SharedMemory(name=status_name)
        status_view = np.ndarray((status.size // 8,), dtype=np.int64,
                                 buffer=status.buf)
    expected_seq = 1
    drop_next_ack = False

    def run_op(op: str, token: int, args: List[np.ndarray]):
        _, cells, randomness = pools[token]
        return _execute_op(op, cells, randomness, args)

    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        op = cmd[0]
        if op == "stop":
            conn.send(("ok", None))
            break
        if op == "fault":
            # One-way injected fault (repro.mpc.faults); never acked.
            _, kind, seconds = cmd
            if kind in ("hang", "delay"):
                time.sleep(seconds)
            elif kind == "drop":
                drop_next_ack = True
            continue
        try:
            if op == "ping":
                conn.send(("ok", worker_id))
            elif op == "attach":
                _, token, shm_name, shape, randomness = cmd
                # Spawned children share the parent's resource tracker,
                # so this attach-side register is an idempotent no-op;
                # the parent alone unlinks (and unregisters) on detach.
                shm = shared_memory.SharedMemory(name=shm_name)
                cells = np.ndarray(shape, dtype=np.int64, buffer=shm.buf)
                pools[token] = (shm, cells, randomness)
                conn.send(("ok", None))
            elif op == "detach":
                _, token = cmd
                entry = pools.pop(token, None)
                if entry is not None:
                    shm, cells, _ = entry
                    del cells
                    try:
                        shm.close()
                    except BufferError:  # pragma: no cover
                        pass
                conn.send(("ok", None))
            else:
                # A routed op: decode the descriptor (ring or pipe),
                # then execute inside status-slot brackets.
                if op == "rb":
                    # Ring-transported descriptor: the payload sits in
                    # the shared ring; the pipe carried only the token.
                    _, real_op, token, seq, offset, words, opid = cmd
                    try:
                        if ring_view is None:
                            raise RuntimeError(
                                "ring token without a ring")
                        if seq != expected_seq:
                            raise RuntimeError(
                                f"ring transport desync: expected seq "
                                f"{expected_seq}, got {seq}"
                            )
                        expected_seq += 1
                        args = _ring_read(ring_view, offset, words)
                    except Exception as exc:
                        # Transport-layer failure: tagged so the parent
                        # respawns this worker and retries, instead of
                        # surfacing a deterministic application error.
                        conn.send(("desync", str(exc)))
                        continue
                else:
                    real_op, token, opid = op, cmd[1], cmd[2]
                    args = list(cmd[3:])
                suppress_ack, drop_next_ack = drop_next_ack, False
                if status_view is not None:
                    status_view[worker_id] = -opid
                payload = run_op(real_op, token, args)
                if status_view is not None:
                    status_view[worker_id] = opid
                if not suppress_ack:
                    conn.send(("ok", payload))
        except Exception:
            conn.send(("error", traceback.format_exc()))
    for seg, view in ((ring, ring_view), (status, status_view)):
        if seg is not None:
            del view
            try:
                seg.close()
            except BufferError:  # pragma: no cover
                pass


class _RespawnFailed(RuntimeError):
    """A replacement worker could not be brought up (spawn, handshake,
    or attach replay failed): the supervisor degrades instead of
    retrying forever."""


class SharedMemoryBackend(ExecutionBackend):
    """Worker-process backend over shared-memory sketch pools.

    Spawns ``num_workers`` persistent processes up front.  Attached
    pools live in ``multiprocessing.shared_memory``; vertex rows are
    sharded across workers by the block partition, and every routed call
    is a synchronous fan-out/fan-in over small numpy descriptors.  The
    workers' scatters are the whole write (cells hold exact sums and
    canonical residues), so pool cells are bit-identical to
    :class:`SequentialBackend` after every call.
    """

    name = SHARED_MEMORY
    parallel = True

    def __init__(self, num_workers: Optional[int] = None,
                 call_timeout: Optional[float] = None,
                 start_timeout: float = 120.0,
                 ring_words: int = DEFAULT_RING_WORDS,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None,
                 faults: "FaultPlan | str | None" = None):
        super().__init__()
        self.num_workers = (num_workers if num_workers is not None
                            else default_worker_count())
        if self.num_workers < 1:
            raise ConfigurationError("need at least one worker")
        self.call_timeout = (call_timeout if call_timeout is not None
                             else env_float(ENV_TIMEOUT, 120.0))
        self.start_timeout = float(start_timeout)
        if not (self.call_timeout > 0 and self.start_timeout > 0):
            raise ConfigurationError(
                "call_timeout and start_timeout must be > 0 seconds")
        if ring_words < 0:
            raise ConfigurationError(
                "ring_words must be >= 0 (0 = pipe-only transport)")
        if retries is None:
            env = env_int(ENV_RETRIES, minimum=0)
            retries = env if env is not None else 2
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        self.retries = int(retries)
        if backoff is None:
            backoff = DEFAULT_BACKOFF
        if backoff < 0:
            raise ConfigurationError("backoff must be >= 0 seconds")
        self.backoff = float(backoff)
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults, source="faults")
        self._faults = faults if faults is not None else FaultPlan.from_env()
        #: Cumulative fleet-health events; snapshot via
        #: :meth:`health_counters`, surfaced in :meth:`describe` and the
        #: per-phase metrics rows.
        self.health: Dict[str, int] = {
            "respawns": 0, "retries": 0, "degrades": 0,
            "faults_injected": 0,
        }
        self.degraded = None
        self._tokens = itertools.count()
        self._handles: Dict[int, "object"] = {}  # token -> SharedMemory
        #: token -> (cells shape, randomness): everything a respawned
        #: worker needs to replay the pool's attach command.
        self._pool_meta: Dict[int, tuple] = {}
        self._closed = False
        self._broken: Optional[str] = None
        self._in_dispatch = False
        #: Tokens whose worker-side detach is deferred: pool finalizers
        #: can fire from GC at any allocation point -- including inside
        #: an in-flight dispatch -- and sending on the pipes reentrantly
        #: would desync the request/ack protocol.  The queue drains at
        #: the next top-level call.
        self._pending_detach: List[int] = []
        #: Descriptor rings, one per worker (module docstring has the
        #: wire protocol); ``ring_words=0`` disables the fast path so
        #: every dispatch takes the pickled pipe route.
        self.ring_words = int(ring_words)
        self.ring_dispatches = 0
        self.raw_dispatches = 0
        self._rings: List["object"] = []
        self._ring_views: List[np.ndarray] = []
        self._ring_offsets: List[int] = []
        self._ring_seqs: List[int] = []
        self._status: Optional["object"] = None
        self._status_view: Optional[np.ndarray] = None
        self._op_ids = [0] * self.num_workers
        # Bound once so the per-dispatch profiling sections cost one
        # attribute lookup; :func:`repro.kernels.profile.timed` is a
        # shared no-op unless REPRO_KERNELS_PROFILE enabled it.
        from repro.kernels import profile as _kernel_profile
        self._profile = _kernel_profile
        import multiprocessing as mp
        from multiprocessing import shared_memory

        self._ctx = mp.get_context("spawn")
        self._procs: List["object"] = [None] * self.num_workers
        self._conns: List["object"] = [None] * self.num_workers
        self._conn_ids: Dict[int, int] = {}
        # Transport creation sits INSIDE the cleanup guard: each ring
        # segment is registered in self._rings the moment it exists, so
        # a failure creating a later ring (or the status slot, or a
        # worker) unwinds through close() -> _release_transport(),
        # which unlinks everything created so far instead of leaking
        # it until reboot.
        try:
            if self.ring_words > 0:
                for _ in range(self.num_workers):
                    shm = shared_memory.SharedMemory(
                        create=True, size=8 * self.ring_words
                    )
                    self._rings.append(shm)
                    self._ring_views.append(
                        np.ndarray((self.ring_words,), dtype=np.int64,
                                   buffer=shm.buf)
                    )
                    self._ring_offsets.append(0)
                    self._ring_seqs.append(0)
            # One status slot per worker: the worker brackets each
            # routed op with -opid / +opid writes so the supervisor can
            # classify a lost op as not-started / partial / completed.
            self._status = shared_memory.SharedMemory(
                create=True, size=8 * self.num_workers
            )
            self._status_view = np.ndarray(
                (self.num_workers,), dtype=np.int64,
                buffer=self._status.buf
            )
            self._status_view[:] = 0
            for wid in range(self.num_workers):
                self._spawn_worker(wid)
            # Handshake: workers are up once they answer a ping (spawned
            # interpreters import numpy + repro, which takes a moment).
            self._dispatch_control(
                [(w, ("ping",)) for w in range(self.num_workers)],
                timeout=self.start_timeout,
            )
        except BaseException:
            self.close()
            raise
        _ALL_BACKENDS.add(self)

    # ------------------------------------------------------------------
    @property
    def usable(self) -> bool:
        return not self._closed and self._broken is None

    def health_counters(self) -> Dict[str, int]:
        return dict(self.health)

    def _ensure_usable(self) -> None:
        if self._closed:
            raise SketchError("shared-memory backend is closed")
        if self._broken is not None:
            raise SketchError(
                f"shared-memory backend is broken: {self._broken}"
            )

    # ------------------------------------------------------------------
    # Supervisor: spawn / exchange / classify / respawn / degrade
    # ------------------------------------------------------------------
    def _spawn_worker(self, wid: int) -> None:
        """Start (or replace) worker ``wid``'s process and pipe."""
        parent_conn, child_conn = self._ctx.Pipe()
        ring_name = self._rings[wid].name if self._rings else None
        status_name = (self._status.name if self._status is not None
                       else None)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, ring_name, status_name),
            daemon=True, name=f"repro-shm-worker-{wid}",
        )
        proc.start()
        child_conn.close()
        self._procs[wid] = proc
        self._conns[wid] = parent_conn
        self._conn_ids = {id(c): w for w, c in enumerate(self._conns)}

    def _exchange(self, wire: List[tuple], timeout: Optional[float] = None
                  ) -> Tuple[Dict[int, object], Dict[int, str],
                             Dict[int, str]]:
        """One fan-out/fan-in attempt over ``(worker_id, command)`` wire.

        Never raises on fleet trouble; instead returns
        ``(results, failures, app_errors)`` where ``failures`` maps
        worker id -> transport-level reason (dead pipe, death, timeout,
        ring desync, garbled reply tag) and ``app_errors`` maps worker
        id -> traceback text from a worker-side exception.  The
        supervisor decides what each of those means.
        """
        from multiprocessing import connection as mpc

        limit = timeout if timeout is not None else self.call_timeout
        deadline = time.monotonic() + limit
        results: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        app_errors: Dict[int, str] = {}
        pending = set()
        self._in_dispatch = True
        timer = self._profile.timed("backend.exchange")
        timer.__enter__()
        try:
            for wid, cmd in wire:
                try:
                    self._conns[wid].send(cmd)
                except (BrokenPipeError, OSError):
                    failures[wid] = "pipe closed on send"
                    continue
                pending.add(wid)
            while pending:
                ready = mpc.wait([self._conns[w] for w in pending],
                                 timeout=0.25)
                if not ready:
                    for wid in list(pending):
                        proc = self._procs[wid]
                        if not proc.is_alive():
                            failures[wid] = (f"worker died (exit code "
                                             f"{proc.exitcode})")
                            pending.discard(wid)
                    if pending and time.monotonic() > deadline:
                        for wid in pending:
                            failures[wid] = f"no ack within {limit:.0f}s"
                        pending.clear()
                    continue
                for conn in ready:
                    wid = self._conn_ids[id(conn)]
                    try:
                        status, payload = conn.recv()
                    except (EOFError, OSError):
                        failures[wid] = "worker hung up mid-call"
                        pending.discard(wid)
                        continue
                    pending.discard(wid)
                    if status == "error":
                        app_errors[wid] = payload
                    elif status == "desync":
                        failures[wid] = f"ring transport desync: {payload}"
                    elif status == "ok":
                        results[wid] = payload
                    else:
                        failures[wid] = f"unknown reply tag {status!r}"
            return results, failures, app_errors
        finally:
            self._in_dispatch = False
            timer.__exit__(None, None, None)

    def _kill_worker(self, wid: int) -> None:
        """SIGKILL worker ``wid`` (idempotent) and drop its pipe.

        Killing is always state-safe: sketch cells live in the shared
        segments, which belong to the parent.
        """
        proc = self._procs[wid]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=10.0)
        try:
            self._conns[wid].close()
        except OSError:  # pragma: no cover
            pass

    def _respawn_worker(self, wid: int) -> None:
        """Replace a lost worker in place and replay its shard state.

        Fresh process and pipe; ring seq/offset, status slot, and opid
        counter reset; every registered pool re-attached by replaying
        its token (the shared-memory segments survived the child).
        Wraps any startup trouble in :class:`_RespawnFailed` so the
        caller degrades instead of crashing.
        """
        self.health["respawns"] += 1
        self._kill_worker(wid)
        if self._ring_offsets:
            self._ring_offsets[wid] = 0
            self._ring_seqs[wid] = 0
        if self._status_view is not None:
            self._status_view[wid] = 0
        self._op_ids[wid] = 0
        try:
            self._spawn_worker(wid)
            self._await_one(wid, ("ping",), timeout=self.start_timeout)
            for token in sorted(self._handles):
                shm = self._handles[token]
                shape, randomness = self._pool_meta[token]
                self._await_one(
                    wid, ("attach", token, shm.name, shape, randomness),
                    timeout=self.call_timeout,
                )
        except Exception as exc:
            raise _RespawnFailed(
                f"respawn of worker {wid} failed: {exc}"
            ) from exc

    def _await_one(self, wid: int, cmd: tuple, timeout: float) -> object:
        """Send one command to one worker and wait for its ack."""
        conn = self._conns[wid]
        conn.send(cmd)
        deadline = time.monotonic() + timeout
        while not conn.poll(0.25):
            if not self._procs[wid].is_alive():
                raise RuntimeError(f"worker {wid} died during respawn")
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"worker {wid} unresponsive during respawn"
                )
        status, payload = conn.recv()
        if status != "ok":
            raise RuntimeError(
                f"worker {wid} rejected {cmd[0]!r} during respawn:\n"
                f"{payload}"
            )
        return payload

    def _enter_degraded(self, reason: str) -> None:
        """Give up on the fleet; all later ops run in-process.

        The pool segments are kept -- the parent's adopted cell views
        live in them and the in-process cores keep operating on exactly
        those bytes, so answers stay bit-identical.  Only the transport
        (workers, pipes, rings, status slots) is torn down.
        """
        if self.degraded is not None:
            return
        self.degraded = reason
        self.health["degrades"] += 1
        self._pending_detach.clear()
        for wid in range(self.num_workers):
            proc = self._procs[wid]
            if proc is None:
                continue
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._release_transport()

    def _release_transport(self) -> None:
        """Unlink ring + status segments (views dropped first)."""
        self._ring_views.clear()
        rings, self._rings = self._rings, []
        for shm in rings:
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        status, self._status = self._status, None
        self._status_view = None
        if status is not None:
            try:
                status.close()
            except BufferError:  # pragma: no cover
                pass
            try:
                status.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def _classify_failures(self, failures: Dict[int, str],
                           pending: Dict[int, tuple], mutating: bool,
                           results: Dict[int, object]) -> None:
        """Decide what each lost routed op means via the status slots.

        Every failed worker is killed first (a hung-but-alive worker
        might otherwise execute its queued op *after* the retry,
        double-applying a scatter), then its status slot is read:

        * ``+opid`` -- the op completed and only the ack was lost.  A
          mutating op is counted as success (never re-applied); a query
          is idempotent and simply retried.
        * ``-opid`` on a mutating op -- the worker died mid-scatter:
          the shard is partially updated and unrecoverable, so the
          backend latches broken.
        * anything else -- the op never started; retrying is safe.

        Retryable shares stay in ``pending``; satisfied ones move to
        ``results``.
        """
        for wid in sorted(failures):
            reason = failures[wid]
            opid = self._op_ids[wid]
            self._kill_worker(wid)
            slot = (int(self._status_view[wid])
                    if self._status_view is not None else 0)
            if slot == opid and mutating:
                results[wid] = None
                pending.pop(wid, None)
                continue
            if mutating and slot == -opid:
                self._broken = (
                    f"worker {wid} was lost mid-scatter ({reason}); "
                    f"pool state is partial"
                )
                raise SketchError(
                    f"shared-memory worker {wid} was lost mid-scatter "
                    f"({reason}); sketch state may be incomplete"
                )

    def _inject_fault(self, fault, wid: int) -> None:
        """Apply a planned fault to worker ``wid`` before a send."""
        self.health["faults_injected"] += 1
        if fault.kind == "kill":
            self._kill_worker(wid)
        elif fault.kind in ("hang", "delay", "drop"):
            try:
                self._conns[wid].send(("fault", fault.kind,
                                       fault.seconds))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        # "truncate" is applied after the ring record is packed.

    def _dispatch_ops(self, handle: PoolHandle, jobs: List[tuple],
                      mutating: bool = False,
                      timeout: Optional[float] = None
                      ) -> Dict[int, object]:
        """Supervised fan-out of routed ops; ``jobs`` are logical
        ``(worker_id, op, arrays)`` shares.

        Descriptors are packed into the rings *per attempt*, at send
        time, so a share that is retried after a respawn is re-packed
        against the fresh worker's reset seq state -- the recovered
        transport can never read a stale record.  Worker-side
        exceptions (deterministic application errors) raise
        immediately; transport failures respawn-and-retry up to
        ``self.retries`` times with exponential backoff, then degrade.
        """
        self._ensure_usable()
        if not jobs:
            return {}
        if self.degraded is not None:
            return {wid: _execute_op(op, handle.pool.cells,
                                     handle.randomness, arrays)
                    for wid, op, arrays in jobs}
        pending: Dict[int, tuple] = {wid: (op, arrays)
                                     for wid, op, arrays in jobs}
        results: Dict[int, object] = {}
        attempt = 0
        while True:
            wire: List[tuple] = []
            for wid in sorted(pending):
                op, arrays = pending[wid]
                fault = (self._faults.draw(wid, op)
                         if self._faults is not None else None)
                if fault is not None:
                    self._inject_fault(fault, wid)
                self._op_ids[wid] += 1
                opid = self._op_ids[wid]
                packed = self._ring_pack(wid, arrays)
                if packed is None:
                    self.raw_dispatches += 1
                    wire.append((wid, (op, handle.token, opid, *arrays)))
                else:
                    self.ring_dispatches += 1
                    seq, offset, words = packed
                    if fault is not None and fault.kind == "truncate":
                        # Corrupt the packed record's header so the
                        # worker's decoder rejects it as a desync.
                        self._ring_views[wid][offset] = len(arrays) + 1
                    wire.append((wid, ("rb", op, handle.token, seq,
                                       offset, words, opid)))
            res, failures, app_errors = self._exchange(wire,
                                                       timeout=timeout)
            results.update(res)
            for wid in res:
                pending.pop(wid, None)
            if app_errors:
                # Deterministic worker exceptions are the application's
                # problem, not the fleet's: no respawn can fix them, so
                # no retry.
                if mutating:
                    self._broken = ("worker exception during a scatter "
                                    "left the pool partially updated")
                raise SketchError("\n".join(
                    f"worker {wid} failed:\n{tb}"
                    for wid, tb in sorted(app_errors.items())
                ))
            if not failures:
                return results
            self._classify_failures(failures, pending, mutating, results)
            if not pending:
                # Every failure resolved as completed-with-lost-ack;
                # bring the (killed) workers back for the next call.
                try:
                    for wid in sorted(failures):
                        self._respawn_worker(wid)
                except _RespawnFailed as exc:
                    self._enter_degraded(str(exc))
                return results
            if attempt >= self.retries:
                self._enter_degraded(
                    "retries exhausted after "
                    f"{attempt + 1} attempt(s): " + "; ".join(
                        f"worker {w}: {failures[w]}"
                        for w in sorted(failures))
                )
                break
            attempt += 1
            self.health["retries"] += 1
            try:
                for wid in sorted(failures):
                    self._respawn_worker(wid)
            except _RespawnFailed as exc:
                self._enter_degraded(str(exc))
                break
            if self.backoff > 0:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        # Degraded: finish the remaining shares in-process -- same
        # executor, same shared cells, bit-identical results.
        for wid in sorted(pending):
            op, arrays = pending[wid]
            results[wid] = _execute_op(op, handle.pool.cells,
                                       handle.randomness, arrays)
        return results

    def _dispatch_control(self, jobs: List[tuple],
                          timeout: Optional[float] = None
                          ) -> Dict[int, object]:
        """Supervised fan-out for control commands (ping / attach /
        detach), ``jobs`` being ``(worker_id, command)`` pairs.

        Control traffic is satisfied by recovery itself: a respawned
        worker is pinged and re-attached to every *registered* pool
        during :meth:`_respawn_worker`, and a detached token is no
        longer registered, so a failed share is never re-sent -- the
        respawn either already did the work or made it moot.
        """
        self._ensure_usable()
        if not jobs or self.degraded is not None:
            return {}
        pending: Dict[int, tuple] = dict(jobs)
        results: Dict[int, object] = {}
        attempt = 0
        while pending:
            res, failures, app_errors = self._exchange(
                sorted(pending.items()), timeout=timeout
            )
            results.update(res)
            for wid in res:
                pending.pop(wid, None)
            if app_errors:
                raise SketchError("\n".join(
                    f"worker {wid} failed:\n{tb}"
                    for wid, tb in sorted(app_errors.items())
                ))
            if not failures:
                break
            if attempt >= self.retries:
                self._enter_degraded(
                    "retries exhausted on control traffic: " + "; ".join(
                        f"worker {w}: {failures[w]}"
                        for w in sorted(failures))
                )
                return results
            attempt += 1
            self.health["retries"] += 1
            for wid in sorted(failures):
                self._kill_worker(wid)
                try:
                    self._respawn_worker(wid)
                except _RespawnFailed as exc:
                    self._enter_degraded(str(exc))
                    return results
                pending.pop(wid, None)
                results[wid] = None
            if self.backoff > 0:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        return results

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def attach_pool(self, pool, randomness) -> PoolHandle:
        """Move ``pool`` into shared memory and register it everywhere.

        Must be called before the pool hands out row views (the
        :class:`~repro.sketch.graph_sketch.SketchFamily` constructor
        guarantees this ordering); existing cell contents are preserved.
        On a degraded backend there is no fleet to place the pool on:
        the handle simply routes every op through the in-process
        fallback, keeping attach usable after recovery gave up.
        """
        self._ensure_usable()
        self._flush_detaches()
        token = next(self._tokens)
        shards = VertexPartition(pool.count, self.num_workers)
        if self.degraded is not None:
            return PoolHandle(pool=pool, randomness=randomness,
                              token=token, shards=shards)
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True,
                                         size=pool.cells.nbytes)
        cells = None
        try:
            cells = np.ndarray(pool.cells.shape, dtype=np.int64,
                               buffer=shm.buf)
            pool.adopt_buffer(cells)
        except BaseException:
            # Mid-attach failure: the fresh segment was never registered
            # anywhere, so unlink it here or it leaks until reboot.
            cells = None
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            raise
        self._handles[token] = shm
        self._pool_meta[token] = (pool.cells.shape, randomness)
        try:
            self._dispatch_control([
                (w, ("attach", token, shm.name, pool.cells.shape,
                     randomness))
                for w in range(self.num_workers)
            ])
        except SketchError:
            self._release_token(token)
            raise
        return PoolHandle(pool=pool, randomness=randomness, token=token,
                          shards=shards)

    def detach_pool(self, handle: PoolHandle) -> None:
        self.release_token(handle.token)

    def release_token(self, token: int) -> None:
        """Detach a pool by token (safe after close / worker death).

        The parent's shared-memory segment is released immediately (a
        pure-filesystem operation); the worker-side detach commands are
        *deferred* to the next top-level backend call, because this is
        typically invoked by a pool finalizer -- which the GC may run
        at any allocation point, including inside an in-flight
        :meth:`_dispatch`, where touching the pipes would desync the
        request/ack protocol.  Workers keep a stale (unlinked) mapping
        until the flush; the memory dies once they drop it.
        """
        if token not in self._handles:
            return
        self._release_token(token)
        if self.usable and self.degraded is None:
            self._pending_detach.append(token)

    def _flush_detaches(self) -> None:
        """Send deferred worker-side detaches (top-level calls only)."""
        if (not self._pending_detach or self._in_dispatch
                or not self.usable or self.degraded is not None):
            return
        tokens, self._pending_detach = self._pending_detach, []
        for token in tokens:
            # One dispatch per token: the exchange keys acks by worker
            # id, so a call may carry at most one command per worker.
            try:
                self._dispatch_control([(w, ("detach", token))
                                        for w in range(self.num_workers)])
            except SketchError:
                return

    def _release_token(self, token: int) -> None:
        self._pool_meta.pop(token, None)
        shm = self._handles.pop(token, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            # A live ndarray still maps the segment (e.g. the pool is
            # being collected together with its views); unlinking alone
            # is enough -- the mapping dies with the arrays.
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Routed work
    # ------------------------------------------------------------------
    def _ring_pack(self, wid: int,
                   arrays: List[np.ndarray]) -> Optional[Tuple[int, int, int]]:
        """Write a descriptor record into worker ``wid``'s ring.

        Returns the ``(seq, offset, words)`` token, or ``None`` when the
        ring is disabled or the record does not fit (the caller falls
        back to the pickled pipe path).  Safe to overwrite the previous
        record: at most one command per worker is in flight, and the
        worker acknowledged it before this call could have started.
        """
        if not self._rings:
            return None
        lens = [int(a.shape[0]) for a in arrays]
        words = 1 + len(arrays) + sum(lens)
        if words > self.ring_words:
            return None
        with self._profile.timed("backend.ring_pack"):
            offset = self._ring_offsets[wid]
            if offset + words > self.ring_words:
                offset = 0  # wrap: the tail is too short for this record
            view = self._ring_views[wid]
            view[offset] = len(arrays)
            header = offset + 1
            view[header:header + len(arrays)] = lens
            pos = header + len(arrays)
            for array, k in zip(arrays, lens):
                view[pos:pos + k] = array
                pos += k
            self._ring_offsets[wid] = pos
            self._ring_seqs[wid] += 1
        return self._ring_seqs[wid], offset, words

    def _sharded_jobs(self, handle: PoolHandle, slots: np.ndarray,
                      payloads: List[np.ndarray],
                      op: str) -> List[tuple]:
        """Split entry arrays by owning worker.

        Returns logical ``(worker_id, op, arrays)`` shares.  Transport
        packing happens later, at send time inside
        :meth:`_dispatch_ops`, so a retried share is always re-packed
        against the respawned worker's reset ring.
        """
        with self._profile.timed("backend.shard"):
            owners = handle.owners_of(slots)
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
                    cols: Optional[np.ndarray],
                    op: str) -> Tuple[List[tuple], Dict[int, np.ndarray]]:
        """Assign whole groups to workers (greedy least-loaded by member
        count -- deterministic) and slice each worker's share out of the
        flat arrays as ``[group_lengths, members_flat(, cols)]``.
        Workers read any pool row read-only, so group placement is a
        load-balancing choice, not a correctness constraint like the
        scatter shards.
        """
        with self._profile.timed("backend.shard"):
            loads = [0] * self.num_workers
            owner = np.empty(glens.shape[0], dtype=np.int64)
            for i, size in enumerate(glens.tolist()):
                wid = min(range(self.num_workers),
                          key=lambda w: (loads[w], w))
                owner[i] = wid
                loads[wid] += max(1, size)
            member_owner = np.repeat(owner, glens)
            jobs: List[tuple] = []
            masks: Dict[int, np.ndarray] = {}
            split: Dict[int, int] = {}
            for wid in range(self.num_workers):
                idx = np.flatnonzero(owner == wid)
                if not idx.size:
                    continue
                masks[wid] = idx
                # Boolean selection keeps member order, and a worker's
                # groups stay in ascending order: the share is flat.
                arrays = [glens[idx], members[member_owner == wid]]
                split[wid] = int(arrays[1].shape[0])
                if cols is not None:
                    arrays.append(cols[idx])
                jobs.append((wid, op, arrays))
            self.last_split = split
        return jobs, masks

    def scatter_edges(self, handle: PoolHandle, hi: np.ndarray,
                      lo: np.ndarray, idxs: np.ndarray,
                      deltas: np.ndarray) -> None:
        self._flush_detaches()
        slots = np.concatenate([hi, lo])
        all_idxs = np.concatenate([idxs, idxs])
        signed = np.concatenate([deltas, -deltas])
        jobs = self._sharded_jobs(handle, slots, [all_idxs, signed],
                                  "apply")
        self._dispatch_ops(handle, jobs, mutating=True)

    def query_groups(self, handle: PoolHandle, members: np.ndarray,
                     glens: np.ndarray,
                     cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        self._flush_detaches()
        jobs, masks = self._group_jobs(members, glens, cols, "gquery")
        results = self._dispatch_ops(handle, jobs)
        zeros = np.zeros(glens.shape[0], dtype=bool)
        found = np.full(glens.shape[0], -1, dtype=np.int64)
        for wid, payload in results.items():
            z, f = payload
            zeros[masks[wid]] = z
            found[masks[wid]] = f
        return zeros, found

    def zero_groups(self, handle: PoolHandle, members: np.ndarray,
                    glens: np.ndarray) -> np.ndarray:
        self._flush_detaches()
        jobs, masks = self._group_jobs(members, glens, None, "gzero")
        results = self._dispatch_ops(handle, jobs)
        zeros = np.zeros(glens.shape[0], dtype=bool)
        for wid, payload in results.items():
            zeros[masks[wid]] = payload
        return zeros

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pending_detach.clear()
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for token in list(self._handles):
            self._release_token(token)
        # Transport last: drop our ring/status views, then close +
        # unlink each segment (workers only ever held name-based
        # attachments, which died with their processes).
        self._release_transport()

    def describe(self) -> str:
        bits = [f"workers={self.num_workers}",
                f"pools={len(self._handles)}"]
        labels = {"faults_injected": "faults"}
        for key, value in self.health.items():
            if value:
                bits.append(f"{labels.get(key, key)}={value}")
        if self.degraded is not None:
            bits.append("degraded")
        return f"{self.name}({', '.join(bits)})"


# ---------------------------------------------------------------------------
# Factory / registry
# ---------------------------------------------------------------------------

_SEQUENTIAL_SINGLETON = SequentialBackend()
_SEQUENTIAL_SINGLETON.cached = True
_SHARED_CACHE: Dict[int, SharedMemoryBackend] = {}
_ALL_BACKENDS: "weakref.WeakSet" = weakref.WeakSet()


def normalize_backend_name(name: str) -> str:
    """Canonical backend name; raises ConfigurationError if unknown."""
    key = name.strip().lower().replace("-", "_")
    key = _ALIASES.get(key)
    if key is None:
        raise ConfigurationError(
            f"unknown execution backend {name!r}; expected one of "
            f"{sorted(set(_ALIASES))}"
        )
    return key


def get_backend(name: Optional[str] = None,
                workers: Optional[int] = None) -> ExecutionBackend:
    """The process-wide backend for ``name`` (env default: sequential).

    Shared-memory backends are cached per worker count so every cluster,
    family, and test in a process shares one worker fleet instead of
    spawning its own.
    """
    if name is None:
        name = read_env(ENV_BACKEND) or SEQUENTIAL
    name = normalize_backend_name(name)
    if name == SEQUENTIAL:
        return _SEQUENTIAL_SINGLETON
    count = workers if workers is not None else default_worker_count()
    backend = _SHARED_CACHE.get(count)
    if backend is None or not backend.usable or backend.degraded:
        # A degraded cached backend is replaced (new callers deserve a
        # fresh fleet) but NOT closed: sessions already holding it keep
        # working -- degraded mode is fully functional -- and the atexit
        # hook still tears it down.
        backend = SharedMemoryBackend(num_workers=count)
        backend.cached = True
        _SHARED_CACHE[count] = backend
    return backend


def resolve_backend(spec=None,
                    workers: Optional[int] = None) -> ExecutionBackend:
    """Coerce a backend spec (None / name / instance) to a backend."""
    if spec is None or isinstance(spec, str):
        return get_backend(spec, workers)
    if isinstance(spec, ExecutionBackend):
        return spec
    raise ConfigurationError(
        f"backend must be a name or an ExecutionBackend, got {spec!r}"
    )


@atexit.register
def _shutdown_backends() -> None:  # pragma: no cover - exit path
    for backend in list(_ALL_BACKENDS):
        try:
            backend.close()
        except Exception:
            pass
