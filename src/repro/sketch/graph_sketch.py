"""AGM graph sketches: per-vertex signed edge-incidence samplers.

Paper, Section 3.1.  Every vertex ``v`` owns a vector ``X_v`` over the
``C(n, 2)`` pair coordinates with the sign convention of Lemma 3.3
(``+1`` when ``v`` is the larger endpoint, ``-1`` when the smaller), and
a linear L0-sampler of that vector.  For any vertex set ``A``, the sum
of the members' sketches is a sketch of ``X_A``, whose support is exactly
the cut ``E(A, V \\ A)`` -- internal edges cancel.  Querying the merged
sketch therefore returns a random cut edge (Lemma 3.5), the operation the
connectivity algorithm uses to find replacement edges after deletions.

:class:`SketchFamily` carries the shared randomness (one instance per
algorithm) and the sketches themselves: one
:class:`~repro.sketch.sparse_recovery.RecoveryPool` row per vertex
(vertex id = pool row).  The pool is the sketch -- there is no
per-vertex object, and every read and write is a bulk call.

Bulk ingestion
--------------
A batch of edge updates is ingested by
:meth:`SketchFamily.apply_edges_bulk` as a *single* group-by-endpoint
scatter: hash all edge coordinates at once, emit one signed entry per
(edge, endpoint), and let the pool accumulate every vertex's cells in
one ``kernels.pool_scatter`` call.  This is bit-identical to updating a
standalone sampler per endpoint with ``edge_sign(endpoint, u, v) *
delta`` -- the batch algorithms (``MPCConnectivity``, preload, MSF,
bipartiteness) route their sketch updates through it.

Bulk queries are the mirror image, and they have one shape:
*membership groups*.  The deletion path only ever queries merged
fragment sketches (Section 6.3), so
:meth:`SketchFamily.query_iteration_groups` answers one column's
cut-edge query for many supernodes given as per-supernode vertex-row
lists (the per-iteration shape of the AGM halving), and
:meth:`SketchFamily.cuts_empty_groups` batches the zero tests.  A
single vertex is the size-1 group.  The two entries flatten the lists
once into ``(members, glens)`` -- member rows back to back plus group
lengths -- the only group shape below the family, from the backend
protocol over the wire to :func:`repro.kernels.merge_groups`.  Both are
bit-identical to the scalar queries of a standalone sampler holding the
exact sum of the member rows, which the tests use as reference next to
the exact cut of the live edge set.

Execution backends
------------------
Where the bulk work *runs* is the execution backend's decision
(:mod:`repro.mpc.backend`).  The family holds a plain reference to the
backend its cluster was given and hands every routed call the pool and randomness directly:
:meth:`SketchFamily.apply_edges_bulk` passes per-edge descriptors, and
the group queries pass the flat membership instead of materialised
merged cells -- the backend sums the member rows against the pool and
returns only the recovered edges.  On the default
:class:`~repro.mpc.backend.SequentialBackend` this runs as one call; on
the thread backend the same descriptors fan out to worker threads,
bit-identically.  A pickled family carries its backend as its class
and worker count (see
:meth:`~repro.mpc.backend.ExecutionBackend.__reduce__`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SketchError
from repro.sketch.edge_coding import decode_indices, encode_edges, num_pairs
from repro.sketch.l0_sampler import SamplerRandomness
from repro.sketch.sparse_recovery import RecoveryPool
from repro.types import Edge


class SketchFamily:
    """Shared randomness, geometry and cells of one run's vertex sketches.

    ``columns`` plays the role of the paper's ``t = O(log n)``
    independent sketches per vertex: batch deletions consume one column
    per AGM halving iteration (Section 6.3), and column rotation across
    phases (``MPCConnectivity._column_cursor``) keeps reuse of revealed
    randomness bounded.

    The family also owns the :class:`RecoveryPool` holding every
    vertex's sketch, which is what lets :meth:`apply_edges_bulk` update
    all endpoints of a batch in single array scatters.  ``backend`` is
    its holder's live executor instance, or ``None`` for sequential.
    """

    def __init__(self, n: int, columns: int, rng: np.random.Generator,
                 backend=None):
        # Lazy import: repro.mpc.backend imports the sketch layer for
        # its op table, so the dependency must not be circular at
        # module level.
        from repro.mpc.backend import ExecutionBackend, open_backend
        from repro.mpc.config import check_count

        if n < 2:
            raise ValueError("need at least two vertices")
        if backend is not None and not isinstance(backend, ExecutionBackend):
            # A name would build an executor that nothing owns or closes.
            raise ConfigurationError(
                "a sketch family takes its cluster's ExecutionBackend "
                f"instance or None (sequential), not {backend!r}")
        self.n = n
        self.columns = check_count("columns", columns)
        self.universe = num_pairs(n)
        self.randomness = SamplerRandomness(self.universe, self.columns,
                                            rng)
        self.pool = RecoveryPool(n, self.columns, self.randomness.levels)
        self.backend = open_backend(backend)

    @property
    def levels(self) -> int:
        return self.randomness.levels

    def decode_many(self, idxs: np.ndarray) -> "List[Optional[Edge]]":
        """Decode sampled coordinates, passing ``-1`` through as ``None``.

        The vectorized inverse of the edge coding applied to the
        recovered entries only; the convenience shape every batched
        query consumer wants (one optional edge per queried sketch).
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        out: List[Optional[Edge]] = [None] * idxs.shape[0]
        hits = np.flatnonzero(idxs >= 0)
        if hits.size:
            us, vs = decode_indices(self.n, idxs[hits])
            for pos, u, v in zip(hits.tolist(), us.tolist(), vs.tolist()):
                out[pos] = (u, v)
        return out

    # -- membership-shipped supernode queries ---------------------------
    def query_iteration_groups(
        self, groups, column
    ) -> "Tuple[np.ndarray, List[Optional[Edge]]]":
        """One halving iteration over supernodes shipped as *membership*.

        ``groups`` is a list of vertex-id arrays (= rows of this
        family's pool); the backend merges column ``column[i]`` of
        each group's member rows where the pool lives and answers the
        fused zero test + cut-edge recovery on it, so the parent never
        materialises merged supernode cells.  Entry ``i`` of the result
        equals querying the parent-side merge of ``groups[i]`` on
        ``column[i]`` -- bit-identical, because summing rows and
        querying commute (limb sums are exact and order-independent,
        and they fold to the same residue as merging the stored
        residues mod p first), and the one-column zero test is the
        all-columns one by the column invariant of
        :mod:`repro.sketch.sparse_recovery`.  On
        the thread backend contiguous runs of whole groups are balanced
        across the worker threads.
        """
        if not len(groups):
            return np.zeros(0, dtype=bool), []
        members, glens = self._flatten_groups(groups)
        cols = self._broadcast_columns(column, glens.size)
        zeros, found = self.backend.query_groups(
            self.pool, self.randomness, members, glens, cols)
        return zeros, self.decode_many(found)

    def cuts_empty_groups(self, groups) -> np.ndarray:
        """Vectorized empty-cut test over membership-shipped groups."""
        if not len(groups):
            return np.zeros(0, dtype=bool)
        members, glens = self._flatten_groups(groups)
        return self.backend.zero_groups(self.pool, self.randomness,
                                        members, glens)

    def _flatten_groups(self, groups
                        ) -> "Tuple[np.ndarray, np.ndarray]":
        """Validate a non-empty list of membership lists into the flat
        wire shape: all pool rows back to back + per-group lengths."""
        glens = np.fromiter(map(len, groups), dtype=np.int64,
                            count=len(groups))
        if not glens.all():
            raise SketchError("cannot query an empty vertex group")
        members = np.concatenate(groups).astype(np.int64, copy=False)
        if int(members.min()) < 0 or int(members.max()) >= self.pool.count:
            raise SketchError(
                f"group member outside the family's vertex range "
                f"[0, {self.pool.count})"
            )
        return members, glens

    def _broadcast_columns(self, column, k: int) -> np.ndarray:
        """Validate one shared column index or per-group array into
        ``(k,)`` columns in ``[0, columns)``."""
        cols = np.ascontiguousarray(
            np.broadcast_to(np.asarray(column, dtype=np.int64), (k,))
        )
        if int(cols.min()) < 0 or int(cols.max()) >= self.columns:
            raise SketchError(
                f"sketch column outside the family's column range "
                f"[0, {self.columns})"
            )
        return cols

    def apply_edges_bulk(self, us: np.ndarray, vs: np.ndarray,
                         deltas: np.ndarray) -> None:
        """Ingest a batch of signed edge updates into all endpoints.

        ``us``, ``vs``, ``deltas`` are equal-length arrays; update ``i``
        adds ``deltas[i]`` (+1 insert / -1 delete) to edge
        ``{us[i], vs[i]}``, touching *both* endpoint sketches with the
        Lemma 3.3 signs.  The whole batch is hashed with the
        array-level field arithmetic and scattered into the family pool
        in one pass -- bit-identical to per-edge, per-endpoint scalar
        updates, in any order.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        k = us.shape[0]
        if k == 0:
            return
        idxs = encode_edges(self.n, us, vs)
        hi = np.maximum(us, vs)
        lo = np.minimum(us, vs)
        # One entry per (edge, endpoint): the larger endpoint sees
        # +delta, the smaller -delta (edge_sign convention).  The
        # backend hashes the coordinates and scatters -- in one call on
        # the sequential backend, sharded by row owner on the thread
        # backend.
        self.backend.scatter_edges(self.pool, self.randomness, hi, lo,
                                   idxs, deltas)

    def apply_updates_bulk(self, updates, delta: Optional[int] = None
                           ) -> None:
        """:meth:`apply_edges_bulk` over a list of stream ``Update``s.

        With ``delta`` given, every update carries that signed value
        (the insertions-then-deletions split of the phase model);
        otherwise each update contributes ``+1``/``-1`` from its own
        op.  One marshalling point for all the batch algorithms.
        """
        k = len(updates)
        if k == 0:
            return
        us = np.fromiter((up.u for up in updates), dtype=np.int64,
                         count=k)
        vs = np.fromiter((up.v for up in updates), dtype=np.int64,
                         count=k)
        if delta is None:
            deltas = np.fromiter(
                (1 if up.is_insert else -1 for up in updates),
                dtype=np.int64, count=k,
            )
        else:
            deltas = np.full(k, delta, dtype=np.int64)
        self.apply_edges_bulk(us, vs, deltas)

    @property
    def words_per_vertex(self) -> int:
        """Accounting size of one vertex's stack: 3 t L words."""
        return 3 * self.columns * self.randomness.levels
