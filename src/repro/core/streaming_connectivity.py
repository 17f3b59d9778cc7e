"""Streaming connectivity with an explicit spanning forest (Section 4).

The paper's reference algorithm: alongside the AGM sketches it keeps a
spanning forest ``F`` and the component-id array ``C``, which is what
later buys O(1)-round queries in MPC.  This module is the *sequential*
single-update version (Algorithms 1-4) -- ~O(n) work per update, O(n
log^3 n) bits of space -- used as the semantic reference for
:class:`~repro.core.connectivity.MPCConnectivity` and as a standalone
streaming implementation.
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.core.components import ComponentIds
from repro.errors import InvalidUpdateError, SketchFailureError
from repro.euler.sequential import EulerTourForest
from repro.sketch.graph_sketch import MergedSketch, SketchFamily
from repro.types import Edge, ForestSolution, Op, Update, canonical


class StreamingConnectivity:
    """Single-update dynamic connectivity in the streaming model.

    Parameters
    ----------
    n:
        Number of vertices (fixed; the stream starts from the empty
        graph, paper Section 1.2).
    columns:
        Independent sketch repetitions per vertex.  One suffices for a
        constant success probability per deletion; the default boosts to
        the paper's w.h.p. regime.
    seed:
        Randomness for the sketch family.
    strict:
        If True, a sketch failure (no replacement edge recovered even
        though one may exist) raises :class:`SketchFailureError`;
        otherwise the component is conservatively split and the failure
        counted in :attr:`sketch_failures`.
    backend:
        Execution backend (name, instance, or ``None`` for the
        ``REPRO_BACKEND`` environment default) -- see
        :mod:`repro.mpc.backend`.  It matters for :meth:`preload`'s
        bulk ingestion only: single updates and the replacement search
        run on the scalar path, over the vertex sketches this instance
        owns (views of the family pool wherever the backend placed it).
    """

    def __init__(self, n: int, columns: Optional[int] = None, seed: int = 0,
                 strict: bool = False, backend=None):
        if n < 2:
            raise ValueError("need at least two vertices")
        self.n = n
        rng = np.random.default_rng(seed)
        if columns is None:
            columns = max(4, int(2 * np.log2(n)))
        self.family = SketchFamily(n, columns=columns, rng=rng,
                                   backend=backend)
        self.sketches = {v: self.family.new_vertex_sketch(v)
                         for v in range(n)}
        self.forest = EulerTourForest(n)
        self.components = ComponentIds(n)
        self.strict = strict
        self.sketch_failures = 0
        self._column_cursor = 0
        self._edges: Set[Edge] = set()

    # ------------------------------------------------------------------
    # Queries (Algorithm 4)
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        return self.components.same(u, v)

    def num_components(self) -> int:
        return self.components.num_components()

    def query(self) -> ForestSolution:
        """Report the maintained spanning forest."""
        edges = sorted(self.forest.all_edges())
        return ForestSolution(n=self.n, edges=edges, weights=[])

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    # ------------------------------------------------------------------
    # Updates (Algorithms 2-3)
    # ------------------------------------------------------------------
    def apply(self, update: Update) -> None:
        if update.is_insert:
            self.insert(update.u, update.v)
        else:
            self.delete(update.u, update.v)

    def preload(self, edges: "list[Edge]") -> None:
        """Bulk-load a starting graph before streaming begins.

        The paper's pre-computation hand-over (end of Section 1.1) for
        the sequential algorithm: the sketches ingest the whole edge
        set through the family's vectorized bulk router (bit-identical
        to inserting one edge at a time), then the forest and component
        ids are built incrementally.  Only valid on a fresh instance.
        """
        if self._edges:
            raise InvalidUpdateError("preload requires a fresh instance")
        canon = [canonical(u, v) for u, v in edges]
        if len(set(canon)) != len(canon):
            raise InvalidUpdateError("preload with duplicate edges")
        k = len(canon)
        if not k:
            return
        us = np.fromiter((e[0] for e in canon), dtype=np.int64, count=k)
        vs = np.fromiter((e[1] for e in canon), dtype=np.int64, count=k)
        self.family.apply_edges_bulk(us, vs, np.ones(k, dtype=np.int64))
        for u, v in canon:
            self._edges.add((u, v))
            if self.components.same(u, v):
                continue
            self.forest.link(u, v)
            self.components.relabel_min(self.forest.tree_vertices(u))

    def insert(self, u: int, v: int) -> None:
        edge = canonical(u, v)
        if edge in self._edges:
            raise InvalidUpdateError(f"insert of existing edge {edge}")
        self._edges.add(edge)
        self.sketches[u].apply_edge(u, v, +1)
        self.sketches[v].apply_edge(u, v, +1)
        if self.components.same(u, v):
            return  # non-tree edge: sketches only
        self.forest.link(u, v)
        self.components.relabel_min(self.forest.tree_vertices(u))

    def delete(self, u: int, v: int) -> None:
        edge = canonical(u, v)
        if edge not in self._edges:
            raise InvalidUpdateError(f"delete of missing edge {edge}")
        self._edges.discard(edge)
        self.sketches[u].apply_edge(u, v, -1)
        self.sketches[v].apply_edge(u, v, -1)
        if not self.forest.has_edge(u, v) and not self.forest.has_edge(v, u):
            return  # non-tree edge: sketches only
        self.forest.cut(u, v)
        z_u = self.forest.tree_vertices(u)
        z_v = self.forest.tree_vertices(v)
        replacement = self._find_replacement(z_u, z_v)
        if replacement is None:
            self.components.relabel_min(z_u)
            self.components.relabel_min(z_v)
        else:
            a, b = replacement
            self.forest.link(a, b)
            # Component membership is unchanged; C stays as it was.

    def _find_replacement(self, z_u: Set[int],
                          z_v: Set[int]) -> Optional[Edge]:
        """Query the merged sketch of Z_u for an edge into Z_v.

        Tries every column starting from a rotating cursor so repeated
        deletions do not keep consuming the same randomness.  A sampled
        edge is accepted only if it genuinely crosses the split (the
        fingerprint makes anything else vanishingly unlikely).

        This is the paper's reference, so it reads like it: merge the
        member sketches of Z_u (:class:`MergedSketch`, the oracle the
        routed group queries are tested against) and decode the whole
        column scan in one pass.
        """
        merged = MergedSketch.of(self.sketches[v] for v in sorted(z_u))
        if merged.cut_is_empty():
            return None
        columns = self.family.columns
        order = [(self._column_cursor + offset) % columns
                 for offset in range(columns)]
        sampled = merged.sample_cut_edges(np.asarray(order, dtype=np.int64))
        for column, candidate in zip(order, sampled):
            if candidate is None:
                continue
            a, b = candidate
            if (a in z_u) != (b in z_u):
                self._column_cursor = (column + 1) % columns
                if a in z_v or b in z_v:
                    return candidate
                # Edge leaves Z_u but not into Z_v: cannot happen for a
                # valid stream (non-tree edges stay within components).
                raise SketchFailureError(
                    f"recovered edge {candidate} leaves the old component"
                )
        self.sketch_failures += 1
        if self.strict:
            raise SketchFailureError(
                f"no replacement edge recovered between components of "
                f"sizes {len(z_u)} and {len(z_v)}"
            )
        return None

    # ------------------------------------------------------------------
    @property
    def space_words(self) -> int:
        """Total words: sketches + forest + C (the O(n log^3 n) claim)."""
        sketch_words = self.n * self.family.words_per_vertex
        forest_words = 4 * len(self.forest.all_edges()) + self.n
        return sketch_words + forest_words + self.components.words
