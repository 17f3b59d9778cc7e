"""Batch-dynamic connectivity in MPC (Theorem 1.1 / Sections 5-6).

The paper's headline algorithm: maintain, in ~O(n) total memory,

* one AGM sketch stack per vertex (``t = O(log n)`` columns),
* the spanning forest F as distributed Euler tours,
* the component-id array C,

and process a batch of up to ``~O(n^phi)`` edge updates in O(1/phi) MPC
rounds.  Insertions build the auxiliary graph H over component ids, take
a spanning forest F_H on one machine, and splice the Euler tours with
one broadcast of O(k) segment messages (Section 6.1-6.2).  Deletions cut
the tours, merge the fragments' sketches with a converge-cast, and rerun
the AGM halving iterations *locally on one machine* over at most 2k
fragment sketches to find replacement edges (Section 6.3) -- this is
where keeping the explicit forest beats the O(log n)-round AGM query.

Round charges follow the primitives actually used.  Each primitive's
closed-form charge is checked against its real message-passing
execution in ``tests/mpc_reference.py`` (by
``tests/test_mpc_primitives.py``), and ``tests/test_charge_ledger.py``
pins the exact per-category rounds of seeded phases.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.core.components import ComponentIds
from repro.errors import QueryError, SketchFailureError
from repro.euler.distributed import DistributedEulerForest
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.sketch.graph_sketch import SketchFamily
from repro.types import Edge, ForestSolution, Update, canonical


class MPCConnectivity(BatchDynamicAlgorithm):
    """Maintains connectivity + spanning forest under batch updates."""

    name = "mpc-connectivity"
    task = "connectivity"

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 columns: Optional[int] = None,
                 batch_limit: Optional[int] = None,
                 strict: bool = False, track_edges: bool = True):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit,
                         track_edges=track_edges)
        if columns is None:
            columns = config.sketch_columns
        self.family = SketchFamily(config.n, columns=columns,
                                   rng=self.cluster.rng,
                                   backend=self.cluster.backend)
        self.forest = DistributedEulerForest(config.n)
        self.components = ComponentIds(config.n)
        self.strict = strict
        self._column_cursor = 0
        self.stats: Dict[str, int] = {
            "replacement_edges": 0,
            "sketch_failures": 0,
            "agm_iterations": 0,
            "tree_edge_deletions": 0,
        }
        self._register_memory()

    # ------------------------------------------------------------------
    # Preprocessing (paper, end of Section 1.1)
    # ------------------------------------------------------------------
    def preload(self, edges: "list[Edge]") -> "object":
        """Initialise from an arbitrary starting graph.

        The paper notes the algorithms need not start empty: a
        "pre-computation phase" can solve the initial instance with the
        static O(log n)-round connectivity algorithm [AGM12, NO21] and
        hand over the maintained state.  This method performs that
        hand-over: it bulk-loads the sketches, builds the spanning
        forest (one batch splice -- the edges of any forest over
        singleton tours), and charges the static algorithm's O(log n)
        rounds.  Only valid before any update phase.
        """
        if self.phases or self.num_edges:
            raise QueryError("preload requires a fresh instance")
        from repro.types import ins as _ins

        updates = [_ins(u, v) for u, v in edges]
        self.validator.check_and_apply(updates)
        self.cluster.begin_phase(f"{self.name}-preload")
        # Static construction: O(log n) contraction iterations, each a
        # sketch-merge converge-cast.
        import math as _math
        for _ in range(max(1, _math.ceil(_math.log2(self.n)))):
            self.cluster.charge_converge(
                words=self.family.words_per_vertex, category="preload"
            )
        self.family.apply_updates_bulk(updates, delta=+1)
        forest_edges = self._spanning_forest_of_h(updates)
        if forest_edges:
            report = self.forest.batch_link(forest_edges)
            self.cluster.charge_broadcast(words=max(1, report.messages),
                                          category="tour-update")
            for tid in report.new_tours:
                self.components.relabel_min(self.forest.tour_vertices(tid))
        self._register_memory()
        self.cluster.metrics.note_memory_peak()
        snapshot = self.cluster.end_phase(batch_size=len(edges))
        self.phases.append(snapshot)
        return snapshot

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        return self.components.same(u, v)

    def num_components(self) -> int:
        return self.forest.num_components()

    def query_spanning_forest(self) -> ForestSolution:
        """Report the maintained spanning forest (constant rounds)."""
        return ForestSolution(n=self.n, edges=self.forest.all_edges(),
                              weights=[])

    def query_with_metrics(self) -> Tuple[ForestSolution, "object"]:
        """Query wrapped in a measured phase (the claims table sets its
        rounds against the AGM static query).

        The maintained solution only needs to be *emitted*: one sort of
        the O(n) labels/edges (paper: "reporting the connected
        components can be easily done by sorting the labels").
        """
        self.cluster.begin_phase(f"{self.name}-query")
        solution = self.query_spanning_forest()
        self.cluster.charge_sort(max(1, len(solution.edges)),
                                 category="query")
        metrics = self.cluster.end_phase(batch_size=0)
        return solution, metrics

    # ------------------------------------------------------------------
    # Phase processing
    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        if inserts:
            self._process_insertions(inserts)
        if deletes:
            self._process_deletions(deletes)

    # -- insertions (Section 6.1) ---------------------------------------
    def _process_insertions(self, inserts: List[Update]) -> None:
        k = len(inserts)
        # Broadcast the batch; machines owning u or v update the sketches.
        self.cluster.charge_broadcast(words=k, category="sketch-update")
        self.family.apply_updates_bulk(inserts, delta=+1)

        # Classify: edges between distinct components are tree candidates.
        # One local round: every machine checks C[u] != C[v] for its edges.
        self.cluster.charge_local(category="classify")
        candidates = [up for up in inserts
                      if not self.components.same(up.u, up.v)]
        if not candidates:
            return

        # Auxiliary graph H on component ids; F_H on a single machine.
        self.cluster.charge_gather(total_words=len(candidates),
                                   category="build-H")
        fh_edges = self._spanning_forest_of_h(candidates)
        if not fh_edges:
            return

        # Splice the Euler tours: one broadcast of O(k) shift messages.
        report = self.forest.batch_link(fh_edges)
        self.cluster.charge_broadcast(words=max(1, report.messages),
                                      category="tour-update")
        # Relabel merged components to their minimum vertex id.
        self.cluster.charge_broadcast(words=max(1, len(report.new_tours)),
                                      category="relabel")
        for tid in report.new_tours:
            self.components.relabel_min(self.forest.tour_vertices(tid))

    def _spanning_forest_of_h(self, candidates: List[Update]) -> List[Edge]:
        """Spanning forest of H, keeping one original edge per H-edge.

        H's vertices are component ids; parallel edges and (impossible
        here) self-loops are dropped, then a union-find picks a forest.
        All local computation on the machine holding the batch.
        """
        leader: Dict[int, int] = {}

        def find(x: int) -> int:
            while leader.setdefault(x, x) != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        forest_edges: List[Edge] = []
        for up in candidates:
            cu = find(self.components.id_of(up.u))
            cv = find(self.components.id_of(up.v))
            if cu == cv:
                continue
            leader[cu] = cv
            forest_edges.append((up.u, up.v))
        return forest_edges

    # -- deletions (Section 6.3) ----------------------------------------
    def _process_deletions(self, deletes: List[Update]) -> None:
        k = len(deletes)
        self.cluster.charge_broadcast(words=k, category="sketch-update")
        self.family.apply_updates_bulk(deletes, delta=-1)

        self.cluster.charge_local(category="classify")
        tree_edges = [up.edge for up in deletes
                      if self.forest.has_edge(up.u, up.v)]
        if not tree_edges:
            return
        self.stats["tree_edge_deletions"] += len(tree_edges)

        # Split the tours (inverse segment messages, one broadcast).
        cut_report = self.forest.batch_cut(tree_edges)
        self.cluster.charge_broadcast(words=max(1, cut_report.messages),
                                      category="tour-update")

        # Merge each fragment's vertex sketches: parallel converge-casts,
        # O(1/phi) rounds (Lemma 6.5); then gather the <= 2k fragment
        # sketches onto one machine.
        fragments = [tid for tid in cut_report.new_tours
                     if self.forest.has_tour(tid)]
        self.cluster.charge_converge(words=self.family.words_per_vertex,
                                     category="sketch-merge")
        self.cluster.charge_gather(
            total_words=len(fragments) * self.family.words_per_vertex,
            category="build-H",
        )
        # Fragment *membership* (tour id -> vertex rows of the shared
        # pool) is what actually ships: the execution backend merges
        # the member rows where the pool lives and answers the halving
        # queries, so the parent never materialises merged cells.  The
        # model charges above are unchanged -- the converge/gather is
        # where the merges logically happen.
        members: Dict[int, np.ndarray] = {}
        for tid in fragments:
            members[tid] = np.sort(self.forest.tour_vertices(tid))

        replacement_edges = self._agm_replacements(fragments, members)
        if replacement_edges:
            self.stats["replacement_edges"] += len(replacement_edges)
            link_report = self.forest.batch_link(replacement_edges)
            self.cluster.charge_broadcast(
                words=max(1, link_report.messages), category="tour-update"
            )
            touched = set(link_report.new_tours)
        else:
            touched = set()
        touched.update(tid for tid in fragments if self.forest.has_tour(tid))

        self.cluster.charge_broadcast(words=max(1, len(touched)),
                                      category="relabel")
        for tid in touched:
            self.components.relabel_min(self.forest.tour_vertices(tid))

    def _agm_replacements(
        self, fragments: List[int], members: Dict[int, np.ndarray]
    ) -> List[Edge]:
        """AGM halving iterations over the fragment sketches.

        Supernodes start as fragments; iteration ``i`` queries column
        ``cursor + i`` of every supernode's merged sketch, contracts
        along the recovered edges, and records one original graph edge
        per contraction -- exactly the F_H construction of Section 6.3.
        Supernodes are handled as *membership* lists (``members`` maps
        fragment tour id -> vertex rows); each iteration ships them to
        the execution backend, which merges the member rows against the
        shared pool and returns only the recovered edges
        (:meth:`SketchFamily.query_iteration_groups`).  Contracting two
        supernodes is then a list concatenation, and the answers stay
        bit-identical to the materialised-merge path.  No extra MPC
        rounds beyond the charged gather -- where the work *executes*
        is the backend's business.

        A supernode that tests zero is a finished component (AGM's
        rule) and leaves ``roots``: the zero test reads the whole
        vector's totals (the column invariant of
        :mod:`repro.sketch.sparse_recovery`), so its answer does not
        depend on the column and stays zero until the membership
        changes.  A contraction into a retired supernode puts it back
        -- in the ~1/p false-zero case its merged cut may be nonzero.
        So after the usual all-zero break ``roots`` is empty and the
        leftover scan below reads no rows.
        """
        leader = {tid: tid for tid in fragments}

        def find(x: int) -> int:
            while leader[x] != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        replacement: List[Edge] = []
        columns = self.family.columns
        roots: Set[int] = set(fragments)
        iterations = 0
        for it in range(columns):
            # ``roots`` holds the supernodes not yet known to be
            # finished.  One fused vectorized pass answers this halving
            # iteration's zero test and cut-edge query for each of them
            # (only nonzero ones pay for recovery).
            ordered = sorted(roots)
            column = (self._column_cursor + it) % columns
            # Charged by the caller: _process_deletions pays one
            # charge_gather per halving iteration.
            zeros, sampled = self.family.query_iteration_groups(
                [members[root] for root in ordered], column
            )
            roots.difference_update(
                root for root, is_z in zip(ordered, zeros) if is_z)
            if not roots:
                break
            iterations = it + 1
            candidates: List[Tuple[int, Edge]] = [
                (root, edge)
                for root, is_z, edge in zip(ordered, zeros, sampled)
                if not is_z and edge is not None
            ]
            for root, (a, b) in candidates:
                tid_a = self.forest.tree_id(a)
                tid_b = self.forest.tree_id(b)
                ra = find(tid_a) if tid_a in leader else None
                rb = find(tid_b) if tid_b in leader else None
                if ra is None or rb is None or ra == rb:
                    continue
                leader[ra] = rb
                # Supernode contraction = membership union; the rows
                # themselves never move.
                members[rb] = np.concatenate((members[rb], members[ra]))
                roots.discard(ra)
                roots.add(rb)
                replacement.append((a, b))
        self.stats["agm_iterations"] = max(
            self.stats["agm_iterations"], iterations
        )
        # Advance only past the columns actually consumed: a no-op
        # phase (no live fragments) must not burn fresh randomness.
        self._column_cursor = (self._column_cursor + iterations) % columns

        # Anything still in ``roots`` tested nonzero last or grew by a
        # contraction since; a nonzero cut here is one we failed to
        # recover.
        remaining = sorted(roots)
        # Folded into _process_deletions' charged gather: this sanity
        # scan adds no rounds of its own.
        leftover_zero = self.family.cuts_empty_groups(
            [members[r] for r in remaining]
        )
        leftovers = [root for root, is_z in zip(remaining, leftover_zero)
                     if not is_z]
        if leftovers:
            self.stats["sketch_failures"] += len(leftovers)
            if self.strict:
                raise SketchFailureError(
                    f"{len(leftovers)} fragment(s) kept a nonzero cut "
                    "after exhausting all sketch columns"
                )
        return replacement

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        self._register("sketches", self.n * self.family.words_per_vertex)
        self._register("forest", self.forest.words)
        self._register("component-ids", self.components.words)
