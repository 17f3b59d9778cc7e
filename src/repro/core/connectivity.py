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
:func:`agm_halving` is the one halving loop: the static baseline
(:mod:`repro.baselines.agm_static`) runs it from singletons.

Round charges follow the primitives actually used.  Each primitive's
closed-form charge is checked against its real message-passing
execution in ``tests/mpc_reference.py`` (by
``tests/test_mpc_primitives.py``), and ``tests/test_charge_ledger.py``
pins the exact per-category rounds of seeded phases.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.core.components import ComponentIds, forest_picks
from repro.errors import QueryError, SketchFailureError
from repro.euler.distributed import DistributedEulerForest
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.sketch.graph_sketch import SketchFamily
from repro.types import Edge, ForestSolution, Update, ins


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
        updates = [ins(u, v) for u, v in edges]
        self.validator.check_and_apply(updates)
        self.cluster.begin_phase(f"{self.name}-preload")
        # Static construction: O(log n) contraction iterations, each a
        # sketch-merge converge-cast.
        for _ in range(max(1, math.ceil(math.log2(self.n)))):
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

        H's vertices are component ids; :func:`forest_picks` drops
        parallel edges and (impossible here) self-loops.  All local
        computation on the machine holding the batch.
        """
        label = self.components.id_of
        picks = forest_picks((label(up.u), label(up.v)) for up in candidates)
        return [(candidates[i].u, candidates[i].v) for i in picks]

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
        # pool) is what ships; the backend merges the rows where the
        # pool lives.  The converge/gather above is where the merges
        # logically happen.
        members = {tid: np.sort(self.forest.tour_vertices(tid))
                   for tid in fragments}
        replacement_edges = self._agm_replacements(fragments, members)
        touched: Set[int] = set()
        if replacement_edges:
            self.stats["replacement_edges"] += len(replacement_edges)
            link_report = self.forest.batch_link(replacement_edges)
            self.cluster.charge_broadcast(
                words=max(1, link_report.messages), category="tour-update"
            )
            touched.update(link_report.new_tours)
        touched.update(tid for tid in fragments if self.forest.has_tour(tid))

        self.cluster.charge_broadcast(words=max(1, len(touched)),
                                      category="relabel")
        for tid in touched:
            self.components.relabel_min(self.forest.tour_vertices(tid))

    def _agm_replacements(
        self, fragments: List[int], members: Dict[int, np.ndarray]
    ) -> List[Edge]:
        """:func:`agm_halving` from the fragments (``members`` maps tour
        id -> vertex rows), starting at the column cursor.  No rounds
        beyond the charged gather: it runs on the one machine holding
        the <= 2k fragment sketches."""
        replacement, live, leftovers = agm_halving(
            self.family, {tid: members[tid] for tid in fragments},
            self.forest.tree_id, self._column_cursor)
        iterations = len(live)
        self.stats["agm_iterations"] = max(
            self.stats["agm_iterations"], iterations
        )
        # Advance only past the columns actually consumed: a no-op
        # phase (no live fragments) must not burn fresh randomness.
        self._column_cursor = ((self._column_cursor + iterations)
                               % self.family.columns)
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


def agm_halving(
    family: SketchFamily, members: Dict[int, np.ndarray],
    group_of: Callable[[int], int], first_column: int,
) -> Tuple[List[Edge], List[int], List[int]]:
    """AGM's halving iterations (Section 4.1) from any partition: the
    static query starts from singletons, the Section 6.3 replacement
    search from the <= 2k fragments.

    ``members`` (consumed) maps each starting supernode's label to its
    pool rows; ``group_of`` maps a vertex to its starting label (one
    not in ``members`` if it is in none).  Iteration ``i`` samples
    column ``(first_column + i) mod columns`` of every live supernode
    (:meth:`SketchFamily.query_iteration_groups` merges the rows where
    the pool lives) and contracts along the sampled edges.  A
    supernode that tests zero is finished (AGM's rule) and is not
    queried again until a contraction merges into it: the zero test
    reads the whole vector's totals, whatever the column (the column
    invariant of :mod:`repro.sketch.sparse_recovery`).

    Returns the contracting edges, the live count of every iteration
    that did not end the loop, and the live labels whose cut is still
    nonzero at the end (failed recoveries).
    """
    leader = {label: label for label in members}

    def find(x: int) -> int:
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    edges: List[Edge] = []
    live_per_iteration: List[int] = []
    columns = family.columns
    live: Set[int] = set(members)
    for it in range(columns):
        # One fused pass answers this iteration's zero test and
        # cut-edge query for every live supernode (only nonzero ones
        # pay for recovery, and only they sample an edge).  Sampling
        # every supernode before contracting any is the MPC super-step.
        ordered = sorted(live)
        zeros, sampled = family.query_iteration_groups(
            [members[label] for label in ordered],
            (first_column + it) % columns)
        live.difference_update(
            label for label, is_z in zip(ordered, zeros) if is_z)
        if not live:
            break
        live_per_iteration.append(len(live))
        for edge in sampled:
            if edge is None:
                continue
            start_a, start_b = group_of(edge[0]), group_of(edge[1])
            if start_a not in leader or start_b not in leader:
                continue
            ra, rb = find(start_a), find(start_b)
            if ra == rb:
                continue
            leader[ra] = rb
            members[rb] = np.concatenate((members[rb], members.pop(ra)))
            live.discard(ra)
            live.add(rb)
            edges.append(edge)
    remaining = sorted(live)
    empty = family.cuts_empty_groups([members[label] for label in remaining])
    leftovers = [label for label, is_z in zip(remaining, empty) if not is_z]
    return edges, live_per_iteration, leftovers
