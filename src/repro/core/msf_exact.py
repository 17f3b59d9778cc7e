"""Exact minimum spanning forest, insertion-only streams (Section 7.1).

The folklore algorithm the paper parallelises: keep the current MSF F;
on insert {u, v}, if the endpoints are disconnected, link; otherwise
find the heaviest edge on the tree path u..v (Identify-Path, Lemma 7.2)
and swap if the new edge is lighter.  Batches run both cases in O(1)
rounds via the connectivity machinery: a local Kruskal over the
auxiliary graph H for cross-component edges, batched Identify-Path +
batch cut/link for intra-component swaps.

**Deviation from the paper:** the paper's
single swap pass is not exact when candidate cycles interact -- an edge
can be the heaviest on a *mixed* cycle of two inserted edges without
being the heaviest on either fundamental cycle, so one pass can leave a
non-minimal tree.  We therefore iterate the pass until no improving swap
remains (each pass is O(1) rounds; the tree weight strictly decreases,
so at most |batch| passes occur and typically 1-2 do).  The fixpoint is
an MSF by the cycle property.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.api import BatchDynamicAlgorithm
from repro.core.components import ComponentIds, forest_picks
from repro.errors import InvalidUpdateError
from repro.euler.distributed import DistributedEulerForest
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.types import Edge, ForestSolution, Update


class ExactMSFInsertOnly(BatchDynamicAlgorithm):
    """Maintains an exact MSF under batches of weighted insertions."""

    name = "msf-exact"
    task = "msf"
    supports_deletions = False

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        self.forest = DistributedEulerForest(config.n)
        self.components = ComponentIds(config.n)
        # Weights of current *tree* edges only: O(n) words.
        self._weight: Dict[Edge, float] = {}
        self.stats = {"swap_passes": 0, "swaps": 0, "max_passes": 0}

    # ------------------------------------------------------------------
    def query_msf(self) -> ForestSolution:
        edges = sorted(self.forest.all_edges())
        weights = [self._weight[e] for e in edges]
        return ForestSolution(n=self.n, edges=edges, weights=weights)

    def connected(self, u: int, v: int) -> bool:
        return self.components.same(u, v)

    def num_components(self) -> int:
        return self.forest.num_components()

    def msf_weight(self) -> float:
        return float(sum(self._weight.values()))

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        if deletes:
            raise InvalidUpdateError(
                "ExactMSFInsertOnly accepts insertion-only streams "
                "(Theorem 1.2(i)); use ApproxMSF for dynamic streams"
            )
        if not inserts:
            return
        # Candidate pool: the inserted edges with their weights.
        pool: Dict[Edge, float] = {}
        for up in inserts:
            pool[up.edge] = up.weight
        self.cluster.charge_broadcast(words=len(pool), category="batch")

        # Pass 0 links cross-component candidates (Case 1); subsequent
        # passes perform intra-component swaps (Case 2) to a fixpoint.
        passes = 0
        for _ in range(len(pool) + 1):
            passes += 1
            changed = self._one_pass(pool)
            if not changed:
                break
        self.stats["swap_passes"] += passes
        self.stats["max_passes"] = max(self.stats["max_passes"], passes)

    def _one_pass(self, pool: Dict[Edge, float]) -> bool:
        """One O(1)-round pass: evict beaten tree edges, Kruskal-insert.

        Returns True if the forest changed (another pass is needed to
        confirm the fixpoint).
        """
        if not pool:
            return False
        # Identify-Path for every intra-component candidate, in batch
        # (one broadcast of the f/l values, Lemma 7.2).
        self.cluster.charge_broadcast(words=len(pool),
                                      category="identify-path")
        evicted: Set[Edge] = set()
        cross_exists = False
        for edge, weight in pool.items():
            u, v = edge
            if not self.forest.connected(u, v):
                cross_exists = True
                continue
            heaviest = self._heaviest_on_path(u, v)
            if heaviest is not None and self._weight[heaviest] > weight:
                evicted.add(heaviest)
        if not evicted and not cross_exists:
            return False

        # Delete the evicted tree edges (batch split, one broadcast).
        if evicted:
            report = self.forest.batch_cut(sorted(evicted))
            self.cluster.charge_broadcast(words=max(1, report.messages),
                                          category="tour-update")
            for edge in evicted:
                pool[edge] = self._weight.pop(edge)

        # Kruskal over the auxiliary graph H of candidate edges --
        # all local on the machine holding the batch (Claim 6.1).
        self.cluster.charge_gather(total_words=len(pool),
                                   category="build-H")
        ranked = sorted(pool.items(), key=lambda kv: (kv[1], kv[0]))
        tree_id = self.forest.tree_id
        chosen = [ranked[i] for i in forest_picks(
            (tree_id(u), tree_id(v)) for (u, v), _ in ranked)]
        if chosen:
            report = self.forest.batch_link([e for e, _ in chosen])
            self.cluster.charge_broadcast(words=max(1, report.messages),
                                          category="tour-update")
            self.cluster.charge_broadcast(
                words=max(1, len(report.new_tours)), category="relabel"
            )
            for edge, weight in chosen:
                self._weight[edge] = weight
                del pool[edge]
            for tid in report.new_tours:
                self.components.relabel_min(self.forest.tour_vertices(tid))
            self.stats["swaps"] += len(chosen)
        elif evicted:
            # Eviction without replacement cannot happen: the evicted
            # edge's candidate always reconnects its split.
            raise AssertionError("evicted a tree edge with no replacement")
        return bool(evicted) or bool(chosen)

    def _heaviest_on_path(self, u: int, v: int) -> Optional[Edge]:
        path = self.forest.path_edges(u, v)
        if not path:
            return None
        return max(path, key=lambda e: (self._weight[e], e))

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        self._register("forest", self.forest.words)
        self._register("tree-weights", len(self._weight))
        self._register("component-ids", self.components.words)
