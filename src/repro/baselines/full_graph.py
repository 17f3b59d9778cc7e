"""Baseline: full-graph dynamic MPC connectivity ([ILMP19]/[NO21] regime).

The prior-work setting the paper's total-memory contribution is measured
against: the whole graph is stored across the machines (Theta(n + m)
total memory), updates and queries are fast -- the *memory* is the cost.
The claims table (``benchmarks/test_claims.py``) sweeps m: this
baseline's footprint grows linearly while the paper's algorithm stays
~O(n).

The maintained spanning forest is recomputed incrementally: insertions
union into a forest, deletions of tree edges trigger a replacement scan
over the stored adjacency (the luxury of having the graph).  Round
charges follow the constant-round claims of the baseline papers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.core.components import ComponentIds, forest_picks
from repro.euler.distributed import DistributedEulerForest
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.types import Edge, ForestSolution, Update


class FullGraphConnectivity(BatchDynamicAlgorithm):
    """Batch-dynamic connectivity storing the whole graph."""

    name = "full-graph"

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        self.adj: Dict[int, Set[int]] = {v: set() for v in range(config.n)}
        self.forest = DistributedEulerForest(config.n)
        self.components = ComponentIds(config.n)
        self._register_memory()

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        if inserts:
            self.cluster.charge_broadcast(words=len(inserts),
                                          category="batch")
            for up in inserts:
                u, v = up.edge
                self.adj[u].add(v)
                self.adj[v].add(u)
            chosen = self._forest_subset([up.edge for up in inserts])
            if chosen:
                report = self.forest.batch_link(chosen)
                self.cluster.charge_broadcast(
                    words=max(1, report.messages), category="tour-update"
                )
                for tid in report.new_tours:
                    self.components.relabel_min(
                        self.forest.tour_vertices(tid)
                    )
        if deletes:
            self.cluster.charge_broadcast(words=len(deletes),
                                          category="batch")
            tree_edges = []
            for up in deletes:
                u, v = up.edge
                self.adj[u].discard(v)
                self.adj[v].discard(u)
                if self.forest.has_edge(u, v):
                    tree_edges.append((u, v))
            if tree_edges:
                cut_report = self.forest.batch_cut(tree_edges)
                self.cluster.charge_broadcast(
                    words=max(1, cut_report.messages),
                    category="tour-update",
                )
                self._reconnect(cut_report.new_tours)

    def _forest_subset(self, links: List[Edge]) -> List[Edge]:
        tree_id = self.forest.tree_id
        picks = forest_picks((tree_id(u), tree_id(v)) for u, v in links)
        return [links[i] for i in picks]

    def _reconnect(self, fragment_tids: List[int]) -> None:
        """Replacement scan over the stored adjacency (BFS per fragment).

        Having the graph makes this easy -- the scan is over local
        machine state, charged as one constant-round super-step per the
        baseline papers' claims.
        """
        self.cluster.charge_local(category="replacement-scan")
        tree_id = self.forest.tree_id
        while True:
            links = [(x, y)
                     for tid in fragment_tids if self.forest.has_tour(tid)
                     for x in np.sort(self.forest.tour_vertices(tid)).tolist()
                     for y in sorted(self.adj[x])
                     if tree_id(y) != tree_id(x)]
            chosen = self._forest_subset(links)
            if not chosen:
                break
            report = self.forest.batch_link(chosen)
            self.cluster.charge_broadcast(words=max(1, report.messages),
                                          category="tour-update")
            # Re-scan: merging fragments can expose further links.
            fragment_tids = report.new_tours
        touched = {tree_id(v) for v in range(self.n)}
        for tid in touched:
            self.components.relabel_min(self.forest.tour_vertices(tid))

    # ------------------------------------------------------------------
    def connected(self, u: int, v: int) -> bool:
        return self.forest.connected(u, v)

    def num_components(self) -> int:
        return self.forest.num_components()

    def query_spanning_forest(self) -> ForestSolution:
        return ForestSolution(n=self.n, edges=sorted(self.forest.all_edges()),
                              weights=[])

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        m = sum(len(neighbors) for neighbors in self.adj.values()) // 2
        metrics = self.cluster.metrics
        # Theta(n + m): the stored graph dominates.
        metrics.register_memory("graph", self.n + 2 * m)
        metrics.register_memory("forest", self.forest.words)
        metrics.register_memory("component-ids", self.components.words)
