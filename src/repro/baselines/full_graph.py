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
from repro.core.components import ComponentIds
from repro.euler.distributed import DistributedEulerForest
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.types import Edge, ForestSolution, Update, canonical


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
            links = []
            for up in inserts:
                u, v = up.edge
                self.adj[u].add(v)
                self.adj[v].add(u)
                if not self.forest.connected(u, v):
                    # Defer conflicts to a local union-find pass.
                    links.append((u, v))
            chosen = self._forest_subset(links)
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
        leader: Dict[int, int] = {}

        def find(x: int) -> int:
            while leader.setdefault(x, x) != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        chosen = []
        for u, v in links:
            ru, rv = find(self.forest.tree_id(u)), find(self.forest.tree_id(v))
            if ru != rv:
                leader[ru] = rv
                chosen.append((u, v))
        return chosen

    def _reconnect(self, fragment_tids: List[int]) -> None:
        """Replacement scan over the stored adjacency (BFS per fragment).

        Having the graph makes this easy -- the scan is over local
        machine state, charged as one constant-round super-step per the
        baseline papers' claims.
        """
        self.cluster.charge_local(category="replacement-scan")
        links: List[Edge] = []
        for tid in fragment_tids:
            if not self.forest.has_tour(tid):
                continue
            for x in np.sort(self.forest.tour_vertices(tid)).tolist():
                for y in sorted(self.adj[x]):
                    if self.forest.tree_id(y) != self.forest.tree_id(x):
                        links.append((x, y))
        chosen = self._forest_subset(links)
        while chosen:
            report = self.forest.batch_link(chosen)
            self.cluster.charge_broadcast(words=max(1, report.messages),
                                          category="tour-update")
            # Re-scan: merging fragments can expose further links.
            links = []
            for tid in report.new_tours:
                for x in np.sort(self.forest.tour_vertices(tid)).tolist():
                    for y in sorted(self.adj[x]):
                        if self.forest.tree_id(y) != self.forest.tree_id(x):
                            links.append((x, y))
            chosen = self._forest_subset(links)
        touched = {self.forest.tree_id(v) for v in range(self.n)}
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
