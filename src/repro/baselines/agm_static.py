"""Baseline: pure AGM sketching, no maintained forest (Section 4.1).

This is the algorithm the paper's contribution is measured against.
Updates cost O(1) rounds (sketches are linear), total memory is the
same ~O(n log^3 n) -- but a *query* must run the full AGM contraction,
O(log n) supernode-halving iterations each costing MPC rounds, because
nothing but the sketches is stored.  The contraction is
:func:`~repro.core.connectivity.agm_halving`, the loop the maintained
algorithm's replacement search runs from its fragments; here it starts
from singletons.  The claims table
(``benchmarks/test_claims.py``) sets this query cost against
:class:`~repro.core.connectivity.MPCConnectivity`'s O(1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.union_find import UnionFind
from repro.core.api import BatchDynamicAlgorithm
from repro.core.connectivity import agm_halving
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import PhaseMetrics
from repro.mpc.simulator import Cluster
from repro.sketch.graph_sketch import SketchFamily
from repro.types import ForestSolution, Update


class AGMStaticConnectivity(BatchDynamicAlgorithm):
    """Sketch-only dynamic connectivity with O(log n)-round queries."""

    name = "agm-static"

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 columns: Optional[int] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        if columns is None:
            columns = config.sketch_columns
        self.family = SketchFamily(config.n, columns=columns,
                                   rng=self.cluster.rng,
                                   backend=self.cluster.backend)
        self.stats = {"query_iterations": 0, "sketch_failures": 0}
        self._register_memory()

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        updates = inserts + deletes
        self.cluster.charge_broadcast(words=max(1, len(updates)),
                                      category="sketch-update")
        self.family.apply_updates_bulk(updates)

    # ------------------------------------------------------------------
    def query_with_metrics(self) -> Tuple[ForestSolution, PhaseMetrics]:
        """Run the O(log n)-round AGM contraction from scratch.

        Every halving iteration is a genuine MPC super-step here: the
        supernode sketches must be merged across machines (converge) and
        the recovered edges exchanged, so each iteration charges rounds
        -- unlike the maintained-forest algorithm, whose query is one
        sort.
        """
        self.cluster.begin_phase(f"{self.name}-query")
        solution = self._agm_forest()
        metrics = self.cluster.end_phase(batch_size=0)
        return solution, metrics

    def query_spanning_forest(self) -> ForestSolution:
        solution, _ = self.query_with_metrics()
        return solution

    def _agm_forest(self) -> ForestSolution:
        """:func:`~repro.core.connectivity.agm_halving` from singletons;
        each iteration charges its converge and its exchange."""
        members = {v: np.array([v], dtype=np.int64) for v in range(self.n)}
        forest_edges, live, leftovers = agm_halving(self.family, members,
                                                    int, 0)
        for live_count in live:
            self.cluster.charge_converge(
                words=self.family.words_per_vertex, category="query-merge"
            )
            self.cluster.charge_exchange(
                messages=live_count, words=live_count,
                category="query-route",
            )
        self.stats["query_iterations"] = len(live)
        self.stats["sketch_failures"] += len(leftovers)
        return ForestSolution(n=self.n, edges=sorted(forest_edges),
                              weights=[])

    def connected(self, u: int, v: int) -> bool:
        """Connectivity answered by running a full query (the point)."""
        solution, _ = self.query_with_metrics()
        uf = UnionFind(self.n)
        for a, b in solution.edges:
            uf.union(a, b)
        return uf.connected(u, v)

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        self.cluster.metrics.register_memory(
            "sketches", self.n * self.family.words_per_vertex
        )
