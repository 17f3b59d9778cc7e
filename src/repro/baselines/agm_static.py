"""Baseline: pure AGM sketching, no maintained forest (Section 4.1).

This is the algorithm the paper's contribution is measured against.
Updates cost O(1) rounds (sketches are linear), total memory is the
same ~O(n log^3 n) -- but a *query* must run the full AGM contraction,
O(log n) supernode-halving iterations each costing MPC rounds, because
nothing but the sketches is stored.  The claims table
(``benchmarks/test_claims.py``) sets this query cost against
:class:`~repro.core.connectivity.MPCConnectivity`'s O(1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.mpc.config import MPCConfig
from repro.mpc.metrics import PhaseMetrics
from repro.mpc.simulator import Cluster
from repro.sketch.graph_sketch import SketchFamily
from repro.types import Edge, ForestSolution, Update


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
        n = self.n
        leader: Dict[int, int] = {v: v for v in range(n)}

        def find(x: int) -> int:
            while leader[x] != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        # Supernodes are *membership* lists over the family pool's
        # vertex rows, starting as singletons.  Every halving iteration
        # re-merges each live supernode's member rows through the
        # execution backend -- exactly the per-iteration converge-cast
        # the model charges -- and the parent only ever sees the
        # recovered edges, never materialised supernode cells.
        members: Dict[int, np.ndarray] = {
            v: np.array([v], dtype=np.int64) for v in range(n)
        }
        forest_edges: List[Edge] = []
        iterations = 0
        for column in range(self.family.columns):
            roots = sorted(r for r in members if find(r) == r)
            # One halving iteration: merge supernode sketches (converge
            # tree), query every live supernode *in parallel* -- one
            # fused zero-test + recovery pass over the shipped
            # memberships -- and route the recovered edges (one
            # exchange).  Gathering all samples before contracting is
            # the faithful MPC super-step: within an iteration every
            # machine queries the sketch state from the iteration's
            # start.
            zeros, sampled = self.family.query_iteration_groups(
                [members[r] for r in roots], column
            )
            if zeros.all():
                break
            iterations += 1
            live_count = int((~zeros).sum())
            self.cluster.charge_converge(
                words=self.family.words_per_vertex, category="query-merge"
            )
            self.cluster.charge_exchange(
                messages=live_count, words=live_count,
                category="query-route",
            )
            for root, edge in zip(roots, sampled):
                if edge is None:
                    continue
                a, b = edge
                ra, rb = find(a), find(b)
                if ra == rb:
                    continue
                leader[ra] = rb
                members[rb] = np.concatenate((members[rb], members[ra]))
                del members[ra]
                forest_edges.append((a, b))
        self.stats["query_iterations"] = iterations
        remaining = sorted(r for r in members if find(r) == r)
        zero = self.family.cuts_empty_groups(
            [members[r] for r in remaining]
        )
        leftovers = [r for r, is_z in zip(remaining, zero) if not is_z]
        self.stats["sketch_failures"] += len(leftovers)
        return ForestSolution(n=n, edges=sorted(forest_edges), weights=[])

    def connected(self, u: int, v: int) -> bool:
        """Connectivity answered by running a full query (the point)."""
        solution, _ = self.query_with_metrics()
        uf: Dict[int, int] = {x: x for x in range(self.n)}

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        for a, b in solution.edges:
            uf[find(a)] = find(b)
        return find(u) == find(v)

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        self.cluster.metrics.register_memory(
            "sketches", self.n * self.family.words_per_vertex
        )
