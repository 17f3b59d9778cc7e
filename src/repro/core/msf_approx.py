"""(1+eps)-approximate MSF in dynamic streams (Section 7.2).

Chazelle-Rubinfeld-Trevisan reduction, as adapted by the paper: run
``t + 1 = ceil(log_{1+eps} W) + 1`` batch-dynamic connectivity instances
in parallel, instance ``i`` seeing only the edges of weight at most
``(1+eps)^i``.  Then, with ``cc(G_i)`` the number of components of the
``i``-th instance and ``lambda_i = (1+eps)^{i+1} - (1+eps)^i``,

    w(MSF of the rounded graph)
        = n - cc(G) * (1+eps)^t + sum_{i<t} lambda_i * cc(G_i)

which is within (1+eps) of the true MSF weight (Equation (1) of the
paper, stated there for connected G; the ``cc(G) *`` factor is the
standard disconnected-graph generalisation).  The forest itself is
assembled per Section 7.2.2: take edge ``e`` from instance ``i``'s
spanning forest iff its endpoints are disconnected at level ``i - 1``.

All instances process each batch independently -- in MPC they run in
parallel, so the phase's round count is the *maximum* over instances,
which is what this wrapper charges on its own cluster.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.api import BatchDynamicAlgorithm
from repro.core.connectivity import MPCConnectivity
from repro.errors import InvalidUpdateError
from repro.mpc.config import MPCConfig, check_real
from repro.mpc.simulator import Cluster
from repro.types import ForestSolution, Update


class ApproxMSF(BatchDynamicAlgorithm):
    """(1+eps)-approximate MSF / MSF weight under dynamic batches."""

    name = "msf-approx"
    task = "msf_approx"

    def __init__(self, config: MPCConfig, eps: float = 0.25,
                 max_weight: float = 1024.0,
                 cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        eps = check_real("eps", eps, 0.0, inclusive=False)
        max_weight = check_real("max_weight", max_weight, 1.0)
        self.eps = eps
        self.max_weight = max_weight
        self.num_levels = max(1, math.ceil(math.log(max_weight, 1 + eps)))
        # Instance i accepts edges of weight <= (1+eps)^i; the last
        # instance sees everything.
        self.thresholds = [(1 + eps) ** i for i in range(self.num_levels)]
        self.thresholds.append(max((1 + eps) ** self.num_levels, max_weight))
        self.levels: List[MPCConnectivity] = [
            MPCConnectivity(config, track_edges=False,
                            cluster=Cluster(config,
                                            backend=self.cluster.backend))
            for _ in range(self.num_levels + 1)
        ]

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        for up in inserts + deletes:
            if not 1.0 <= up.weight <= self.max_weight:
                raise InvalidUpdateError(
                    f"edge weight {up.weight} outside [1, {self.max_weight}]"
                )
        level_rounds = 0
        for level, threshold in enumerate(self.thresholds):
            sub_batch = [up for up in inserts + deletes
                         if up.weight <= threshold]
            if not sub_batch:
                continue
            snapshot = self.levels[level].apply_batch(sub_batch)
            level_rounds = max(level_rounds, snapshot.rounds)
        # All levels run in parallel on disjoint machine groups.
        self.cluster.metrics.charge_rounds(level_rounds, "parallel-levels")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def weight_estimate(self) -> float:
        """Equation (1): the exact MSF weight of the rounded graph."""
        cc = [lvl.num_components() for lvl in self.levels]
        cc_top = cc[-1]
        top_factor = (1 + self.eps) ** self.num_levels
        estimate = self.n - cc_top * top_factor
        for i in range(self.num_levels):
            lam = (1 + self.eps) ** (i + 1) - (1 + self.eps) ** i
            estimate += lam * cc[i]
        return float(estimate)

    def query_forest(self) -> ForestSolution:
        """Assemble the (1+eps)-approximate forest (Section 7.2.2).

        Deviation from the paper's literal text: the level
        test alone is not enough -- one level's forest can contribute
        *two* edges between the same pair of lower-level components
        (F_i need not connect a G_{i-1} component through that
        component's own vertices), which closes a cycle.  A union-find
        over the assembled forest drops such duplicates; the survivor
        has the same rounded weight class, so the approximation bound
        is unaffected, and the check is the same O(1)-round local
        H-forest computation used everywhere else.
        """
        parent: dict = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edges = []
        weights = []
        for i, level in enumerate(self.levels):
            forest_i = level.query_spanning_forest()
            for u, v in forest_i.edges:
                if i > 0 and self.levels[i - 1].connected(u, v):
                    continue
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                parent[ru] = rv
                edges.append((u, v))
                # Level membership pins the rounded weight class.
                weights.append(self.thresholds[i])
        order = sorted(range(len(edges)), key=lambda j: edges[j])
        return ForestSolution(
            n=self.n,
            edges=[edges[j] for j in order],
            weights=[weights[j] for j in order],
        )

    def num_components(self) -> int:
        return self.levels[-1].num_components()

    def connected(self, u: int, v: int) -> bool:
        return self.levels[-1].connected(u, v)

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        total = sum(lvl.total_memory_words() for lvl in self.levels)
        self._register("level-instances", total)
