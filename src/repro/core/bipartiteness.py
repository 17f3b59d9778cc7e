"""Dynamic bipartiteness testing (Section 7.3 / Theorem 7.3).

AGM's double-cover reduction: build G' on vertex set {v1, v2 : v in V}
with edges {u1, v2} and {u2, v1} for every edge {u, v}.  G is bipartite
iff G' has exactly twice as many connected components as G (Lemma 7.4).
We therefore run two batch-dynamic connectivity instances -- one on G,
one on G' (2n vertices, 2 updates per update) -- in parallel and compare
component counts at query time.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.api import BatchDynamicAlgorithm
from repro.core.connectivity import MPCConnectivity
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import Cluster
from repro.types import Update


class DynamicBipartiteness(BatchDynamicAlgorithm):
    """Maintains whether the evolving graph is bipartite."""

    name = "bipartiteness"
    task = "bipartiteness"

    def __init__(self, config: MPCConfig, cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        # The two instances run on their own (parallel) machine groups
        # but share this algorithm's execution backend, so one backend
        # serves the whole reduction.
        backend = self.cluster.backend
        self.base = MPCConnectivity(config, track_edges=False,
                                    cluster=Cluster(config, backend=backend))
        double_config = MPCConfig(
            n=2 * config.n,
            phi=config.phi,
            mem_factor=config.mem_factor,
            total_memory_factor=config.total_memory_factor,
            strict_capacity=config.strict_capacity,
            seed=config.seed + 1,
        )
        # The double cover receives two updates per graph update, so its
        # per-phase limit must be twice ours.
        self.cover = MPCConnectivity(
            double_config, track_edges=False,
            cluster=Cluster(double_config, backend=backend),
            batch_limit=2 * self.batch_limit)

    # ------------------------------------------------------------------
    def _cover_updates(self, up: Update) -> List[Update]:
        n = self.config.n
        return [
            Update(up.op, up.u, up.v + n, up.weight),
            Update(up.op, up.u + n, up.v, up.weight),
        ]

    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        batch = inserts + deletes
        base_snapshot = self.base.apply_batch(batch)
        cover_batch: List[Update] = []
        for up in batch:
            cover_batch.extend(self._cover_updates(up))
        cover_snapshot = self.cover.apply_batch(cover_batch)
        # The two instances run in parallel on disjoint machine groups.
        self.cluster.metrics.charge_rounds(
            max(base_snapshot.rounds, cover_snapshot.rounds),
            "parallel-instances",
        )

    # ------------------------------------------------------------------
    def is_bipartite(self) -> bool:
        """Lemma 7.4: bipartite iff cc(G') == 2 * cc(G)."""
        return self.cover.num_components() == 2 * self.base.num_components()

    def num_components(self) -> int:
        return self.base.num_components()

    def _register_memory(self) -> None:
        self._register("base-instance", self.base.total_memory_words())
        self._register("cover-instance", self.cover.total_memory_words())

    def _members(self) -> List[BatchDynamicAlgorithm]:
        return [self.base, self.cover]
