"""Dynamic bipartiteness testing (Section 7.3 / Theorem 7.3).

AGM's double-cover reduction: G' has vertices v1 = v and v2 = v + n and
edges {u1, v2}, {u2, v1} for every edge {u, v} of G.  A component K of
G lifts to one component of G' if K holds an odd cycle (an odd closed
walk joins v1 to v2), else to two.  Lemma 7.4 compares cc(G') with
2 cc(G), which takes a second connectivity instance on G; we run only
the one on G'.  Its ids follow the min-id convention
(:mod:`repro.core.components`), so the one lift of an odd K is named v1
for v = min K, and ``o = #{v < n : C'[v + n] = v}`` counts the odd
components (a bipartite K's lifts keep v1 and v2 apart).  G is bipartite
iff ``o == 0``, and ``cc(G) = (cc(G') + o) / 2``; Lemma 7.4 is o = 0.
``o`` is one vectorised comparison per phase, left uncharged like the
count comparison it replaces; the phase is charged the cover's rounds.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

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
        double_config = MPCConfig(
            n=2 * config.n,
            phi=config.phi,
            mem_factor=config.mem_factor,
            total_memory_factor=config.total_memory_factor,
            strict_capacity=config.strict_capacity,
            seed=config.seed + 1,
        )
        # The cover runs on its own machine group and our backend; it gets
        # two updates per graph update, so its per-phase limit is twice ours.
        self.cover = MPCConnectivity(
            double_config, track_edges=False,
            cluster=Cluster(double_config, backend=self.cluster.backend),
            batch_limit=2 * self.batch_limit)
        #: Components of G holding an odd cycle (``o`` above).
        self.odd_components = 0

    # ------------------------------------------------------------------
    def _cover_updates(self, up: Update) -> List[Update]:
        n = self.config.n
        return [
            Update(up.op, up.u, up.v + n, up.weight),
            Update(up.op, up.u + n, up.v, up.weight),
        ]

    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        cover_batch: List[Update] = []
        for up in inserts + deletes:
            cover_batch.extend(self._cover_updates(up))
        snapshot = self.cover.apply_batch(cover_batch)
        self.cluster.metrics.charge_rounds(snapshot.rounds, "double-cover")
        n = self.config.n
        self.odd_components = int(np.count_nonzero(
            self.cover.components.ids[n:] == np.arange(n)))

    # ------------------------------------------------------------------
    def is_bipartite(self) -> bool:
        """No component of G holds an odd cycle."""
        return self.odd_components == 0

    def num_components(self) -> int:
        return (self.cover.num_components() + self.odd_components) // 2

    def _register_memory(self) -> None:
        self._register("cover-instance", self.cover.total_memory_words())
