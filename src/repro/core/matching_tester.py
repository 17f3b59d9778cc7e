"""Matching-size estimation via Tester instances (Section 8.2).

[AKL17]-style meta-algorithm: O(log n) parallel ``Tester(G, k)``
instances with geometric guesses ``k = 2^j``; each tester distinguishes
``OPT >= k`` from ``OPT << k``, and the estimator reports the largest
accepted guess.

* **Insertion-only tester** (space ~O(k)): a greedy matching capped at
  ``k``; accept iff the matching reaches ``k/2`` (a maximal matching is
  a 2-approximation below the cap).
* **Dynamic tester** (space ~O(k^2)): hash vertices into ``Theta(k)``
  groups, keep an L0-sampler per group pair (Lemma 3.6), maintain a
  maximal matching of the sampled subgraph H with the Proposition 8.4
  black box; accept iff it reaches ``k / accept_slack``.  The samplers,
  outcomes and matching are the AKLY sparsifier's
  (:class:`~repro.core.matching_akly.Sparsifier`): a pair's sampler is a
  pool row given on its first update, and each batch runs the one
  sparsifier step over the batch's group pairs.

To respect the theorem's total-space bounds (~O(n/alpha^2) insertion /
~O(n^2/alpha^4) dynamic), testers with ``k`` above the per-tester budget
``k0 = ceil(n / alpha^2)`` run on a vertex-subsampled graph: each vertex
survives with probability ``p = sqrt(k0 / k)`` under a four-wise
independent hash, shrinking the effective guess to ``k * p^2 = k0``
while an OPT >= k matching retains ~``p^2 k`` edges in expectation --
the [AKL17] subsampling argument, reconstructed here from its summary
in the paper (the alpha-factor loss shows up as the accept-threshold
slack).  This subsampling is a substitution for [AKL17]'s own
construction, which the paper only summarises.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.core.matching_akly import Pair, Sparsifier, endpoint_arrays
from repro.errors import ConfigurationError, InvalidUpdateError
from repro.mpc.config import MPCConfig, check_count, check_real
from repro.mpc.simulator import Cluster
from repro.sketch.hashing import FourWiseHash, PairwiseHash
from repro.types import Update

_SAMPLE_RANGE = 1 << 20


class MatchingTester:
    """One Tester(G, k) instance (insertion-only or dynamic)."""

    def __init__(self, n: int, k: int, dynamic: bool, budget: int,
                 rng: np.random.Generator, pair_columns: int = 4,
                 kappa: float = 0.5, accept_slack: float = 2.0):
        if k < 1:
            raise ConfigurationError("guess k must be >= 1")
        self.k = k
        self.dynamic = dynamic
        self.accept_slack = accept_slack
        # Vertex subsampling keeps the effective guess within budget:
        # k * p^2 = budget, taken exactly (the float product can land
        # above an integer and round up to budget + 1).
        self.p = 1.0 if k <= budget else math.sqrt(budget / k)
        self.k_eff = min(k, budget)
        self.vertex_hash = FourWiseHash(_SAMPLE_RANGE, rng)
        if dynamic:
            self.groups = max(2, 2 * self.k_eff)
            self.group_hash = PairwiseHash(self.groups, rng)
            self.sparsifier = Sparsifier(n, pair_columns, kappa, rng)
        else:
            self.cap = self.k_eff
            self._mate: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _sampled(self, v: int) -> bool:
        return self.vertex_hash(v) < self.p * _SAMPLE_RANGE

    def apply_updates(self, updates: List[Update]) -> None:
        if self.dynamic:
            self._apply_dynamic(updates)
        else:
            self._apply_insertion(updates)

    def _apply_insertion(self, updates: List[Update]) -> None:
        for up in updates:
            if up.is_delete:
                raise InvalidUpdateError(
                    "insertion-only tester received a deletion"
                )
            if len(self._mate) // 2 >= self.cap:
                return
            if not (self._sampled(up.u) and self._sampled(up.v)):
                continue
            if up.u not in self._mate and up.v not in self._mate:
                self._mate[up.u] = up.v
                self._mate[up.v] = up.u

    def _entries(self, updates: List[Update]) -> List[Tuple[Pair, Update]]:
        """The batch's ``(group pair, update)`` entries of the sampled
        subgraph, in update order.  An edge with an unsampled endpoint
        has no pair, nor has an intra-group edge (those are dropped
        with Theta(k) groups).  Each hash reads all endpoints of the
        batch in one vectorized field evaluation."""
        size = len(updates)
        ends = np.concatenate(endpoint_arrays(updates))
        sampled = self.vertex_hash.hash_many(ends) < self.p * _SAMPLE_RANGE
        groups = self.group_hash.hash_many(ends)
        gu, gv = groups[:size], groups[size:]
        keep = sampled[:size] & sampled[size:] & (gu != gv)
        return [(pair, up) for up, kept, pair
                in zip(updates, keep.tolist(),
                       zip(np.minimum(gu, gv).tolist(),
                           np.maximum(gu, gv).tolist()))
                if kept]

    def _apply_dynamic(self, updates: List[Update]) -> None:
        self.sparsifier.step(self._entries(updates))

    # ------------------------------------------------------------------
    def observed_size(self) -> int:
        if self.dynamic:
            return self.sparsifier.matching.matching_size()
        return len(self._mate) // 2

    def accepts(self) -> bool:
        """Does this tester believe OPT >= k?"""
        return self.observed_size() >= self.k_eff / self.accept_slack

    @property
    def words(self) -> int:
        """Theoretical footprint (the paper allocates pairs upfront)."""
        if self.dynamic:
            return self.sparsifier.words(self.groups * (self.groups - 1)
                                         // 2)
        return self.cap * 2

    @property
    def rounds_per_batch(self) -> int:
        if self.dynamic:
            return self.sparsifier.matching.rounds_per_batch + 1
        return 1


class MatchingSizeEstimator(BatchDynamicAlgorithm):
    """O(alpha)-approximate matching-size estimation (Thms 8.5 / 8.6)."""

    name = "matching-size"
    task = "matching_size"

    def __init__(self, config: MPCConfig, alpha: float = 4.0,
                 dynamic: bool = False,
                 cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None,
                 pair_columns: int = 4, kappa: float = 0.5,
                 accept_slack: float = 2.0):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        alpha = check_real("alpha", alpha, 1.0)
        pair_columns = check_count("pair_columns", pair_columns)
        accept_slack = check_real("accept_slack", accept_slack, 0.0,
                                  inclusive=False)
        if alpha > math.sqrt(config.n):
            raise ConfigurationError(
                "Theorems 8.5/8.6 require alpha <= sqrt(n)"
            )
        self.alpha = alpha
        self.dynamic = dynamic
        # Theorem 8.5 (insert-only) vs 8.6 (dynamic): per-instance, so
        # the session capability check reads the instance attribute.
        self.supports_deletions = dynamic
        budget = max(1, math.ceil(config.n / alpha ** 2))
        self.testers: List[MatchingTester] = []
        k = 1
        while k <= config.n // 2:
            self.testers.append(
                MatchingTester(config.n, k, dynamic, budget,
                               self.cluster.rng, pair_columns=pair_columns,
                               kappa=kappa, accept_slack=accept_slack)
            )
            k *= 2

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        updates = inserts + deletes
        self.cluster.charge_broadcast(words=max(1, len(updates)),
                                      category="batch")
        rounds = 0
        for tester in self.testers:
            tester.apply_updates(updates)
            rounds = max(rounds, tester.rounds_per_batch)
        # Testers run in parallel; charge the slowest one once.
        self.cluster.metrics.charge_rounds(rounds, "testers")

    # ------------------------------------------------------------------
    def estimate(self) -> float:
        """Largest accepted guess (>= 1 when any edge was matched)."""
        best = 0.0
        for tester in self.testers:
            if tester.accepts():
                best = max(best, float(tester.k))
        if best == 0.0 and self.testers:
            best = float(min(1, self.testers[0].observed_size()))
        return best

    def _register_memory(self) -> None:
        total = sum(tester.words for tester in self.testers)
        self._register("testers", total)
