"""O(alpha)-approximate matching in dynamic streams (Theorem 8.2).

Implementation of the [AKLY16] sparsifier, driven in batches:

* vertices are split into L / R by a pairwise hash (the bipartite
  reduction loses a constant factor);
* for each guess OPT' in {2^j}, L and R are hashed into ``beta =
  ceil(OPT'/alpha)`` groups; each L-group is assigned ``gamma =
  ceil(OPT'/alpha^2)`` random R-groups, giving ~O(max(n^2/alpha^3,
  n/alpha)) *active pairs*;
* every active pair (L_i, R_j) carries an L0-sampler of the edge set
  E(L_i, R_j) (Lemma 3.6): a row of the guess's
  :class:`~repro.sketch.l0_sampler.KeyedSamplers` pool, given to a pair
  on its first update (an untouched pair samples the zero vector);
* the sparsifier H consists of the samplers' current outcomes, and a
  batch-dynamic maximal matching of H (Proposition 8.4 black box,
  :class:`~repro.core.maximal_matching.BatchDynamicMaximalMatching`)
  is maintained throughout.  Lemma 8.3: a maximal matching of H is an
  O(alpha)-approximation of the maximum matching of G.

Batch flow per phase (proof of Theorem 8.2), :meth:`Sparsifier.step`:
collect the affected active pairs, gather their current outcomes X,
update their rows with one scatter, draw the new outcomes Y with one
group read, and feed (delete X, insert Y) to the maximal matching --
O(1) rounds for the sketch work plus the black box's O(log 1/kappa).
The dynamic matching-size Tester (:mod:`repro.core.matching_tester`)
runs the same step over its own group pairs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.api import BatchDynamicAlgorithm
from repro.core.maximal_matching import BatchDynamicMaximalMatching
from repro.errors import ConfigurationError
from repro.mpc.config import MPCConfig, check_count, check_real
from repro.mpc.simulator import Cluster
from repro.sketch.edge_coding import decode_index, encode_edge, num_pairs
from repro.sketch.hashing import PairwiseHash
from repro.sketch.l0_sampler import KeyedSamplers, SamplerRandomness
from repro.types import Edge, MatchingSolution, Update

Pair = Tuple[int, int]


class Sparsifier:
    """The sparsifier H of one guess or Tester: an L0-sampler per
    touched group pair, each pair's current outcome, and the
    Proposition 8.4 maximal matching of the outcomes."""

    def __init__(self, n: int, pair_columns: int, kappa: float,
                 rng: np.random.Generator):
        self.n = n
        self.samplers = KeyedSamplers(
            SamplerRandomness(num_pairs(n), pair_columns, rng))
        self.outcome: Dict[Pair, int] = {}
        self.matching = BatchDynamicMaximalMatching(kappa=kappa)

    def step(self, entries: Sequence[Tuple[Pair, Update]]
             ) -> Tuple[int, int]:
        """One batch of ``(pair, update)`` entries; returns ``(|X|,
        |Y|)`` for round accounting.

        X and Y follow the iteration order of the affected-pair set:
        greedy insertion order decides the matching.
        """
        affected: Set[Pair] = {pair for pair, _ in entries}
        if not affected:
            return (0, 0)
        n, outcome = self.n, self.outcome
        # X: the pre-update outcomes of the affected samplers.
        removed: List[Edge] = [decode_index(n, outcome[pair])
                               for pair in affected
                               if outcome.get(pair, -1) >= 0]
        # Update the sketches (linear, one broadcast): one scatter.
        self.samplers.update(
            [pair for pair, _ in entries],
            [encode_edge(n, up.u, up.v) for _, up in entries],
            [1 if up.is_insert else -1 for _, up in entries])
        # Y: the post-update outcomes, one group read.
        pairs = list(affected)
        inserted: List[Edge] = []
        for pair, idx in zip(pairs, self.samplers.sample(pairs).tolist()):
            outcome[pair] = idx
            if idx >= 0:
                inserted.append(decode_index(n, idx))
        self.matching.apply_batch(inserts=inserted, deletes=removed)
        return (len(removed), len(inserted))

    def words(self, pairs: int) -> int:
        """``pairs`` samplers at full size + the matching state: the
        paper allocates every pair's sampler upfront."""
        rnd = self.samplers.randomness
        return pairs * 3 * rnd.columns * rnd.levels + self.matching.words


class _Guess:
    """The sparsifier state for one OPT' guess."""

    def __init__(self, n: int, opt_guess: int, alpha: float,
                 pair_columns: int, kappa: float,
                 rng: np.random.Generator):
        self.opt_guess = opt_guess
        self.beta = max(1, math.ceil(opt_guess / alpha))
        self.gamma = max(1, math.ceil(opt_guess / alpha ** 2))
        self.side_hash = PairwiseHash(2, rng)
        self.hash_l = PairwiseHash(self.beta, rng)
        self.hash_r = PairwiseHash(self.beta, rng)
        # gamma R-groups per L-group, uniform with replacement ([AKLY16]).
        self.active: Set[Pair] = set()
        for i in range(self.beta):
            for j in rng.integers(0, self.beta, size=self.gamma):
                self.active.add((i, int(j)))
        self.sparsifier = Sparsifier(n, pair_columns, kappa, rng)

    # ------------------------------------------------------------------
    def pair_of(self, u: int, v: int) -> Optional[Pair]:
        """The active pair an edge belongs to, or None."""
        su, sv = self.side_hash(u), self.side_hash(v)
        if su == sv:
            return None  # not an L-R edge under the bipartition
        left, right = (u, v) if su == 0 else (v, u)
        pair = (self.hash_l(left), self.hash_r(right))
        return pair if pair in self.active else None

    def apply_updates(self, updates: List[Update]) -> Tuple[int, int]:
        """Process one batch; returns (|X|, |Y|) for round accounting."""
        return self.sparsifier.step(
            [(pair, up) for up in updates
             if (pair := self.pair_of(up.u, up.v)) is not None])

    @property
    def words(self) -> int:
        """Every active pair's sampler + sparsifier matching state."""
        return self.sparsifier.words(len(self.active))


class AKLYMatching(BatchDynamicAlgorithm):
    """O(alpha)-approximate maximum matching under dynamic batches."""

    name = "matching-akly"
    task = "matching"

    def __init__(self, config: MPCConfig, alpha: float = 4.0,
                 guesses: Optional[List[int]] = None,
                 pair_columns: int = 5, kappa: float = 0.5,
                 cluster: Optional[Cluster] = None,
                 batch_limit: Optional[int] = None):
        super().__init__(config, cluster=cluster, batch_limit=batch_limit)
        alpha = check_real("alpha", alpha, 1.0)
        pair_columns = check_count("pair_columns", pair_columns)
        self.alpha = alpha
        if guesses is None:
            guesses = []
            guess = max(2, int(alpha))
            while guess <= config.n:
                guesses.append(guess)
                guess *= 2
            if not guesses:
                guesses = [config.n]
        elif not guesses:
            raise ConfigurationError("guesses must name at least one guess")
        guesses = [check_count("guesses", g) for g in guesses]
        self.guesses = [
            _Guess(config.n, g, alpha, pair_columns, kappa, self.cluster.rng)
            for g in guesses
        ]

    # ------------------------------------------------------------------
    def _process_batch(self, inserts: List[Update],
                       deletes: List[Update]) -> None:
        updates = inserts + deletes
        self.cluster.charge_broadcast(words=max(1, len(updates)),
                                      category="batch")
        max_xy = 0
        mm_rounds = 0
        for guess in self.guesses:
            x_count, y_count = guess.apply_updates(updates)
            max_xy = max(max_xy, x_count + y_count)
            mm_rounds = max(mm_rounds,
                            guess.sparsifier.matching.rounds_per_batch)
        # Gather X/Y outcomes (O(1) rounds) + black-box matching rounds;
        # the guesses run in parallel, so charge the maximum once.
        self.cluster.charge_gather(total_words=max(1, max_xy),
                                   category="sparsifier")
        self.cluster.metrics.charge_rounds(mm_rounds, "maximal-matching")

    # ------------------------------------------------------------------
    def matching(self) -> MatchingSolution:
        """The largest sparsifier matching over all OPT' guesses."""
        best: List[Edge] = []
        for guess in self.guesses:
            edges = guess.sparsifier.matching.matching().edges
            if len(edges) > len(best):
                best = edges
        return MatchingSolution(edges=best)

    def matching_size(self) -> int:
        return len(self.matching().edges)

    # ------------------------------------------------------------------
    def _register_memory(self) -> None:
        total = sum(guess.words for guess in self.guesses)
        self._register("sparsifier", total)
