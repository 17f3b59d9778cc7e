"""Batch-dynamic maximal matching in MPC (Proposition 8.4, [NO21]).

The paper uses Nowicki-Onak's algorithm strictly as a black box: given a
(sparse) graph H under batch updates, maintain a *maximal* matching of H
in O(log 1/kappa) rounds per batch of O(s^{1-kappa}) updates with ~O(m_H)
total memory.  Any maximal matching satisfies Lemma 8.3's requirement (a
maximal matching is a 2-approximation), so we substitute a direct
batch-dynamic construction with the same interface and cost profile
(DESIGN.md, substitution table):

* insertions are absorbed greedily (an inserted edge is matched iff both
  endpoints are free);
* deleting matched edges exposes their endpoints; exposed vertices are
  re-matched by one sequential greedy pass over their adjacency lists.
  That pass stands in for [NO21]'s parallel re-matching phases and is
  charged their ``rounds_per_batch = ceil(log2(1/kappa)) + 1`` rounds,
  whatever it did; a parallel proposal matching charged as it runs is
  the planned replacement.

The class stores H's adjacency -- Theta(m_H) words, which is exactly the
memory Proposition 8.4 budgets for the black box.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.mpc.simulator import Cluster
from repro.types import Edge, MatchingSolution, canonical


class BatchDynamicMaximalMatching:
    """Maximal matching of an explicit graph H under batch updates.

    This is a component, not a top-level algorithm: the AKLY matcher and
    the dynamic Tester drive it with batches of sparsifier edges and
    charge its round cost on their own cluster.
    """

    def __init__(self, kappa: float = 0.5):
        if not 0 < kappa <= 1:
            raise ConfigurationError("kappa must lie in (0, 1]")
        self.kappa = kappa
        self._adj: Dict[int, Set[int]] = {}
        self._mate: Dict[int, int] = {}
        self._edge_count = 0

    # ------------------------------------------------------------------
    @property
    def rounds_per_batch(self) -> int:
        """The round charge for one batch (Proposition 8.4)."""
        return max(1, math.ceil(math.log2(1.0 / self.kappa))) + 1

    @property
    def num_edges(self) -> int:
        return self._edge_count

    @property
    def words(self) -> int:
        """~O(m_H): adjacency + matching state."""
        return 2 * self._edge_count + len(self._mate)

    def matching(self) -> MatchingSolution:
        edges = sorted({canonical(u, v) for u, v in self._mate.items()})
        return MatchingSolution(edges=edges)

    def matching_size(self) -> int:
        return len(self._mate) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, set())

    # ------------------------------------------------------------------
    def apply_batch(self, inserts: Iterable[Edge],
                    deletes: Iterable[Edge]) -> int:
        """Apply H-updates; returns the number of re-matching rounds.

        Deletions of unknown edges and duplicate insertions are ignored
        (the sparsifier layers can emit both when samplers churn).
        """
        exposed: Set[int] = set()
        for u, v in deletes:
            if not self.has_edge(u, v):
                continue
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._edge_count -= 1
            if self._mate.get(u) == v:
                del self._mate[u]
                del self._mate[v]
                exposed.add(u)
                exposed.add(v)
        for u, v in inserts:
            if u == v or self.has_edge(u, v):
                continue
            self._adj.setdefault(u, set()).add(v)
            self._adj.setdefault(v, set()).add(u)
            self._edge_count += 1
            if u not in self._mate and v not in self._mate:
                self._mate[u] = v
                self._mate[v] = u
                exposed.discard(u)
                exposed.discard(v)
        self._rematch(exposed)
        return self.rounds_per_batch

    def _rematch(self, exposed: Set[int]) -> None:
        """One sequential greedy pass: each exposed vertex, in sorted
        order, takes its smallest free neighbour.

        The matching was maximal before the batch, and insertions match
        any edge whose endpoints are both free, so every edge with two
        free endpoints touches an exposed vertex; the pass leaves the
        matching maximal.
        """
        for v in sorted(exposed):
            if v in self._mate:
                continue
            for u in sorted(self._adj.get(v, ())):
                if u not in self._mate:
                    self._mate[v] = u
                    self._mate[u] = v
                    break

    def check_maximal(self) -> None:
        """Test hook: assert no edge has both endpoints free."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if u not in self._mate and v not in self._mate:
                    raise AssertionError(
                        f"matching not maximal: ({u}, {v}) is free"
                    )
        for u, v in self._mate.items():
            if self._mate.get(v) != u:
                raise AssertionError("mate map is not symmetric")
            if not self.has_edge(u, v):
                raise AssertionError(
                    f"matched pair ({u}, {v}) is not an edge"
                )
