"""The component-id array ``C`` (paper, Section 4.2).

``C[v]`` names the connected component of ``v``; the paper's convention
is that a component is named by its minimum vertex id, so two vertices
are connected iff their ids match, and reporting components is a sort.
The array costs exactly ``n`` words -- part of the ~O(n) budget.
:func:`forest_picks` is the one local spanning-forest step over such
labels.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


class ComponentIds:
    """Dense ``C`` array relabelled by the paper's min-id convention."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._ids = np.arange(n, dtype=np.int64)

    def id_of(self, v: int) -> int:
        return int(self._ids[v])

    def same(self, u: int, v: int) -> bool:
        return self._ids[u] == self._ids[v]

    @property
    def ids(self) -> np.ndarray:
        """``C`` itself, as a read-only view (no copy)."""
        view = self._ids.view()
        view.flags.writeable = False
        return view

    def relabel_min(self, vertices: Sequence[int]) -> int:
        """Set a component's id to its minimum member (paper convention);
        returns the id.  ``vertices`` is a sequence or an int64 array
        (a tour's vertex array goes in as it is)."""
        idx = np.asarray(vertices, dtype=np.int64)
        if idx.size == 0:
            raise ValueError("cannot relabel an empty vertex set")
        new_id = int(idx.min())
        self._ids[idx] = new_id
        return new_id

    @property
    def words(self) -> int:
        return self.n


def forest_picks(label_pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """Kruskal over ``label_pairs`` in the given order: the positions
    of the pairs that join two labels not yet joined by an earlier pick.

    The local F_H step of Claim 6.1 (and of the Section 7.1 swap pass):
    a pair names the component labels of an edge's endpoints, so the
    picks are a spanning forest of the auxiliary graph H, parallel
    edges and self-loops dropped.  Pass the pairs sorted by weight for
    a minimum one.
    """
    leader: Dict[int, int] = {}

    def find(x: int) -> int:
        while leader.setdefault(x, x) != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    picks: List[int] = []
    for pos, (a, b) in enumerate(label_pairs):
        ra, rb = find(a), find(b)
        if ra != rb:
            leader[ra] = rb
            picks.append(pos)
    return picks
