"""The component-id array ``C`` (paper, Section 4.2).

``C[v]`` names the connected component of ``v``; the paper's convention
is that a component is named by its minimum vertex id, so two vertices
are connected iff their ids match, and reporting components is a sort.
The array costs exactly ``n`` words -- part of the ~O(n) budget.
"""

from __future__ import annotations

from typing import Sequence

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
