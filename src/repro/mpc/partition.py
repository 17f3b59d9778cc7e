"""Placement of vertices onto machines.

The paper distributes edges "using a vertex-based partitioning (with all
edges incident to a vertex stored on consecutive machines)" (Section 5).
At our scale a single block partition suffices: vertex ``v`` lives on
machine ``v // block_size``.  The thread backend shards pool rows over
its workers with the same mapping.
"""

from __future__ import annotations

import math

import numpy as np


class VertexPartition:
    """Block partition of ``n`` vertices over ``num_machines`` machines."""

    def __init__(self, n: int, num_machines: int):
        if n < 1 or num_machines < 1:
            raise ValueError("need n >= 1 and num_machines >= 1")
        self.n = n
        self.num_machines = num_machines
        self.block_size = max(1, math.ceil(n / num_machines))

    def machines_of_vertices(self, vs: np.ndarray) -> np.ndarray:
        """The machine of each vertex in ``vs`` (no range check)."""
        return np.minimum(vs // self.block_size, self.num_machines - 1)
