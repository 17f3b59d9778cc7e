"""Placement of vertices and edges onto machines.

The paper distributes edges "using a vertex-based partitioning (with all
edges incident to a vertex stored on consecutive machines)" (Section 5).
At our scale a single block partition suffices: vertex ``v`` lives on
machine ``v // block_size``, and an edge lives with its smaller endpoint.
The partition object is the one place that knows this mapping, so the
distributed data structures can compute per-machine footprints and the
simulator can attribute capacity violations.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.types import Edge


class VertexPartition:
    """Block partition of ``n`` vertices over ``num_machines`` machines."""

    def __init__(self, n: int, num_machines: int):
        if n < 1 or num_machines < 1:
            raise ValueError("need n >= 1 and num_machines >= 1")
        self.n = n
        self.num_machines = num_machines
        self.block_size = max(1, math.ceil(n / num_machines))

    def machine_of_vertex(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return min(self.num_machines - 1, v // self.block_size)

    def machines_of_vertices(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`machine_of_vertex` (no range check).

        The thread backend's row sharding uses this, so it can never
        drift from the scalar placement.
        """
        return np.minimum(vs // self.block_size, self.num_machines - 1)

    def machine_of_edge(self, edge: Edge) -> int:
        """Edges live with their smaller endpoint's block."""
        return self.machine_of_vertex(min(edge))

    def vertices_of(self, machine_id: int) -> range:
        lo = machine_id * self.block_size
        hi = min(self.n, lo + self.block_size)
        if machine_id == self.num_machines - 1:
            hi = self.n
        return range(min(lo, self.n), hi)

    def load_histogram(self, edges: Iterable[Edge]) -> List[int]:
        """Edges per machine -- used to audit balance in tests."""
        loads = [0] * self.num_machines
        for edge in edges:
            loads[self.machine_of_edge(edge)] += 1
        return loads

    def spread(self, items: int) -> Dict[int, int]:
        """Spread ``items`` uniformly over machines (for footprint audits)."""
        base, extra = divmod(items, self.num_machines)
        return {
            m: base + (1 if m < extra else 0) for m in range(self.num_machines)
        }
