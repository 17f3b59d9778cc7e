"""Dynamic graph stream generators (oblivious adversaries, seeded).

Every generator is deterministic given its seed and produces *valid*
update streams for the model: the maintained graph stays simple, a
deletion always targets a live edge, and no edge is touched twice within
one batch (the paper processes a batch insertions-first, so an
insert-then-delete of the same edge inside one batch is ill-defined).

:class:`ChurnStream` is the workhorse: it keeps a live edge set and
emits mixed batches with a configurable deletion fraction, optionally
steering the live-edge count toward a target density.
"""

from __future__ import annotations

from collections.abc import MutableSet
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.types import Batch, Edge, Update, dele, ins

__all__ = [
    "erdos_renyi_insertions",
    "weighted_insertions",
    "power_law_insertions",
    "path_insertions",
    "star_insertions",
    "random_tree_insertions",
    "even_cycle_insertions",
    "odd_cycle_insertions",
    "planted_matching_insertions",
    "ChurnStream",
    "SplitMergeStream",
]


def _sample_new_edge(n: int, live: Set[Edge], blocked: Set[Edge],
                     rng: np.random.Generator,
                     max_tries: int = 200) -> Optional[Edge]:
    for _ in range(max_tries):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge not in live and edge not in blocked:
            return edge
    return None


def erdos_renyi_insertions(n: int, m: int, seed: int = 0) -> List[Update]:
    """``m`` distinct uniform random edges, insertion order randomised."""
    rng = np.random.default_rng(seed)
    live: Set[Edge] = set()
    out: List[Update] = []
    while len(out) < m:
        edge = _sample_new_edge(n, live, set(), rng)
        if edge is None:
            break
        live.add(edge)
        out.append(ins(*edge))
    return out


def weighted_insertions(n: int, m: int, max_weight: float = 100.0,
                        seed: int = 0) -> List[Update]:
    """Random edges with uniform integer weights in [1, max_weight]."""
    rng = np.random.default_rng(seed)
    base = erdos_renyi_insertions(n, m, seed=seed + 1)
    return [
        ins(up.u, up.v, float(rng.integers(1, int(max_weight) + 1)))
        for up in base
    ]


def power_law_insertions(n: int, m: int, exponent: float = 2.5,
                         seed: int = 0) -> List[Update]:
    """Degree-skewed edges: endpoints drawn with P[v] ~ (v+1)^-exponent.

    Produces the hub-dominated streams the paper's motivation cites
    (social networks, the Web).
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1, dtype=float) ** (-exponent)
    weights /= weights.sum()
    live: Set[Edge] = set()
    out: List[Update] = []
    tries = 0
    while len(out) < m and tries < 50 * m + 100:
        tries += 1
        u, v = rng.choice(n, size=2, p=weights)
        if u == v:
            continue
        edge = (int(min(u, v)), int(max(u, v)))
        if edge in live:
            continue
        live.add(edge)
        out.append(ins(*edge))
    return out


def path_insertions(n: int, seed: int = 0) -> List[Update]:
    """A Hamiltonian path in random vertex order (deep trees stress
    the Euler-tour machinery)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    return [ins(int(order[i]), int(order[i + 1])) for i in range(n - 1)]


def star_insertions(n: int, center: int = 0) -> List[Update]:
    """A star (max-degree stress for tour index bookkeeping)."""
    return [ins(center, v) for v in range(n) if v != center]


def random_tree_insertions(n: int, seed: int = 0) -> List[Update]:
    """A uniform random recursive tree."""
    rng = np.random.default_rng(seed)
    return [ins(int(rng.integers(0, v)), v) for v in range(1, n)]


def even_cycle_insertions(length: int) -> List[Update]:
    if length % 2 or length < 4:
        raise ValueError("even cycle length must be even and >= 4")
    return [ins(i, (i + 1) % length) for i in range(length)]


def odd_cycle_insertions(length: int) -> List[Update]:
    if length % 2 == 0 or length < 3:
        raise ValueError("odd cycle length must be odd and >= 3")
    return [ins(i, (i + 1) % length) for i in range(length)]


def planted_matching_insertions(n: int, size: int, noise: int = 0,
                                seed: int = 0) -> List[Update]:
    """A perfect-on-support matching of ``size`` edges plus noise edges.

    The planted matching pins OPT >= size, which the matching
    experiments use to measure approximation ratios.
    """
    if 2 * size > n:
        raise ValueError("matching size cannot exceed n/2")
    rng = np.random.default_rng(seed)
    vertices = rng.permutation(n)
    live: Set[Edge] = set()
    out: List[Update] = []
    for i in range(size):
        u, v = int(vertices[2 * i]), int(vertices[2 * i + 1])
        edge = (min(u, v), max(u, v))
        live.add(edge)
        out.append(ins(*edge))
    for _ in range(noise):
        edge = _sample_new_edge(n, live, set(), rng)
        if edge is None:
            break
        live.add(edge)
        out.append(ins(*edge))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


class _IndexedEdgeSet(MutableSet):
    """A set of edges that can also give up the edge at a position in
    O(1): the last edge takes the vacated slot (swap-pop), so a uniform
    deletion needs no sorted copy of the set."""

    __slots__ = ("_items", "_slot")

    def __init__(self, edges: Iterable[Edge] = ()):
        self._items: List[Edge] = []
        self._slot: Dict[Edge, int] = {}
        for edge in edges:
            self.add(edge)

    def __contains__(self, edge) -> bool:
        return edge in self._slot

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._items)

    def add(self, edge: Edge) -> None:
        if edge not in self._slot:
            self._slot[edge] = len(self._items)
            self._items.append(edge)

    def discard(self, edge: Edge) -> None:
        index = self._slot.get(edge)
        if index is not None:
            self.pop_at(index)

    def pop_at(self, index: int) -> Edge:
        edge = self._items[index]
        last = self._items.pop()
        if last != edge:
            self._items[index] = last
            self._slot[last] = index
        del self._slot[edge]
        return edge


class ChurnStream:
    """Mixed insert/delete batches against a maintained live edge set.

    Parameters
    ----------
    n, seed:
        Vertex count and randomness.
    delete_fraction:
        Probability that a batch slot is a deletion (when edges exist).
    target_edges:
        If set, the generator steers the live count toward this target
        (sliding-window-style workloads keep m roughly constant while
        the paper's memory bound stays ~O(n)).
    weights:
        Optional (lo, hi) integer weight range for MSF workloads.
    """

    def __init__(self, n: int, seed: int = 0, delete_fraction: float = 0.3,
                 target_edges: Optional[int] = None,
                 weights: Optional[Tuple[int, int]] = None):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.delete_fraction = delete_fraction
        self.target_edges = target_edges
        self.weights = weights
        self._live = _IndexedEdgeSet()
        self._weight_of = {}

    @property
    def live(self) -> MutableSet:
        """The live edge set (``in``, ``len``, iteration, ``add``)."""
        return self._live

    @live.setter
    def live(self, edges: Iterable[Edge]) -> None:
        # Sorted, so the seeded stream does not depend on the iteration
        # order of whatever container the caller handed over.
        self._live = _IndexedEdgeSet(sorted(edges))

    @property
    def num_live(self) -> int:
        return len(self._live)

    def _weight(self) -> float:
        if self.weights is None:
            return 1.0
        lo, hi = self.weights
        return float(self.rng.integers(lo, hi + 1))

    def next_batch(self, size: int) -> Batch:
        """One valid batch of up to ``size`` updates."""
        updates: List[Update] = []
        live = self._live
        touched: Set[Edge] = set()
        # This batch's insertions join ``live`` only at the end, so every
        # edge still in ``live`` is untouched and a deletion is one
        # uniform position of it.
        fresh: List[Edge] = []
        for _ in range(size):
            if live and self.rng.random() < self._delete_bias(
                    len(live) + len(fresh)):
                edge = live.pop_at(int(self.rng.integers(0, len(live))))
                touched.add(edge)
                updates.append(
                    dele(*edge, weight=self._weight_of.pop(edge, 1.0))
                )
            else:
                edge = _sample_new_edge(self.n, live, touched, self.rng)
                if edge is None:
                    continue
                touched.add(edge)
                fresh.append(edge)
                weight = self._weight()
                self._weight_of[edge] = weight
                updates.append(ins(*edge, weight=weight))
        for edge in fresh:
            live.add(edge)
        return Batch(updates)

    def _delete_bias(self, live_count: int) -> float:
        """Deletion probability, steered toward the live-count target."""
        if self.target_edges is None:
            return self.delete_fraction
        if live_count > self.target_edges:
            return min(0.95, self.delete_fraction + 0.35)
        if live_count < 0.5 * self.target_edges:
            return max(0.02, self.delete_fraction - 0.25)
        return self.delete_fraction

    def batches(self, count: int, size: int) -> Iterator[Batch]:
        for _ in range(count):
            yield self.next_batch(size)


class SplitMergeStream:
    """Adversarial component surgery: build a tree, then cut random
    tree edges batch by batch.

    This maximises the deletion path's work (every deletion is a tree
    edge; replacements must come from the sketches when spare edges are
    planted) -- the stress case for Section 6.3.
    """

    def __init__(self, n: int, seed: int = 0, spare_edges: int = 0):
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.tree_edges: List[Edge] = []
        self.spare: Set[Edge] = set()
        self._built = False
        self.spare_count = spare_edges

    def build_batches(self, batch_size: int) -> List[Batch]:
        """Initial batches creating the tree plus planted spare edges."""
        updates = random_tree_insertions(self.n, seed=int(
            self.rng.integers(0, 2 ** 31)
        ))
        self.tree_edges = [up.edge for up in updates]
        live = set(self.tree_edges)
        for _ in range(self.spare_count):
            edge = _sample_new_edge(self.n, live, set(), self.rng)
            if edge is None:
                break
            live.add(edge)
            self.spare.add(edge)
            updates.append(ins(*edge))
        self._built = True
        return [Batch(updates[i:i + batch_size])
                for i in range(0, len(updates), batch_size)]

    def surgery_batch(self, cuts: int) -> Batch:
        """Delete ``cuts`` random current tree edges in one batch."""
        if not self._built:
            raise RuntimeError("call build_batches first")
        cuts = min(cuts, len(self.tree_edges))
        picks = self.rng.choice(len(self.tree_edges), size=cuts,
                                replace=False)
        chosen = [self.tree_edges[i] for i in sorted(picks, reverse=True)]
        for i in sorted(picks, reverse=True):
            del self.tree_edges[i]
        return Batch([dele(*edge) for edge in chosen])
