"""Distributed Euler-tour forest: index-based tours, batch join/split.

This is the MPC-facing Euler-tour structure of Sections 5-6.2.  No tour
is ever materialised as a sequence; the structure stores, exactly as the
paper prescribes, *per-edge and per-vertex index information*, laid out
as int64 arrays:

* per edge slot (one row per tree edge, at most n - 1 rows): the
  canonical endpoints ``a < b`` and the positions of the traversals
  ``(a, b)`` and ``(b, a)``; free rows sit on a stack and have
  endpoints ``-1``;
* per vertex: its tour id; first/last occurrence indices ``f(v)``,
  ``l(v)`` are derived from the incident edges' positions ("indexes ...
  implicitly stored as information on the edges incident on v"), found
  through the vertex's neighbour -> slot map;
* per tour, keyed by its public tour id: its slot array, its vertex
  array and its root (the tour length is twice the slot count).

Batch operations update these indices by computing O(k) *segment shift
messages*: the merged/split tours are deterministic interleavings of
contiguous intervals of old tours, each moved by a single offset --
which is what Definition 6.2's auxiliary sequence and the four
forward/backward cases compute edge-pair by edge pair.  The O(k) layout
walk stays in Python; applying the messages does not.  Every tour a
batch touches is keyed into one coordinate space (the tour's offset in
the concatenation plus the position), so the whole batch's shifts are
one :func:`~repro.euler.auxiliary.shift_positions` call over all of
their slots, one fancy assignment of the vertices' new tour ids, and
one stable grouping of slots and vertices into the new tours.  Every
batch method returns the number of messages it would broadcast so
callers can charge MPC rounds faithfully.

Tour ids are minted in a fixed order: one per merged component, in
ascending order of the component's smallest old tour id, for a link;
per split tour (in the order the batch first names it), its non-empty
components in decomposition order and then its new singletons in
ascending vertex order, for a cut.  The id order decides the AGM group
order downstream, so it is part of the contract.

Correctness is property-tested in ``tests/test_euler_distributed.py``
against exact oracles: the networkx components of the linked edge set
(:func:`repro.baselines.component_sets`), that edge set itself, and
networkx's unique tree path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.euler.auxiliary import (
    CutInterval,
    nested_interval_decomposition,
    shift_positions,
)
from repro.types import Edge, canonical

DirectedEdge = Tuple[int, int]

_NO_SLOTS = np.zeros(0, dtype=np.int64)


@dataclass
class BatchReport:
    """Accounting output of a batch tour operation.

    ``messages`` counts the O(1)-word broadcast messages (segment
    shifts, new edge positions, tour relabels) the operation generates;
    the connectivity algorithm charges one broadcast of this many words.
    """

    messages: int = 0
    new_tours: List[int] = field(default_factory=list)


class _Tour:
    """One tour: its edge slots, its vertices and its root."""

    __slots__ = ("slots", "vertices", "root")

    def __init__(self, slots: np.ndarray, vertices: np.ndarray, root: int):
        self.slots = slots
        self.vertices = vertices
        self.root = root

    @property
    def length(self) -> int:
        return 2 * self.slots.size


class _Plan:
    """What a batch's Python pass hands to its one vectorised pass.

    ``old_tids`` are the touched tours in concatenation order.  A
    segment ``(tour, lo, hi, delta, dest)`` moves old positions
    ``[lo, hi)`` of ``old_tids[tour]`` by ``delta`` into new tour
    ``first_tid + dest``; ``roots[dest]`` is that tour's root.
    """

    def __init__(self, first_tid: int):
        self.first_tid = first_tid
        self.old_tids: List[int] = []
        self.segments: List[Tuple[int, int, int, int, int]] = []
        self.roots: List[int] = []


class _Frame:
    """One open tour during the iterative batch-join layout."""

    __slots__ = ("tour", "length", "rotation", "kids", "kid_index",
                 "cur_rot", "cur_out", "base", "return_edge")

    def __init__(self, tour: int, length: int, rotation: int,
                 kids: List[Tuple[int, int, int, int]], base: int,
                 return_edge: Optional[int]):
        self.tour = tour
        self.length = length
        self.rotation = rotation
        self.kids = kids
        self.kid_index = 0
        self.cur_rot = 0
        self.cur_out = base
        self.base = base
        self.return_edge = return_edge


def _group(values: np.ndarray, dest: np.ndarray,
           count: int) -> List[np.ndarray]:
    """Split ``values`` into ``count`` arrays by ``dest`` (stable).

    The parts are disjoint slices of one sorted copy; no tour array is
    written in place, so they need no copies of their own."""
    ordered = values[np.argsort(dest, kind="stable")]
    bounds = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(dest, minlength=count), out=bounds[1:])
    bounds = bounds.tolist()
    return [ordered[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class DistributedEulerForest:
    """Euler-tour forest over vertices ``0 .. n-1`` with batch updates."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._next_tid = n
        self._vtid = np.arange(n, dtype=np.int64)
        capacity = n - 1
        self._ends = np.full((capacity, 2), -1, dtype=np.int64)
        self._pos = np.zeros((capacity, 2), dtype=np.int64)
        self._free = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._nfree = capacity
        self._adj: List[Dict[int, int]] = [{} for _ in range(n)]
        self._tours: Dict[int, _Tour] = {
            v: _Tour(_NO_SLOTS, np.array([v], dtype=np.int64), v)
            for v in range(n)
        }

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def _fresh_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _vertex(self, v) -> int:
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside [0, {self.n})")
        return v

    def tree_id(self, v: int) -> int:
        return self._vtid.item(v)

    def connected(self, u: int, v: int) -> bool:
        return self._vtid.item(u) == self._vtid.item(v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def tour_vertices(self, tid: int) -> np.ndarray:
        """The tour's vertices as a read-only int64 array (unordered)."""
        view = self._tours[tid].vertices.view()
        view.flags.writeable = False
        return view

    def all_edges(self) -> List[Edge]:
        ends = self._ends[self._ends[:, 0] >= 0]
        keys = np.sort(ends[:, 0] * self.n + ends[:, 1])
        return list(zip((keys // self.n).tolist(), (keys % self.n).tolist()))

    def root_of(self, tid: int) -> int:
        return self._tours[tid].root

    def num_components(self) -> int:
        return len(self._tours)

    def has_tour(self, tid: int) -> bool:
        """True while ``tid`` names a live tour (ids are never reused)."""
        return tid in self._tours

    @property
    def words(self) -> int:
        """Accounting footprint: O(1) words per vertex and tree edge."""
        return self.n + 4 * (len(self._ends) - self._nfree)

    # ------------------------------------------------------------------
    # Derived index information (f, l, parent)
    # ------------------------------------------------------------------
    def _arrival(self, v: int) -> Tuple[int, int]:
        """``(position, neighbour)`` of the earliest traversal into ``v``."""
        item = self._pos.item
        return min((item(s, 0 if p < v else 1), p)
                   for p, s in self._adj[v].items())

    def first_last(self, v: int) -> Tuple[int, int]:
        """Min and max tour positions among edges incident to ``v``.

        For a non-root vertex these are the positions of the arrival
        edge (parent, v) and departure edge (v, parent); for the root
        they are 0 and L-1.  Singleton: (0, -1).
        """
        slots = self._adj[v].values()
        if not slots:
            return (0, -1)
        item = self._pos.item
        positions = [item(s, c) for s in slots for c in (0, 1)]
        return (min(positions), max(positions))

    def parent(self, v: int) -> Optional[int]:
        """Parent of ``v`` in its rooted tour tree (None for roots)."""
        if self._tours[self._vtid.item(v)].root == v:
            return None
        return self._arrival(v)[1]

    def is_ancestor(self, a: int, v: int) -> bool:
        """Ancestor-or-self test via first/last interval containment.

        Containment must be *strict*: a proper descendant's arrival and
        departure edges lie strictly inside its ancestor's interval,
        whereas a root with a single child shares its child's endpoint
        positions (both are endpoints of the same two directed edges),
        so non-strict comparison would call the child an ancestor.
        """
        if a == v:
            return True
        if self._tours[self._vtid.item(a)].root == a:
            return True
        fa, la = self.first_last(a)
        fv, lv = self.first_last(v)
        return fa < fv and la > lv

    def _boundary(self, tour: _Tour, v: int) -> int:
        """Splice boundary at ``v``: 0 for the root, f(v) + 1 otherwise.

        The walk stands at ``v`` between positions ``boundary - 1`` and
        ``boundary``, so a child tour inserted there keeps the walk
        contiguous.
        """
        if tour.root == v:
            return 0
        return self._arrival(v)[0] + 1

    # ------------------------------------------------------------------
    # Path identification (Lemma 7.2)
    # ------------------------------------------------------------------
    def path_edges(self, u: int, v: int) -> List[Edge]:
        """Edges of the unique tree path between ``u`` and ``v``.

        Implemented by climbing to the LCA using the interval-based
        ancestor test -- the same first/last comparisons the broadcast
        version performs on every machine; the MPC cost (one broadcast
        of f/l values, Lemma 7.2) is charged by the caller.
        """
        if not self.connected(u, v):
            raise ValueError(f"{u} and {v} are in different trees")
        if u == v:
            return []
        left: List[Edge] = []
        a = u
        while not self.is_ancestor(a, v):
            p = self.parent(a)
            assert p is not None, "non-ancestor vertex must have a parent"
            left.append(canonical(a, p))
            a = p
        right: List[Edge] = []
        b = v
        while b != a:
            p = self.parent(b)
            assert p is not None, "climb passed the LCA"
            right.append(canonical(b, p))
            b = p
        right.reverse()
        return left + right

    # ------------------------------------------------------------------
    # Single-edge convenience wrappers
    # ------------------------------------------------------------------
    def link(self, u: int, v: int) -> BatchReport:
        return self.batch_link([(u, v)])

    def cut(self, u: int, v: int) -> BatchReport:
        return self.batch_cut([(u, v)])

    # ------------------------------------------------------------------
    # Batch join (Section 6.2)
    # ------------------------------------------------------------------
    def batch_link(self, edges: Sequence[Edge]) -> BatchReport:
        """Insert a batch of tree edges merging distinct tours.

        ``edges`` must form a forest over the current tours (this is the
        spanning forest F_H the connectivity algorithm computes on the
        auxiliary graph H).  The whole batch is validated before
        anything changes, so a rejected batch leaves the forest as it
        was.  Each merged group of tours becomes one new tour laid out
        by the auxiliary-sequence walk; the method returns the
        broadcast message count (O(k) segment shifts + 2k edge
        positions + relabels).
        """
        if not edges:
            return BatchReport()
        th_children: Dict[int, List[Tuple[int, int, int]]] = {}
        leader: Dict[int, int] = {}

        def find(x: int) -> int:
            while leader.setdefault(x, x) != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        for u, v in edges:
            u, v = self._vertex(u), self._vertex(v)
            tid_u, tid_v = self._vtid.item(u), self._vtid.item(v)
            if tid_u == tid_v:
                raise ValueError(
                    f"batch_link edge ({u}, {v}) joins a tour to itself"
                )
            root_u, root_v = find(tid_u), find(tid_v)
            if root_u == root_v:
                raise ValueError(
                    f"batch_link edges must form a forest over tours "
                    f"(edge ({u}, {v}) closes a cycle)"
                )
            leader[root_u] = root_v
            th_children.setdefault(tid_u, []).append((u, v, tid_v))
            th_children.setdefault(tid_v, []).append((v, u, tid_u))

        report = BatchReport()
        plan = _Plan(self._next_tid)
        new_edges: List[Tuple[int, int, int, int, int]] = []
        laid_out = set()
        for tid in sorted(th_children):
            if tid in laid_out:
                continue
            report.messages += self._lay_out(tid, th_children, plan,
                                             new_edges, laid_out)
        self._apply_link(plan, new_edges)
        report.new_tours = list(range(plan.first_tid, self._next_tid))
        return report

    def _lay_out(
        self,
        root_tid: int,
        th_children: Dict[int, List[Tuple[int, int, int]]],
        plan: _Plan,
        new_edges: List[Tuple[int, int, int, int, int]],
        laid_out: set,
    ) -> int:
        """Walk one merged tour into ``plan``; returns the message count."""
        # Root terminal: deterministic choice among root tour's terminals.
        root_terminal = min(u for u, _, _ in th_children[root_tid])
        dest = self._fresh_tid() - plan.first_tid
        plan.roots.append(root_terminal)
        segments = plan.segments
        first_segment = len(segments)
        # [attach, terminal, position of (attach, terminal), of the return]
        linked: List[List[int]] = []
        visited = {root_tid}

        def open_frame(tid: int, terminal: int, base: int,
                       return_edge: Optional[int]) -> _Frame:
            tour = self._tours[tid]
            index = len(plan.old_tids)
            plan.old_tids.append(tid)
            length = tour.length
            rotation = (self._boundary(tour, terminal) % length
                        if length else 0)
            kids: List[Tuple[int, int, int, int]] = []
            for attach, other_terminal, other_tid in th_children.get(tid, []):
                if other_tid in visited:
                    continue
                boundary = (self._boundary(tour, attach) % length
                            if length else 0)
                rb = (boundary - rotation) % length if length else 0
                kids.append((rb, attach, other_terminal, other_tid))
            kids.sort()
            return _Frame(index, length, rotation, kids, base, return_edge)

        def emit(frame: _Frame, rot_lo: int, rot_hi: int) -> None:
            """Rotated interval [rot_lo, rot_hi) -> old-coordinate segments."""
            if rot_lo >= rot_hi:
                return
            length, k = frame.length, frame.rotation
            split = length - k
            base = frame.cur_out
            if rot_lo < split:
                hi = min(rot_hi, split)
                segments.append((frame.tour, rot_lo + k, hi + k,
                                 base - rot_lo - k, dest))
            if rot_hi > split:
                lo = max(rot_lo, split)
                segments.append((frame.tour, lo + k - length,
                                 rot_hi + k - length,
                                 base + length - k - rot_lo, dest))

        stack = [open_frame(root_tid, root_terminal, 0, None)]
        while stack:
            frame = stack[-1]
            if frame.kid_index < len(frame.kids):
                rb, attach, terminal, child_tid = frame.kids[frame.kid_index]
                frame.kid_index += 1
                # Kids already in-visited (duplicate discovery) are skipped
                # at open time, but a sibling may have claimed the tour.
                if child_tid in visited:
                    continue
                emit(frame, frame.cur_rot, rb)
                frame.cur_out += rb - frame.cur_rot
                frame.cur_rot = rb
                linked.append([attach, terminal, frame.cur_out, -1])
                frame.cur_out += 1
                visited.add(child_tid)
                stack.append(
                    open_frame(child_tid, terminal, frame.cur_out,
                               len(linked) - 1)
                )
            else:
                emit(frame, frame.cur_rot, frame.length)
                frame.cur_out += frame.length - frame.cur_rot
                frame.cur_rot = frame.length
                consumed = frame.cur_out - frame.base
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent.cur_out += consumed
                    assert frame.return_edge is not None
                    linked[frame.return_edge][3] = parent.cur_out
                    parent.cur_out += 1

        for attach, terminal, there, back in linked:
            if attach < terminal:
                new_edges.append((attach, terminal, there, back, dest))
            else:
                new_edges.append((terminal, attach, back, there, dest))
        laid_out |= visited
        return (len(segments) - first_segment  # segment shifts
                + 2 * len(linked)              # new edge positions
                + len(visited))                # tour relabel announcements

    def _gather(self, plan: _Plan) -> Tuple[List[_Tour], np.ndarray,
                                            np.ndarray, np.ndarray]:
        """Retire the plan's old tours.

        Returns ``(tours, slots, slot_base, tour_base)``: the tours'
        slots concatenated in plan order, and the offsets that key each
        tour's positions into the batch's one coordinate space.
        """
        tours = [self._tours.pop(tid) for tid in plan.old_tids]
        counts = np.fromiter((t.slots.size for t in tours), dtype=np.int64,
                             count=len(tours))
        slots = np.concatenate([t.slots for t in tours])
        tour_base = 2 * (np.cumsum(counts) - counts)
        return tours, slots, np.repeat(tour_base, counts), tour_base

    def _shift(self, plan: _Plan, slots: np.ndarray, slot_base: np.ndarray,
               tour_base: np.ndarray) -> np.ndarray:
        """Apply every segment of the batch to ``slots`` in one pass;
        returns each slot's destination (new tid - ``first_tid``)."""
        seg = np.asarray(plan.segments, dtype=np.int64).reshape(-1, 5)
        offset = tour_base[seg[:, 0]]
        shifted, index = shift_positions(
            self._pos[slots] + slot_base[:, None],
            seg[:, 1] + offset, seg[:, 2] + offset, seg[:, 3] - offset,
        )
        dest = seg[index, 4]
        if (dest[:, 0] != dest[:, 1]).any():
            raise AssertionError("edge traversals split across tours")
        self._pos[slots] = shifted
        return dest[:, 0]

    def _install(self, plan: _Plan, tours: List[_Tour], slots: np.ndarray,
                 slot_dest: np.ndarray) -> None:
        """Relabel the vertices of ``tours`` and store the new tours.

        Every vertex of a new tour with edges is an endpoint of one of
        its slots; new singletons are relabelled by the caller first.
        """
        first = plan.first_tid
        self._vtid[self._ends[slots]] = (slot_dest + first)[:, None]
        vertices = np.concatenate([t.vertices for t in tours])
        count = len(plan.roots)
        slot_groups = _group(slots, slot_dest, count)
        vertex_groups = _group(vertices, self._vtid[vertices] - first, count)
        for dest, root in enumerate(plan.roots):
            self._tours[first + dest] = _Tour(
                slot_groups[dest], vertex_groups[dest], root
            )

    def _apply_link(self, plan: _Plan,
                    new_edges: List[Tuple[int, int, int, int, int]]) -> None:
        tours, slots, slot_base, tour_base = self._gather(plan)
        slot_dest = self._shift(plan, slots, slot_base, tour_base)
        fresh = np.asarray(new_edges, dtype=np.int64)
        top = self._nfree - len(fresh)
        new_slots = self._free[top:self._nfree].copy()
        self._nfree = top
        self._ends[new_slots] = fresh[:, :2]
        self._pos[new_slots] = fresh[:, 2:4]
        for (a, b, *_), slot in zip(new_edges, new_slots.tolist()):
            self._adj[a][b] = slot
            self._adj[b][a] = slot
        self._install(plan, tours, np.concatenate((slots, new_slots)),
                      np.concatenate((slot_dest, fresh[:, 4])))

    # ------------------------------------------------------------------
    # Batch split (Section 6.3, the inverse procedure)
    # ------------------------------------------------------------------
    def batch_cut(self, edges: Sequence[Edge]) -> BatchReport:
        """Delete a batch of tree edges, splitting tours into fragments.

        Returns the broadcast message count (fragment shifts + relabels).
        New tours get fresh ids; vertices left with no tree edge become
        singleton tours.  An edge that is not a tree edge, or that the
        batch names twice, raises :class:`ValueError` before anything
        changes.
        """
        if not edges:
            return BatchReport()
        by_tid: Dict[int, List[Tuple[int, int, int]]] = {}
        named: Dict[int, None] = {}
        for u, v in edges:
            u, v = self._vertex(u), self._vertex(v)
            slot = self._adj[u].get(v)
            if slot is None:
                raise ValueError(f"({u}, {v}) is not a tree edge")
            if slot in named:
                raise ValueError(
                    f"batch_cut names edge {canonical(u, v)} twice"
                )
            named[slot] = None
            a, b = canonical(u, v)
            by_tid.setdefault(self._vtid.item(a), []).append((a, b, slot))

        report = BatchReport()
        plan = _Plan(self._next_tid)
        singletons: List[Tuple[int, int]] = []
        for tid, removed in by_tid.items():
            report.messages += self._plan_split(tid, removed, plan,
                                                singletons)
        removed_slots = np.fromiter(named, dtype=np.int64, count=len(named))
        self._ends[removed_slots] = -1
        self._free[self._nfree:self._nfree + len(removed_slots)] = \
            removed_slots
        self._nfree += len(removed_slots)

        tours, slots, slot_base, tour_base = self._gather(plan)
        kept = self._ends[slots, 0] >= 0
        slots = slots[kept]
        slot_dest = self._shift(plan, slots, slot_base[kept], tour_base)
        for vertex, tid in singletons:
            self._vtid[vertex] = tid
        self._install(plan, tours, slots, slot_dest)
        report.new_tours = list(range(plan.first_tid, self._next_tid))
        return report

    def _plan_split(self, tid: int, removed: List[Tuple[int, int, int]],
                    plan: _Plan, singletons: List[Tuple[int, int]]) -> int:
        """Decompose one tour into ``plan``; returns the message count.

        Mints the tids of the tour's non-empty components, then of its
        endpoints left without a tree edge (the new singletons), and
        drops the removed edges from the adjacency.
        """
        tour = self._tours[tid]
        index = len(plan.old_tids)
        plan.old_tids.append(tid)
        item = self._pos.item
        intervals: List[CutInterval] = []
        for a, b, slot in removed:
            i, j = item(slot, 0), item(slot, 1)
            if i < j:
                intervals.append(CutInterval(i, j, b, (a, b)))
            else:
                intervals.append(CutInterval(j, i, a, (b, a)))
        components = nested_interval_decomposition(tour.length, intervals,
                                                   tour.root)
        fragments = 0
        for comp in components:
            if comp.length == 0:
                continue
            dest = self._fresh_tid() - plan.first_tid
            plan.roots.append(comp.root)
            running = 0
            for lo, hi in comp.fragments:
                plan.segments.append((index, lo, hi + 1, running - lo, dest))
                running += hi - lo + 1
            fragments += len(comp.fragments)

        for a, b, _ in removed:
            del self._adj[a][b]
            del self._adj[b][a]
        for vertex in sorted({x for a, b, _ in removed for x in (a, b)}):
            if not self._adj[vertex]:
                singletons.append((vertex, self._fresh_tid()))
                plan.roots.append(vertex)
        return fragments + len(removed) + len(components)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def reconstruct_tour(self, tid: int) -> List[DirectedEdge]:
        """Materialise a tour from positions (tests / debugging only)."""
        slots = self._tours[tid].slots
        ends = self._ends[slots]
        order = np.argsort(self._pos[slots].ravel())
        tails = ends.ravel()[order].tolist()
        heads = ends[:, ::-1].ravel()[order].tolist()
        return list(zip(tails, heads))

    def check_invariants(self) -> None:
        """Assert positional and structural consistency of every tour."""
        live = np.flatnonzero(self._ends[:, 0] >= 0)
        free = self._free[:self._nfree]
        if not np.array_equal(np.sort(np.concatenate((live, free))),
                              np.arange(len(self._ends))):
            raise AssertionError("live and free slots do not partition")
        if (self._ends[live, 0] >= self._ends[live, 1]).any():
            raise AssertionError("edge endpoints not canonical")
        adjacency = sum(len(neighbours) for neighbours in self._adj)
        if adjacency != 2 * len(live):
            raise AssertionError("adjacency does not match the edge slots")
        for slot, (a, b) in zip(live.tolist(), self._ends[live].tolist()):
            if self._adj[a].get(b) != slot or self._adj[b].get(a) != slot:
                raise AssertionError(f"edge ({a}, {b}) missing from adjacency")

        owned_slots = np.zeros(len(self._ends), dtype=np.int64)
        owned_vertices = np.zeros(self.n, dtype=np.int64)
        for tid, tour in self._tours.items():
            vertices = tour.vertices
            owned_slots[tour.slots] += 1
            owned_vertices[vertices] += 1
            if (self._vtid[vertices] != tid).any():
                raise AssertionError(f"tour {tid}: vertex mapped to wrong tour")
            root = tour.root
            if not tour.slots.size:
                if vertices.tolist() != [root]:
                    raise AssertionError(
                        f"empty tour {tid} must be the singleton {root}"
                    )
                continue
            positions = np.sort(self._pos[tour.slots].ravel())
            if not np.array_equal(positions, np.arange(tour.length)):
                raise AssertionError(f"tour {tid}: positions not contiguous")
            walk = self.reconstruct_tour(tid)
            if walk[0][0] != root or walk[-1][1] != root:
                raise AssertionError(
                    f"tour {tid} does not start/end at root {root}"
                )
            for (_, b), (c, _) in zip(walk, walk[1:]):
                if b != c:
                    raise AssertionError(f"tour {tid} walk broken")
            if set(np.unique(self._ends[tour.slots]).tolist()) != set(
                    vertices.tolist()) or len(vertices) != tour.slots.size + 1:
                raise AssertionError(f"tour {tid} vertex set mismatch")
        if not (owned_slots[live] == 1).all() or owned_slots.sum() != len(live):
            raise AssertionError("tours do not partition the edge slots")
        if not (owned_vertices == 1).all():
            raise AssertionError("tours do not partition the vertex set")
