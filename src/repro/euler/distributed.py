"""Distributed Euler-tour forest: index-based tours, batch join/split.

This is the MPC-facing Euler-tour structure of Sections 5-6.2.  No tour
is ever materialised as a sequence; the structure stores, exactly as the
paper prescribes, *per-edge and per-vertex index information*:

* for each tree edge, the tour id and the positions of its two directed
  traversals (``pos``),
* for each vertex, its tour id; first/last occurrence indices ``f(v)``,
  ``l(v)`` are derived from the incident edges' positions ("indexes ...
  implicitly stored as information on the edges incident on v").

Batch operations update these indices by computing O(k) *segment shift
messages* (see :mod:`repro.euler.auxiliary`): the merged/split tours are
deterministic interleavings of contiguous intervals of old tours, each
moved by a single offset -- which is what Definition 6.2's auxiliary
sequence and the four forward/backward cases compute edge-pair by edge
pair.  Every batch method returns the number of messages it would
broadcast so callers can charge MPC rounds faithfully.

Correctness is property-tested in ``tests/test_euler_distributed.py``
against exact oracles: the networkx components of the linked edge set
(:func:`repro.baselines.component_sets`), that edge set itself, and
networkx's unique tree path.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.euler.auxiliary import (
    Component,
    CutInterval,
    Segment,
    SegmentMap,
    nested_interval_decomposition,
)
from repro.types import Edge, canonical

DirectedEdge = Tuple[int, int]


@dataclass
class BatchReport:
    """Accounting output of a batch tour operation.

    ``messages`` counts the O(1)-word broadcast messages (segment
    shifts, new edge positions, tour relabels) the operation generates;
    the connectivity algorithm charges one broadcast of this many words.
    """

    messages: int = 0
    new_tours: List[int] = field(default_factory=list)


class _Frame:
    """One open tour during the iterative batch-join layout."""

    __slots__ = ("tid", "length", "rotation", "kids", "kid_index",
                 "cur_rot", "cur_out", "base", "return_edge")

    def __init__(self, tid: int, length: int, rotation: int,
                 kids: List[Tuple[int, int, int, int]], base: int,
                 return_edge: Optional[DirectedEdge]):
        self.tid = tid
        self.length = length
        self.rotation = rotation
        self.kids = kids
        self.kid_index = 0
        self.cur_rot = 0
        self.cur_out = base
        self.base = base
        self.return_edge = return_edge


class DistributedEulerForest:
    """Euler-tour forest over vertices ``0 .. n-1`` with batch updates."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one vertex")
        self.n = n
        self._next_tid = n
        self._tour_of_vertex: Dict[int, int] = {v: v for v in range(n)}
        self._vertices_by_tour: Dict[int, Set[int]] = {
            v: {v} for v in range(n)
        }
        self._tour_len: Dict[int, int] = {v: 0 for v in range(n)}
        self._root_of_tour: Dict[int, int] = {v: v for v in range(n)}
        self._pos: Dict[DirectedEdge, int] = {}
        self._edges_by_tour: Dict[int, Set[Edge]] = {
            v: set() for v in range(n)
        }
        self._tid_of_edge: Dict[Edge, int] = {}
        self._adj: Dict[int, Set[int]] = {v: set() for v in range(n)}

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def _fresh_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def tree_id(self, v: int) -> int:
        return self._tour_of_vertex[v]

    def connected(self, u: int, v: int) -> bool:
        return self._tour_of_vertex[u] == self._tour_of_vertex[v]

    def has_edge(self, u: int, v: int) -> bool:
        return canonical(u, v) in self._tid_of_edge

    def tour_vertices(self, tid: int) -> Set[int]:
        return set(self._vertices_by_tour[tid])

    def all_edges(self) -> List[Edge]:
        return sorted(self._tid_of_edge)

    def root_of(self, tid: int) -> int:
        return self._root_of_tour[tid]

    def num_components(self) -> int:
        return len(self._vertices_by_tour)

    def has_tour(self, tid: int) -> bool:
        """True while ``tid`` names a live tour (ids are never reused)."""
        return tid in self._vertices_by_tour

    @property
    def words(self) -> int:
        """Accounting footprint: O(1) words per vertex and tree edge."""
        return self.n + 4 * len(self._tid_of_edge)

    # ------------------------------------------------------------------
    # Derived index information (f, l, parent)
    # ------------------------------------------------------------------
    def first_last(self, v: int) -> Tuple[int, int]:
        """Min and max tour positions among edges incident to ``v``.

        For a non-root vertex these are the positions of the arrival
        edge (parent, v) and departure edge (v, parent); for the root
        they are 0 and L-1.  Singleton: (0, -1).
        """
        neighbors = self._adj[v]
        if not neighbors:
            return (0, -1)
        lo = min(min(self._pos[(p, v)], self._pos[(v, p)])
                 for p in neighbors)
        hi = max(max(self._pos[(p, v)], self._pos[(v, p)])
                 for p in neighbors)
        return (lo, hi)

    def parent(self, v: int) -> Optional[int]:
        """Parent of ``v`` in its rooted tour tree (None for roots)."""
        tid = self._tour_of_vertex[v]
        if self._root_of_tour[tid] == v:
            return None
        return min(self._adj[v], key=lambda p: self._pos[(p, v)])

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
        if self._root_of_tour[self._tour_of_vertex[a]] == a:
            return True
        fa, la = self.first_last(a)
        fv, lv = self.first_last(v)
        return fa < fv and la > lv

    def _boundary(self, tid: int, v: int) -> int:
        """Splice boundary at ``v``: 0 for the root, f(v) + 1 otherwise.

        The walk stands at ``v`` between positions ``boundary - 1`` and
        ``boundary``, so a child tour inserted there keeps the walk
        contiguous.
        """
        if self._root_of_tour[tid] == v:
            return 0
        arrival = min(self._pos[(p, v)] for p in self._adj[v])
        return arrival + 1

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
        auxiliary graph H).  Each merged group of tours becomes one new
        tour laid out by the auxiliary-sequence walk; the method returns
        the broadcast message count (O(k) segment shifts + 2k edge
        positions + relabels).
        """
        if not edges:
            return BatchReport()
        th_children: Dict[int, List[Tuple[int, int, int]]] = {}
        edge_list: List[Tuple[int, int]] = []
        for u, v in edges:
            tid_u = self._tour_of_vertex[u]
            tid_v = self._tour_of_vertex[v]
            if tid_u == tid_v:
                raise ValueError(
                    f"batch_link edge ({u}, {v}) joins a tour to itself"
                )
            th_children.setdefault(tid_u, []).append((u, v, tid_v))
            th_children.setdefault(tid_v, []).append((v, u, tid_u))
            edge_list.append((u, v))

        report = BatchReport()
        visited_global: Set[int] = set()
        for tid in sorted(th_children):
            if tid in visited_global:
                continue
            component_tids = self._collect_component(tid, th_children)
            visited_global |= component_tids
            # Forest check: a group of t tours must be joined by t-1 edges.
            in_component = sum(
                1 for u, v in edge_list
                if self._tour_of_vertex[u] in component_tids
            )
            if in_component != len(component_tids) - 1:
                raise ValueError(
                    "batch_link edges must form a forest over tours "
                    f"(component of {len(component_tids)} tours got "
                    f"{in_component} edges)"
                )
            messages = self._merge_component(tid, th_children, report)
            report.messages += messages
        return report

    def _collect_component(
        self, start: int, th_children: Dict[int, List[Tuple[int, int, int]]]
    ) -> Set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            tid = frontier.pop()
            for _, _, other in th_children.get(tid, []):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen

    def _merge_component(
        self,
        root_tid: int,
        th_children: Dict[int, List[Tuple[int, int, int]]],
        report: BatchReport,
    ) -> int:
        """Lay out one merged tour; returns the message count."""
        # Root terminal: deterministic choice among root tour's terminals.
        root_terminal = min(u for u, _, _ in th_children[root_tid])
        new_tid = self._fresh_tid()

        segments_by_old: Dict[int, List[Segment]] = {}
        new_positions: Dict[DirectedEdge, int] = {}
        visited: Set[int] = {root_tid}

        def open_frame(tid: int, terminal: int, base: int,
                       return_edge: Optional[DirectedEdge]) -> _Frame:
            length = self._tour_len[tid]
            rotation = (self._boundary(tid, terminal) % length
                        if length else 0)
            kids: List[Tuple[int, int, int, int]] = []
            for attach, other_terminal, other_tid in th_children.get(tid, []):
                if other_tid in visited:
                    continue
                boundary = (self._boundary(tid, attach) % length
                            if length else 0)
                rb = (boundary - rotation) % length if length else 0
                kids.append((rb, attach, other_terminal, other_tid))
            kids.sort()
            return _Frame(tid, length, rotation, kids, base, return_edge)

        def emit(frame: _Frame, rot_lo: int, rot_hi: int) -> None:
            """Rotated interval [rot_lo, rot_hi) -> old-coordinate segments."""
            if rot_lo >= rot_hi:
                return
            length, k = frame.length, frame.rotation
            bucket = segments_by_old.setdefault(frame.tid, [])
            split = length - k
            base = frame.cur_out
            if rot_lo < split:
                hi = min(rot_hi, split)
                bucket.append(Segment(rot_lo + k, hi + k,
                                      base - rot_lo - k, new_tid))
            if rot_hi > split:
                lo = max(rot_lo, split)
                bucket.append(Segment(lo + k - length, rot_hi + k - length,
                                      base + length - k - rot_lo, new_tid))

        stack = [open_frame(root_tid, root_terminal, 0, None)]
        total = 0
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
                new_positions[(attach, terminal)] = frame.cur_out
                frame.cur_out += 1
                visited.add(child_tid)
                stack.append(
                    open_frame(child_tid, terminal, frame.cur_out,
                               (terminal, attach))
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
                    new_positions[frame.return_edge] = parent.cur_out
                    parent.cur_out += 1
                else:
                    total = consumed

        self._apply_merge(new_tid, visited, segments_by_old, new_positions,
                          total, root_terminal)
        report.new_tours.append(new_tid)
        message_count = (
            sum(len(segs) for segs in segments_by_old.values())
            + len(new_positions)
            + len(visited)  # tour relabel announcements
        )
        return message_count

    def _apply_merge(
        self,
        new_tid: int,
        old_tids: Set[int],
        segments_by_old: Dict[int, List[Segment]],
        new_positions: Dict[DirectedEdge, int],
        total: int,
        new_root: int,
    ) -> None:
        maps = {tid: SegmentMap(segs)
                for tid, segs in segments_by_old.items()}
        new_edges: Set[Edge] = set()
        new_vertices: Set[int] = set()
        for tid in old_tids:
            seg_map = maps.get(tid)
            for edge in self._edges_by_tour.pop(tid):
                a, b = edge
                assert seg_map is not None, "non-singleton tour lacks segments"
                for directed in ((a, b), (b, a)):
                    _, pos = seg_map.apply(self._pos[directed])
                    self._pos[directed] = pos
                self._tid_of_edge[edge] = new_tid
                new_edges.add(edge)
            for vertex in self._vertices_by_tour.pop(tid):
                self._tour_of_vertex[vertex] = new_tid
                new_vertices.add(vertex)
            del self._tour_len[tid]
            del self._root_of_tour[tid]

        for (a, b), pos in new_positions.items():
            self._pos[(a, b)] = pos
            edge = canonical(a, b)
            if edge not in new_edges:
                new_edges.add(edge)
                self._tid_of_edge[edge] = new_tid
                self._adj[a].add(b)
                self._adj[b].add(a)

        self._edges_by_tour[new_tid] = new_edges
        self._vertices_by_tour[new_tid] = new_vertices
        self._tour_len[new_tid] = total
        self._root_of_tour[new_tid] = new_root

    # ------------------------------------------------------------------
    # Batch split (Section 6.3, the inverse procedure)
    # ------------------------------------------------------------------
    def batch_cut(self, edges: Sequence[Edge]) -> BatchReport:
        """Delete a batch of tree edges, splitting tours into fragments.

        Returns the broadcast message count (fragment shifts + relabels).
        New tours get fresh ids; vertices left with no tree edge become
        singleton tours.
        """
        if not edges:
            return BatchReport()
        by_tid: Dict[int, List[Edge]] = {}
        for u, v in edges:
            edge = canonical(u, v)
            tid = self._tid_of_edge.get(edge)
            if tid is None:
                raise ValueError(f"({u}, {v}) is not a tree edge")
            by_tid.setdefault(tid, []).append(edge)

        report = BatchReport()
        for tid, tid_edges in by_tid.items():
            report.messages += self._split_tour(tid, tid_edges, report)
        return report

    def _split_tour(self, tid: int, removed: List[Edge],
                    report: BatchReport) -> int:
        length = self._tour_len[tid]
        root = self._root_of_tour[tid]
        intervals: List[CutInterval] = []
        for a, b in removed:
            i, j = self._pos[(a, b)], self._pos[(b, a)]
            if i < j:
                intervals.append(CutInterval(i, j, b, (a, b)))
            else:
                intervals.append(CutInterval(j, i, a, (b, a)))

        components = nested_interval_decomposition(length, intervals, root)

        # Fragment index: (old_lo, old_hi, new_tid, delta), sorted by lo.
        fragment_index: List[Tuple[int, int, int, int]] = []
        comp_tid: Dict[int, int] = {}
        for ci, comp in enumerate(components):
            if comp.length == 0:
                continue
            ctid = self._fresh_tid()
            comp_tid[ci] = ctid
            running = 0
            for lo, hi in comp.fragments:
                fragment_index.append((lo, hi, ctid, running - lo))
                running += hi - lo + 1
            self._tour_len[ctid] = comp.length
            self._root_of_tour[ctid] = comp.root
            self._edges_by_tour[ctid] = set()
            self._vertices_by_tour[ctid] = set()
            report.new_tours.append(ctid)
        fragment_index.sort()
        starts = [frag[0] for frag in fragment_index]

        def locate(pos: int) -> Tuple[int, int]:
            k = bisect.bisect_right(starts, pos) - 1
            if k < 0:
                raise AssertionError(f"position {pos} outside all fragments")
            lo, hi, ctid, delta = fragment_index[k]
            if not lo <= pos <= hi:
                raise AssertionError(f"position {pos} outside all fragments")
            return ctid, pos + delta

        # Remove the cut edges from the structure.
        for a, b in removed:
            del self._pos[(a, b)]
            del self._pos[(b, a)]
            del self._tid_of_edge[(a, b) if a < b else (b, a)]
            self._adj[a].discard(b)
            self._adj[b].discard(a)

        old_edges = self._edges_by_tour.pop(tid)
        removed_set = {canonical(a, b) for a, b in removed}
        for edge in old_edges:
            if edge in removed_set:
                continue
            a, b = edge
            ctid_a, pos_ab = locate(self._pos[(a, b)])
            ctid_b, pos_ba = locate(self._pos[(b, a)])
            assert ctid_a == ctid_b, "edge traversals split across tours"
            self._pos[(a, b)] = pos_ab
            self._pos[(b, a)] = pos_ba
            self._tid_of_edge[edge] = ctid_a
            self._edges_by_tour[ctid_a].add(edge)

        # Relabel vertices: follow any remaining incident edge, else a
        # fresh singleton tour.
        for vertex in self._vertices_by_tour.pop(tid):
            if self._adj[vertex]:
                neighbor = next(iter(self._adj[vertex]))
                vtid = self._tid_of_edge[canonical(vertex, neighbor)]
            else:
                vtid = self._fresh_tid()
                self._tour_len[vtid] = 0
                self._root_of_tour[vtid] = vertex
                self._edges_by_tour[vtid] = set()
                self._vertices_by_tour[vtid] = set()
                report.new_tours.append(vtid)
            self._tour_of_vertex[vertex] = vtid
            self._vertices_by_tour[vtid].add(vertex)

        del self._tour_len[tid]
        del self._root_of_tour[tid]
        return len(fragment_index) + len(removed) + len(components)

    # ------------------------------------------------------------------
    # Validation (test hook)
    # ------------------------------------------------------------------
    def reconstruct_tour(self, tid: int) -> List[DirectedEdge]:
        """Materialise a tour from positions (tests / debugging only)."""
        directed = []
        for a, b in self._edges_by_tour[tid]:
            directed.append((self._pos[(a, b)], (a, b)))
            directed.append((self._pos[(b, a)], (b, a)))
        directed.sort()
        return [edge for _, edge in directed]

    def check_invariants(self) -> None:
        """Assert positional and structural consistency of every tour."""
        seen_vertices: Set[int] = set()
        for tid, vertices in self._vertices_by_tour.items():
            if seen_vertices & vertices:
                raise AssertionError("tours share vertices")
            seen_vertices |= vertices
            length = self._tour_len[tid]
            walk = self.reconstruct_tour(tid)
            if len(walk) != length:
                raise AssertionError(
                    f"tour {tid}: {len(walk)} positions, length {length}"
                )
            positions = sorted(
                self._pos[d]
                for edge in self._edges_by_tour[tid]
                for d in (edge, (edge[1], edge[0]))
            )
            if positions != list(range(length)):
                raise AssertionError(f"tour {tid}: positions not contiguous")
            root = self._root_of_tour[tid]
            if walk:
                if walk[0][0] != root or walk[-1][1] != root:
                    raise AssertionError(
                        f"tour {tid} does not start/end at root {root}"
                    )
                for (_, b), (c, _) in zip(walk, walk[1:]):
                    if b != c:
                        raise AssertionError(f"tour {tid} walk broken")
                walk_vertices = {a for a, _ in walk} | {b for _, b in walk}
                if walk_vertices != vertices:
                    raise AssertionError(
                        f"tour {tid} vertex set mismatch"
                    )
            else:
                if vertices != {root}:
                    raise AssertionError(
                        f"empty tour {tid} must be the singleton {root}"
                    )
            for vertex in vertices:
                if self._tour_of_vertex[vertex] != tid:
                    raise AssertionError(
                        f"vertex {vertex} mapped to wrong tour"
                    )
        if seen_vertices != set(range(self.n)):
            raise AssertionError("tours do not partition the vertex set")
