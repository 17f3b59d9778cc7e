"""Auxiliary-structure machinery for batch Euler-tour updates.

Batch join (paper, Section 6.2) works by building the auxiliary tree
``T_H`` over the tours being merged, walking its auxiliary sequence, and
emitting O(k) *shift messages* that every machine applies to its local
tour indices.  Definition 6.2's recursive sequence and the four
forward/backward cases reduce to one statement: **the merged tour is a
deterministic interleaving of O(k) contiguous segments of the old
tours**, and each segment is shifted by a single offset.  This module
owns the segment bookkeeping:

* :class:`SegmentMap` -- the set of (old interval -> new tour, offset)
  messages for one old tour, applied by position lookup;
* :func:`nested_interval_decomposition` -- the inverse machinery for
  batch *split*: removing k tree edges cuts a tour into O(k) fragments
  whose nesting structure determines the resulting components.

Both are pure data manipulation, independent of the simulator; the
distributed forest turns their outputs into broadcastable messages.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Segment:
    """Old positions ``[old_lo, old_hi)`` map to ``old + delta`` in
    tour ``new_tid``."""

    old_lo: int
    old_hi: int
    delta: int
    new_tid: int

    def __post_init__(self) -> None:
        if self.old_lo >= self.old_hi:
            raise ValueError("segment must be non-empty")

    def covers(self, pos: int) -> bool:
        return self.old_lo <= pos < self.old_hi

    def apply(self, pos: int) -> Tuple[int, int]:
        return self.new_tid, pos + self.delta


class SegmentMap:
    """The shift messages for one old tour, with O(log k) lookup.

    A machine holding a directed edge at old position ``p`` finds its
    segment by binary search -- this mirrors the paper's "each machine
    can update its part of the E-tour stored inside the local memory"
    (Lemma 6.4) after receiving the broadcast messages.
    """

    def __init__(self, segments: Sequence[Segment]):
        ordered = sorted(segments, key=lambda s: s.old_lo)
        for left, right in zip(ordered, ordered[1:]):
            if left.old_hi > right.old_lo:
                raise ValueError("segments overlap")
        self._segments: List[Segment] = list(ordered)
        self._starts: List[int] = [s.old_lo for s in ordered]

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self):
        return iter(self._segments)

    def lookup(self, pos: int) -> Optional[Segment]:
        i = bisect.bisect_right(self._starts, pos) - 1
        if i < 0:
            return None
        segment = self._segments[i]
        return segment if segment.covers(pos) else None

    def apply(self, pos: int) -> Tuple[int, int]:
        segment = self.lookup(pos)
        if segment is None:
            raise KeyError(f"position {pos} is not covered by any segment")
        return segment.apply(pos)

    @property
    def message_count(self) -> int:
        """Each segment is one O(1)-word broadcast message."""
        return len(self._segments)


@dataclass
class CutInterval:
    """The tour interval bracketed by a removed tree edge.

    ``lo``/``hi`` are the positions of the two directed traversals of
    the removed edge; positions strictly inside belong to the severed
    subtree, rooted at ``child``.
    """

    lo: int
    hi: int
    child: int
    edge: Tuple[int, int]


@dataclass
class Component:
    """One output component of a batch split: ordered old-position
    fragments (inclusive bounds), plus its root vertex."""

    root: int
    fragments: List[Tuple[int, int]]

    @property
    def length(self) -> int:
        return sum(hi - lo + 1 for lo, hi in self.fragments)


def nested_interval_decomposition(
    length: int, intervals: Sequence[CutInterval], top_root: int
) -> List[Component]:
    """Decompose a tour into components after removing cut intervals.

    ``intervals`` must be properly nested or disjoint (they are subtree
    brackets of one tree, so this always holds).  Returns one component
    per interval (the severed subtree) plus the *top* component (what
    remains around the removed subtrees, keeping ``top_root``).  The
    removed edge positions themselves (``lo`` and ``hi``) belong to no
    component.  Total fragment count is O(k), the paper's message bound
    for batch deletions (Section 6.3).
    """
    ordered = sorted(intervals, key=lambda iv: iv.lo)
    for left, right in zip(ordered, ordered[1:]):
        if right.lo <= left.hi and right.hi > left.hi:
            raise ValueError("cut intervals cross without nesting")

    top = Component(root=top_root, fragments=[])
    components: List[Component] = []
    # Stack entries: (component, resume_position, interval_hi).
    stack: List[Tuple[Component, int, int]] = [(top, 0, length)]

    def close_until(pos: int) -> None:
        """Pop every interval that ends before ``pos`` begins."""
        while len(stack) > 1 and stack[-1][2] < pos:
            component, resume, hi = stack.pop()
            if resume <= hi - 1:
                component.fragments.append((resume, hi - 1))
            parent, parent_resume, parent_hi = stack.pop()
            stack.append((parent, hi + 1, parent_hi))

    for interval in ordered:
        close_until(interval.lo)
        component, resume, comp_hi = stack.pop()
        if resume <= interval.lo - 1:
            component.fragments.append((resume, interval.lo - 1))
        stack.append((component, resume, comp_hi))
        # Parent resumes after the interval; recorded when child closes.
        new_component = Component(root=interval.child, fragments=[])
        components.append(new_component)
        stack.append((new_component, interval.lo + 1, interval.hi))

    close_until(length + 1)
    component, resume, comp_hi = stack.pop()
    if resume <= length - 1:
        component.fragments.append((resume, length - 1))
    components.append(top)
    return components
