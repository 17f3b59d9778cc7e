"""Auxiliary-structure machinery for batch Euler-tour updates.

Batch join (paper, Section 6.2) works by building the auxiliary tree
``T_H`` over the tours being merged, walking its auxiliary sequence, and
emitting O(k) *shift messages* that every machine applies to its local
tour indices.  Definition 6.2's recursive sequence and the four
forward/backward cases reduce to one statement: **the merged tour is a
deterministic interleaving of O(k) contiguous segments of the old
tours**, and each segment is shifted by a single offset.  This module
owns the segment bookkeeping:

* :func:`shift_positions` -- applies a set of (interval -> offset)
  messages to a whole array of positions at once: one sort of the O(k)
  segment starts, one ``searchsorted`` and one add.  The distributed
  forest keys the positions of every tour a batch touches into one
  coordinate space (tour offset + position), so a whole batch is one
  call;
* :func:`nested_interval_decomposition` -- the inverse machinery for
  batch *split*: removing k tree edges cuts a tour into O(k) fragments
  whose nesting structure determines the resulting components.

Both are pure data manipulation, independent of the simulator; the
distributed forest turns their outputs into broadcastable messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def shift_positions(
    positions: np.ndarray, lo, hi, delta
) -> Tuple[np.ndarray, np.ndarray]:
    """Move every position by the offset of the segment that holds it.

    Segment ``i`` maps positions ``[lo[i], hi[i])`` to ``p + delta[i]``;
    segments may come in any order but must be non-empty and disjoint.
    This is the machine-local step of Lemma 6.4: after the broadcast of
    the O(k) segment messages, each machine updates all of its stored
    positions by binary search against the segment starts.

    Returns ``(shifted, index)``, both shaped like ``positions``, where
    ``index`` names each position's segment in the caller's order.
    Raises :class:`ValueError` for an empty or overlapping segment and
    for a position no segment covers.
    """
    positions = np.asarray(positions, dtype=np.int64)
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    if (hi <= lo).any():
        raise ValueError("segment must be non-empty")
    order = np.argsort(lo, kind="stable")
    starts, ends = lo[order], hi[order]
    if (starts[1:] < ends[:-1]).any():
        raise ValueError("segments overlap")
    k = np.searchsorted(starts, positions, side="right") - 1
    if positions.size and (k.min() < 0 or (positions >= ends[k]).any()):
        raise ValueError("a position is not covered by any segment")
    index = order[k]
    return positions + delta[index], index


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
