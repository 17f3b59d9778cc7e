"""Segment map and interval decomposition tests."""

import pytest

from repro.euler import (
    CutInterval,
    Segment,
    SegmentMap,
    nested_interval_decomposition,
)


class TestSegment:
    def test_apply(self):
        seg = Segment(old_lo=3, old_hi=8, delta=10, new_tid=77)
        assert seg.covers(3) and seg.covers(7) and not seg.covers(8)
        assert seg.apply(4) == (77, 14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Segment(5, 5, 0, 0)


class TestSegmentMap:
    def test_lookup_and_apply(self):
        smap = SegmentMap([
            Segment(0, 4, 100, 1),
            Segment(4, 10, -2, 2),
        ])
        assert smap.apply(0) == (1, 100)
        assert smap.apply(5) == (2, 3)
        assert smap.lookup(10) is None
        with pytest.raises(KeyError):
            smap.apply(10)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SegmentMap([Segment(0, 5, 0, 0), Segment(4, 8, 0, 0)])

    def test_message_count(self):
        smap = SegmentMap([Segment(0, 1, 0, 0), Segment(1, 2, 0, 0)])
        assert smap.message_count == 2


class TestNestedDecomposition:
    def test_single_cut_leaf(self):
        # Tour of a 2-vertex tree: positions 0,1 are the cut edge itself.
        comps = nested_interval_decomposition(
            2, [CutInterval(0, 1, child=1, edge=(0, 1))], top_root=0
        )
        assert all(c.length == 0 for c in comps)

    def test_single_cut_middle(self):
        # Path 0-1-2 rooted at 0: tour (0,1)(1,2)(2,1)(1,0), cut {0,1}
        # => interval [0,3]; severed subtree keeps positions 1..2.
        comps = nested_interval_decomposition(
            4, [CutInterval(0, 3, child=1, edge=(0, 1))], top_root=0
        )
        child = next(c for c in comps if c.root == 1)
        top = next(c for c in comps if c.root == 0)
        assert child.fragments == [(1, 2)]
        assert top.fragments == []

    def test_sibling_intervals(self):
        comps = nested_interval_decomposition(
            12,
            [CutInterval(1, 4, child=10, edge=(0, 10)),
             CutInterval(6, 9, child=20, edge=(0, 20))],
            top_root=0,
        )
        by_root = {c.root: c for c in comps}
        assert by_root[10].fragments == [(2, 3)]
        assert by_root[20].fragments == [(7, 8)]
        assert by_root[0].fragments == [(0, 0), (5, 5), (10, 11)]

    def test_nested_intervals(self):
        comps = nested_interval_decomposition(
            10,
            [CutInterval(0, 9, child=1, edge=(0, 1)),
             CutInterval(3, 6, child=2, edge=(1, 2))],
            top_root=0,
        )
        by_root = {c.root: c for c in comps}
        assert by_root[0].fragments == []
        assert by_root[1].fragments == [(1, 2), (7, 8)]
        assert by_root[2].fragments == [(4, 5)]

    def test_fragment_count_linear_in_cuts(self):
        intervals = [CutInterval(2 * i, 2 * i + 1, child=i, edge=(0, i))
                     for i in range(1, 20)]
        comps = nested_interval_decomposition(50, intervals, top_root=0)
        total_fragments = sum(len(c.fragments) for c in comps)
        assert total_fragments <= 2 * len(intervals) + 1

    def test_crossing_intervals_rejected(self):
        with pytest.raises(ValueError):
            nested_interval_decomposition(
                10,
                [CutInterval(0, 5, child=1, edge=(0, 1)),
                 CutInterval(3, 8, child=2, edge=(0, 2))],
                top_root=0,
            )

    def test_lengths_partition_tour(self):
        intervals = [CutInterval(1, 6, child=5, edge=(0, 5)),
                     CutInterval(2, 4, child=7, edge=(5, 7))]
        comps = nested_interval_decomposition(8, intervals, top_root=0)
        covered = sum(c.length for c in comps)
        # Total minus the 2 positions per removed edge.
        assert covered == 8 - 2 * len(intervals)
