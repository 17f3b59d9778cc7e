"""Segment shift and interval decomposition tests."""

import numpy as np
import pytest

from repro.euler import (
    CutInterval,
    nested_interval_decomposition,
    shift_positions,
)


class TestShiftPositions:
    def test_apply(self):
        shifted, index = shift_positions([3, 4, 7], lo=[3], hi=[8],
                                         delta=[10])
        assert shifted.tolist() == [13, 14, 17]
        assert index.tolist() == [0, 0, 0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            shift_positions([5], lo=[5], hi=[5], delta=[0])

    def test_lookup_and_apply(self):
        # Segments in any order; the index names the caller's order.
        shifted, index = shift_positions(
            np.array([[0, 5], [3, 9]]), lo=[4, 0], hi=[10, 4],
            delta=[-2, 100],
        )
        assert shifted.tolist() == [[100, 3], [103, 7]]
        assert index.tolist() == [[1, 0], [1, 0]]
        with pytest.raises(ValueError, match="not covered"):
            shift_positions([10], lo=[0, 4], hi=[4, 10], delta=[100, -2])

    def test_uncovered_below_first_segment(self):
        with pytest.raises(ValueError, match="not covered"):
            shift_positions([1], lo=[2], hi=[5], delta=[0])
        with pytest.raises(ValueError, match="not covered"):
            shift_positions([0], lo=[], hi=[], delta=[])

    def test_gap_between_segments_is_uncovered(self):
        with pytest.raises(ValueError, match="not covered"):
            shift_positions([4], lo=[0, 5], hi=[4, 9], delta=[0, 0])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            shift_positions([0], lo=[0, 4], hi=[5, 8], delta=[0, 0])

    def test_no_positions(self):
        shifted, index = shift_positions(np.zeros((0, 2), dtype=np.int64),
                                         lo=[], hi=[], delta=[])
        assert shifted.shape == index.shape == (0, 2)

    def test_matches_scalar_reference(self):
        """A random partition of [0, L) into segments: every position
        moves by its own segment's offset, as a scalar scan finds it."""
        rng = np.random.default_rng(7)
        length = 500
        cuts = np.sort(rng.choice(np.arange(1, length), 40, replace=False))
        lo = np.concatenate(([0], cuts))
        hi = np.concatenate((cuts, [length]))
        delta = rng.integers(-1000, 1000, size=lo.size)
        perm = rng.permutation(lo.size)
        positions = rng.integers(0, length, size=(300, 2))
        shifted, index = shift_positions(positions, lo[perm], hi[perm],
                                         delta[perm])
        for p, s, i in zip(positions.ravel().tolist(),
                           shifted.ravel().tolist(), index.ravel().tolist()):
            k = next(k for k in range(lo.size) if lo[k] <= p < hi[k])
            assert perm[i] == k
            assert s == p + delta[k]


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
