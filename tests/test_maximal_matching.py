"""NO21-substitute batch-dynamic maximal matching tests."""

import numpy as np
import pytest

from repro.core import BatchDynamicMaximalMatching
from repro.errors import ConfigurationError


class TestBasics:
    def test_bad_kappa(self):
        with pytest.raises(ConfigurationError):
            BatchDynamicMaximalMatching(kappa=0)

    def test_rounds_grow_as_kappa_shrinks(self):
        fast = BatchDynamicMaximalMatching(kappa=0.5)
        slow = BatchDynamicMaximalMatching(kappa=1 / 64)
        assert slow.rounds_per_batch > fast.rounds_per_batch

    def test_insert_matches_greedily(self):
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(0, 1), (2, 3)], deletes=[])
        assert mm.matching_size() == 2
        mm.check_maximal()

    def test_conflicting_inserts(self):
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(0, 1), (1, 2), (2, 3)], deletes=[])
        mm.check_maximal()
        assert mm.matching_size() in (1, 2)

    def test_delete_unmatched_edge_keeps_matching(self):
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(0, 1), (1, 2)], deletes=[])
        size = mm.matching_size()
        mm.apply_batch(inserts=[], deletes=[(1, 2)])
        assert mm.matching_size() == size
        mm.check_maximal()

    def test_delete_matched_edge_rematches(self):
        mm = BatchDynamicMaximalMatching()
        # Path 0-1-2-3: matching must become maximal again after the
        # matched middle edge is deleted.
        mm.apply_batch(inserts=[(1, 2)], deletes=[])
        mm.apply_batch(inserts=[(0, 1), (2, 3)], deletes=[])
        assert mm.matching_size() == 1
        mm.apply_batch(inserts=[], deletes=[(1, 2)])
        assert mm.matching_size() == 2
        mm.check_maximal()

    def test_rematch_takes_exposed_vertices_in_sorted_order(self):
        # Deleting the matched edge (3, 9) exposes both ends, and both
        # want the free vertex 5.  Sorted order gives it to 3; a set of
        # {3, 9} iterates 9 first.
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(3, 9)], deletes=[])
        mm.apply_batch(inserts=[(3, 5), (9, 5)], deletes=[])
        mm.apply_batch(inserts=[], deletes=[(3, 9)])
        assert mm.matching().edges == [(3, 5)]
        mm.check_maximal()

    def test_duplicate_and_phantom_updates_ignored(self):
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(0, 1), (0, 1)], deletes=[(5, 6)])
        assert mm.num_edges == 1
        mm.check_maximal()

    def test_words_track_graph_size(self):
        mm = BatchDynamicMaximalMatching()
        mm.apply_batch(inserts=[(0, 1), (1, 2), (2, 3)], deletes=[])
        assert mm.words >= 2 * 3


class TestRandomizedMaximality:
    @pytest.mark.parametrize("seed", range(5))
    def test_always_maximal(self, seed):
        rng = np.random.default_rng(seed)
        mm = BatchDynamicMaximalMatching()
        live = set()
        for _ in range(40):
            inserts, deletes = [], []
            touched = set()
            for _ in range(int(rng.integers(1, 6))):
                pool = sorted(live - touched)
                if pool and rng.random() < 0.4:
                    edge = pool[int(rng.integers(0, len(pool)))]
                    live.discard(edge)
                    touched.add(edge)
                    deletes.append(edge)
                else:
                    u = int(rng.integers(0, 30))
                    v = int(rng.integers(0, 30))
                    if u == v:
                        continue
                    edge = (min(u, v), max(u, v))
                    if edge not in live and edge not in touched:
                        live.add(edge)
                        touched.add(edge)
                        inserts.append(edge)
            mm.apply_batch(inserts=inserts, deletes=deletes)
            mm.check_maximal()
            assert mm.num_edges == len(live)
