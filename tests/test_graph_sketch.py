"""AGM graph-sketch tests: the cut-edge sampling property (Lemma 3.5).

Sketches are rows of the family pool, queried through the group route
on the sequential backend and on a 2-worker fleet; every answer is
checked by ``check_groups`` against the exact-sum sampler and the exact
cut of the live edge set.
"""

import numpy as np
import pytest

from repro.errors import SketchError
from repro.mpc.backend import get_backend
from repro.sketch import edge_sign
from tests.conftest import check_groups, family_pair, random_edges


class Sketches:
    """One sketch family per backend, fed the same edge updates."""

    def __init__(self, n=30, columns=8, seed=4):
        self.families = family_pair(get_backend("shared_memory", workers=2),
                                    n=n, columns=columns, seed=seed)
        self.live = set()

    def apply(self, edges, delta=1):
        us, vs = (np.array(c, dtype=np.int64) for c in zip(*edges))
        for family in self.families:
            family.apply_edges_bulk(us, vs, np.full(len(edges), delta))
        edges = {(min(u, v), max(u, v)) for u, v in edges}
        self.live = self.live | edges if delta > 0 else self.live - edges

    def query(self, groups, column=0):
        groups = [np.array(g, dtype=np.int64) for g in groups]
        return check_groups(self.families, groups, column, self.live)


class TestVertexSketch:
    def test_non_endpoint_update_rejected(self):
        # A vertex's update sign exists only for its own edges, and the
        # router refuses a pair that is not an edge, leaving no trace.
        with pytest.raises(ValueError):
            edge_sign(5, 1, 2)
        for family in Sketches().families:
            for u, v in ((4, 4), (1, 30), (-1, 2)):
                with pytest.raises(ValueError):
                    family.apply_edges_bulk(np.array([u]), np.array([v]),
                                            np.ones(1, dtype=np.int64))
            assert not family.pool.cells.any()

    def test_single_vertex_samples_incident_edge(self):
        sketches = Sketches()
        sketches.apply([(3, 17)])
        assert sketches.query([[3]]) == ([False], [(3, 17)])

    def test_words_per_vertex(self):
        family, _ = Sketches(columns=6).families
        assert family.pool.cells[0].size == family.words_per_vertex
        assert family.pool.words == family.n * family.words_per_vertex


class TestMergedSketch:
    def test_internal_edges_cancel(self):
        """Lemma 3.3: X_A's support is exactly the cut E(A, V-A)."""
        sketches = Sketches()
        # Component A = {0,1,2,3} fully wired internally, one cut edge.
        sketches.apply([(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (3, 20)])
        for column in range(8):
            assert sketches.query([[0, 1, 2, 3]], column) == \
                ([False], [(3, 20)])

    def test_empty_cut_detected(self):
        sketches = Sketches()
        sketches.apply([(0, 1), (1, 2)])
        assert sketches.query([[0, 1, 2]]) == ([True], [None])

    def test_cut_closes_after_deletion(self):
        sketches = Sketches()
        sketches.apply([(0, 1), (1, 9)])
        assert sketches.query([[0, 1]]) == ([False], [(1, 9)])
        sketches.apply([(1, 9)], delta=-1)
        assert sketches.query([[0, 1]]) == ([True], [None])

    def test_sample_among_multiple_cut_edges(self):
        sketches = Sketches(seed=9)
        sketches.apply([(0, 1), (1, 2), (2, 3),
                        (0, 10), (1, 11), (2, 12), (3, 13)])
        hits = [sketches.query([[0, 1, 2, 3]], column)[1][0]
                for column in range(8)]
        assert any(hit is not None for hit in hits)

    def test_whole_graph_merge_is_zero(self):
        """Summing every vertex's sketch cancels every edge."""
        sketches = Sketches(n=20, seed=2)
        sketches.apply(random_edges(20, 40))
        assert sketches.query([range(20)]) == ([True], [None])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_groups_under_churn(self, seed):
        """Random groups of a churned graph, every column, both
        backends, against the exact references."""
        rng = np.random.default_rng(seed)
        sketches = Sketches(seed=seed)
        edges = random_edges(30, 60, seed=seed)
        sketches.apply(edges)
        sketches.apply(edges[::3], delta=-1)
        groups = [rng.choice(30, size=int(rng.integers(1, 12)),
                             replace=False) for _ in range(6)]
        for column in range(8):
            sketches.query(groups, column)

    def test_empty_merge_rejected(self):
        for family in Sketches().families:
            with pytest.raises(SketchError, match="empty"):
                family.query_iteration_groups([np.array([], dtype=int)], 0)
