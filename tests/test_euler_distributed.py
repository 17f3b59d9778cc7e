"""Distributed Euler-tour forest: batch operations vs exact oracles.

The central property: any sequence of batch links/cuts leaves the
index-based structure with valid reconstructed tours, the tree edge set
the test linked, and the networkx components of that edge set
(:func:`repro.baselines.component_sets`); tree paths equal networkx's
unique path.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import component_sets
from repro.euler import DistributedEulerForest
from repro.types import canonical


def components_of(forest, n):
    groups = {}
    for v in range(n):
        groups.setdefault(forest.tree_id(v), set()).add(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


class TestBasics:
    def test_initial_singletons(self):
        forest = DistributedEulerForest(4)
        forest.check_invariants()
        assert forest.num_components() == 4
        assert forest.words == 4

    def test_single_link(self):
        forest = DistributedEulerForest(4)
        report = forest.link(0, 1)
        forest.check_invariants()
        assert forest.connected(0, 1)
        assert forest.has_edge(1, 0)
        assert report.messages > 0

    def test_link_same_tour_rejected(self):
        forest = DistributedEulerForest(3)
        forest.link(0, 1)
        with pytest.raises(ValueError):
            forest.link(1, 0)

    def test_cut_non_tree_edge_rejected(self):
        forest = DistributedEulerForest(3)
        with pytest.raises(ValueError):
            forest.cut(0, 1)

    def test_link_cut_round_trip(self):
        forest = DistributedEulerForest(5)
        forest.batch_link([(0, 1), (1, 2), (3, 4)])
        forest.check_invariants()
        forest.batch_cut([(1, 2)])
        forest.check_invariants()
        assert forest.connected(0, 1)
        assert not forest.connected(0, 2)
        assert forest.connected(3, 4)

    def test_cycle_in_batch_link_rejected(self):
        forest = DistributedEulerForest(4)
        with pytest.raises(ValueError):
            forest.batch_link([(0, 1), (1, 2), (2, 0)])

    def test_empty_batches_are_noops(self):
        forest = DistributedEulerForest(3)
        assert forest.batch_link([]).messages == 0
        assert forest.batch_cut([]).messages == 0


class TestBatchLink:
    def test_chain_of_tours(self):
        forest = DistributedEulerForest(10)
        forest.batch_link([(i, i + 1) for i in range(9)])
        forest.check_invariants()
        assert forest.num_components() == 1
        walk = forest.reconstruct_tour(forest.tree_id(0))
        assert len(walk) == 2 * 9

    def test_star_merge(self):
        forest = DistributedEulerForest(8)
        forest.batch_link([(0, v) for v in range(1, 8)])
        forest.check_invariants()
        assert forest.num_components() == 1

    def test_merge_of_existing_trees_at_internal_vertices(self):
        forest = DistributedEulerForest(12)
        forest.batch_link([(0, 1), (1, 2), (2, 3)])   # path A
        forest.batch_link([(4, 5), (5, 6), (6, 7)])   # path B
        forest.batch_link([(8, 9), (9, 10), (10, 11)])  # path C
        # Join at internal vertices: 1 (in A) to 5 (in B), 6 to 9.
        forest.batch_link([(1, 5), (6, 9)])
        forest.check_invariants()
        assert forest.num_components() == 1
        assert sorted(forest.path_edges(0, 11)) == sorted(
            [(0, 1), (1, 5), (5, 6), (6, 9), (9, 10), (10, 11)]
        )

    def test_multiple_independent_merges(self):
        forest = DistributedEulerForest(8)
        report = forest.batch_link([(0, 1), (2, 3), (4, 5), (6, 7)])
        forest.check_invariants()
        assert forest.num_components() == 4
        assert len(report.new_tours) == 4

    def test_message_count_linear_in_batch(self):
        forest = DistributedEulerForest(64)
        report = forest.batch_link([(i, i + 1) for i in range(0, 62, 2)])
        k = 31
        assert report.messages <= 8 * k + 4


class TestBatchCut:
    def test_shatter_star(self):
        forest = DistributedEulerForest(8)
        forest.batch_link([(0, v) for v in range(1, 8)])
        forest.batch_cut([(0, v) for v in range(1, 8)])
        forest.check_invariants()
        assert forest.num_components() == 8

    def test_partial_cut_of_path(self):
        forest = DistributedEulerForest(10)
        forest.batch_link([(i, i + 1) for i in range(9)])
        forest.batch_cut([(2, 3), (6, 7)])
        forest.check_invariants()
        assert components_of(forest, 10) == [
            (0, 1, 2), (3, 4, 5, 6), (7, 8, 9)
        ]

    def test_cut_and_link_in_sequence(self):
        forest = DistributedEulerForest(6)
        forest.batch_link([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        forest.batch_cut([(1, 2), (3, 4)])
        assert components_of(forest, 6) == [(0, 1), (2, 3), (4, 5)]
        forest.batch_link([(0, 3), (2, 5)])
        forest.check_invariants()
        assert components_of(forest, 6) == [(0, 1, 2, 3, 4, 5)]
        assert sorted(forest.all_edges()) == [
            (0, 1), (0, 3), (2, 3), (2, 5), (4, 5)
        ]


class TestPathsAndAncestry:
    def test_path_in_deep_tree(self):
        forest = DistributedEulerForest(32)
        forest.batch_link([(i, i + 1) for i in range(31)])
        path = forest.path_edges(0, 31)
        assert path == [(i, i + 1) for i in range(31)]

    def test_path_in_star(self):
        forest = DistributedEulerForest(8)
        forest.batch_link([(0, v) for v in range(1, 8)])
        assert forest.path_edges(3, 6) == [(0, 3), (0, 6)]

    def test_path_matches_reference(self):
        """The path in a tree is unique, so networkx's is exact."""
        rng = np.random.default_rng(5)
        n = 20
        dist = DistributedEulerForest(n)
        tree = nx.Graph()
        for v in range(1, n):
            u = int(rng.integers(0, v))
            dist.link(u, v)
            tree.add_edge(u, v)
        for _ in range(40):
            a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
            hops = nx.shortest_path(tree, a, b)
            assert dist.path_edges(a, b) == [
                canonical(x, y) for x, y in zip(hops, hops[1:])
            ]

    def test_path_cross_trees_rejected(self):
        forest = DistributedEulerForest(4)
        with pytest.raises(ValueError):
            forest.path_edges(0, 3)

    def test_two_vertex_ancestor_regression(self):
        """Root with a single child shares its child's tour interval;
        the strict test must not call the child an ancestor."""
        forest = DistributedEulerForest(2)
        forest.link(0, 1)
        root = forest.root_of(forest.tree_id(0))
        child = 1 - root
        assert forest.is_ancestor(root, child)
        assert not forest.is_ancestor(child, root)
        assert forest.path_edges(0, 1) == [(0, 1)]


class TestRandomizedAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_batches_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 18
        dist = DistributedEulerForest(n)
        tree_edges = set()
        for _ in range(40):
            # Random batch of cuts then links, valid by construction.
            cuts = []
            if tree_edges:
                count = int(rng.integers(0, min(3, len(tree_edges)) + 1))
                pool = sorted(tree_edges)
                picks = rng.choice(len(pool), size=count, replace=False)
                cuts = [pool[i] for i in picks]
            for edge in cuts:
                tree_edges.discard(edge)
            if cuts:
                dist.batch_cut(cuts)
            links = []
            for _ in range(int(rng.integers(1, 4))):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n))
                if u == v:
                    continue
                if dist.connected(u, v):
                    continue
                if any(dist.connected(u, a) and dist.connected(v, b)
                       or dist.connected(u, b) and dist.connected(v, a)
                       for a, b in links):
                    continue
                links.append((u, v))
            if links:
                dist.batch_link(links)
                tree_edges |= {canonical(u, v) for u, v in links}
            dist.check_invariants()
            assert components_of(dist, n) == component_sets(n, tree_edges)
            assert dist.all_edges() == sorted(tree_edges)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_tour_validity_property(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        forest = DistributedEulerForest(n)
        tree_edges = set()
        for _ in range(15):
            if tree_edges and rng.random() < 0.45:
                pool = sorted(tree_edges)
                edge = pool[int(rng.integers(0, len(pool)))]
                forest.batch_cut([edge])
                tree_edges.discard(edge)
            else:
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n))
                if u != v and not forest.connected(u, v):
                    forest.batch_link([(u, v)])
                    tree_edges.add(canonical(u, v))
            forest.check_invariants()
