"""Distributed Euler-tour forest: batch operations vs exact oracles.

The central property: any sequence of batch links/cuts leaves the
index-based structure with valid reconstructed tours, the tree edge set
the test linked, and the networkx components of that edge set
(:func:`repro.baselines.component_sets`); tree paths equal networkx's
unique path.
"""

import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import component_sets
from repro.euler import DistributedEulerForest
from repro.euler.distributed import _group
from repro.types import canonical


def components_of(forest, n):
    groups = {}
    for v in range(n):
        groups.setdefault(forest.tree_id(v), set()).add(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


class TestGroup:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_stable_split_reference(self, seed):
        rng = np.random.default_rng(seed)
        count = 9
        dest = rng.integers(0, count - 2, size=200)  # some groups empty
        values = rng.integers(0, 10 ** 6, size=200)
        parts = _group(values, dest, count)
        assert len(parts) == count
        for d, part in enumerate(parts):
            assert part.tolist() == values[dest == d].tolist()

    def test_parts_do_not_alias_the_input(self):
        values = np.arange(10, dtype=np.int64)
        dest = np.array([1, 0] * 5)
        parts = _group(values, dest, 2)
        values[:] = -1
        assert [p.tolist() for p in parts] == [[1, 3, 5, 7, 9],
                                               [0, 2, 4, 6, 8]]


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


class TestBatchValidation:
    """A rejected batch changes nothing: it is validated before any
    tour moves."""

    @staticmethod
    def state(forest):
        return (forest.all_edges(),
                [forest.tree_id(v) for v in range(forest.n)],
                forest.num_components(), forest.words)

    @pytest.mark.parametrize("batch", [
        [(0, 1), (5, 2), (5, 4)],   # the second component is a cycle
        [(0, 1), (5, 2), (2, 4)],   # the last edge joins a tour to itself
        [(0, 1), (1, 0)],           # the same link twice
        [(0, 1), (5, 2), (6, 9)],   # vertex 9 does not exist
    ])
    def test_rejected_link_batch_leaves_forest_unchanged(self, batch):
        forest = DistributedEulerForest(8)
        forest.batch_link([(2, 3), (3, 4), (6, 7)])
        before = self.state(forest)
        with pytest.raises(ValueError):
            forest.batch_link(batch)
        forest.check_invariants()
        assert self.state(forest) == before
        # The forest still takes the valid part of the batch.
        forest.batch_link([(0, 1), (5, 2)])
        forest.check_invariants()
        assert forest.connected(5, 4) and forest.connected(0, 1)

    @pytest.mark.parametrize("batch", [
        [(1, 2), (2, 1)],
        [(1, 2), (1, 2)],
        [(2, 1), (0, 1), (1, 2)],
    ])
    def test_duplicate_cut_rejected_by_name(self, batch):
        forest = DistributedEulerForest(5)
        forest.batch_link([(0, 1), (1, 2), (2, 3)])
        before = self.state(forest)
        with pytest.raises(ValueError, match=r"\(1, 2\) twice"):
            forest.batch_cut(batch)
        forest.check_invariants()
        assert self.state(forest) == before

    def test_non_tree_edge_after_tree_edges_changes_nothing(self):
        forest = DistributedEulerForest(5)
        forest.batch_link([(0, 1), (1, 2), (2, 3)])
        before = self.state(forest)
        with pytest.raises(ValueError, match="not a tree edge"):
            forest.batch_cut([(0, 1), (2, 3), (3, 4)])
        forest.check_invariants()
        assert self.state(forest) == before


def _edges_sha1(forest):
    return hashlib.sha1(repr(forest.all_edges()).encode()).hexdigest()[:16]


def _tids_sha1(forest):
    tids = [forest.tree_id(v) for v in range(forest.n)]
    return hashlib.sha1(repr(tids).encode()).hexdigest()[:16]


def multi_tour_stream(n, seed, rounds, links_per_batch, cut_share=4):
    """Alternating link and cut batches that each touch many tours.

    A link batch joins ``links_per_batch`` random pairs kept a forest
    over tours by a union-find on tour ids, so it merges at least
    ``links_per_batch + 1`` tours; a cut batch removes a random
    ``1/cut_share`` of all tree edges, in mixed orientations.  Yields
    ``(kind, edges, report, forest)`` after each batch.
    """
    rng = np.random.default_rng(seed)
    forest = DistributedEulerForest(n)
    for _ in range(rounds):
        leader = {}

        def find(x):
            while leader.setdefault(x, x) != x:
                x = leader[x]
            return x

        links = []
        while len(links) < links_per_batch:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            ru, rv = find(forest.tree_id(u)), find(forest.tree_id(v))
            if ru != rv:
                leader[ru] = rv
                links.append((u, v))
        yield "link", links, forest.batch_link(links), forest
        edges = forest.all_edges()
        picks = rng.choice(len(edges), size=len(edges) // cut_share,
                           replace=False)
        cuts = [edges[i][::-1] if i % 2 else edges[i] for i in sorted(picks)]
        yield "cut", cuts, forest.batch_cut(cuts), forest


#: ``(messages, first new tid, new tour count, sha1 of all_edges())``
#: after each batch of ``multi_tour_stream(512, 34, 10, 64)``, recorded
#: on the dict-of-tuples forest this array layout replaced.
PINNED = [
    (247, 512, 55, "20b39831e0276930"), (52, 567, 32, "934d806285df2bde"),
    (265, 599, 41, "571a32cf5bd01905"), (98, 640, 51, "782d72d9d6169725"),
    (274, 691, 44, "3b6a672fa4666ba8"), (141, 735, 63, "bdad4b7c86a02efc"),
    (291, 798, 45, "7bac0267fd5bc7e5"), (157, 843, 75, "ca6428c19548b144"),
    (301, 918, 44, "d04d95df67af5e95"), (179, 962, 81, "a8dc3e95f4e4d493"),
    (303, 1043, 39, "f8a00d58d41189d9"), (193, 1082, 87, "83797c4172827c1e"),
    (296, 1169, 32, "8553cd62248740a4"), (198, 1201, 92, "612ae5354fa6cdc1"),
    (292, 1293, 36, "75c677e4dca19ae5"), (206, 1329, 92, "85e2a8c7e0b354c6"),
    (294, 1421, 28, "f2500bfd7c55ed38"), (209, 1449, 87, "9fa8f8d81d6cf7d1"),
    (297, 1536, 26, "ad0371402d1d69d9"), (214, 1562, 87, "12a56e9c3e7e73e3"),
]

#: sha1 of ``[tree_id(v) for v in range(512)]`` after each batch of the
#: same stream.  The old layout minted a cut's new singletons in the
#: iteration order of a Python set of vertex ids (for example 395 before
#: 14), this one in ascending vertex order, so these differ from the old
#: layout's after cuts; everything in ``PINNED`` is equal.
PINNED_TIDS = [
    "e9eae6c5c0487536", "7399934322322766", "6b039d273811a4b2",
    "d56fbebc82b1e033", "55f50a29e178ae5e", "7e52ddff372c89bb",
    "b424340951424e98", "7df2d695a2f3bb63", "94e0df9da6e51eff",
    "93bd941ab770f96d", "5d69a6c3ad860015", "6b1e0e78ce820449",
    "65cd6e1ed010ec07", "9ddb615983f50958", "e134c89138ae0d02",
    "86c0bffc3fb43351", "5c93cdabb406cb5a", "a8b273f6315e0522",
    "231b154d65353252", "c422a9c361cf70a9",
]


class TestManyTourBatches:
    def test_pinned_stream_is_bit_equal(self):
        stream = multi_tour_stream(512, seed=34, rounds=10,
                                   links_per_batch=64)
        seen = []
        tids_before = list(range(512))
        for (kind, edges, report, forest), pinned, tids in zip(
                stream, PINNED, PINNED_TIDS):
            messages, first, count, edges_sha1 = pinned
            spanned = {tids_before[x] for edge in edges for x in edge}
            assert len(spanned) >= (65 if kind == "link" else 8)
            assert report.messages == messages
            assert report.new_tours == list(range(first, first + count))
            assert _edges_sha1(forest) == edges_sha1
            assert _tids_sha1(forest) == tids
            tids_before = [forest.tree_id(v) for v in range(512)]
            seen.append(kind)
        forest.check_invariants()
        assert len(seen) == len(PINNED)

    def test_cut_mints_singletons_in_ascending_vertex_order(self):
        forest = DistributedEulerForest(512)
        forest.batch_link([(395, 14), (300, 7), (7, 9)])
        report = forest.batch_cut([(14, 395), (7, 300)])
        # Per split tour: its components first, then its singletons.
        assert [sorted(forest.tour_vertices(t).tolist())
                for t in report.new_tours] == [[14], [395], [7, 9], [300]]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(32, 96))
    def test_many_tour_batches_match_reference(self, seed, links):
        n = 256
        tree_edges = set()
        for kind, edges, report, forest in multi_tour_stream(
                n, seed, rounds=4, links_per_batch=links, cut_share=3):
            if kind == "link":
                tree_edges |= {canonical(u, v) for u, v in edges}
            else:
                tree_edges -= {canonical(u, v) for u, v in edges}
            forest.check_invariants()
            assert components_of(forest, n) == component_sets(n, tree_edges)
            assert forest.all_edges() == sorted(tree_edges)
            assert forest.words == n + 4 * len(tree_edges)
            for tid in report.new_tours:
                if forest.has_tour(tid):
                    members = forest.tour_vertices(tid)
                    assert members.dtype == np.int64
                    assert {forest.tree_id(v) for v in members.tolist()} \
                        == {tid}

    def test_public_returns_are_python_ints(self):
        values = []
        for _, _, report, forest in multi_tour_stream(
                64, seed=3, rounds=3, links_per_batch=12):
            values += report.new_tours + [report.messages]
        tids = {forest.tree_id(v) for v in range(64)}
        values += [x for edge in forest.all_edges() for x in edge]
        values += [forest.tree_id(v) for v in range(64)]
        values += [forest.root_of(tid) for tid in tids]
        values += [x for tid in tids
                   for step in forest.reconstruct_tour(tid) for x in step]
        values += [forest.num_components(), forest.words]
        for v in range(64):
            values += forest.first_last(v)
            values += [p for p in [forest.parent(v)] if p is not None]
            values += [x for w in range(64) if forest.connected(v, w)
                       for edge in forest.path_edges(v, w) for x in edge]
        assert values and all(type(x) is int for x in values)
        assert "int64" not in repr(forest.all_edges())

    def test_numpy_endpoints_are_taken_as_python_ints(self):
        forest = DistributedEulerForest(6)
        forest.batch_link([(np.int64(0), np.int32(1)), (np.uint8(1), 2)])
        assert forest.all_edges() == [(0, 1), (1, 2)]
        assert all(type(p) is int
                   for v in range(3) for p in [forest.parent(v)] if p)
        forest.batch_cut([(np.int64(2), np.int64(1))])
        assert forest.all_edges() == [(0, 1)]
