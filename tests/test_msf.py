"""Minimum spanning forest tests (Theorem 1.2): exact insertion-only
and (1+eps)-approximate dynamic."""

import networkx as nx
import numpy as np
import pytest

from tests.conftest import make_valid_batch
from repro.baselines import msf_weight
from repro.core import ApproxMSF, ExactMSFInsertOnly
from repro.errors import ConfigurationError, InvalidUpdateError
from repro.mpc import MPCConfig
from repro.types import dele, ins


class TestExactMSF:
    def test_simple_tree(self):
        alg = ExactMSFInsertOnly(MPCConfig(n=4, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1, 5.0), ins(1, 2, 3.0)])
        assert alg.msf_weight() == 8.0
        sol = alg.query_msf()
        assert sol.edges == [(0, 1), (1, 2)]
        assert sol.weights == [5.0, 3.0]

    def test_cycle_keeps_light_edges(self):
        alg = ExactMSFInsertOnly(MPCConfig(n=3, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1, 1.0), ins(1, 2, 2.0), ins(0, 2, 9.0)])
        assert alg.msf_weight() == 3.0

    def test_swap_on_lighter_edge(self):
        alg = ExactMSFInsertOnly(MPCConfig(n=3, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1, 10.0), ins(1, 2, 10.0)])
        alg.apply_batch([ins(0, 2, 1.0)])
        assert alg.msf_weight() == 11.0
        assert (0, 2) in alg.query_msf().edges

    def test_deletions_rejected(self):
        alg = ExactMSFInsertOnly(MPCConfig(n=4, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1, 1.0)])
        with pytest.raises(InvalidUpdateError):
            alg.apply_batch([dele(0, 1, 1.0)])

    def test_interacting_swaps_one_batch(self):
        """The mixed-cycle counterexample that defeats a single swap
        pass (the deviation in the ``repro.core.msf_exact`` docstring):
        a-b=10 heavy, the batch's two light edges force the eviction of
        an edge that is heaviest on no single fundamental cycle."""
        # Vertices: a=0, b=1, c=2, d=3.
        alg = ExactMSFInsertOnly(MPCConfig(n=4, phi=0.5, seed=0))
        alg.apply_batch([ins(1, 2, 5.0),   # f = bc
                         ins(0, 1, 10.0),  # g = ab
                         ins(0, 3, 4.0)])  # m = ad
        alg.apply_batch([ins(0, 2, 2.0),   # e1
                         ins(2, 3, 3.0)])  # e2
        # True MST: {e1=2, e2=3, f=5} = 10.
        assert alg.msf_weight() == 10.0
        assert alg.stats["max_passes"] >= 2

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_networkx_over_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        n = 32
        alg = ExactMSFInsertOnly(MPCConfig(n=n, phi=0.5, seed=seed))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        live = set()
        for _ in range(15):
            batch = make_valid_batch(rng, n, live, size=6,
                                     delete_fraction=0.0, weighted=True)
            alg.apply_batch(batch)
            for up in batch:
                graph.add_edge(*up.edge, weight=up.weight)
            ref = sum(d["weight"] for _, _, d in
                      nx.minimum_spanning_edges(graph, data=True))
            assert alg.msf_weight() == pytest.approx(ref)
            alg.forest.check_invariants()

    def test_rounds_bounded(self):
        rng = np.random.default_rng(9)
        n = 32
        alg = ExactMSFInsertOnly(MPCConfig(n=n, phi=0.5, seed=1))
        live = set()
        for _ in range(10):
            alg.apply_batch(make_valid_batch(rng, n, live, size=8,
                                             delete_fraction=0.0,
                                             weighted=True))
        assert alg.max_rounds() <= 150  # O(passes / phi), passes small


class TestApproxMSF:
    def test_bad_eps_rejected(self):
        with pytest.raises(ConfigurationError):
            ApproxMSF(MPCConfig(n=8, phi=0.5, seed=0), eps=0.0)

    def test_weight_out_of_range_rejected(self):
        alg = ApproxMSF(MPCConfig(n=8, phi=0.5, seed=0), max_weight=10)
        with pytest.raises(InvalidUpdateError):
            alg.apply_batch([ins(0, 1, 11.0)])

    def test_single_edge_weight_estimate(self):
        alg = ApproxMSF(MPCConfig(n=4, phi=0.5, seed=0), eps=0.25,
                        max_weight=16)
        alg.apply_batch([ins(0, 1, 7.0)])
        est = alg.weight_estimate()
        assert 7.0 - 1e-9 <= est <= 1.25 * 7.0 + 1e-9

    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_estimate_within_factor(self, eps):
        rng = np.random.default_rng(3)
        n = 24
        alg = ApproxMSF(MPCConfig(n=n, phi=0.5, seed=3), eps=eps,
                        max_weight=64)
        live = set()
        weighted_edges = {}
        for _ in range(10):
            batch = make_valid_batch(rng, n, live, size=5,
                                     delete_fraction=0.2, weighted=True)
            alg.apply_batch(batch)
            for up in batch:
                if up.is_insert:
                    weighted_edges[up.edge] = up.weight
                else:
                    weighted_edges.pop(up.edge, None)
        ref = msf_weight(n, [(u, v, w) for (u, v), w
                             in weighted_edges.items()])
        est = alg.weight_estimate()
        assert ref - 1e-6 <= est <= (1 + eps) * ref + 1e-6

    def test_forest_is_valid_and_near_optimal(self):
        rng = np.random.default_rng(5)
        n = 24
        alg = ApproxMSF(MPCConfig(n=n, phi=0.5, seed=5), eps=0.25,
                        max_weight=64)
        live = set()
        weighted_edges = {}
        for _ in range(8):
            batch = make_valid_batch(rng, n, live, size=6,
                                     delete_fraction=0.25, weighted=True)
            alg.apply_batch(batch)
            for up in batch:
                if up.is_insert:
                    weighted_edges[up.edge] = up.weight
                else:
                    weighted_edges.pop(up.edge, None)
        sol = alg.query_forest()
        # Forest spans exactly like the true graph.
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(weighted_edges)
        assert len(sol.edges) == n - nx.number_connected_components(graph)
        assert all(edge in weighted_edges for edge in sol.edges)
        ref = msf_weight(n, [(u, v, w) for (u, v), w
                             in weighted_edges.items()])
        assert sol.total_weight <= 1.25 * ref + 1e-6

    def test_deletion_updates_estimate(self):
        alg = ApproxMSF(MPCConfig(n=4, phi=0.5, seed=0), eps=0.25,
                        max_weight=16)
        alg.apply_batch([ins(0, 1, 2.0), ins(1, 2, 4.0), ins(0, 2, 8.0)])
        before = alg.weight_estimate()
        alg.apply_batch([dele(1, 2, 4.0)])
        after = alg.weight_estimate()
        # MSF weight goes 6 -> 10 (8-edge replaces the 4).
        assert after > before
