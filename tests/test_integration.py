"""Cross-module integration tests: one evolving graph, every maintained
solution checked against the oracle on the same stream."""

import numpy as np
import pytest

from tests.conftest import make_valid_batch
from repro.baselines import (
    AGMStaticConnectivity,
    DynamicConnectivityOracle,
    FullGraphConnectivity,
    maximum_matching_size,
)
from repro.core import (
    AKLYMatching,
    DynamicBipartiteness,
    MPCConnectivity,
)
from repro.mpc import MPCConfig
from repro.streams import ChurnStream


class TestAllConnectivityVariantsAgree:
    def test_shared_stream(self):
        n = 32
        seeds = MPCConfig(n=n, phi=0.5, seed=42)
        ours = MPCConnectivity(seeds)
        agm = AGMStaticConnectivity(MPCConfig(n=n, phi=0.5, seed=43))
        full = FullGraphConnectivity(MPCConfig(n=n, phi=0.5, seed=44))
        oracle = DynamicConnectivityOracle(n)

        stream = ChurnStream(n, seed=7, delete_fraction=0.35,
                             target_edges=2 * n)
        for batch in stream.batches(20, 6):
            ours.apply_batch(batch)
            agm.apply_batch(batch)
            full.apply_batch(batch)
            oracle.apply_batch(batch)

            expected = oracle.num_components()
            assert ours.num_components() == expected
            assert full.num_components() == expected
        agm_solution, _ = agm.query_with_metrics()
        assert n - len(agm_solution.edges) == oracle.num_components()

    def test_rounds_hierarchy(self):
        """Query rounds: maintained forest O(1) << AGM O(log n)."""
        n = 64
        ours = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=1))
        agm = AGMStaticConnectivity(MPCConfig(n=n, phi=0.5, seed=2))
        stream = ChurnStream(n, seed=3, delete_fraction=0.2)
        for batch in stream.batches(10, 8):
            ours.apply_batch(batch)
            agm.apply_batch(batch)
        _, ours_query = ours.query_with_metrics()
        _, agm_query = agm.query_with_metrics()
        assert ours_query.rounds < agm_query.rounds

    def test_memory_hierarchy(self):
        """Total memory: ours independent of m, full-graph linear.

        The maintained forest saturates at n-1 tree edges, after which
        our footprint is flat while the full-graph baseline keeps
        absorbing every non-tree edge.
        """
        n = 48
        ours = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=1))
        full = FullGraphConnectivity(MPCConfig(n=n, phi=0.5, seed=1))
        rng = np.random.default_rng(0)
        live = set()
        ours_trace, full_trace = [], []
        for _ in range(20):
            batch = make_valid_batch(rng, n, live, size=10,
                                     delete_fraction=0.0)
            ours.apply_batch(batch)
            full.apply_batch(batch)
            ours_trace.append(ours.total_memory_words())
            full_trace.append(full.total_memory_words())
        half = len(ours_trace) // 2
        ours_late_growth = ours_trace[-1] - ours_trace[half]
        full_late_growth = full_trace[-1] - full_trace[half]
        assert ours_late_growth <= 4 * n
        assert full_late_growth > 3 * max(ours_late_growth, 1)


class TestBipartitenessWithMatching:
    def test_bipartite_graph_has_large_matching(self):
        """Sanity across subsystems: an even cycle is bipartite and has
        a perfect matching that AKLY approximates."""
        n = 32
        bip = DynamicBipartiteness(MPCConfig(n=n, phi=0.5, seed=5))
        matcher = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=6), alpha=2.0)
        from repro.streams import even_cycle_insertions
        updates = even_cycle_insertions(n)
        bip.apply_batch(updates[:16])
        bip.apply_batch(updates[16:])
        matcher.apply_batch(updates[:16])
        matcher.apply_batch(updates[16:])
        assert bip.is_bipartite()
        opt = maximum_matching_size(n, [up.edge for up in updates])
        assert opt == n // 2
        assert matcher.matching_size() >= 1


class TestLongRun:
    def test_two_hundred_phases_stay_consistent(self):
        n = 24
        alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=11))
        oracle = DynamicConnectivityOracle(n)
        stream = ChurnStream(n, seed=12, delete_fraction=0.45,
                             target_edges=n)
        for batch in stream.batches(200, 4):
            alg.apply_batch(batch)
            oracle.apply_batch(batch)
        assert alg.num_components() == oracle.num_components()
        assert alg.stats["sketch_failures"] == 0
        alg.forest.check_invariants()
        rounds = alg.rounds_per_phase()
        assert max(rounds) <= 80, "rounds stay constant over a long run"
