"""Failure injection and extreme-shape stress tests.

What happens when the w.h.p. guarantees are starved (one sketch
column), when the graph is as small or as pathological as the model
allows, and when capacity budgets are deliberately violated.
"""

import numpy as np
import pytest

from repro.baselines import DynamicConnectivityOracle
from repro.core import MPCConnectivity
from repro.errors import CapacityExceededError, SketchFailureError
from repro.mpc import Cluster, MPCConfig
from repro.mpc.machine import Message
from repro.streams import star_insertions
from repro.types import dele, ins


class TestStarvedSketches:
    def test_single_column_eventually_fails_or_splits_safely(self):
        """With one column, deletion storms must either recover or fall
        back to a conservative split -- never corrupt the forest."""
        n = 48
        total_failures = 0
        for seed in range(6):
            alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=seed),
                                  columns=1)
            oracle = DynamicConnectivityOracle(n)
            rng = np.random.default_rng(seed)
            # Dense cluster, then delete most of a spanning structure.
            edges = [(u, v) for u in range(16) for v in range(u + 1, 16)]
            for i in range(0, len(edges), 10):
                batch = [ins(*e) for e in edges[i:i + 10]]
                alg.apply_batch(batch)
                oracle.apply_batch(batch)
            picks = rng.permutation(len(edges))[:60]
            victims = [edges[i] for i in picks]
            for i in range(0, len(victims), 8):
                batch = [dele(*e) for e in victims[i:i + 8]]
                alg.apply_batch(batch)
                oracle.apply_batch(batch)
                alg.forest.check_invariants()
                # Conservative splits may OVER-split, never under-split:
                assert alg.num_components() >= oracle.num_components()
            total_failures += alg.stats["sketch_failures"]
        assert total_failures > 0, \
            "one column must be starved somewhere in 6 storm runs"

    def test_strict_mode_raises_on_starved_sketch(self):
        n = 32
        raised = False
        for seed in range(8):
            alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=seed),
                                  columns=1, strict=True)
            edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
            try:
                for i in range(0, len(edges), 12):
                    alg.apply_batch([ins(*e) for e in edges[i:i + 12]])
                for i in range(0, len(edges), 8):
                    alg.apply_batch([dele(*e) for e in edges[i:i + 8]])
            except SketchFailureError:
                raised = True
                break
        assert raised, "strict mode must surface a starved sketch"


class TestExtremeShapes:
    def test_minimal_graph(self):
        alg = MPCConnectivity(MPCConfig(n=2, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1)])
        assert alg.connected(0, 1)
        alg.apply_batch([dele(0, 1)])
        assert not alg.connected(0, 1)
        assert alg.num_components() == 2

    def test_full_star_lifecycle(self):
        n = 32
        alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=1))
        star = star_insertions(n)
        half = len(star) // 2
        alg.apply_batch(star[:half])
        alg.apply_batch(star[half:])
        assert alg.num_components() == 1
        # Shatter the entire star, then rebuild it reversed.
        spokes = [dele(0, v) for v in range(1, n)]
        alg.apply_batch(spokes[:half])
        alg.apply_batch(spokes[half:])
        assert alg.num_components() == n
        rebuild = [ins(v, 0) for v in range(1, n)]
        alg.apply_batch(rebuild[:half])
        alg.apply_batch(rebuild[half:])
        assert alg.num_components() == 1
        alg.forest.check_invariants()

    def test_repeated_insert_delete_same_edge(self):
        alg = MPCConnectivity(MPCConfig(n=4, phi=0.5, seed=2))
        for _ in range(25):
            alg.apply_batch([ins(0, 1)])
            alg.apply_batch([dele(0, 1)])
        assert not alg.connected(0, 1)
        assert alg.stats["sketch_failures"] == 0

    def test_batch_exactly_at_limit(self):
        config = MPCConfig(n=64, phi=0.5, seed=3)
        alg = MPCConnectivity(config)
        limit = alg.batch_limit
        batch = [ins(i, i + 1) for i in range(min(limit, 63))]
        alg.apply_batch(batch)  # must not raise
        assert alg.num_edges == len(batch)

    def test_two_cliques_bridge_cycling(self):
        """Delete and re-find the only bridge between two cliques; the
        replacement must always be the bridge itself (no other edge
        crosses)."""
        n = 16
        alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=4))
        left = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        right = [(u, v) for u in range(8, 16) for v in range(u + 1, 16)]
        for i in range(0, len(left), 12):
            alg.apply_batch([ins(*e) for e in left[i:i + 12]])
        for i in range(0, len(right), 12):
            alg.apply_batch([ins(*e) for e in right[i:i + 12]])
        assert alg.num_components() == 2
        alg.apply_batch([ins(0, 8)])
        assert alg.num_components() == 1
        alg.apply_batch([dele(0, 8)])
        assert not alg.connected(0, 8)
        assert alg.num_components() == 2
        alg.apply_batch([ins(7, 15)])
        assert alg.connected(0, 15)


class TestCapacityInjection:
    def test_strict_cluster_rejects_oversized_message(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=True)
        cluster = Cluster(config)
        with pytest.raises(CapacityExceededError) as excinfo:
            cluster.exchange([Message(src=0, dst=1, payload=None,
                                      words=10 ** 6)])
        assert excinfo.value.machine_id in (0, 1)
        assert excinfo.value.used == 10 ** 6

    def test_lenient_cluster_records_everything(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        for _ in range(3):
            cluster.exchange([Message(src=0, dst=1, payload=None,
                                      words=10 ** 6)])
        # Each oversized exchange violates both the send and recv budget.
        assert len(cluster.metrics.violations) == 6

    def test_violations_surface_in_phase_metrics(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        cluster.begin_phase("inject")
        cluster.exchange([Message(src=0, dst=1, payload=None,
                                  words=10 ** 6)])
        snapshot = cluster.end_phase()
        assert snapshot.capacity_violations == 2
