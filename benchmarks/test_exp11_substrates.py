"""EXP-11: substrate micro-benchmarks (classic pytest-benchmark).

Wall-clock timings of the hot kernels under everything else: L0-sampler
updates, graph-sketch ingestion and group merges through the production
``SketchFamily`` entries, distributed Euler-tour batch splice/split, and
the real message-passing sort.  These are the numbers a downstream user
sizing a workload actually needs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.euler import DistributedEulerForest
from repro.mpc import Cluster, MPCConfig, distributed_sort_flat
from repro.sketch import L0Sampler, SamplerRandomness, SketchFamily
from repro.streams import random_tree_insertions


@pytest.fixture(scope="module")
def randomness():
    return SamplerRandomness(universe=500_000, columns=8,
                             rng=np.random.default_rng(0))


def test_l0_update(benchmark, randomness):
    sampler = L0Sampler(randomness)
    counter = iter(range(10 ** 9))

    def update():
        sampler.update(next(counter) % 500_000, 1)

    benchmark(update)


def test_l0_merge_component(benchmark):
    # One 64-member supernode: merge its rows, zero-test, recover.
    family = SketchFamily(1024, columns=8, rng=np.random.default_rng(1))
    us = np.arange(64, dtype=np.int64)
    family.apply_edges_bulk(us, us * 7 % 960 + 64, np.ones(64, dtype=int))
    benchmark(lambda: family.query_iteration_groups([us], 0))


def test_l0_sample(benchmark, randomness):
    sampler = L0Sampler(randomness)
    for i in range(200):
        sampler.update(i * 997 % 500_000, 1)
    benchmark(sampler.sample)


def test_vertex_sketch_edge_update(benchmark):
    family = SketchFamily(1024, columns=8,
                          rng=np.random.default_rng(1))
    counter = iter(range(1, 10 ** 9))
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    def update():
        v = next(counter) % 1023 + 1
        family.apply_edges_bulk(zero, one * v, one)

    benchmark(update)


def test_euler_batch_link(benchmark):
    updates = random_tree_insertions(256, seed=3)

    def build():
        forest = DistributedEulerForest(256)
        forest.batch_link([up.edge for up in updates])
        return forest

    benchmark(build)


def test_euler_batch_cut(benchmark):
    updates = random_tree_insertions(256, seed=4)
    edges = [up.edge for up in updates]

    def setup():
        forest = DistributedEulerForest(256)
        forest.batch_link(edges)
        return (forest,), {}

    def shatter(forest):
        forest.batch_cut(edges[::4])
        return forest

    benchmark.pedantic(shatter, setup=setup, rounds=10)


def test_euler_path_query(benchmark):
    forest = DistributedEulerForest(512)
    forest.batch_link([(i, i + 1) for i in range(511)])
    benchmark(lambda: forest.path_edges(0, 511))


def test_distributed_sort(benchmark):
    cluster = Cluster(MPCConfig(n=256, phi=0.5, seed=5, num_machines=16))
    items = list(np.random.default_rng(6).integers(0, 10 ** 6, 2000))
    benchmark(lambda: distributed_sort_flat(cluster, items))
