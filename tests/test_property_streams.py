"""Property-based end-to-end tests: arbitrary valid update streams.

Hypothesis drives the headline invariant from every angle it can
generate, and the seeded ``repro.streams`` generators add the
adversarial shapes (tree surgery, deep paths, stars, heavy churn): after
EVERY batch, the maintained component structure and every pairwise
``connected`` answer equal the exact oracle's, the spanning forest is a
real spanning forest of the current graph, no sketch failed, and
determinism holds (same seed, same stream, same everything).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import workers_for
from repro.baselines import DynamicConnectivityOracle
from repro.core import MPCConnectivity
from repro.mpc import Cluster, MPCConfig
from repro.mpc.backend import open_backend
from repro.streams import (
    ChurnStream,
    SplitMergeStream,
    path_insertions,
    random_tree_insertions,
    star_insertions,
)
from repro.types import Batch, dele, ins

N = 14


def stream_from_blueprint(blueprint):
    """Turn a hypothesis blueprint into a list of valid batches.

    ``blueprint`` is a list of batches; each batch is a list of
    (vertex_pair_index, prefer_delete) pairs.  Validity (no duplicate
    inserts, deletes of live edges only, one touch per edge per batch)
    is enforced during materialisation, so all generated streams are
    legal by construction.
    """
    pairs = [(u, v) for u in range(N) for v in range(u + 1, N)]
    live = set()
    batches = []
    for raw_batch in blueprint:
        updates = []
        touched = set()
        for pair_index, prefer_delete in raw_batch:
            edge = pairs[pair_index % len(pairs)]
            if edge in touched:
                continue
            touched.add(edge)
            if edge in live and prefer_delete:
                live.discard(edge)
                updates.append(dele(*edge))
            elif edge not in live:
                live.add(edge)
                updates.append(ins(*edge))
        batches.append(Batch(updates))
    return batches


def assert_matches_oracle(alg, oracle):
    """Every answer of ``alg`` equals the exact oracle's right now."""
    n = alg.n
    groups = {}
    for v in range(n):
        groups.setdefault(alg.components.id_of(v), set()).add(v)
    assert sorted(tuple(sorted(g)) for g in groups.values()) == \
        oracle.component_sets()
    for u in range(n):
        for v in range(u + 1, n):
            assert alg.connected(u, v) == oracle.connected(u, v), (u, v)
    assert alg.num_components() == oracle.num_components()
    forest = alg.query_spanning_forest()
    assert set(forest.edges) <= set(oracle.edges())
    assert len(forest.edges) == n - oracle.num_components()
    alg.forest.check_invariants()
    assert alg.stats["sketch_failures"] == 0


def run_against_oracle(alg, batches):
    oracle = DynamicConnectivityOracle(alg.n)
    for batch in batches:
        alg.apply_batch(batch)
        oracle.apply_batch(batch)
        assert_matches_oracle(alg, oracle)


blueprint_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(0, 200), st.booleans()),
        min_size=1, max_size=8,
    ),
    min_size=1, max_size=12,
)


class TestConnectivityProperties:
    @settings(max_examples=40, deadline=None)
    @given(blueprint_strategy)
    def test_components_always_match_oracle(self, blueprint):
        alg = MPCConnectivity(MPCConfig(n=N, phi=0.5, seed=3))
        run_against_oracle(alg, stream_from_blueprint(blueprint))

    @settings(max_examples=15, deadline=None)
    @given(blueprint_strategy, st.integers(0, 10 ** 6))
    def test_determinism(self, blueprint, seed):
        batches = stream_from_blueprint(blueprint)

        def run():
            alg = MPCConnectivity(MPCConfig(n=N, phi=0.5, seed=seed))
            for batch in batches:
                alg.apply_batch(batch)
            return (
                sorted(alg.query_spanning_forest().edges),
                [p.rounds for p in alg.phases],
                alg.total_memory_words(),
            )

        assert run() == run()

    @settings(max_examples=20, deadline=None)
    @given(blueprint_strategy)
    def test_rounds_never_depend_on_history_length(self, blueprint):
        """Constant-rounds means no phase can cost more than the fixed
        per-phase budget no matter what came before."""
        batches = stream_from_blueprint(blueprint)
        alg = MPCConnectivity(MPCConfig(n=N, phi=0.5, seed=8))
        for batch in batches:
            snapshot = alg.apply_batch(batch)
            assert snapshot.rounds <= 80


# ---------------------------------------------------------------------------
# Seeded adversarial generators against the same oracle check
# ---------------------------------------------------------------------------

GENERATOR_N = 48


def batched(updates, limit, rng):
    """``updates`` cut into consecutive batches of random size <= limit."""
    batches, start = [], 0
    while start < len(updates):
        size = int(rng.integers(1, limit + 1))
        batches.append(Batch(updates[start:start + size]))
        start += size
    return batches


def generated_stream(kind, n, limit, seed):
    """One seeded adversarial stream, every batch within ``limit``."""
    rng = np.random.default_rng(seed)
    if kind == "churn":
        stream = ChurnStream(n, seed=seed, delete_fraction=0.5)
        return list(stream.batches(30, limit))
    if kind in ("split_merge", "split_merge_spare"):
        # Build a random tree (plus spare edges that replacements must
        # come from), then cut limit/2..limit tree edges per batch.
        stream = SplitMergeStream(
            n, seed=seed, spare_edges=n if kind == "split_merge_spare" else 0)
        batches = stream.build_batches(limit)
        while stream.tree_edges:
            cuts = int(rng.integers(limit // 2, limit + 1))
            batches.append(stream.surgery_batch(cuts))
        return batches
    # A deep path, a star or a random tree, then every edge deleted.
    updates = {
        "path": path_insertions(n, seed=seed),
        "star": star_insertions(n, center=seed),
        "random_tree": random_tree_insertions(n, seed=seed),
    }[kind]
    order = rng.permutation(len(updates))
    deletions = [dele(*updates[i].edge) for i in order]
    return batched(updates, limit, rng) + batched(deletions, limit, rng)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["churn", "path", "random_tree",
                                  "split_merge", "split_merge_spare", "star"])
def test_generated_streams_match_oracle(kind, seed):
    alg = MPCConnectivity(MPCConfig(n=GENERATOR_N, phi=0.5, seed=seed))
    batches = generated_stream(kind, GENERATOR_N, alg.batch_limit, seed)
    assert all(len(batch) <= alg.batch_limit for batch in batches)
    run_against_oracle(alg, batches)


@pytest.mark.parametrize("backend", ["sequential", "shared_memory"])
def test_churn_stream_matches_oracle_on_every_executor(backend):
    """The per-batch oracle check on one seeded churn stream, on each
    executor (the thread backend with 2 workers)."""
    config = MPCConfig(n=GENERATOR_N, phi=0.5, seed=5)
    with Cluster(config, backend=open_backend(
            backend, workers_for(backend))) as cluster:
        alg = MPCConnectivity(config, cluster=cluster)
        run_against_oracle(alg, generated_stream(
            "churn", GENERATOR_N, alg.batch_limit, 5))
        assert cluster.backend.describe() == (
            "sequential(workers=1)" if backend == "sequential"
            else "shared_memory(workers=2)")
