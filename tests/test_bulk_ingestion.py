"""Bulk ingestion must be bit-identical to the sequential path.

Every layer of the vectorized pipeline -- limb-arithmetic field
evaluation, level hashing, ``z^idx`` powers, recovery-cell scatters,
per-vertex bulk updates, and the family-level group-by-endpoint router
-- is checked against its scalar counterpart on random update
sequences: same recovery state (materialized ``W``/``S``/``F``), same
``sample()`` / ``is_zero()`` outcomes, and mergeability preserved.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.connectivity import MPCConnectivity
from repro.mpc.config import MPCConfig
from repro.sketch import (
    CACHE_LIMIT,
    MERSENNE_P,
    FourWiseHash,
    KWiseHash,
    L0Sampler,
    PairwiseHash,
    RecoveryMatrix,
    SamplerRandomness,
    SketchFamily,
    edge_sign,
    edge_signs,
    encode_edge,
    encode_edges,
    trailing_zeros,
)
from repro.streams import ChurnStream
from tests.conftest import random_edges


def assert_same_state(a: RecoveryMatrix, b: RecoveryMatrix):
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.F, b.F)


class TestFieldArithmetic:
    def test_mulmod_matches_python(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, MERSENNE_P, 2000, dtype=np.uint64)
        b = rng.integers(0, MERSENNE_P, 2000, dtype=np.uint64)
        got = kernels.mulmod_many(a, b)
        expected = [(int(x) * int(y)) % MERSENNE_P for x, y in zip(a, b)]
        assert [int(g) for g in got] == expected

    def test_mulmod_extremes(self):
        extremes = np.array(
            [0, 1, 2, MERSENNE_P - 1, MERSENNE_P - 2, (1 << 32) - 1,
             1 << 32, (1 << 60) + 12345],
            dtype=np.uint64,
        )
        a, b = np.meshgrid(extremes, extremes)
        got = kernels.mulmod_many(a.ravel(), b.ravel())
        expected = [(int(x) * int(y)) % MERSENNE_P
                    for x, y in zip(a.ravel(), b.ravel())]
        assert [int(g) for g in got] == expected

    def test_addmod_matches_python(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, MERSENNE_P, 500, dtype=np.uint64)
        b = rng.integers(0, MERSENNE_P, 500, dtype=np.uint64)
        got = kernels.addmod_many(a, b)
        expected = [(int(x) + int(y)) % MERSENNE_P for x, y in zip(a, b)]
        assert [int(g) for g in got] == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_field_value_many_matches_scalar(self, k, rng):
        h = KWiseHash(k, 1000, rng)
        xs = list(range(0, 5000, 37)) + [0, 1, MERSENNE_P - 1]
        got = h.field_value_many(np.array(xs, dtype=np.int64) % MERSENNE_P)
        assert [int(g) for g in got] == [h.field_value(x % MERSENNE_P)
                                         for x in xs]

    def test_many_matches_scalar_for_all_degrees(self, rng):
        for hash_cls in (PairwiseHash, FourWiseHash):
            h = hash_cls(97, rng)
            xs = list(range(300))
            assert h.many(xs) == [h(x) for x in xs]

    def test_trailing_zeros_many_matches_scalar(self):
        xs = np.array([0, 1, 2, 3, 4, 12, 96, 1 << 20, 1 << 62],
                      dtype=np.uint64)
        for cap in (1, 5, 19, 63):
            got = kernels.trailing_zeros_many(xs, cap)
            assert [int(g) for g in got] == [trailing_zeros(int(x), cap)
                                             for x in xs]


class TestEdgeCodingBulk:
    def test_encode_edges_matches_scalar(self):
        n = 200
        edges = random_edges(n, 500, seed=3)
        us = np.array([u for u, _ in edges])
        vs = np.array([v for _, v in edges])
        got = encode_edges(n, vs, us)  # reversed order on purpose
        assert [int(g) for g in got] == [encode_edge(n, u, v)
                                         for u, v in edges]

    def test_encode_edges_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_edges(10, np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            encode_edges(10, np.array([0]), np.array([10]))
        with pytest.raises(ValueError):
            encode_edges(10, np.array([-1]), np.array([3]))

    def test_edge_signs_matches_scalar(self):
        us = np.array([5, 5, 5, 0])
        vs = np.array([1, 9, 7, 5])
        got = edge_signs(5, us, vs)
        assert [int(g) for g in got] == [edge_sign(5, int(u), int(v))
                                         for u, v in zip(us, vs)]

    def test_edge_signs_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            edge_signs(3, np.array([1]), np.array([2]))


class TestRandomnessBulk:
    def test_levels_of_many_matches_scalar(self, rng):
        rnd = SamplerRandomness(10000, 7, rng)
        idxs = np.arange(0, 10000, 13, dtype=np.int64)
        got = rnd.levels_of_many(idxs)
        for row, idx in zip(got, idxs):
            assert np.array_equal(row, rnd.levels_of(int(idx)))

    def test_zpow_many_matches_scalar(self, rng):
        rnd = SamplerRandomness(10000, 3, rng)
        idxs = np.array([0, 1, 2, 5, 9999, 4096, 7777], dtype=np.int64)
        got = rnd.zpow_many(idxs)
        assert [int(g) for g in got] == [rnd.zpow(int(i)) for i in idxs]

    def test_caches_are_bounded(self, rng):
        rnd = SamplerRandomness(CACHE_LIMIT * 4, 2, rng)
        for idx in range(CACHE_LIMIT + 500):
            rnd.zpow(idx)
            rnd.levels_of(idx)
        assert len(rnd._zpow_cache) <= CACHE_LIMIT
        assert len(rnd._levels_cache) <= CACHE_LIMIT
        # Evicted entries are simply recomputed, not corrupted.
        assert rnd.zpow(0) == pow(rnd.z, 0, MERSENNE_P)


class TestRecoveryMatrixBulk:
    def test_apply_many_matches_apply(self, rng):
        rnd = SamplerRandomness(5000, 5, rng)
        stream_rng = np.random.default_rng(7)
        idxs = stream_rng.integers(0, 5000, 300).astype(np.int64)
        deltas = stream_rng.choice([-1, 1], 300).astype(np.int64)
        seq = RecoveryMatrix(rnd.columns, rnd.levels)
        for idx, delta in zip(idxs, deltas):
            seq.apply(rnd.levels_of(int(idx)), int(idx), int(delta),
                      rnd.zpow(int(idx)))
        bulk = RecoveryMatrix(rnd.columns, rnd.levels)
        bulk.apply_many(rnd.levels_of_many(idxs), idxs, deltas,
                        rnd.zpow_many(idxs))
        assert_same_state(seq, bulk)
        for col in range(rnd.columns):
            assert (seq.recover(col, 5000, rnd.fingerprint_ok)
                    == bulk.recover(col, 5000, rnd.fingerprint_ok))


class TestL0SamplerBulk:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_many_matches_updates(self, seed, rng):
        rnd = SamplerRandomness(2000, 6, rng)
        stream_rng = np.random.default_rng(seed)
        idxs = stream_rng.integers(0, 2000, 250).astype(np.int64)
        deltas = stream_rng.choice([-1, 0, 1], 250).astype(np.int64)
        seq = L0Sampler(rnd)
        for idx, delta in zip(idxs, deltas):
            seq.update(int(idx), int(delta))
        bulk = L0Sampler(rnd)
        bulk.update_many(idxs, deltas)
        assert_same_state(seq.matrix, bulk.matrix)
        assert seq.sample() == bulk.sample()
        assert seq.is_zero() == bulk.is_zero()

    def test_update_many_rejects_out_of_universe(self, rng):
        sampler = L0Sampler(SamplerRandomness(100, 2, rng))
        with pytest.raises(ValueError):
            sampler.update_many(np.array([100]), np.array([1]))
        with pytest.raises(ValueError):
            sampler.update_many(np.array([-1]), np.array([1]))

    def test_mergeability_preserved(self, rng):
        """update_many then merge_from == interleaved single updates."""
        rnd = SamplerRandomness(1000, 4, rng)
        stream_rng = np.random.default_rng(11)
        part_a = stream_rng.integers(0, 1000, 80).astype(np.int64)
        part_b = stream_rng.integers(0, 1000, 80).astype(np.int64)
        signs_a = stream_rng.choice([-1, 1], 80).astype(np.int64)
        signs_b = stream_rng.choice([-1, 1], 80).astype(np.int64)
        a = L0Sampler(rnd)
        a.update_many(part_a, signs_a)
        b = L0Sampler(rnd)
        b.update_many(part_b, signs_b)
        a.merge_from(b)
        interleaved = L0Sampler(rnd)
        for i in range(80):
            interleaved.update(int(part_a[i]), int(signs_a[i]))
            interleaved.update(int(part_b[i]), int(signs_b[i]))
        assert_same_state(a.matrix, interleaved.matrix)
        assert a.sample() == interleaved.sample()

    def test_cancellation_through_bulk_path(self, rng):
        rnd = SamplerRandomness(500, 4, rng)
        sampler = L0Sampler(rnd)
        idxs = np.arange(0, 500, 5, dtype=np.int64)
        sampler.update_many(idxs, np.ones(len(idxs), dtype=np.int64))
        sampler.update_many(idxs, -np.ones(len(idxs), dtype=np.int64))
        assert sampler.is_zero()
        assert sampler.matrix.is_entirely_zero()


class TestVertexAndFamilyBulk:
    def test_apply_edges_matches_apply_edge(self):
        n = 64
        family = SketchFamily(n, columns=5,
                              rng=np.random.default_rng(3))
        twin = SketchFamily(n, columns=5, rng=np.random.default_rng(3))
        edges = [(0, v) for v in range(1, 40)]
        seq = family.new_vertex_sketch(0)
        for u, v in edges:
            seq.apply_edge(u, v, +1)
        bulk = twin.new_vertex_sketch(0)
        bulk.apply_edges(np.array([u for u, _ in edges]),
                         np.array([v for _, v in edges]),
                         np.ones(len(edges), dtype=np.int64))
        assert_same_state(seq.sampler.matrix, bulk.sampler.matrix)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_family_router_matches_per_edge(self, seed):
        n = 96
        count = 150
        family_seq = SketchFamily(n, columns=6,
                                  rng=np.random.default_rng(17))
        family_bulk = SketchFamily(n, columns=6,
                                   rng=np.random.default_rng(17))
        sk = {v: family_seq.new_vertex_sketch(v) for v in range(n)}
        _ = {v: family_bulk.new_vertex_sketch(v) for v in range(n)}
        edges = random_edges(n, count, seed=seed)
        deltas_rng = np.random.default_rng(seed + 100)
        # Insert everything, then delete a random half: ingestion must
        # agree through churn, not just fresh inserts.
        half = deltas_rng.permutation(count)[: count // 2]
        us = np.array([u for u, _ in edges])
        vs = np.array([v for _, v in edges])
        for u, v in edges:
            sk[u].apply_edge(u, v, +1)
            sk[v].apply_edge(u, v, +1)
        for i in half:
            u, v = edges[int(i)]
            sk[u].apply_edge(u, v, -1)
            sk[v].apply_edge(u, v, -1)
        family_bulk.apply_edges_bulk(us, vs,
                                     np.ones(count, dtype=np.int64))
        family_bulk.apply_edges_bulk(us[half], vs[half],
                                     -np.ones(len(half), dtype=np.int64))
        assert np.array_equal(family_seq.pool.cells,
                              family_bulk.pool.cells)

    def test_router_is_order_independent(self):
        n = 32
        fam_a = SketchFamily(n, columns=4, rng=np.random.default_rng(9))
        fam_b = SketchFamily(n, columns=4, rng=np.random.default_rng(9))
        edges = random_edges(n, 60, seed=2)
        us = np.array([u for u, _ in edges])
        vs = np.array([v for _, v in edges])
        ones = np.ones(len(edges), dtype=np.int64)
        fam_a.apply_edges_bulk(us, vs, ones)
        perm = np.random.default_rng(4).permutation(len(edges))
        fam_b.apply_edges_bulk(us[perm], vs[perm], ones)
        assert np.array_equal(fam_a.pool.cells, fam_b.pool.cells)

    def test_router_empty_batch_is_noop(self):
        fam = SketchFamily(8, columns=2, rng=np.random.default_rng(0))
        fam.apply_edges_bulk(np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64))
        assert not fam.pool.cells.any()


class TestAlgorithmLevelEquivalence:
    def test_mpc_connectivity_sketches_match_manual_per_edge(self):
        """Batch phases leave exactly the per-edge sketch state.

        The twin family reproduces the algorithm's sketch randomness
        (the cluster rng seeded with ``config.seed`` feeds the family
        first), then replays every update through the scalar
        ``apply_edge`` path.
        """
        config = MPCConfig(n=48, phi=0.5, seed=5)
        alg = MPCConnectivity(config)
        twin = SketchFamily(48, columns=alg.family.columns,
                            rng=np.random.default_rng(config.seed))
        replay = {v: twin.new_vertex_sketch(v) for v in range(48)}
        stream = ChurnStream(48, seed=3, delete_fraction=0.3,
                             target_edges=96)
        for batch in stream.batches(6, 16):
            alg.apply_batch(batch)
            for up in batch:
                delta = 1 if up.is_insert else -1
                replay[up.u].apply_edge(up.u, up.v, delta)
                replay[up.v].apply_edge(up.u, up.v, delta)
        assert np.array_equal(alg.family.pool.cells, twin.pool.cells)
