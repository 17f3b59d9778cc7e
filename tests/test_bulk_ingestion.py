"""Bulk ingestion must be bit-identical to the sequential path.

Every layer of the vectorized pipeline -- limb-arithmetic field
evaluation, level hashing, ``z^idx`` powers, recovery-cell scatters,
and the family-level group-by-endpoint router -- is checked against its
scalar counterpart on random update sequences: the same cell words
(residues are canonical, so equal cells are equal sketches) and the
same samples.  The reference is ``tests.conftest.ReferenceSampler``:
per key for ``KeyedSamplers``, per vertex (``replay_rows``) for the
router.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.connectivity import MPCConnectivity
from repro.mpc.config import MPCConfig
from repro.sketch import (
    MERSENNE_P,
    FourWiseHash,
    KeyedSamplers,
    KWiseHash,
    PairwiseHash,
    RecoveryPool,
    SamplerRandomness,
    SketchFamily,
    encode_edge,
    encode_edges,
    query_cells,
    trailing_zeros,
)
from repro.streams import ChurnStream
from tests.conftest import ReferenceSampler, random_edges, replay_rows


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


class TestRandomnessBulk:
    def test_levels_of_many_matches_scalar(self, rng):
        rnd = SamplerRandomness(10000, 7, rng)
        idxs = np.arange(0, 10000, 13, dtype=np.int64)
        got = rnd.levels_of_many(idxs)
        for row, idx in zip(got.tolist(), idxs.tolist()):
            assert row == [trailing_zeros(h(idx), rnd.levels - 1)
                           for h in rnd.level_hashes]

    def test_zpow_many_matches_scalar(self, rng):
        rnd = SamplerRandomness(10000, 3, rng)
        idxs = np.array([0, 1, 2, 5, 9999, 4096, 7777], dtype=np.int64)
        got = rnd.zpow_many(idxs)
        assert [int(g) for g in got] == [pow(rnd.z, int(i), MERSENNE_P)
                                         for i in idxs]


def reference_rows(rnd, keys, idxs, deltas):
    """The scalar reference of keyed ingestion: one ``ReferenceSampler``
    per key, updated entry by entry; stacked in first-touch order like
    ``KeyedSamplers.pool.cells``."""
    refs = {}
    for key, idx, delta in zip(keys, idxs, deltas):
        refs.setdefault(key, ReferenceSampler(rnd)).update(idx, delta)
    return np.stack([ref.cells for ref in refs.values()])


class TestKeyedRowsBulk:
    def test_one_scatter_matches_scalar_updates(self, rng):
        rnd = SamplerRandomness(5000, 5, rng)
        stream_rng = np.random.default_rng(7)
        idxs = stream_rng.integers(0, 5000, 300).astype(np.int64)
        deltas = stream_rng.choice([-1, 1], 300).astype(np.int64)
        keys = stream_rng.integers(0, 6, 300).tolist()
        keyed = KeyedSamplers(rnd)
        keyed.update(keys, idxs, deltas)
        want = reference_rows(rnd, keys, idxs.tolist(), deltas.tolist())
        assert np.array_equal(keyed.pool.cells[:len(keyed.rows)], want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_update_batches_match_updates(self, seed, rng):
        # Batches of any size, zero deltas included, across pool growth.
        rnd = SamplerRandomness(2000, 6, rng)
        stream_rng = np.random.default_rng(seed)
        idxs = stream_rng.integers(0, 2000, 250).astype(np.int64)
        deltas = stream_rng.choice([-1, 0, 1], 250).astype(np.int64)
        keys = [(int(k), "pair") for k in stream_rng.integers(0, 20, 250)]
        keyed = KeyedSamplers(rnd)
        for lo, hi in ((0, 1), (1, 2), (2, 40), (40, 250)):
            keyed.update(keys[lo:hi], idxs[lo:hi], deltas[lo:hi])
        want = reference_rows(rnd, keys, idxs.tolist(), deltas.tolist())
        assert np.array_equal(keyed.pool.cells[:len(keyed.rows)], want)
        refs = {}
        for key, idx, delta in zip(keys, idxs.tolist(), deltas.tolist()):
            refs.setdefault(key, ReferenceSampler(rnd)).update(idx, delta)
        got = keyed.sample(list(refs))
        assert [None if g < 0 else g for g in got.tolist()] == \
            [ref.sample() for ref in refs.values()]

    def test_update_rejects_bad_input(self, rng):
        keyed = KeyedSamplers(SamplerRandomness(100, 2, rng))
        with pytest.raises(ValueError):
            keyed.update(["a"], np.array([100]), np.array([1]))
        with pytest.raises(ValueError):
            keyed.update(["a"], np.array([-1]), np.array([1]))
        with pytest.raises(ValueError):
            keyed.update(["a", "b"], np.array([1]), np.array([1]))
        assert not keyed.rows and not keyed.pool.cells.any()

    def test_mergeability_preserved(self, rng):
        """Bulk updates into two pool rows, merged by the production
        group merge, equal interleaved single updates of one sampler."""
        rnd = SamplerRandomness(1000, 4, rng)
        stream_rng = np.random.default_rng(11)
        idxs = stream_rng.integers(0, 1000, (2, 80)).astype(np.int64)
        signs = stream_rng.choice([-1, 1], (2, 80)).astype(np.int64)
        pool = RecoveryPool(2, rnd.columns, rnd.levels)
        flat = idxs.ravel()
        pool.apply_points(np.repeat(np.arange(2), 80),
                          rnd.levels_of_many(flat), flat, signs.ravel(),
                          rnd.zpow_many(flat))
        interleaved = ReferenceSampler(rnd)
        for i in range(80):
            interleaved.update(int(idxs[0, i]), int(signs[0, i]))
            interleaved.update(int(idxs[1, i]), int(signs[1, i]))
        k, cols = rnd.columns, np.arange(rnd.columns)
        merged = kernels.merge_groups(pool.cells, np.tile(np.arange(2), k),
                                      np.full(k, 2), cols)
        want = kernels.merge_groups(interleaved.cells[None],
                                    np.zeros(k, dtype=np.int64),
                                    np.ones(k, dtype=np.int64), cols)
        assert np.array_equal(merged[:, :2], want[:, :2])
        assert np.array_equal(
            kernels.combine_limbs(merged[:, 2], merged[:, 3]),
            kernels.combine_limbs(want[:, 2], want[:, 3]))
        assert [None if f < 0 else f
                for f in query_cells(merged, rnd)[1].tolist()] == \
            [interleaved.sample_column(c) for c in range(k)]

    def test_cancellation_through_bulk_path(self, rng):
        rnd = SamplerRandomness(500, 4, rng)
        keyed = KeyedSamplers(rnd)
        idxs = np.arange(0, 500, 5, dtype=np.int64)
        keys = ["a", "b"] * (len(idxs) // 2)
        keyed.update(keys, idxs, np.ones(len(idxs), dtype=np.int64))
        keyed.update(keys, idxs, -np.ones(len(idxs), dtype=np.int64))
        assert not keyed.pool.cells.any()
        assert keyed.sample(["a", "b"]).tolist() == [-1, -1]


class TestVertexAndFamilyBulk:
    def test_apply_edges_matches_apply_edge(self):
        # A star batch through the router equals per-edge scalar updates.
        family = SketchFamily(64, columns=5, rng=np.random.default_rng(3))
        edges = [(0, v, 1) for v in range(1, 40)]
        us, vs, ds = (np.array(c, dtype=np.int64) for c in zip(*edges))
        family.apply_edges_bulk(us, vs, ds)
        assert np.array_equal(family.pool.cells, replay_rows(family, edges))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_family_router_matches_per_edge(self, seed):
        n = 96
        count = 150
        family = SketchFamily(n, columns=6, rng=np.random.default_rng(17))
        edges = random_edges(n, count, seed=seed)
        # Insert everything, then delete a random half: ingestion must
        # agree through churn, not just fresh inserts.
        half = np.random.default_rng(seed + 100).permutation(count)
        half = half[: count // 2]
        us = np.array([u for u, _ in edges])
        vs = np.array([v for _, v in edges])
        family.apply_edges_bulk(us, vs, np.ones(count, dtype=np.int64))
        family.apply_edges_bulk(us[half], vs[half],
                                -np.ones(len(half), dtype=np.int64))
        log = [(u, v, 1) for u, v in edges]
        log += [(*edges[int(i)], -1) for i in half]
        assert np.array_equal(family.pool.cells, replay_rows(family, log))

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

        The replay reference reproduces the algorithm's sketch
        randomness (the cluster rng seeded with ``config.seed`` feeds
        the family first), then replays every update per endpoint
        through standalone scalar samplers.
        """
        config = MPCConfig(n=48, phi=0.5, seed=5)
        alg = MPCConnectivity(config)
        twin = SketchFamily(48, columns=alg.family.columns,
                            rng=np.random.default_rng(config.seed))
        stream = ChurnStream(48, seed=3, delete_fraction=0.3,
                             target_edges=96)
        log = []
        for batch in stream.batches(6, 16):
            alg.apply_batch(batch)
            log += [(up.u, up.v, 1 if up.is_insert else -1)
                    for up in batch]
        assert np.array_equal(alg.family.pool.cells,
                              replay_rows(twin, log))
