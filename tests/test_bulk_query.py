"""Bulk queries must be bit-identical to the sequential path.

The query-side mirror of ``tests/test_bulk_ingestion.py``: every layer
of the vectorized recovery pipeline -- prefix decoding
(``kernels.decode_prefix`` via ``RecoveryMatrix.recover_many``), batched
zero tests, many-column sampler queries (``sample_columns``), and the
vectorized edge decoding -- is checked against its scalar counterpart
across random update/delete streams (the family-level group router is
checked against exact references in ``tests/test_backend.py``).  Also
covers the query-path papercuts: LRU hash memos and the AGM
column-cursor no-op fix.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core.connectivity import MPCConnectivity
from repro.errors import SketchError
from repro.mpc.config import MPCConfig
from repro.sketch import (
    L0Sampler,
    LRUMemo,
    MERSENNE_P,
    RecoveryMatrix,
    SamplerRandomness,
    SketchFamily,
    decode_index,
    decode_indices,
    query_cells,
)
from repro.types import dele, ins


def churn_sampler(randomness, seed, count=200, cancel=False):
    """A sampler fed a random +-1 stream (optionally fully cancelled)."""
    stream = np.random.default_rng(seed)
    idxs = stream.integers(0, randomness.universe, count).astype(np.int64)
    deltas = stream.choice([-1, 1], count).astype(np.int64)
    sampler = L0Sampler(randomness)
    sampler.update_many(idxs, deltas)
    if cancel:
        sampler.update_many(idxs, -deltas)
    return sampler


def single_columns(samplers, col):
    """Column ``col`` of every sampler as a ``(k, 4, levels)`` stack in
    the limb read form: the group-merge kernel over singleton groups."""
    cells = np.stack([s.matrix.cells for s in samplers])
    k = cells.shape[0]
    return kernels.merge_groups(cells, np.arange(k, dtype=np.int64),
                                np.ones(k, dtype=np.int64),
                                np.full(k, col, dtype=np.int64))


class TestRecoverManyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_recover_many_matches_recover(self, seed, rng):
        rnd = SamplerRandomness(4000, 6, rng)
        sampler = churn_sampler(rnd, seed, count=300)
        cols = np.arange(rnd.columns, dtype=np.int64)
        got = sampler.matrix.recover_many(cols, 4000, rnd.z)
        expected = [sampler.matrix.recover(c, 4000, rnd.fingerprint_ok)
                    for c in range(rnd.columns)]
        assert [None if g < 0 else int(g) for g in got] == expected

    def test_recover_many_repeated_and_reordered_columns(self, rng):
        rnd = SamplerRandomness(1000, 5, rng)
        sampler = churn_sampler(rnd, 9, count=120)
        cols = np.array([3, 0, 3, 1, 4, 4], dtype=np.int64)
        got = sampler.matrix.recover_many(cols, 1000, rnd.z)
        expected = [sampler.matrix.recover(int(c), 1000,
                                           rnd.fingerprint_ok)
                    for c in cols]
        assert [None if g < 0 else int(g) for g in got] == expected

    def test_recover_many_empty_is_empty(self, rng):
        rnd = SamplerRandomness(100, 3, rng)
        matrix = RecoveryMatrix(rnd.columns, rnd.levels)
        out = matrix.recover_many(np.empty(0, dtype=np.int64), 100,
                                  rnd.z)
        assert out.shape == (0,)

    @pytest.mark.parametrize("cancel", [False, True])
    def test_column_is_zero_many_matches_scalar(self, cancel, rng):
        # The many-column zero test of the group route
        # (``kernels.is_zero_cells`` over stacked columns) against the
        # scalar per-column test, for every column and a reordered subset.
        rnd = SamplerRandomness(800, 7, rng)
        sampler = churn_sampler(rnd, 5, count=90, cancel=cancel)
        cols = np.array([*range(rnd.columns), 2, 0, 5], dtype=np.int64)
        k = len(cols)
        stack = kernels.merge_groups(sampler.matrix.cells[None],
                                     np.zeros(k, dtype=np.int64),
                                     np.ones(k, dtype=np.int64), cols)
        got = kernels.is_zero_cells(stack)
        assert got.tolist() == [sampler.matrix.column_is_zero(int(c))
                                for c in cols]
        assert got.tolist() == [cancel] * k


class TestSamplerBatchQueries:
    """The stacked-cell cores behind the group queries
    (``kernels.is_zero_cells`` / ``query_cells``) and the many-column decode of
    one sampler, each against the scalar sampler methods."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_is_zero_many_matches_is_zero(self, seed, rng):
        rnd = SamplerRandomness(1200, 5, rng)
        samplers = [
            churn_sampler(rnd, seed * 17 + i, count=25,
                          cancel=(i % 2 == 0))
            for i in range(9)
        ]
        expected = [s.is_zero() for s in samplers]
        for col in range(rnd.columns):
            got = kernels.is_zero_cells(single_columns(samplers, col))
            assert [bool(g) for g in got] == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_query_many_fuses_zero_and_sample(self, seed, rng):
        rnd = SamplerRandomness(1800, 6, rng)
        samplers = [
            churn_sampler(rnd, seed * 13 + i, count=15 + 9 * i,
                          cancel=(i % 3 == 0))
            for i in range(10)
        ]
        for col in range(rnd.columns):
            zeros, found = query_cells(single_columns(samplers, col), rnd)
            assert [bool(z) for z in zeros] == [s.is_zero()
                                               for s in samplers]
            expected = [None if s.is_zero() else s.sample_column(col)
                        for s in samplers]
            assert [None if f < 0 else int(f) for f in found] == expected

    def test_sample_columns_matches_loop(self, rng):
        rnd = SamplerRandomness(1500, 8, rng)
        sampler = churn_sampler(rnd, 3, count=200)
        cols = np.array([5, 1, 1, 7, 0, 3], dtype=np.int64)
        got = sampler.sample_columns(cols)
        expected = [sampler.sample_column(int(c)) for c in cols]
        assert [None if g < 0 else int(g) for g in got] == expected

    def test_sample_rotation_matches_manual_scan(self, rng):
        rnd = SamplerRandomness(600, 6, rng)
        sampler = churn_sampler(rnd, 21, count=60)
        for start in range(rnd.columns):
            reference = None
            for offset in range(rnd.columns):
                col = (start + offset) % rnd.columns
                found = sampler.sample_column(col)
                if found is not None:
                    reference = found
                    break
            assert sampler.sample(start_column=start) == reference


class TestDecodeIndicesBulk:
    def test_decode_indices_matches_scalar(self):
        for n in (2, 3, 7, 64, 257):
            total = n * (n - 1) // 2
            idxs = np.arange(total, dtype=np.int64)
            us, vs = decode_indices(n, idxs)
            for idx, u, v in zip(idxs, us, vs):
                assert decode_index(n, int(idx)) == (int(u), int(v))

    def test_decode_indices_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            decode_indices(10, np.array([45], dtype=np.int64))
        with pytest.raises(ValueError):
            decode_indices(10, np.array([-1], dtype=np.int64))

    def test_decode_indices_empty(self):
        us, vs = decode_indices(10, np.empty(0, dtype=np.int64))
        assert us.shape == (0,) and vs.shape == (0,)


class TestMergeValidationAndScratch:
    def test_sum_of_empty_raises_sketch_error(self):
        # Summing no rows is refused by both group entries.
        family = SketchFamily(8, columns=2, rng=np.random.default_rng(0))
        empty = [np.array([], dtype=np.int64)]
        with pytest.raises(SketchError, match="empty"):
            family.query_iteration_groups(empty, 0)
        with pytest.raises(SketchError, match="empty"):
            family.cuts_empty_groups(empty)

    def test_sketch_error_is_value_error(self):
        # Backwards compatibility: callers catching ValueError still do.
        assert issubclass(SketchError, ValueError)


class TestLRUMemo:
    def test_hot_key_survives_capacity_churn(self):
        memo = LRUMemo(4)
        memo.put("hot", 1)
        for i in range(100):
            memo.get("hot")            # refresh as most-recently-used
            memo.put(i, i)             # churn through capacity
        assert "hot" in memo
        assert memo.get("hot") == 1
        assert len(memo) <= 4

    def test_fifo_would_have_evicted(self):
        # The regression the LRU switch fixes: under FIFO eviction the
        # oldest insertion dies regardless of how recently it was hit.
        memo = LRUMemo(3)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("c", 3)
        assert memo.get("a") == 1      # touch: "a" is now most recent
        memo.put("d", 4)               # evicts "b" (LRU), not "a"
        assert "a" in memo and "b" not in memo

    def test_hit_rate_on_repeating_batch(self, rng):
        """A hot working set re-queried through churn keeps hitting."""
        rnd = SamplerRandomness(10**7, 2, rng)
        rnd._zpow_cache = LRUMemo(16)  # small capacity to force churn
        hot = list(range(8))
        cold = iter(range(1000, 10**6))
        for _ in range(50):
            for idx in hot:
                rnd.zpow(idx)
            rnd.zpow(next(cold))       # churn past capacity over time
        cache = rnd._zpow_cache
        # First round misses the 8 hot keys; every later round hits.
        assert cache.hits >= 49 * 8
        hit_rate = cache.hits / (cache.hits + cache.misses)
        assert hit_rate > 0.8
        for idx in hot:
            assert idx in cache

    def test_memo_values_stay_correct_through_eviction(self, rng):
        rnd = SamplerRandomness(10**6, 2, rng)
        rnd._zpow_cache = LRUMemo(4)
        values = {idx: rnd.zpow(idx) for idx in range(64)}
        for idx, expected in values.items():
            assert rnd.zpow(idx) == expected
            assert rnd.zpow(idx) == pow(rnd.z, idx, MERSENNE_P)


class TestAGMCursorAccounting:
    def test_noop_deletion_phase_keeps_cursor(self):
        """A deletion phase whose fragments all have empty cuts must
        not burn a sketch column (the no-op cursor regression)."""
        config = MPCConfig(n=16, phi=0.5, seed=3)
        alg = MPCConnectivity(config)
        alg.apply_batch([ins(0, 1)])
        assert alg._column_cursor == 0
        # Deleting the only edge splits {0, 1}; both fragments have
        # empty cuts, so zero halving iterations run.
        alg.apply_batch([dele(0, 1)])
        assert alg.stats["agm_iterations"] == 0
        assert alg._column_cursor == 0
        # Repeated no-op phases still do not consume randomness.
        for _ in range(3):
            alg.apply_batch([ins(0, 1)])
            alg.apply_batch([dele(0, 1)])
        assert alg._column_cursor == 0

    def test_real_replacement_still_advances_cursor(self):
        config = MPCConfig(n=16, phi=0.5, seed=4)
        alg = MPCConnectivity(config)
        # Triangle: deleting one tree edge forces a halving iteration
        # that recovers the replacement from the surviving cycle edge.
        alg.apply_batch([ins(0, 1), ins(1, 2), ins(0, 2)])
        alg.apply_batch([dele(0, 1)])
        assert alg.connected(0, 1)
        assert alg.stats["agm_iterations"] >= 1
        assert alg._column_cursor == alg.stats["agm_iterations"] \
            % alg.family.columns
