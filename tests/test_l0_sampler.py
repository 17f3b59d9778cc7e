"""L0-sampler tests, including the linearity property the paper's
algorithms depend on (Remark 3.2)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.sketch import (
    L0Sampler,
    RecoveryPool,
    SamplerRandomness,
    levels_for_universe,
    query_cells,
)


def make(universe=2000, columns=6, seed=1):
    rnd = SamplerRandomness(universe, columns, np.random.default_rng(seed))
    return rnd, L0Sampler(rnd)


class TestLevels:
    def test_levels_grow_with_universe(self):
        assert levels_for_universe(10) < levels_for_universe(10 ** 6)

    def test_bad_universe(self):
        with pytest.raises(ValueError):
            levels_for_universe(0)


class TestSampling:
    def test_empty_is_zero(self):
        _, sampler = make()
        assert sampler.is_zero()
        assert sampler.sample() is None

    def test_singleton_support(self):
        _, sampler = make()
        sampler.update(1234, 1)
        assert not sampler.is_zero()
        assert sampler.sample() == 1234

    def test_sample_from_support_only(self):
        _, sampler = make(seed=3)
        support = {3, 77, 500, 1999}
        for idx in support:
            sampler.update(idx, 1)
        for start in range(4):
            got = sampler.sample(start_column=start)
            assert got in support

    def test_insert_delete_cancels(self):
        _, sampler = make()
        for idx in (5, 10, 15):
            sampler.update(idx, 1)
        for idx in (5, 10, 15):
            sampler.update(idx, -1)
        assert sampler.is_zero()
        assert sampler.sample() is None

    def test_out_of_universe_rejected(self):
        _, sampler = make(universe=100)
        with pytest.raises(ValueError):
            sampler.update(100, 1)

    def test_zero_delta_is_noop(self):
        _, sampler = make()
        sampler.update(4, 0)
        assert sampler.is_zero()

    def test_success_rate_over_seeds(self):
        """Each sampler (with several columns) should essentially always
        return a support element for moderate supports."""
        failures = 0
        for seed in range(30):
            rnd, sampler = make(universe=5000, columns=6, seed=seed)
            support = set(np.random.default_rng(seed).integers(0, 5000, 40))
            for idx in support:
                sampler.update(int(idx), 1)
            got = sampler.sample()
            if got is None or got not in support:
                failures += 1
        assert failures == 0


def pool_rows(rnd, streams):
    """A pool with row ``i`` fed ``streams[i]`` (``(idx, delta)`` pairs)."""
    pool = RecoveryPool(len(streams), rnd.columns, rnd.levels)
    for slot, ops in enumerate(streams):
        if ops:
            idxs, deltas = (np.array(c, dtype=np.int64) for c in zip(*ops))
            pool.apply_points(np.full(len(ops), slot),
                              rnd.levels_of_many(idxs), idxs, deltas,
                              rnd.zpow_many(idxs))
    return pool


def merge(pool, groups, col):
    """Column ``col`` of each group's merged rows: the production merge."""
    return kernels.merge_groups(
        pool.cells, np.concatenate(groups).astype(np.int64),
        np.array([len(g) for g in groups]), np.full(len(groups), col))


class TestMerging:
    def test_merged_samples_symmetric_difference(self):
        rnd = SamplerRandomness(1000, 6, np.random.default_rng(2))
        # Coordinate 20 cancels across the merge of rows 0 and 1.
        pool = pool_rows(rnd, [[(10, 1), (20, 1)], [(20, -1), (30, 1)]])
        hits = set()
        for col in range(rnd.columns):
            zeros, found = query_cells(merge(pool, [[0, 1]], col), rnd)
            assert not zeros[0]
            hits.add(int(found[0]))
        assert hits - {-1} and hits <= {-1, 10, 30}

    def test_merge_from_in_place(self):
        # Rows whose updates cancel merge to the zero sketch.
        rnd = SamplerRandomness(100, 4, np.random.default_rng(0))
        pool = pool_rows(rnd, [[(7, 1)], [(7, -1)]])
        for col in range(rnd.columns):
            assert kernels.is_zero_cells(merge(pool, [[0, 1]], col)).all()

    def test_copy_independence(self):
        # A checkpoint copy (pickle round trip) is independent.
        _, a = make()
        a.update(9, 1)
        dup = pickle.loads(pickle.dumps(a))
        a.update(9, -1)
        assert dup.sample() == 9
        assert a.is_zero()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 499),
                              st.sampled_from([1, -1])),
                    min_size=0, max_size=60))
    def test_linearity_property(self, ops):
        """Splitting a stream across two pool rows and merging them
        equals feeding one row the whole stream (Remark 3.2)."""
        rnd = SamplerRandomness(500, 4, np.random.default_rng(11))
        pool = pool_rows(rnd, [ops, ops[::2], ops[1::2]])
        for col in range(rnd.columns):
            whole, halves = merge(pool, [[0], [1, 2]], col)
            assert np.array_equal(whole[:2], halves[:2])
            assert np.array_equal(kernels.combine_limbs(*whole[2:]),
                                  kernels.combine_limbs(*halves[2:]))

    def test_words(self):
        rnd, sampler = make(columns=5)
        assert sampler.words == 3 * 5 * rnd.levels
