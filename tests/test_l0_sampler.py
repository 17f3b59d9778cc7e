"""L0-sampler tests, including the linearity property the paper's
algorithms depend on (Remark 3.2).  A sampler is a pool row: keyed rows
(``KeyedSamplers``) for the per-key samplers, bare pool rows merged by
the production group merge for linearity."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.sketch import (
    KeyedSamplers,
    RecoveryPool,
    SamplerRandomness,
    levels_for_universe,
    query_cells,
)


def make(universe=2000, columns=6, seed=1):
    rnd = SamplerRandomness(universe, columns, np.random.default_rng(seed))
    return rnd, KeyedSamplers(rnd)


class TestLevels:
    def test_levels_grow_with_universe(self):
        assert levels_for_universe(10) < levels_for_universe(10 ** 6)

    def test_bad_universe(self):
        with pytest.raises(ValueError):
            levels_for_universe(0)


def one(keyed, key="x"):
    """The sampled coordinate of ``key``, ``None`` where none is found."""
    got = int(keyed.sample([key])[0])
    return None if got < 0 else got


def feed(keyed, ops, key="x"):
    """Feed ``key`` the ``(idx, delta)`` pairs ``ops`` in one update."""
    idxs, deltas = zip(*ops)
    keyed.update([key] * len(ops), idxs, deltas)


class TestSampling:
    def test_empty_is_zero(self):
        _, keyed = make()
        feed(keyed, [(5, 0)])
        assert not keyed.pool.cells.any()
        assert one(keyed) is None

    def test_singleton_support(self):
        _, keyed = make()
        feed(keyed, [(1234, 1)])
        assert keyed.pool.cells.any()
        assert one(keyed) == 1234

    def test_sample_from_support_only(self):
        _, keyed = make(seed=3)
        support = {3, 77, 500, 1999}
        for key in range(4):
            feed(keyed, [(idx, 1) for idx in support], key=key)
        assert {one(keyed, key) for key in range(4)} <= support

    def test_insert_delete_cancels(self):
        _, keyed = make()
        feed(keyed, [(5, 1), (10, 1), (15, 1)])
        feed(keyed, [(5, -1), (10, -1), (15, -1)])
        assert not keyed.pool.cells.any()
        assert one(keyed) is None

    def test_out_of_universe_rejected(self):
        _, keyed = make(universe=100)
        with pytest.raises(ValueError):
            feed(keyed, [(100, 1)])
        with pytest.raises(ValueError):
            feed(keyed, [(-1, 1)])
        assert not keyed.rows

    def test_zero_delta_is_noop(self):
        _, keyed = make()
        feed(keyed, [(4, 0)])
        assert not keyed.pool.cells.any()

    def test_success_rate_over_seeds(self):
        """Each sampler (with several columns) should essentially always
        return a support element for moderate supports."""
        failures = 0
        for seed in range(30):
            rnd, keyed = make(universe=5000, columns=6, seed=seed)
            support = set(np.random.default_rng(seed).integers(0, 5000, 40))
            feed(keyed, [(int(idx), 1) for idx in support])
            got = one(keyed)
            if got is None or got not in support:
                failures += 1
        assert failures == 0

    def test_rows_on_first_touch_and_geometric_growth(self):
        rnd, keyed = make(universe=500, columns=3)
        counts = []
        for key in range(9):
            feed(keyed, [(key, 1), (key + 100, 1)], key=key)
            counts.append(keyed.pool.count)
        feed(keyed, [(7, -1)], key=3)       # a known key takes no row
        assert keyed.rows == {key: key for key in range(9)}
        assert counts == [1, 2, 4, 4, 8, 8, 8, 8, 16]
        # Growth copies the old rows: every key still holds its vector.
        for key in range(9):
            want = {key, key + 100, *((7,) if key == 3 else ())}
            assert one(keyed, key) in want

    def test_unknown_key_is_refused(self):
        _, keyed = make()
        with pytest.raises(KeyError):
            keyed.sample(["never updated"])


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
        feed(a, [(9, 1)])
        dup = pickle.loads(pickle.dumps(a))
        feed(a, [(9, -1)])
        assert one(dup) == 9
        assert not a.pool.cells.any()
        feed(dup, [(9, -1)])
        assert not dup.pool.cells.any()

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
        rnd, keyed = make(columns=5)
        assert keyed.pool.words == 3 * 5 * rnd.levels   # one row
