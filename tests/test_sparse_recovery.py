"""1-sparse recovery cell tests, on pool rows (keyed rows), each
against the scalar reference of ``tests.conftest``."""

import pickle

import numpy as np
import pytest

from repro import kernels
from repro.sketch import KeyedSamplers, MERSENNE_P, RecoveryPool
from repro.sketch.l0_sampler import SamplerRandomness, query_cells
from tests.conftest import ReferenceSampler


def randomness(universe=1000, columns=4, seed=0):
    return SamplerRandomness(universe, columns, np.random.default_rng(seed))


def row(rnd, ops):
    """A keyed row fed ``ops`` and the scalar reference fed the same;
    their cells must agree word for word."""
    keyed, ref = KeyedSamplers(rnd), ReferenceSampler(rnd)
    keyed.update(["k"] * len(ops), [i for i, _ in ops], [d for _, d in ops])
    for idx, delta in ops:
        ref.update(idx, delta)
    assert np.array_equal(keyed.pool.cells[0], ref.cells)
    return keyed, ref


def columns(keyed):
    """Every column of the one row, read by the group route."""
    c = keyed.randomness.columns
    merged = kernels.merge_groups(keyed.pool.cells, np.zeros(c, np.int64),
                                  np.ones(c, np.int64), np.arange(c))
    return query_cells(merged, keyed.randomness)


class TestRecoveryCells:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RecoveryPool(1, 0, 3)
        with pytest.raises(ValueError):
            RecoveryPool(1, 3, 0)
        with pytest.raises(ValueError):
            RecoveryPool(0, 3, 3)

    def test_single_coordinate_recovered(self):
        rnd = randomness()
        keyed, ref = row(rnd, [(137, 1)])
        zeros, found = columns(keyed)
        assert not zeros.any() and found.tolist() == [137] * rnd.columns
        assert [ref.sample_column(c) for c in range(rnd.columns)] == \
            [137] * rnd.columns

    def test_cancellation_returns_zero_state(self):
        rnd = randomness()
        keyed, ref = row(rnd, [(42, 1), (42, -1)])
        assert not keyed.pool.cells.any()
        assert columns(keyed)[0].all() and ref.is_zero()

    def test_zero_column_detection(self):
        rnd = randomness()
        keyed, ref = row(rnd, [(5, 0)])
        assert columns(keyed)[0].all() and ref.is_zero()
        keyed, ref = row(rnd, [(5, 1)])
        assert not columns(keyed)[0].any() and not ref.is_zero()

    def test_fingerprint_sees_a_vector_with_zero_w_and_s(self):
        # x = e_1 - 2 e_2 + e_3 has W = 0 and S = 0; only F = z(1 - z)^2
        # tells it from the zero vector.
        rnd = randomness()
        keyed, ref = row(rnd, [(1, 1), (2, -2), (3, 1)])
        assert not columns(keyed)[0].any() and not ref.is_zero()

    def test_dense_vector_recovers_valid_support(self):
        rnd = randomness(universe=500)
        support = set(range(0, 500, 7))
        keyed, ref = row(rnd, [(idx, 1) for idx in sorted(support)])
        found = columns(keyed)[1].tolist()
        assert found == [-1 if g is None else g for g in
                         (ref.sample_column(c) for c in range(rnd.columns))]
        hits = [g for g in found if g >= 0]
        assert set(hits) <= support, "fingerprint must reject junk"
        assert hits, "at least one column should succeed"

    def test_negative_values_recovered(self):
        rnd = randomness()
        keyed, ref = row(rnd, [(99, -1)])
        assert columns(keyed)[1][0] == 99 and ref.sample_column(0) == 99

    def test_merge_is_linear(self):
        # Rows merged by the production group merge: 7 cancels, 11 stays.
        rnd = randomness()
        pool = RecoveryPool(2, rnd.columns, rnd.levels)
        for slot, idx, delta in ((0, 7, 1), (1, 7, -1), (1, 11, 1)):
            pool.apply_points(np.array([slot]), rnd.levels_of_many([idx]),
                              np.array([idx]), np.array([delta]),
                              rnd.zpow_many([idx]))
        merged = kernels.merge_groups(pool.cells, np.array([0, 1]),
                                      np.array([2]), np.array([0]))
        assert query_cells(merged, rnd)[1].tolist() == [11]

    def test_sum_of_many_keeps_fingerprint_in_range(self):
        # The group merge of 50 rows reads back canonical residues.
        rnd = randomness()
        pool = RecoveryPool(50, rnd.columns, rnd.levels)
        idxs = np.arange(50, dtype=np.int64)
        pool.apply_points(idxs, rnd.levels_of_many(idxs), idxs,
                          np.ones(50, dtype=np.int64), rnd.zpow_many(idxs))
        merged = kernels.merge_groups(pool.cells, idxs, np.array([50]),
                                      np.array([0]))
        total = kernels.combine_limbs(merged[:, 2], merged[:, 3])
        assert 0 <= int(total.min()) and int(total.max()) < MERSENNE_P
        got = int(query_cells(merged, rnd)[1][0])
        assert got == -1 or 0 <= got < 50

    def test_copy_is_independent(self):
        # A checkpoint copy (pickle round trip) writes its own cells.
        rnd = randomness()
        keyed, _ = row(rnd, [(3, 1)])
        dup = pickle.loads(pickle.dumps(keyed))
        keyed.update(["k"], [3], [-1])
        assert columns(dup)[1][0] == 3
        dup.update(["k"], [3], [-1])
        assert not dup.pool.cells.any() and not keyed.pool.cells.any()

    def test_words_accounting(self):
        assert RecoveryPool(2, 4, 10).words == 2 * 3 * 4 * 10
