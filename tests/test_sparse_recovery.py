"""1-sparse recovery matrix tests."""

import pickle

import numpy as np
import pytest

from repro import kernels
from repro.sketch import MERSENNE_P, RecoveryMatrix, RecoveryPool
from repro.sketch.l0_sampler import SamplerRandomness, query_cells


def randomness(universe=1000, columns=4, seed=0):
    return SamplerRandomness(universe, columns, np.random.default_rng(seed))


def apply_value(matrix, rnd, idx, delta):
    matrix.apply(rnd.levels_of(idx), idx, delta, rnd.zpow(idx))


class TestRecoveryMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RecoveryMatrix(0, 3)
        with pytest.raises(ValueError):
            RecoveryMatrix(3, 0)

    def test_single_coordinate_recovered(self):
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(m, rnd, 137, 1)
        for col in range(rnd.columns):
            assert m.recover(col, rnd.universe, rnd.fingerprint_ok) == 137

    def test_cancellation_returns_zero_state(self):
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(m, rnd, 42, 1)
        apply_value(m, rnd, 42, -1)
        assert not m.cells.any()
        assert all(m.column_is_zero(c) for c in range(rnd.columns))

    def test_zero_column_detection(self):
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        assert m.column_is_zero(0)
        apply_value(m, rnd, 5, 1)
        assert not m.column_is_zero(0)

    def test_fingerprint_sees_a_vector_with_zero_w_and_s(self):
        # x = e_1 - 2 e_2 + e_3 has W = 0 and S = 0; only F = z(1 - z)^2
        # tells it from the zero vector.
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        for idx, delta in ((1, 1), (2, -2), (3, 1)):
            apply_value(m, rnd, idx, delta)
        assert not any(m.column_is_zero(c) for c in range(rnd.columns))

    def test_dense_vector_recovers_valid_support(self):
        rnd = randomness(universe=500)
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        support = set(range(0, 500, 7))
        for idx in support:
            apply_value(m, rnd, idx, 1)
        hits = 0
        for col in range(rnd.columns):
            got = m.recover(col, rnd.universe, rnd.fingerprint_ok)
            if got is not None:
                hits += 1
                assert got in support, "fingerprint must reject junk"
        assert hits >= 1, "at least one column should succeed"

    def test_negative_values_recovered(self):
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(m, rnd, 99, -1)
        assert m.recover(0, rnd.universe, rnd.fingerprint_ok) == 99

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

    def test_merge_shape_mismatch_rejected(self):
        # A cell block of another shape cannot back a pool.
        pool = RecoveryPool(2, 2, 3)
        for shape in ((2, 3, 2, 4), (2, 3, 3, 3), (1, 3, 2, 3)):
            with pytest.raises(ValueError):
                pool.adopt_buffer(np.zeros(shape, dtype=np.int64))

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
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(m, rnd, 3, 1)
        dup = pickle.loads(pickle.dumps(m))
        apply_value(m, rnd, 3, -1)
        assert dup.recover(0, rnd.universe, rnd.fingerprint_ok) == 3
        apply_value(dup, rnd, 3, -1)
        assert not dup.cells.any() and not m.cells.any()

    def test_words_accounting(self):
        m = RecoveryMatrix(4, 10)
        assert m.words == 3 * 4 * 10
