"""1-sparse recovery matrix tests."""

import numpy as np
import pytest

from repro.sketch import MERSENNE_P, RecoveryMatrix
from repro.sketch.l0_sampler import SamplerRandomness


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
        assert m.is_entirely_zero()
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
        assert not m.column_is_zero_many().any()
        assert not m.is_entirely_zero()

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
        rnd = randomness()
        a = RecoveryMatrix(rnd.columns, rnd.levels)
        b = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(a, rnd, 7, 1)
        apply_value(b, rnd, 7, -1)
        apply_value(b, rnd, 11, 1)
        a.merge_from(b)
        assert a.recover(0, rnd.universe, rnd.fingerprint_ok) == 11

    def test_merge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RecoveryMatrix(2, 3).merge_from(RecoveryMatrix(2, 4))

    def test_sum_of_many_keeps_fingerprint_in_range(self):
        rnd = randomness()
        parts = []
        for i in range(50):
            m = RecoveryMatrix(rnd.columns, rnd.levels)
            apply_value(m, rnd, i, 1)
            parts.append(m)
        total = RecoveryMatrix.sum_of(parts)
        assert int(total.F.max()) < MERSENNE_P
        assert int(total.F.min()) >= 0
        got = total.recover(0, rnd.universe, rnd.fingerprint_ok)
        assert got is None or 0 <= got < 50

    def test_sum_of_empty_rejected(self):
        with pytest.raises(ValueError):
            RecoveryMatrix.sum_of([])

    def test_copy_is_independent(self):
        rnd = randomness()
        m = RecoveryMatrix(rnd.columns, rnd.levels)
        apply_value(m, rnd, 3, 1)
        dup = m.copy()
        apply_value(m, rnd, 3, -1)
        assert dup.recover(0, rnd.universe, rnd.fingerprint_ok) == 3

    def test_words_accounting(self):
        m = RecoveryMatrix(4, 10)
        assert m.words == 3 * 4 * 10
