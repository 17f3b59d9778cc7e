"""Approximate-matching tests (Theorems 8.1, 8.2, 8.5, 8.6)."""

import numpy as np
import pytest

from tests.conftest import make_valid_batch
from repro.baselines import maximum_matching_size
from repro.core import (
    AKLYMatching,
    GreedyMatchingInsertOnly,
    MatchingSizeEstimator,
)
from repro.errors import ConfigurationError, InvalidUpdateError
from repro.mpc import MPCConfig
from repro.streams import as_batches, planted_matching_insertions
from repro.types import dele, ins


class TestGreedyInsertOnly:
    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            GreedyMatchingInsertOnly(MPCConfig(n=8, phi=0.5), alpha=0.5)

    def test_deletions_rejected(self):
        alg = GreedyMatchingInsertOnly(MPCConfig(n=8, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1)])
        with pytest.raises(InvalidUpdateError):
            alg.apply_batch([dele(0, 1)])

    def test_greedy_is_maximal_below_cap(self):
        alg = GreedyMatchingInsertOnly(MPCConfig(n=16, phi=0.5, seed=0),
                                       alpha=1.0)
        alg.apply_batch([ins(0, 1), ins(2, 3), ins(1, 2)])
        assert alg.matching_size() == 2

    def test_cap_respected(self):
        n = 32
        alg = GreedyMatchingInsertOnly(MPCConfig(n=n, phi=0.5, seed=0),
                                       alpha=8.0)
        updates = [ins(2 * i, 2 * i + 1) for i in range(n // 2)]
        for batch in as_batches(updates, 4):
            alg.apply_batch(batch)
        assert alg.matching_size() <= alg.cap

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 4.0])
    def test_approximation_ratio(self, alpha):
        n = 48
        alg = GreedyMatchingInsertOnly(MPCConfig(n=n, phi=0.5, seed=1),
                                       alpha=alpha)
        updates = planted_matching_insertions(n, size=20, noise=30, seed=3)
        for batch in as_batches(updates, 8):
            alg.apply_batch(batch)
        opt = maximum_matching_size(n, [up.edge for up in updates])
        got = alg.matching_size()
        assert got >= 1
        # Theorem 8.1: O(alpha)-approximation (constant 2 from greedy).
        assert opt / got <= 2 * alpha + 1

    def test_memory_is_matching_only(self):
        alg = GreedyMatchingInsertOnly(MPCConfig(n=64, phi=0.5, seed=0),
                                       alpha=4.0)
        alg.apply_batch([ins(0, 1), ins(2, 3)])
        assert alg.total_memory_words() <= 2 * alg.cap


class TestAKLYDynamic:
    def test_matching_is_valid(self):
        rng = np.random.default_rng(2)
        n = 48
        alg = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=2), alpha=2.0)
        live = set()
        for _ in range(10):
            alg.apply_batch(make_valid_batch(rng, n, live, size=6))
        matched = set()
        for u, v in alg.matching().edges:
            assert (min(u, v), max(u, v)) in live
            assert u not in matched and v not in matched
            matched.add(u)
            matched.add(v)

    def test_tracks_deletions(self):
        n = 32
        alg = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=3), alpha=2.0)
        updates = [ins(2 * i, 2 * i + 1) for i in range(16)]
        alg.apply_batch(updates)
        before = alg.matching_size()
        alg.apply_batch([up.inverse() for up in updates])
        assert alg.matching_size() == 0
        assert before >= 0

    def test_ratio_on_planted_matching(self):
        n = 64
        alpha = 2.0
        alg = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=4), alpha=alpha)
        updates = planted_matching_insertions(n, size=24, noise=20, seed=5)
        for batch in as_batches(updates, 8):
            alg.apply_batch(batch)
        opt = maximum_matching_size(n, [up.edge for up in updates])
        got = alg.matching_size()
        assert got >= 1
        # O(alpha) with the construction's constants (bipartition /2,
        # maximal /2, hash collisions): generous but finite envelope.
        assert opt / got <= 8 * alpha

    def test_memory_decreases_with_alpha(self):
        n = 64
        small_alpha = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=0),
                                   alpha=2.0)
        big_alpha = AKLYMatching(MPCConfig(n=n, phi=0.5, seed=0),
                                 alpha=8.0)
        small_alpha.apply_batch([ins(0, 1)])
        big_alpha.apply_batch([ins(0, 1)])
        assert (big_alpha.total_memory_words()
                < small_alpha.total_memory_words())


class TestSizeEstimator:
    def test_alpha_cap(self):
        with pytest.raises(ConfigurationError):
            MatchingSizeEstimator(MPCConfig(n=16, phi=0.5), alpha=8.0)

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_estimate_tracks_planted_opt(self, dynamic):
        n = 128
        alpha = 2.0
        alg = MatchingSizeEstimator(MPCConfig(n=n, phi=0.5, seed=6),
                                    alpha=alpha, dynamic=dynamic)
        size = 32
        updates = planted_matching_insertions(n, size=size, noise=0,
                                              seed=7)
        for batch in as_batches(updates, 16):
            alg.apply_batch(batch)
        est = alg.estimate()
        assert est >= 1
        # O(alpha)-approximation envelope (generous constants).
        assert size / est <= 8 * alpha
        assert est / size <= 8 * alpha

    def test_insertion_only_rejects_deletes(self):
        alg = MatchingSizeEstimator(MPCConfig(n=16, phi=0.5, seed=0),
                                    alpha=2.0, dynamic=False)
        alg.apply_batch([ins(0, 1)])
        with pytest.raises(InvalidUpdateError):
            alg.apply_batch([dele(0, 1)])

    def test_dynamic_handles_deletes(self):
        n = 64
        alg = MatchingSizeEstimator(MPCConfig(n=n, phi=0.5, seed=8),
                                    alpha=2.0, dynamic=True)
        updates = [ins(2 * i, 2 * i + 1) for i in range(24)]
        alg.apply_batch(updates)
        high = alg.estimate()
        alg.apply_batch([up.inverse() for up in updates])
        low = alg.estimate()
        assert low <= high

    def test_empty_graph_estimates_zero(self):
        alg = MatchingSizeEstimator(MPCConfig(n=16, phi=0.5, seed=0),
                                    alpha=2.0)
        alg.apply_batch([])
        assert alg.estimate() == 0.0

    def test_dynamic_memory_shrinks_with_alpha(self):
        n = 256
        small = MatchingSizeEstimator(MPCConfig(n=n, phi=0.5, seed=0),
                                      alpha=2.0, dynamic=True)
        large = MatchingSizeEstimator(MPCConfig(n=n, phi=0.5, seed=0),
                                      alpha=8.0, dynamic=True)
        small.apply_batch([ins(0, 1)])
        large.apply_batch([ins(0, 1)])
        assert large.total_memory_words() < small.total_memory_words()

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_subsampled_guesses_stop_at_the_budget(self, dynamic):
        """k p^2 = ceil(n / alpha^2) exactly: in floats, k = 32 and 128
        at n = 256, alpha = 4 rounded up to 17."""
        alg = MatchingSizeEstimator(MPCConfig(n=256, phi=0.5, seed=0),
                                    alpha=4.0, dynamic=dynamic)
        assert [t.k_eff for t in alg.testers] == \
            [1, 2, 4, 8, 16, 16, 16, 16]
