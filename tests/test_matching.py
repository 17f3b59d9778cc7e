"""Approximate-matching tests (Theorems 8.1, 8.2, 8.5, 8.6)."""

import hashlib

import numpy as np
import pytest

from tests.conftest import make_valid_batch
from repro import GraphSession
from repro.baselines import maximum_matching_size
from repro.core import (
    AKLYMatching,
    GreedyMatchingInsertOnly,
    MatchingSizeEstimator,
)
from repro.errors import ConfigurationError, InvalidUpdateError
from repro.mpc import MPCConfig
from repro.streams import ChurnStream, as_batches, planted_matching_insertions
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


# ---------------------------------------------------------------------------
# Options fail by name, at construction
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
SHARED_BAD = [
    ({"alpha": NAN}, "alpha"), ({"alpha": INF}, "alpha"),
    ({"alpha": 0.5}, "alpha"), ({"alpha": "4"}, "alpha"),
    ({"pair_columns": 0}, "pair_columns"),
    ({"pair_columns": 2.5}, "pair_columns"),
    ({"pair_columns": True}, "pair_columns"),
]
AKLY_BAD = SHARED_BAD + [
    ({"guesses": [0]}, "guesses"), ({"guesses": [-4]}, "guesses"),
    ({"guesses": [4, 2.0]}, "guesses"), ({"guesses": []}, "guesses"),
]
ESTIMATOR_BAD = SHARED_BAD + [
    ({"accept_slack": 0}, "accept_slack"),
    ({"accept_slack": -2.0}, "accept_slack"),
    ({"accept_slack": NAN}, "accept_slack"),
    ({"accept_slack": INF}, "accept_slack"),
]


def _ids(cases):
    return [f"{next(iter(o))}={next(iter(o.values()))!r}" for o, _ in cases]


class TestOptionsFailByName:
    @pytest.mark.parametrize("options, field", AKLY_BAD, ids=_ids(AKLY_BAD))
    def test_akly(self, options, field):
        with pytest.raises(ConfigurationError, match=field):
            AKLYMatching(MPCConfig(n=64, phi=0.5, seed=0), **options)

    @pytest.mark.parametrize("options, field", ESTIMATOR_BAD,
                             ids=_ids(ESTIMATOR_BAD))
    @pytest.mark.parametrize("dynamic", [False, True])
    def test_estimator(self, options, field, dynamic):
        with pytest.raises(ConfigurationError, match=field):
            MatchingSizeEstimator(MPCConfig(n=64, phi=0.5, seed=0),
                                  dynamic=dynamic, **options)

    @pytest.mark.parametrize(
        "task, options, field",
        [("matching", o, f) for o, f in AKLY_BAD]
        + [("matching_size", o, f) for o, f in ESTIMATOR_BAD],
        ids=_ids(AKLY_BAD) + ["size-" + i for i in _ids(ESTIMATOR_BAD)])
    def test_through_session(self, task, options, field):
        with pytest.raises(ConfigurationError, match=field):
            GraphSession(64, tasks={task: options})

    def test_valid_options_are_kept(self):
        alg = AKLYMatching(MPCConfig(n=64, phi=0.5, seed=0), alpha=2,
                           guesses=[np.int64(4), 8], pair_columns=3)
        assert alg.alpha == 2.0
        assert [g.opt_guess for g in alg.guesses] == [4, 8]
        est = MatchingSizeEstimator(MPCConfig(n=64, phi=0.5, seed=0),
                                    accept_slack=1, dynamic=True)
        assert all(t.accept_slack == 1.0 for t in est.testers)


# ---------------------------------------------------------------------------
# Parity pins
# ---------------------------------------------------------------------------

def _sha(edges):
    return hashlib.sha1(repr(edges).encode()).hexdigest()[:12]


def _churn(seed):
    """12 batches of 64 updates of an n = 512 churn stream."""
    return ChurnStream(512, seed=seed, delete_fraction=0.3,
                       target_edges=700).batches(12, 64)


#: After every batch: ``(sha1[:12] of matching().edges,
#: total_memory_words(), phase rounds)``, recorded when each active pair
#: still owned a standalone sampler object.
AKLY_PINNED = [
    ("09f1bb921068", 1388415, 17), ("10e6af44f422", 1388531, 17),
    ("66c4793e4f7b", 1388667, 17), ("4623282ab122", 1388751, 17),
    ("cbb26ad71a3d", 1388845, 17), ("1417d42e057d", 1388919, 17),
    ("0dd82cc6d1f8", 1388977, 17), ("cee0880bb582", 1389005, 17),
    ("4ba6ebbf4575", 1389025, 17), ("870e0d5268be", 1389039, 17),
    ("0ff499d40dd1", 1389069, 17), ("9fdf2bd85bb6", 1389135, 17),
]

#: After every batch: ``(estimate(), every tester's observed_size(),
#: total_memory_words(), phase rounds)``, recorded alike.
ESTIMATOR_PINNED = [
    (64.0, (1, 5, 20, 43, 45, 53, 26, 13, 9), 1987968, 16),
    (128.0, (1, 6, 27, 59, 70, 82, 46, 33, 14), 1988608, 16),
    (256.0, (1, 6, 23, 69, 87, 96, 56, 39, 23), 1989062, 16),
    (256.0, (1, 6, 24, 74, 105, 113, 71, 43, 29), 1989500, 16),
    (256.0, (1, 6, 25, 82, 123, 132, 87, 58, 30), 1989948, 16),
    (256.0, (1, 6, 26, 81, 130, 144, 92, 62, 35), 1990240, 16),
    (256.0, (1, 6, 28, 86, 136, 146, 93, 63, 34), 1990356, 16),
    (256.0, (1, 6, 27, 91, 139, 153, 96, 63, 33), 1990504, 16),
    (256.0, (1, 6, 25, 90, 139, 155, 95, 64, 34), 1990634, 16),
    (256.0, (1, 6, 24, 91, 139, 162, 96, 67, 36), 1990768, 16),
    (256.0, (1, 5, 24, 88, 144, 164, 99, 69, 38), 1990918, 16),
    (256.0, (1, 5, 25, 84, 145, 166, 103, 72, 38), 1991062, 16),
]


class TestParityPins:
    """The sparsifier step reproduces the pinned answers batch by batch:
    greedy insertion order (the affected-pair set's iteration order) and
    the construction rng draws decide them bit for bit."""

    def test_akly(self):
        alg = AKLYMatching(MPCConfig(n=512, phi=0.5, seed=21))
        got = []
        for batch in _churn(5):
            phase = alg.apply_batch(batch)
            got.append((_sha(alg.matching().edges),
                        alg.total_memory_words(), phase.rounds))
        assert got == AKLY_PINNED

    def test_dynamic_estimator(self):
        alg = MatchingSizeEstimator(MPCConfig(n=512, phi=0.5, seed=22),
                                    dynamic=True)
        got = []
        for batch in _churn(6):
            phase = alg.apply_batch(batch)
            got.append((alg.estimate(),
                        tuple(t.observed_size() for t in alg.testers),
                        alg.total_memory_words(), phase.rounds))
        assert got == ESTIMATOR_PINNED


def reference_guess_pair(guess, u, v):
    """The scalar route of an edge to its AKLY active pair, or None."""
    su, sv = guess.side_hash(u), guess.side_hash(v)
    if su == sv:
        return None
    left, right = (u, v) if su == 0 else (v, u)
    pair = (guess.hash_l(left), guess.hash_r(right))
    return pair if pair in guess.active else None


def reference_tester_pair(tester, u, v):
    """The scalar route of an edge to its dynamic tester's group pair,
    or None."""
    if not (tester._sampled(u) and tester._sampled(v)):
        return None
    gu, gv = tester.group_hash(u), tester.group_hash(v)
    if gu == gv:
        return None
    return (min(gu, gv), max(gu, gv))


class TestPairRouting:
    """The vectorized batch routing builds the scalar route's
    ``(pair, update)`` list, entry for entry and in order."""

    def test_akly_guesses(self):
        alg = AKLYMatching(MPCConfig(n=512, phi=0.5, seed=21))
        routed = 0
        for batch in _churn(5):
            updates = list(batch)
            for guess in alg.guesses:
                want = [(pair, up) for up in updates if (
                    pair := reference_guess_pair(guess, up.u, up.v))]
                assert guess.entries(updates) == want
                routed += len(want)
        assert routed > 0

    def test_dynamic_testers(self):
        alg = MatchingSizeEstimator(MPCConfig(n=512, phi=0.5, seed=22),
                                    dynamic=True)
        routed = 0
        for batch in _churn(6):
            updates = list(batch)
            for tester in alg.testers:
                want = [(pair, up) for up in updates if (
                    pair := reference_tester_pair(tester, up.u, up.v))]
                assert tester._entries(updates) == want
                routed += len(want)
        assert routed > 0
        assert any(tester.p < 1.0 for tester in alg.testers)
