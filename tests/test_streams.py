"""Stream generator validity and determinism tests."""

import time

import numpy as np
import pytest

from repro.baselines import DynamicConnectivityOracle
from repro.types import ins
from repro.streams import (
    ChurnStream,
    SplitMergeStream,
    as_batches,
    iter_batches,
    erdos_renyi_insertions,
    even_cycle_insertions,
    odd_cycle_insertions,
    path_insertions,
    planted_matching_insertions,
    power_law_insertions,
    random_tree_insertions,
    singleton_batches,
    star_insertions,
    weighted_insertions,
)


def assert_valid_stream(n, batches):
    """Replay against the oracle: raises on any invalid update."""
    oracle = DynamicConnectivityOracle(n)
    for batch in batches:
        seen = set()
        for up in batch:
            assert up.edge not in seen, "edge touched twice in one batch"
            seen.add(up.edge)
        oracle.apply_batch(batch)
    return oracle


class TestInsertionGenerators:
    def test_er_distinct_edges(self):
        ups = erdos_renyi_insertions(30, 100, seed=1)
        edges = [up.edge for up in ups]
        assert len(edges) == len(set(edges)) == 100
        assert all(up.is_insert for up in ups)

    def test_er_deterministic(self):
        a = erdos_renyi_insertions(30, 50, seed=9)
        b = erdos_renyi_insertions(30, 50, seed=9)
        assert a == b

    def test_weighted_range(self):
        ups = weighted_insertions(20, 40, max_weight=16, seed=2)
        assert all(1 <= up.weight <= 16 for up in ups)

    def test_power_law_skew(self):
        ups = power_law_insertions(100, 200, exponent=2.0, seed=3)
        degree = {}
        for up in ups:
            degree[up.u] = degree.get(up.u, 0) + 1
            degree[up.v] = degree.get(up.v, 0) + 1
        top = max(degree.values())
        assert top >= 10, "power-law stream should have hubs"

    def test_path_and_star_and_tree_span(self):
        for ups in (path_insertions(20, seed=1), star_insertions(20),
                    random_tree_insertions(20, seed=1)):
            oracle = assert_valid_stream(20, [ups])
            assert oracle.num_components() == 1
            assert oracle.num_edges == 19

    def test_cycles(self):
        assert len(even_cycle_insertions(10)) == 10
        assert len(odd_cycle_insertions(9)) == 9
        with pytest.raises(ValueError):
            even_cycle_insertions(7)
        with pytest.raises(ValueError):
            odd_cycle_insertions(8)

    def test_planted_matching_opt(self):
        ups = planted_matching_insertions(40, size=15, noise=10, seed=4)
        from repro.baselines import maximum_matching_size
        opt = maximum_matching_size(40, [up.edge for up in ups])
        assert opt >= 15

    def test_planted_matching_too_large_rejected(self):
        with pytest.raises(ValueError):
            planted_matching_insertions(10, size=6)


class TestChurn:
    @pytest.mark.parametrize("seed", range(3))
    def test_stream_is_valid(self, seed):
        stream = ChurnStream(24, seed=seed, delete_fraction=0.4)
        batches = list(stream.batches(30, 6))
        oracle = assert_valid_stream(24, batches)
        assert oracle.num_edges == stream.num_live

    def test_target_steering(self):
        stream = ChurnStream(64, seed=1, delete_fraction=0.3,
                             target_edges=60)
        for batch in stream.batches(80, 10):
            pass
        assert 20 <= stream.num_live <= 120

    def test_weighted_churn(self):
        stream = ChurnStream(16, seed=2, weights=(1, 8))
        batch = stream.next_batch(10)
        assert all(1 <= up.weight <= 8 for up in batch
                   if up.is_insert)

    def test_seed_deterministic(self):
        a = list(ChurnStream(32, seed=5, target_edges=40).batches(20, 8))
        b = list(ChurnStream(32, seed=5, target_edges=40).batches(20, 8))
        assert [list(x) for x in a] == [list(y) for y in b]

    def test_live_is_set_like_and_assignable(self):
        stream = ChurnStream(16, seed=3, delete_fraction=0.5)
        stream.live = {(2, 3), (0, 1)}
        stream.live.add((4, 5))
        stream.live.add((4, 5))
        assert (0, 1) in stream.live and (1, 2) not in stream.live
        assert len(stream.live) == stream.num_live == 3
        assert sorted(stream.live) == [(0, 1), (2, 3), (4, 5)]
        # The seeded graph is what the stream deletes from.
        oracle = DynamicConnectivityOracle(16)
        oracle.apply_batch([ins(*edge) for edge in stream.live])
        for batch in stream.batches(20, 4):
            oracle.apply_batch(batch)
        assert oracle.num_edges == stream.num_live

    def test_deletion_sampling_is_constant_time(self):
        # 20 000 updates with 8 192 edges live: ~25 s when every
        # deletion slot sorted the live set, ~0.2 s with swap-pop.
        stream = ChurnStream(4096, seed=0, target_edges=8192)
        start = time.perf_counter()
        emitted = sum(len(batch) for batch in stream.batches(80, 250))
        assert emitted == 20_000
        assert time.perf_counter() - start < 2.0
        assert 4096 <= stream.num_live <= 9000


class TestSplitMerge:
    def test_build_then_surgery_valid(self):
        gen = SplitMergeStream(20, seed=3, spare_edges=10)
        batches = gen.build_batches(8)
        surgery = gen.surgery_batch(5)
        assert_valid_stream(20, batches + [surgery])
        assert all(up.is_delete for up in surgery)

    def test_surgery_before_build_rejected(self):
        gen = SplitMergeStream(10, seed=0)
        with pytest.raises(RuntimeError):
            gen.surgery_batch(2)


class TestBatching:
    def test_as_batches_partition(self):
        ups = erdos_renyi_insertions(20, 25, seed=0)
        batches = as_batches(ups, 10)
        assert [len(b) for b in batches] == [10, 10, 5]
        flat = [up for b in batches for up in b]
        assert flat == list(ups)

    def test_singleton_batches(self):
        ups = erdos_renyi_insertions(10, 5, seed=0)
        assert all(len(b) == 1 for b in singleton_batches(ups))

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            as_batches([], 0)
        with pytest.raises(ValueError):
            iter_batches([], 0)  # raises at call time, not first next()

    def test_iter_batches_matches_as_batches(self):
        ups = erdos_renyi_insertions(20, 25, seed=0)
        lazy = list(iter_batches(iter(ups), 10))
        eager = as_batches(ups, 10)
        assert [list(b) for b in lazy] == [list(b) for b in eager]

    def test_iter_batches_preserves_stream_order(self):
        ups = erdos_renyi_insertions(30, 41, seed=2)
        batches = list(iter_batches((u for u in ups), 7))
        assert [len(b) for b in batches] == [7] * 5 + [6]
        flat = [up for b in batches for up in b]
        assert flat == list(ups)

    def test_iter_batches_is_lazy(self):
        consumed = []

        def stream():
            for i, up in enumerate(erdos_renyi_insertions(20, 12, seed=1)):
                consumed.append(i)
                yield up

        gen = iter_batches(stream(), 5)
        assert consumed == []          # nothing pulled yet
        first = next(gen)
        assert len(first) == 5
        assert consumed == [0, 1, 2, 3, 4]   # exactly one batch buffered
        rest = list(gen)
        assert [len(b) for b in rest] == [5, 2]
        assert consumed == list(range(12))

    def test_iter_batches_unbounded_source(self):
        def endless():
            i = 0
            while True:
                yield ins(i, i + 1)
                i += 1

        gen = iter_batches(endless(), 4)
        assert [len(next(gen)) for _ in range(3)] == [4, 4, 4]

    def test_iter_batches_empty_source_yields_nothing(self):
        # Never an empty Batch: an empty phase would still charge
        # routing downstream.
        assert list(iter_batches([], 5)) == []
        assert list(iter_batches(iter(()), 1)) == []
        with pytest.raises(StopIteration):
            next(iter_batches((u for u in ()), 3))

    def test_iter_batches_source_error_keeps_partial_batch(self):
        # A source that dies mid-fill must not drop the updates already
        # pulled: a subsequent next() resumes with them, in order.
        ups = erdos_renyi_insertions(20, 7, seed=5)
        state = {"fail": True}

        def flaky():
            for i, up in enumerate(ups):
                if state["fail"] and i == 5:
                    raise OSError("transient source hiccup")
                yield up

        gen = iter_batches(flaky(), 4)
        assert list(next(gen)) == list(ups[:4])
        with pytest.raises(OSError):
            next(gen)           # pulled ups[4] before the hiccup
        state["fail"] = False
        # The retained item leads the next batch; nothing was lost and
        # nothing is duplicated (the failed generator is spent, so the
        # resume only sees what was already buffered).
        assert list(next(gen)) == [ups[4]]
        assert list(iter_batches(flaky(), 4)) and True  # flaky reusable

    def test_iter_batches_resumable_after_partial_resume(self):
        # The retained partial batch composes with a still-live source:
        # buffered items stay at the front of the next batch.
        ups = erdos_renyi_insertions(30, 10, seed=6)
        source = iter(ups)
        gen = iter_batches(source, 4)
        first = next(gen)
        assert list(first) == list(ups[:4])
        # Simulate an abandoned fill: stuff the buffer the way a
        # mid-fill interruption leaves it, then resume.
        gen._pending.append(next(source))
        assert list(next(gen)) == list(ups[4:8])
        assert list(next(gen)) == list(ups[8:])

    def test_iter_batches_abandonment_loses_no_source_items(self):
        # Walking away from the iterator (break / del) must leave the
        # source exactly at the boundary of what was delivered, so a
        # fresh iter_batches over the same source resumes seamlessly.
        ups = erdos_renyi_insertions(20, 12, seed=7)
        source = iter(ups)
        for batch in iter_batches(source, 5):
            assert list(batch) == list(ups[:5])
            break               # abandon mid-stream
        resumed = list(iter_batches(source, 5))
        flat = [up for b in resumed for up in b]
        assert flat == list(ups[5:])
