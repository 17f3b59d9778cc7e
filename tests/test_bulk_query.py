"""Bulk queries must be bit-identical to the scalar reference.

The query-side mirror of ``tests/test_bulk_ingestion.py``: keyed rows
(``KeyedSamplers``), read through the group route (``merge_groups`` +
``query_cells``, i.e. batched zero tests and ``kernels.decode_prefix``),
and the vectorized edge decoding are checked against their scalar
counterparts (``tests.conftest.ReferenceSampler``, ``decode_index``)
across random update/delete streams, including keys that cancel to
zero (the family-level group router is checked against exact
references in ``tests/test_backend.py``).  Also covers the AGM
column-cursor no-op fix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.connectivity import MPCConnectivity
from repro.errors import SketchError
from repro.mpc.config import MPCConfig
from repro.sketch import (
    KeyedSamplers,
    SamplerRandomness,
    SketchFamily,
    decode_index,
    decode_indices,
    query_cells,
)
from repro.sketch.edge_coding import row_offset
from repro.types import dele, ins
from tests.conftest import ReferenceSampler


def churned(randomness, seed, keys=8, count=40, cancel_every=3):
    """Keyed rows fed random +-1 streams, with the scalar reference per
    key fed the same entries one at a time.  Every ``cancel_every``-th
    key (none when it is ``None``) gets its stream and then its inverse,
    so it cancels to zero.
    All keys land in one interleaved update call."""
    stream = np.random.default_rng(seed)
    entries = []
    for key in range(keys):
        idxs = stream.integers(0, randomness.universe, count).tolist()
        signs = stream.choice([-1, 1], count).tolist()
        entries += [(key, i, d) for i, d in zip(idxs, signs)]
        if cancel_every and key % cancel_every == 0:
            entries += [(key, i, -d) for i, d in zip(idxs, signs)]
    order = stream.permutation(len(entries))
    entries = [entries[i] for i in order]
    keyed = KeyedSamplers(randomness)
    keyed.update(*(list(c) for c in zip(*entries)))
    refs = [ReferenceSampler(randomness) for _ in range(keys)]
    for key, idx, delta in entries:
        refs[key].update(idx, delta)
    return keyed, refs


def read(keyed, keys, cols):
    """Column ``cols[i]`` of key ``keys[i]``'s row, through the group
    route (``merge_groups`` over singleton groups, then ``query_cells``)."""
    rows = np.array([keyed.rows[k] for k in keys], dtype=np.int64)
    merged = kernels.merge_groups(keyed.pool.cells, rows,
                                  np.ones(rows.size, dtype=np.int64),
                                  np.asarray(cols, dtype=np.int64))
    return query_cells(merged, keyed.randomness)


def as_optional(found):
    return [None if f < 0 else int(f) for f in found]


class TestKeyedRowsAgainstReference:
    """Keyed rows -- written by one scatter, read by the group route --
    against the scalar reference sampler, key by key."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cells_match_reference(self, seed, rng):
        rnd = SamplerRandomness(4000, 6, rng)
        keyed, refs = churned(rnd, seed)
        for key, ref in enumerate(refs):
            assert np.array_equal(keyed.pool.cells[keyed.rows[key]],
                                  ref.cells)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_column_decodes_like_reference(self, seed, rng):
        rnd = SamplerRandomness(1800, 6, rng)
        keyed, refs = churned(rnd, seed, keys=10)
        for col in range(rnd.columns):
            zeros, found = read(keyed, range(10), [col] * 10)
            assert zeros.tolist() == [ref.is_zero() for ref in refs]
            assert as_optional(found) == [
                None if ref.is_zero() else ref.sample_column(col)
                for ref in refs]

    def test_repeated_and_reordered_columns(self, rng):
        rnd = SamplerRandomness(1000, 5, rng)
        keyed, refs = churned(rnd, 9, keys=3, count=120)
        cols = [3, 0, 3, 1, 4, 4]
        for key in (1, 2):
            found = read(keyed, [key] * len(cols), cols)[1]
            assert as_optional(found) == [refs[key].sample_column(c)
                                          for c in cols]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_is_the_first_recovering_column(self, seed, rng):
        rnd = SamplerRandomness(600, 6, rng)
        keyed, refs = churned(rnd, 21 + seed, keys=9, count=60)
        got = keyed.sample(list(range(9)))
        assert as_optional(got) == [ref.sample() for ref in refs]
        # Cancelled keys sample nothing; the others sample their support.
        assert all(got[key] == -1 for key in range(0, 9, 3))

    def test_sample_follows_the_asked_key_order(self, rng):
        rnd = SamplerRandomness(1500, 8, rng)
        keyed, refs = churned(rnd, 3, keys=5, count=50)
        keys = [4, 1, 1, 0, 3]
        assert as_optional(keyed.sample(keys)) == [refs[k].sample()
                                                   for k in keys]
        assert keyed.sample([]).shape == (0,)

    @pytest.mark.parametrize("cancel", [False, True])
    def test_zero_test_on_every_column(self, cancel, rng):
        # The column invariant: any one column's zero test is the row's.
        rnd = SamplerRandomness(800, 7, rng)
        keyed, refs = churned(rnd, 5, keys=1, count=90,
                              cancel_every=1 if cancel else None)
        cols = [*range(rnd.columns), 2, 0, 5]
        zeros = read(keyed, [0] * len(cols), cols)[0]
        assert zeros.tolist() == [refs[0].is_zero()] * len(cols)
        assert zeros.tolist() == [cancel] * len(cols)
        assert keyed.pool.cells.any() != cancel

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 299),
                              st.sampled_from([1, -1])),
                    min_size=1, max_size=50),
           st.integers(0, 2 ** 32 - 1))
    def test_random_signed_sequences(self, entries, seed):
        """Any +-1 sequence over a few keys, split over two update
        calls: cells and samples equal the scalar reference's."""
        rnd = SamplerRandomness(300, 4, np.random.default_rng(seed))
        keyed = KeyedSamplers(rnd)
        refs = {}
        half = len(entries) // 2
        for part in (entries[:half], entries[half:]):
            if part:
                keyed.update(*(list(c) for c in zip(*part)))
            for key, idx, delta in part:
                refs.setdefault(key, ReferenceSampler(rnd)).update(idx,
                                                                   delta)
        keys = sorted(refs)
        for key in keys:
            assert np.array_equal(keyed.pool.cells[keyed.rows[key]],
                                  refs[key].cells)
        assert as_optional(keyed.sample(keys)) == [refs[k].sample()
                                                   for k in keys]


class TestDecodeIndicesBulk:
    def test_decode_indices_matches_scalar(self):
        for n in (2, 3, 7, 64, 257):
            total = n * (n - 1) // 2
            idxs = np.arange(total, dtype=np.int64)
            us, vs = decode_indices(n, idxs)
            for idx, u, v in zip(idxs, us, vs):
                assert decode_index(n, int(idx)) == (int(u), int(v))

    def test_decode_indices_matches_scalar_at_large_n(self):
        # The discriminant is near 2^62, so its float64 square root is
        # only an estimate: the integer walks must land every row
        # boundary exactly.
        n = (1 << 30) - 5
        rows = (0, 1, 2, n // 3, n // 2, n - 3, n - 2)
        idxs = np.array([row_offset(n, i) + at for i in rows
                         for at in (0, n - i - 2)], dtype=np.int64)
        us, vs = decode_indices(n, idxs)
        assert list(zip(us.tolist(), vs.tolist())) == \
            [decode_index(n, int(idx)) for idx in idxs]

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
