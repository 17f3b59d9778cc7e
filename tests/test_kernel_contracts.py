"""Kernel numeric contracts: golden checks, their kill coverage, and
the ``REPRO_KERNELS_CHECK=1`` runtime wrapper.

* ``TestBoundaryParity`` checks the kernels against exact Python
  big-int arithmetic at the adversarial inputs (0, 1, p-2, p-1, the
  32-bit limb seam, the byte seams of the power windows, a forged
  boundary fingerprint, an ``S``-only column stack, an empty group,
  groups reading different columns, sums, quotients and residues past
  float64's 2^53 integer range, limb sums that add up to exactly p,
  two passing levels, repeated scatter targets whose residues wrap
  past p, and many groups and cells in an order a set would not keep);
* ``TestSeededMutations`` applies fifty-nine small edits to a
  throw-away copy of ``numpy_tier.py`` and requires each to fail one of
  those same checks -- the kill coverage is pinned, not assumed.  The
  determinism edits (float64 twins of the exact integer arithmetic,
  ambient randomness, set order) pin bit-reproducibility: a new
  reduction, division or float conversion adds its own;
* the runtime wrapper must accept every in-contract call and raise
  :class:`~repro.errors.SketchError` naming the kernel and argument on
  a dtype or range violation.
"""

import itertools
import types
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.errors import SketchError
from repro.kernels import checks, registry
from repro.kernels.registry import MERSENNE_P

P = MERSENNE_P

NUMPY_TIER = (Path(__file__).resolve().parents[1]
              / "src" / "repro" / "kernels" / "numpy_tier.py")

#: The adversarial residues: additive/multiplicative identities and
#: the top of the canonical range, where limb folds and conditional
#: subtracts change behaviour.
BOUNDARY = (0, 1, P - 2, P - 1)
PAIRS = list(itertools.product(BOUNDARY, BOUNDARY))


def _u64(values):
    return np.array(list(values), dtype=np.uint64)


def _i64(values):
    return np.array(list(values), dtype=np.int64)


# ---------------------------------------------------------------------------
# Boundary-value parity against Python big-int arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [kernels], ids=["numpy"])
class TestBoundaryParity:
    """Every check takes the kernel namespace ``k`` it exercises: the
    bound :mod:`repro.kernels` package here, a mutated copy of the numpy
    tier in :class:`TestSeededMutations`."""

    def test_mulmod_boundary_pairs(self, k):
        got = k.mulmod_many(_u64(x for x, _ in PAIRS),
                            _u64(y for _, y in PAIRS))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [(x * y) % P for x, y in PAIRS]

    def test_addmod_boundary_pairs(self, k):
        got = k.addmod_many(_u64(x for x, _ in PAIRS),
                            _u64(y for _, y in PAIRS))
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [(x + y) % P for x, y in PAIRS]

    def test_powmod_boundary_bases_and_exponents(self, k):
        # Small exponents, the byte-window seams, and the top of the
        # exponent range.
        for z in BOUNDARY:
            exps = _u64((0, 1, 2, 61, 64, 255, 256, (1 << 16) - 1, 1 << 16,
                         1 << 56, P - 2, P - 1, (1 << 64) - 1))
            got = k.powmod_many(exps, z)
            want = [pow(z, int(e), P) for e in exps]
            assert got.dtype == np.int64
            assert [int(v) for v in got] == want, f"base {z}"

    def test_combine_limbs_boundary(self, k):
        halves = (0, 1, (1 << 32) - 2, (1 << 32) - 1)
        # The sub-limb split's extremes: ``hi`` with both sub-limbs (29
        # low, 32 high bits) all ones, which is p, each sub-limb alone,
        # p - 1 and -1, and the ends of the int64 contract, for both
        # limbs.
        folds = (P, (1 << 29) - 1, ((1 << 32) - 1) << 29, P - 1, -1,
                 -(1 << 63), (1 << 63) - 1)
        pairs = (list(itertools.product(halves, halves))
                 + list(itertools.product(halves + folds, folds)))
        got = k.combine_limbs(_i64(x for x, _ in pairs),
                              _i64(y for _, y in pairs))
        assert got.dtype == np.int64
        assert [int(v) for v in got] == \
            [(x + (y << 32)) % P for x, y in pairs]

    def test_mulmod_addmod_full_broadcast(self, k):
        col = _u64(BOUNDARY).reshape(-1, 1)
        row = _u64(BOUNDARY).reshape(1, -1)
        got_mul = k.mulmod_many(col, row)
        got_add = k.addmod_many(col, row)
        assert got_mul.shape == got_add.shape == (4, 4)
        for i, x in enumerate(BOUNDARY):
            for j, y in enumerate(BOUNDARY):
                assert int(got_mul[i, j]) == (x * y) % P
                assert int(got_add[i, j]) == (x + y) % P

    def test_results_stay_canonical(self, k):
        rng = np.random.default_rng(20260808)
        a = rng.integers(0, P, size=4096, dtype=np.uint64)
        b = rng.integers(0, P, size=4096, dtype=np.uint64)
        for out in (k.mulmod_many(a, b), k.addmod_many(a, b)):
            assert int(out.min()) >= 0
            assert int(out.max()) < P

    def test_trailing_zeros_bit_positions(self, k):
        xs = _u64([0, 1, 6] + [1 << s for s in (31, 32, 53, 63)])
        got = k.trailing_zeros_many(xs, 64)
        assert got.dtype == np.int64
        assert got.tolist() == [64, 0, 1, 31, 32, 53, 63]
        assert k.trailing_zeros_many(xs, 17).tolist() == \
            [17, 0, 1, 17, 17, 17, 17]

    def test_decode_prefix_forged_boundary_index(self, k):
        # One single-level column whose fingerprint is forged as
        # W * z^idx: only the range test ``idx < max_index`` can reject.
        max_index, z = 1000, 123456789
        for idx, want in ((max_index, -1), (max_index - 1, max_index - 1)):
            forged = pow(z, idx, P)
            prefix = _i64((1, idx, forged & ((1 << 32) - 1),
                           forged >> 32)).reshape(4, 1, 1)
            assert k.decode_prefix(prefix, max_index, z).tolist() == [want]

    def test_decode_prefix_takes_the_lowest_passing_level(self, k):
        # Levels 0 and 1 of every column both pass all three tests, with
        # different coordinates: the answer is level 0's.  64 columns,
        # so a decoder that picks *some* passing level agrees by chance
        # with probability 2^-64.
        z, cols = 123456789, 64
        prefix = np.zeros((4, cols, 3), dtype=np.int64)
        for level, base in ((0, 10), (1, 500)):
            for col in range(cols):
                idx = base + col
                power = pow(z, idx, P)
                prefix[:, col, level] = (1, idx, power & ((1 << 32) - 1),
                                         power >> 32)
        assert k.decode_prefix(prefix, 1000, z).tolist() == \
            list(range(10, 10 + cols))

    def test_decode_prefix_is_exact_past_2_53(self, k):
        # W * idx is about 2^60, so S, S / W, W mod p and the range test
        # all leave float64's integer range.  Columns 0 and 1 carry
        # W = +-(2^20 - 3) at idx = 2^40 - 3; column 2 has W = 1 and
        # idx = 2^60 - 1, the largest index below max_index = 2^60;
        # column 3 is column 0 with an S that W does not divide.
        z, w, idx, big = 123456789, (1 << 20) - 3, (1 << 40) - 3, 1 << 60
        columns = ((w, idx), (-w, idx), (1, big - 1), (w, idx))
        prefix = np.zeros((4, len(columns), 1), dtype=np.int64)
        for col, (weight, at) in enumerate(columns):
            f = weight * pow(z, at, P) % P
            prefix[:, col, 0] = (weight, weight * at, f & ((1 << 32) - 1),
                                 f >> 32)
        prefix[1, 3, 0] += 1
        assert k.decode_prefix(prefix, big, z).tolist() == \
            [idx, idx, big - 1, -1]

    def test_is_zero_cells_sees_nonzero_s(self, k):
        # W == 0 and F == 0 with S != 0 is not the zero vector.
        cells = np.zeros((2, 4, 4), dtype=np.int64)
        cells[1, 1, 0] = 7
        assert k.is_zero_cells(cells).tolist() == [True, False]

    def test_is_zero_cells_level_sum_is_exact_past_2_53(self, k):
        # W's level cells sum to exactly 1; in float64 2^53 + 1 rounds
        # to 2^53 and the row would read as the zero vector.
        cells = np.zeros((1, 4, 3), dtype=np.int64)
        cells[0, 0, :2] = (2 ** 53 + 1, -2 ** 53)
        assert k.is_zero_cells(cells).tolist() == [False]

    def test_is_zero_cells_folds_limb_sums_exactly(self, k):
        # Merging both endpoint rows of an edge cancels W and S, and
        # the limb sums of z^idx and p - z^idx add up to exactly p:
        # (2^32 - 1) + 2^32 * (2^29 - 1).  Past 2^53 a float64 fold
        # reads p as 2^61, i.e. 1 mod p.
        cells = np.zeros((2, 4, 3), dtype=np.int64)
        cells[:, 2:, 1] = ((1 << 32) - 1, (1 << 29) - 1)
        cells[1, 2, 2] = 1
        assert k.is_zero_cells(cells).tolist() == [True, False]

    def test_pool_scatter_sums_repeats_mod_p(self, k):
        # 64 updates with z^idx = p - 1 and deltas +-1, +-2^20 all land
        # on one cell of each of two columns -- interleaved in the
        # flattened (entry, column) order -- on top of cells already
        # holding (7, -11, p - 1): every repeat must be summed, the
        # limbs folded, and the residue reduced once more past p.
        columns, levels, count, zpow = 2, 3, 64, P - 1
        deltas = [(1, -1, 1 << 20, 1 << 20, -(1 << 20))[i % 5]
                  for i in range(count)]
        idxs = [1000 + 7 * i for i in range(count)]
        flat = np.zeros(3 * columns * levels, dtype=np.int64)
        cells = flat.reshape(3, columns, levels)
        targets = ((0, 1), (1, 2))                   # (column, level)
        for col, level in targets:
            cells[:, col, level] = (7, -11, P - 1)
        k.pool_scatter(flat, columns, levels, _i64([0] * count),
                       np.tile(_i64((1, 2)), (count, 1)), _i64(idxs),
                       _i64(deltas), _i64([zpow] * count))
        want = np.zeros((3, columns, levels), dtype=np.int64)
        for col, level in targets:
            want[:, col, level] = (
                7 + sum(deltas),
                -11 + sum(d * i for d, i in zip(deltas, idxs)),
                (P - 1 + sum(deltas) * zpow) % P)
        assert np.array_equal(cells, want)

    def test_pool_scatter_sums_are_exact_past_2_53(self, k):
        # Level 0 takes 3 updates of delta 2^20 - 1 at idx near 2^40, so
        # each Sd term is near 2^60; level 1 takes 64 of them with
        # z^idx near p, so the per-cell limb sums of delta * z^idx reach
        # 2^58 (lo) and 2^55 (hi).  Every sum is exact in int64 only.
        # Level 2 takes one update that leaves Fd = p - 1, which
        # float64 cannot tell from p.
        delta = (1 << 20) - 1
        parts = ([(1 << 40) - 1 - 2 * i for i in range(3)],
                 list(range(64)), [0])
        idxs = [i for part in parts for i in part]
        levels = [lv for lv, part in enumerate(parts) for _ in part]
        deltas = [delta] * (len(idxs) - 1) + [1]
        zpows = [P - 1 - i for i in range(len(idxs) - 1)] + [P - 1]
        flat = np.zeros(3 * 3, dtype=np.int64)
        k.pool_scatter(flat, 1, 3, _i64([0] * len(idxs)),
                       _i64(levels).reshape(-1, 1), _i64(idxs),
                       _i64(deltas), _i64(zpows))
        want = [[0, 0, 0] for _ in parts]
        for lv, i, d, zp in zip(levels, idxs, deltas, zpows):
            want[lv] = [want[lv][0] + d, want[lv][1] + d * i,
                        (want[lv][2] + d * zp) % P]
        assert flat.reshape(3, 3).T.tolist() == want

    def test_pool_scatter_matches_big_ints_on_many_cells(self, k):
        # 300 in-contract updates spread over 2 rows x 3 columns x 5
        # levels: many segments, in an order a set would not keep.
        rng = np.random.default_rng(45)
        count, columns, levels, e = 2, 3, 5, 300
        slots = rng.integers(0, count, e)
        col_levels = rng.integers(0, levels, (e, columns))
        idxs = rng.integers(0, 1 << 34, e)
        deltas = rng.integers(-(1 << 20), (1 << 20) + 1, e)
        zpows = rng.integers(0, P, e)
        flat = np.zeros(count * 3 * columns * levels, dtype=np.int64)
        k.pool_scatter(flat, columns, levels, slots, col_levels, idxs,
                       deltas, zpows)
        want = np.zeros((count, 3, columns, levels), dtype=object)
        for i in range(e):
            for col in range(columns):
                cell = want[slots[i], :, col, col_levels[i, col]]
                cell += [int(deltas[i]), int(deltas[i]) * int(idxs[i]),
                         int(deltas[i]) * int(zpows[i])]
        want[:, 2] %= P
        assert flat.tolist() == want.ravel().tolist()

    def test_merge_groups_with_empty_group(self, k):
        # The live groups read different columns, and the empty group
        # sits between them; every Fd residue is split into its 32-bit
        # low and 29-bit high limbs before the sum.
        rng = np.random.default_rng(6)
        cells = rng.integers(-50, 50, size=(5, 3, 3, 4)).astype(np.int64)
        cells[:, 2] = rng.integers(P - (1 << 40), P, size=(5, 3, 4))
        got = k.merge_groups(cells, _i64((0, 2, 4, 1, 3)), _i64((2, 0, 3)),
                             _i64((2, 1, 0)))

        def merged(rows, col):
            w, s, f = (cells[rows, q, col].tolist() for q in range(3))
            return [[sum(v[lv] for v in w) for lv in range(4)],
                    [sum(v[lv] for v in s) for lv in range(4)],
                    [sum(v[lv] & 0xFFFFFFFF for v in f) for lv in range(4)],
                    [sum(v[lv] >> 32 for v in f) for lv in range(4)]]

        assert got.tolist() == [merged([0, 2], 2), [[0] * 4] * 4,
                                merged([4, 1, 3], 0)]

    def test_merge_groups_matches_big_ints_on_many_groups(self, k):
        # 30 groups of 0 to 20 members, each reading its own column;
        # the live groups' offsets are not in the order a set keeps.
        rng = np.random.default_rng(46)
        count, columns, levels = 7, 3, 4
        cells = rng.integers(-1 << 40, 1 << 40,
                             (count, 3, columns, levels))
        cells[:, 2] = rng.integers(0, P, (count, columns, levels))
        glens = rng.integers(0, 21, 30)
        members = rng.integers(0, count, int(glens.sum()))
        cols = rng.integers(0, columns, 30)
        got = k.merge_groups(cells, members, glens, cols)
        want, at = [], 0
        for size, col in zip(glens.tolist(), cols.tolist()):
            rows = members[at:at + size].tolist()
            at += size
            w, s, f = (cells[rows, q, col].tolist() for q in range(3))
            want.append([[sum(v[lv] for v in w) for lv in range(levels)],
                         [sum(v[lv] for v in s) for lv in range(levels)],
                         [sum(v[lv] & 0xFFFFFFFF for v in f)
                          for lv in range(levels)],
                         [sum(v[lv] >> 32 for v in f)
                          for lv in range(levels)]])
        assert got.tolist() == want

    def test_merge_groups_sum_is_exact_past_2_53(self, k):
        # Group 0 sums inputs past 2^53 to 1; group 1 sums row 2 twice,
        # so its merged S is 2^60 + 2, which float64 rounds to 2^60.
        cells = np.zeros((3, 3, 2, 3), dtype=np.int64)
        cells[0, :2], cells[1, :2] = 2 ** 53 + 1, -2 ** 53
        cells[2, 1] = 2 ** 59 + 1
        got = k.merge_groups(cells, _i64((0, 1, 2, 2)), _i64((2, 2)),
                             _i64((1, 0)))
        assert got.dtype == np.int64
        want = np.zeros((2, 4, 3), dtype=np.int64)
        want[0, :2] = 1
        want[1, 1] = 2 ** 60 + 2
        assert np.array_equal(got, want)


GOLDEN_CHECKS = [check for name, check in vars(TestBoundaryParity).items()
                 if name.startswith("test_")]


# ---------------------------------------------------------------------------
# Seeded mutations of the numpy tier: the kill coverage of the checks
# ---------------------------------------------------------------------------

# (name, old, new); each ``old`` occurs exactly once in numpy_tier.py.
# Not listed: ``np.where(acc >= _P_U64`` -> ``>`` in mulmod_many, an
# *equivalent* mutant on the contract domain -- after the second fold
# ``acc == p`` needs ``a * b === 0 (mod p)``, i.e. a zero operand (p is
# prime), and a zero operand makes every limb product, hence ``acc``, 0.
MUTATIONS = [
    ("mulmod_drop_limb_mask", "a_lo = a & _MASK32", "a_lo = a"),
    # (a widened ``_U30`` is not defined in the module: that mutant dies
    # of a NameError, which says nothing about the checks)
    ("mulmod_mid_shift_29_to_32", "(mid >> _U29)", "(mid >> _U32)"),
    ("mulmod_hh_shift_3_to_1", "(hh << _U3)", "(hh << _U1)"),
    ("mulmod_mid_mask_29_to_32", "(mid & _MASK29)", "(mid & _MASK32)"),
    ("mulmod_ll_shift_61_to_32", "(ll >> _U61)", "(ll >> _U32)"),
    ("mulmod_drop_second_fold",
     "acc = (acc & _P_U64) + (acc >> _U61)", "pass"),
    ("addmod_shift_61_to_32", "(s >> _U61)", "(s >> _U32)"),
    ("addmod_fold_ge_to_gt", "np.where(s >= _P_U64", "np.where(s > _P_U64"),
    ("combine_shift_29_to_28", "top = hi_m >> 29", "top = hi_m >> 28"),
    ("combine_shift_32_to_34", "(bot << 32)", "(bot << 34)"),
    ("combine_drop_final_mod",
     "return (lo_m + shifted) % MERSENNE_P", "return (lo_m + shifted)"),
    # The residue fold of the scatter: split, sort, segment, fold.
    ("scatter_hi_limb_shift_32_to_31", "(zpows >> 32)", "(zpows >> 31)"),
    ("scatter_drop_lo_limb_mask", "(zpows & _IMASK32)", "zpows"),
    ("scatter_fancy_add_drops_repeats", "np.add.at(flat_cells, ws, weights)",
     "flat_cells[ws] += weights"),
    ("scatter_fold_drops_repeats", "starts = np.flatnonzero(first)",
     "starts = np.arange(cell.shape[0])"),
    ("scatter_segments_unsorted", 'order = np.argsort(cell, kind="stable")',
     "order = np.arange(cell.shape[0])"),
    ("scatter_fold_drops_the_stored_residue",
     "f = flat_cells[at] + combine_limbs(lo, hi)",
     "f = combine_limbs(lo, hi)"),
    ("scatter_drops_final_ge_p_fold",
     "np.where(f >= MERSENNE_P, f - MERSENNE_P, f)", "f"),
    # The byte windows of powmod_many and their table.
    ("powmod_window_shift_8_to_7", "remaining >>= _U8",
     "remaining >>= np.uint64(7)"),
    ("powmod_window_index_stuck", "window += 1", "window += 0"),
    ("powmod_table_next_row_base_unraised",
     "step = row[-1] * step % MERSENNE_P", "step = row[-1]"),
    ("powmod_first_window_shift_8_to_7", "remaining = exps >> _U8",
     "remaining = exps >> np.uint64(7)"),
    ("powmod_window_mask_drops_top_bit", "table[window][remaining & _MASK8]",
     "table[window][remaining & np.uint64(127)]"),
    ("trailing_zeros_off_by_one", "tz = exponent.astype(np.int64) - 1",
     "tz = exponent.astype(np.int64)"),
    ("decode_index_lt_to_le", "(idx < max_index)", "(idx <= max_index)"),
    ("is_zero_ignores_s", "zero = (sums[:, 0] == 0) & (sums[:, 1] == 0)",
     "zero = (sums[:, 0] == 0)"),
    ("merge_reduceat_over_empty_groups", "starts = starts[live]",
     "starts = starts"),
    # One per line of the one-column merge and zero test.
    ("merge_out_shape_takes_column_axis",
     "(g, 4, cells.shape[3])", "(g, 4, cells.shape[2])"),
    ("merge_tiles_columns_instead_of_repeating", "np.repeat(cols, glens)",
     "np.tile(cols, 2)[:members.shape[0]]"),
    ("merge_gathers_first_group_column",
     "+ member_cols)[:, None]", "+ cols[0])[:, None]"),
    ("merge_packs_live_groups_first", "out[live] = np.concatenate((",
     "out[:int(live.sum())] = np.concatenate(("),
    ("merge_drops_hi_limb", "np.add.reduceat(fd >> 32,",
     "np.add.reduceat(0 * fd,"),
    ("merge_keeps_lo_limb_unmasked", "np.add.reduceat(fd & _IMASK32,",
     "np.add.reduceat(fd,"),
    ("is_zero_reduces_over_rows", "    return zero\n",
     "    return zero.all(axis=-1)\n"),
    # Determinism: every reduction, division and float conversion has
    # an entry whose float64 twin its golden check must kill, and so
    # does every ambient-RNG or set-order edit that changes an answer.
    # Not listed, because equivalent: ``frexp`` of float32 (powers of
    # two up to 2^63 are
    # exact there too); offsets ``cumsum`` in float64 (they are bounded
    # by ``len(members)``); a random tie-break of the scatter sort or a
    # random / clock-driven eviction of the power-table cache (int64
    # sums do not depend on their order; a table is a pure function of
    # its base).
    ("merge_accumulates_in_float64", "np.add.reduceat(gathered[:, :2],",
     "np.add.reduceat(gathered[:, :2].astype(np.float64),"),
    ("is_zero_level_sum_in_float64", "sums = cells.sum(axis=-1)",
     "sums = cells.sum(axis=-1, dtype=np.float64).astype(np.int64)"),
    ("decode_random_passing_level", "first = np.argmax(ok, axis=1)",
     "first = np.argmax(ok * np.random.random(ok.shape), axis=1)"),
    ("scatter_lo_limb_sum_in_float64",
     "lo = np.add.reduceat((deltas * (zpows & _IMASK32))[entry], starts)",
     "lo = np.add.reduceat((deltas * (zpows & _IMASK32))[entry]"
     ".astype(np.float64), starts).astype(np.int64)"),
    ("scatter_hi_limb_sum_in_float64",
     "hi = np.add.reduceat((deltas * (zpows >> 32))[entry], starts)",
     "hi = np.add.reduceat((deltas * (zpows >> 32))[entry]"
     ".astype(np.float64), starts).astype(np.int64)"),
    ("scatter_weights_in_float64", "np.repeat(deltas * idxs, columns)))",
     "np.repeat(deltas * idxs, columns))).astype(np.float64)"),
    ("scatter_final_fold_test_in_float64",
     "np.where(f >= MERSENNE_P, f - MERSENNE_P, f)",
     "np.where(f.astype(np.float64) >= MERSENNE_P, f - MERSENNE_P, f)"),
    ("scatter_segment_starts_through_set", "starts = np.flatnonzero(first)",
     "starts = np.array(list(set(np.flatnonzero(first).tolist())), "
     "dtype=np.int64)"),
    ("decode_index_float_division", "idx = S // safe_w",
     "idx = (S / safe_w).astype(np.int64)"),
    ("decode_index_float_floor_division", "idx = S // safe_w",
     "idx = (S.astype(np.float64) // safe_w).astype(np.int64)"),
    ("decode_divisibility_in_float64",
     "divisible = nonzero & (S % safe_w == 0)",
     "divisible = nonzero & (S.astype(np.float64) % safe_w == 0)"),
    ("decode_range_test_in_float64", "(idx < max_index)",
     "(idx.astype(np.float64) < max_index)"),
    ("decode_weight_residue_in_float64",
     "wm = (W[candidate] % MERSENNE_P).astype(np.uint64)",
     "wm = (W[candidate].astype(np.float64) % MERSENNE_P)"
     ".astype(np.uint64)"),
    ("merge_lo_limb_sum_in_float64",
     "np.add.reduceat(fd & _IMASK32, starts, axis=0)",
     "np.add.reduceat((fd & _IMASK32).astype(np.float64), starts, axis=0)"),
    ("merge_hi_limb_sum_in_float64",
     "np.add.reduceat(fd >> 32, starts, axis=0)",
     "np.add.reduceat((fd >> 32).astype(np.float64), starts, axis=0)"),
    ("merge_limb_split_in_float64", "fd = gathered[:, 2]",
     "fd = gathered[:, 2].astype(np.float64).astype(np.int64)"),
    ("merge_live_starts_through_set", "starts = starts[live]",
     "starts = np.array(list(set(starts[live].tolist())), dtype=np.int64)"),
    ("is_zero_limb_fold_in_float64",
     "zero &= combine_limbs(sums[:, 2], sums[:, 3]) == 0",
     "zero &= (sums[:, 2] + 2.0 ** 32 * sums[:, 3]) % MERSENNE_P == 0"),
    ("combine_lo_residue_in_float64", "lo_m = lo % MERSENNE_P",
     "lo_m = (lo.astype(np.float64) % MERSENNE_P).astype(np.int64)"),
    ("mulmod_high_product_in_float64", "hh = a_hi * b_hi",
     "hh = (a_hi.astype(np.float64) * b_hi).astype(np.uint64)"),
    ("mulmod_final_fold_test_in_float64",
     "return np.where(acc >= _P_U64, acc - _P_U64, acc)",
     "return np.where(acc.astype(np.float64) >= MERSENNE_P, "
     "acc - _P_U64, acc)"),
    ("addmod_sum_in_float64", "s = a + b",
     "s = (a.astype(np.float64) + b).astype(np.uint64)"),
    ("powmod_result_through_float64", "return out.astype(np.int64)",
     "return out.astype(np.float64).astype(np.int64)"),
    ("powmod_table_row_in_python_float",
     "row.append(row[-1] * step % MERSENNE_P)",
     "row.append(int(float(row[-1]) * step % MERSENNE_P))"),
    ("trailing_zeros_returns_float64", "tz = exponent.astype(np.int64) - 1",
     "tz = exponent.astype(np.float64) - 1"),
]


def _failed_checks(source):
    """Names of the golden checks a numpy tier built from ``source``
    fails.  The tier is exec'd into a throw-away module; the
    registrations its decorators make are undone before the checks run."""
    module = types.ModuleType("scratch_numpy_tier")
    saved = dict(registry._NUMPY)
    try:
        exec(compile(source, str(NUMPY_TIER), "exec"), module.__dict__)
    finally:
        registry._NUMPY.clear()
        registry._NUMPY.update(saved)
    failed = []
    for check in GOLDEN_CHECKS:
        try:
            check(None, module)
        except Exception:  # a wrong value and a crash both kill
            failed.append(check.__name__)
    return failed


class TestSeededMutations:
    SOURCE = NUMPY_TIER.read_text(encoding="utf-8")

    def test_unmutated_copy_passes_every_check(self):
        before = registry.numpy_table()
        assert _failed_checks(self.SOURCE) == []
        assert registry.numpy_table() == before

    @pytest.mark.parametrize("name,old,new", MUTATIONS,
                             ids=[m[0] for m in MUTATIONS])
    def test_mutant_is_killed(self, name, old, new):
        assert self.SOURCE.count(old) == 1, (
            f"mutation {name}: anchor occurs {self.SOURCE.count(old)}x, "
            f"need exactly 1")
        assert _failed_checks(self.SOURCE.replace(old, new)), (
            f"mutation {name} ({old!r} -> {new!r}) survives every check")


# ---------------------------------------------------------------------------
# The REPRO_KERNELS_CHECK runtime wrapper
# ---------------------------------------------------------------------------

class TestRuntimeContractChecks:
    def _checked(self, name):
        return checks.wrap(name, registry.numpy_table()[name])

    def test_in_contract_calls_pass(self):
        mulmod = self._checked("mulmod_many")
        a = _u64(BOUNDARY)
        out = mulmod(a, a)
        assert [int(v) for v in out] == [(x * x) % P for x in BOUNDARY]

    def test_out_of_range_argument_raises(self):
        mulmod = self._checked("mulmod_many")
        with pytest.raises(SketchError) as err:
            mulmod(_u64((P,)), _u64((1,)))  # non-canonical: p itself
        msg = str(err.value)
        assert "mulmod_many" in msg
        assert "'a'" in msg
        assert str(P) in msg

    def test_wrong_dtype_raises(self):
        addmod = self._checked("addmod_many")
        with pytest.raises(SketchError) as err:
            addmod(np.array([1, 2], dtype=np.int64), _u64((1, 2)))
        assert "dtype" in str(err.value)
        assert "uint64" in str(err.value)

    def test_scalar_argument_range_checked(self):
        powmod = self._checked("powmod_many")
        with pytest.raises(SketchError) as err:
            powmod(_u64((1, 2)), -1)  # z declared pyint[0, 2^62]
        assert "powmod_many" in str(err.value)
        assert "'z'" in str(err.value)

    def test_scalar_bound_is_exact_past_2_53(self):
        # 2^62 + 1 reads as 2^62, the bound itself, in float64.
        powmod = self._checked("powmod_many")
        with pytest.raises(SketchError, match="'z'"):
            powmod(_u64((1, 2)), (1 << 62) + 1)

    def test_violating_return_is_reported(self):
        # A stand-in bound under mulmod_many's residue contract but
        # returning a non-canonical value: the return check must catch
        # it.
        def dishonest(a, b):
            return a + b  # up to 2(p-1): not reduced

        wrapped = checks.wrap("mulmod_many", dishonest)
        with pytest.raises(SketchError) as err:
            wrapped(_u64((P - 1,)), _u64((P - 1,)))
        assert "return value" in str(err.value)

    def test_uncontracted_kernel_passes_through(self):
        def plain(a):
            return a

        assert checks.wrap("plain_demo", plain) is plain

    def test_env_knob_validated(self, monkeypatch):
        from repro.mpc.config import env_int

        monkeypatch.setenv(checks.ENV_CHECK, "yes")
        with pytest.raises(SketchError) as err:
            env_int(checks.ENV_CHECK, 0)
        assert checks.ENV_CHECK in str(err.value)

    def test_every_kernel_is_fully_contracted(self):
        for name, impl in sorted(registry.numpy_table().items()):
            assert registry.contract_for(name) is not None, \
                f"kernel {name!r} has no @kernel_contract"
            wrapped = checks.wrap(name, impl)
            assert wrapped is not impl, \
                f"checks.wrap ignored contracted kernel {name!r}"
