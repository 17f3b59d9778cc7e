"""Kernel numeric contracts: golden checks, their kill coverage, and
the ``REPRO_KERNELS_CHECK=1`` runtime wrapper.

* ``TestBoundaryParity`` checks the kernels against exact Python
  big-int arithmetic at the adversarial inputs (0, 1, p-2, p-1, the
  32-bit limb seam, a forged boundary fingerprint, an ``S``-only cell
  stack, an empty group, sums past float64's 2^53 integer range, two
  passing levels) on every available tier;
* ``TestSeededMutations`` applies twenty single-token edits to a
  throw-away copy of ``numpy_tier.py`` and requires each to fail one of
  those same checks -- the kill coverage is pinned, not assumed;
* the runtime wrapper must accept every in-contract call and raise
  :class:`~repro.errors.SketchError` naming the kernel and argument on
  a dtype or range violation, whichever tier's flavour is bound.
"""

import itertools
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.errors import SketchError
from repro.kernels import checks, compiled_tier, registry
from repro.kernels.registry import MERSENNE_P

P = MERSENNE_P

TIERS = kernels.available_tiers()

NUMPY_TIER = (Path(__file__).resolve().parents[1]
              / "src" / "repro" / "kernels" / "numpy_tier.py")

#: The adversarial residues: additive/multiplicative identities and
#: the top of the canonical range, where limb folds and conditional
#: subtracts change behaviour.
BOUNDARY = (0, 1, P - 2, P - 1)
PAIRS = list(itertools.product(BOUNDARY, BOUNDARY))


@pytest.fixture(autouse=True)
def _restore_tier():
    before = kernels.active_tier()
    yield
    kernels.set_tier(before)


def _u64(values):
    return np.array(list(values), dtype=np.uint64)


def _i64(values):
    return np.array(list(values), dtype=np.int64)


# ---------------------------------------------------------------------------
# Boundary-value parity against Python big-int arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tier", TIERS)
class TestBoundaryParity:
    """Every check takes the kernel namespace ``k`` it exercises: the
    dispatcher bound to one tier here, a mutated copy of the numpy tier
    in :class:`TestSeededMutations`."""

    @pytest.fixture
    def k(self, tier):
        kernels.set_tier(tier)
        return kernels

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
        for z in BOUNDARY:
            exps = _u64((0, 1, 2, 61, 64, P - 2, P - 1))
            got = k.powmod_many(exps, z)
            want = [pow(z, int(e), P) for e in exps]
            assert got.dtype == np.int64
            assert [int(v) for v in got] == want, f"base {z}"

    def test_combine_limbs_boundary(self, k):
        halves = (0, 1, (1 << 32) - 2, (1 << 32) - 1)
        pairs = list(itertools.product(halves, halves))
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
        assert k.trailing_zeros_many(xs, 64).tolist() == \
            [64, 0, 1, 31, 32, 53, 63]
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

    def test_is_zero_cells_sees_nonzero_s(self, k):
        # W == 0 and F == 0 with S != 0 is not the zero vector.
        cells = np.zeros((2, 4, 3, 4), dtype=np.int64)
        cells[1, 1, 2, 0] = 7
        assert k.is_zero_cells(cells).tolist() == [True, False]

    def test_is_zero_cells_level_sum_is_exact_past_2_53(self, k):
        # W's level cells sum to exactly 1; in float64 2^53 + 1 rounds
        # to 2^53 and the row would read as the zero vector.
        cells = np.zeros((1, 4, 2, 3), dtype=np.int64)
        cells[0, 0, 1, :2] = (2 ** 53 + 1, -2 ** 53)
        assert k.is_zero_cells(cells).tolist() == [False]

    def test_pool_scatter_limb_split(self, k):
        # One update whose fingerprint power has both limbs busy: the
        # cell quantities are (d, d*idx, d*(z & M32), d*(z >> 32)).
        zpow, idx, delta = P - 2, 5, -3
        flat = np.zeros(4 * 2 * 3, dtype=np.int64)
        k.pool_scatter(flat, 2, 3, _i64((0,)), _i64((1, 2)).reshape(1, 2),
                       _i64((idx,)), _i64((delta,)), _i64((zpow,)))
        want = np.zeros((4, 2, 3), dtype=np.int64)
        want[:, 0, 1] = want[:, 1, 2] = (
            delta, delta * idx, delta * (zpow & ((1 << 32) - 1)),
            delta * (zpow >> 32))
        assert np.array_equal(flat.reshape(4, 2, 3), want)

    def test_merge_groups_with_empty_group(self, k):
        rng = np.random.default_rng(6)
        cells = rng.integers(-50, 50, size=(5, 4, 3, 4)).astype(np.int64)
        got = k.merge_groups(cells, _i64((0, 2, 4, 1, 3)), _i64((2, 0, 3)))
        want = np.stack([cells[[0, 2]].sum(axis=0), np.zeros_like(cells[0]),
                         cells[[4, 1, 3]].sum(axis=0)])
        assert np.array_equal(got, want)

    def test_merge_groups_sum_is_exact_past_2_53(self, k):
        cells = np.zeros((2, 4, 2, 3), dtype=np.int64)
        cells[0], cells[1] = 2 ** 53 + 1, -2 ** 53
        got = k.merge_groups(cells, _i64((0, 1)), _i64((2,)))
        assert got.dtype == np.int64
        assert np.array_equal(got, np.ones((1, 4, 2, 3), dtype=np.int64))


GOLDEN_CHECKS = [check for name, check in vars(TestBoundaryParity).items()
                 if name.startswith("test_")]


def test_compiled_scalar_helpers_match_bigints():
    """The compiled tier's scalar helpers, un-jitted, on numpy scalars
    (runs without numba; ``py_func`` reaches the plain function once
    ``ensure_built`` has rebound the global).  numpy scalar arithmetic
    warns on integer overflow, so with warnings as errors no
    intermediate of the limb scheme may leave uint64 / int64."""
    def plain(name):
        func = getattr(compiled_tier, name)
        return getattr(func, "py_func", func)

    mulmod, addmod = plain("_mulmod"), plain("_addmod")
    powmod, combine = plain("_powmod"), plain("_combine")
    seam = BOUNDARY + ((1 << 32) - 1, (1 << 32) + 1)
    limbs = (0, 1, -1, (1 << 32) - 1, (1 << 32) + 1, (1 << 62) - 1,
             -(1 << 62))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, y in itertools.product(seam, seam):
            a, b = np.uint64(x), np.uint64(y)
            assert int(mulmod(a, b)) == (x * y) % P, (x, y)
            assert int(addmod(a, b)) == (x + y) % P, (x, y)
            assert int(powmod(a, b)) == pow(x, y, P), (x, y)
        for x, y in itertools.product(limbs, limbs):
            assert int(combine(np.int64(x), np.int64(y))) == \
                (x + (y << 32)) % P, (x, y)


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
    ("scatter_hi_limb_shift_32_to_31", "(zpows >> 32)", "(zpows >> 31)"),
    ("scatter_drop_lo_limb_mask", "(zpows & _IMASK32)", "zpows"),
    ("trailing_zeros_off_by_one", "tz = exponent.astype(np.int64) - 1",
     "tz = exponent.astype(np.int64)"),
    ("decode_index_lt_to_le", "(idx < max_index)", "(idx <= max_index)"),
    ("is_zero_ignores_s", "zero = (sums[:, 0] == 0) & (sums[:, 1] == 0)",
     "zero = (sums[:, 0] == 0)"),
    ("merge_reduceat_over_empty_groups", "starts[live], axis=0)",
     "starts, axis=0)"),
    # The three determinism mutants only lint rule RL010 used to see.
    ("merge_accumulates_in_float64", "np.add.reduceat(gathered,",
     "np.add.reduceat(gathered.astype(np.float64),"),
    ("is_zero_level_sum_in_float64", "sums = cells.sum(axis=-1)",
     "sums = cells.sum(axis=-1, dtype=np.float64).astype(np.int64)"),
    ("decode_random_passing_level", "first = np.argmax(ok, axis=1)",
     "first = np.argmax(ok * np.random.random(ok.shape), axis=1)"),
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
    def _checked(self, name, table=registry.numpy_table):
        return checks.wrap(name, table()[name])

    def test_in_contract_calls_pass(self):
        mulmod = self._checked("mulmod_many")
        a = _u64(BOUNDARY)
        out = mulmod(a, a)
        assert [int(v) for v in out] == [(x * x) % P for x in BOUNDARY]

    def test_out_of_range_argument_raises(self):
        # The compiled binding is checked against the numpy tier's
        # declaration (argument checks run before the kernel, so this
        # needs no numba).
        bad = _u64((P,))  # non-canonical: p itself
        for table in (registry.numpy_table, registry.compiled_table):
            mulmod = self._checked("mulmod_many", table)
            with pytest.raises(SketchError) as err:
                mulmod(bad, _u64((1,)))
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

    @pytest.mark.parametrize("tier", TIERS)
    def test_every_tier_table_is_fully_contracted(self, tier):
        table = (registry.numpy_table() if tier == "numpy"
                 else registry.compiled_table())
        for name, impl in sorted(table.items()):
            assert registry.contract_for(name) is not None, \
                f"kernel {name!r} has no @kernel_contract"
            wrapped = checks.wrap(name, impl)
            assert wrapped is not impl, \
                f"checks.wrap ignored contracted kernel {name!r}"
