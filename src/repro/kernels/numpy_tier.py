"""Pure-numpy kernel tier: the always-available reference implementations.

These are the single source of truth for the hot-path inner loops --
GF(2^61-1) limb arithmetic, the geometric-level hashing, the pool
scatter, the batch prefix decoder, and the group-merge / zero-test
cell cores.  The sketch layer (:mod:`repro.sketch`) and the execution
backends (:mod:`repro.mpc.backend`) call them *only* through the tier
dispatcher (:mod:`repro.kernels`), so the compiled tier can be swapped
in per process without touching any call site.

Every kernel here is deliberately self-contained (no imports from
:mod:`repro.sketch`): the tier modules sit below the sketch layer in
the import graph, which is what lets worker processes pick their tier
at spawn before any sketch state exists.

Bit-identity contract: the compiled twins in
:mod:`repro.kernels.compiled_tier` must return bit-identical results
for every input -- all values are canonical mod-p residues or exact
int64 sums, so any correct evaluation order agrees exactly.
``tests/test_kernels.py`` asserts the full matrix.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import (
    bool_array,
    i64_acc,
    i64_any,
    i64_range,
    i64_residue,
    kernel_contract,
    numpy_kernel,
    scalar_int,
    u64_any,
    u64_residue,
)

MERSENNE_P = (1 << 61) - 1

# uint64 constants for the limb arithmetic: NumPy keeps uint64 closed
# under operations with same-dtype scalars, so every shift/mask below
# uses these instead of bare Python ints.
_P_U64 = np.uint64(MERSENNE_P)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
_U1 = np.uint64(1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)

_IMASK29 = (1 << 29) - 1
_IMASK32 = (1 << 32) - 1


@numpy_kernel("mulmod_many")
@kernel_contract(args={"a": u64_residue(), "b": u64_residue()},
                 returns=u64_residue())
def mulmod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a * b) mod p`` for ``uint64`` arrays with entries
    in ``[0, p)``.

    Splits both operands into 32-bit limbs so every partial product and
    partial sum fits ``uint64`` (see :mod:`repro.sketch.hashing`), then
    folds the bits above position 61 back down (``2^61 === 1 mod p``).
    Broadcasting works as for ``a * b``.
    """
    a_hi = a >> _U32
    a_lo = a & _MASK32
    b_hi = b >> _U32
    b_lo = b & _MASK32
    hh = a_hi * b_hi                      # < 2^58
    mid = a_hi * b_lo + a_lo * b_hi       # < 2^62
    ll = a_lo * b_lo                      # < 2^64
    # a*b = hh*2^64 + mid*2^32 + ll; fold at bit 61 (2^61 === 1 mod p):
    #   hh*2^64 === hh*8, mid*2^32 === (mid >> 29) + (mid & M29)*2^32,
    #   ll === (ll >> 61) + (ll & p).  The sum stays below 3 * 2^61.
    acc = ((hh << _U3) + (mid >> _U29) + ((mid & _MASK29) << _U32)
           + (ll >> _U61) + (ll & _P_U64))
    acc = (acc & _P_U64) + (acc >> _U61)
    return np.where(acc >= _P_U64, acc - _P_U64, acc)


@numpy_kernel("addmod_many")
@kernel_contract(args={"a": u64_residue(), "b": u64_residue()},
                 returns=u64_residue())
def addmod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``(a + b) mod p`` for ``uint64`` arrays in ``[0, p)``."""
    s = a + b                             # < 2^62
    s = (s & _P_U64) + (s >> _U61)
    return np.where(s >= _P_U64, s - _P_U64, s)


@numpy_kernel("poly_field_values")
@kernel_contract(args={"coeffs": u64_residue(), "xs": u64_residue()},
                 returns=u64_residue())
def poly_field_values(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate many degree-(k-1) polynomials at many points in GF(p).

    ``coeffs`` has shape ``(k, h)`` -- column ``j`` holds the
    coefficients ``a_0 .. a_{k-1}`` of polynomial ``j`` -- and ``xs``
    has shape ``(e,)`` with entries in ``[0, p)``.  Returns the
    ``(e, h)`` uint64 matrix of Horner evaluations.
    """
    points = xs[:, None]
    acc = np.broadcast_to(coeffs[-1][None, :], (xs.shape[0],
                                                coeffs.shape[1]))
    # Horner loop over k <= 4 coefficient rows, a model constant, never
    # over pool rows.
    for row in range(coeffs.shape[0] - 2, -1, -1):
        acc = addmod_many(mulmod_many(acc, points), coeffs[row][None, :])
    return np.ascontiguousarray(acc)


@numpy_kernel("trailing_zeros_many")
@kernel_contract(args={"xs": u64_any(), "cap": scalar_int(1, 64)},
                 returns=i64_range(0, 64))
def trailing_zeros_many(xs: np.ndarray, cap: int) -> np.ndarray:
    """Trailing zero bits of each ``uint64`` entry, capped at ``cap``.

    Isolates the lowest set bit with ``x & (~x + 1)`` and reads its
    position from the float64 exponent (``frexp``); powers of two up to
    ``2^63`` convert to float64 exactly, so this matches the scalar
    bit-trick bit for bit.  Zero entries map to ``cap``.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    # ~x + 1 wraps on purpose: at x == 0 it yields 0 (routed to the
    # xs == 0 branch below), and every nonzero lsb is a single power of
    # two <= 2^63.
    lsb = xs & (~xs + _U1)
    # repro-lint: disable=RL010 -- lsb is 0 or a single power of two <= 2^63, which float64 represents exactly; only the exponent bits are read, and the consumed exponent lies in [1, 64]
    _, exponent = np.frexp(lsb.astype(np.float64))
    tz = exponent.astype(np.int64) - 1
    return np.where(xs == 0, cap, np.minimum(tz, cap))


@numpy_kernel("powmod_many")
@kernel_contract(args={"exps": u64_any(), "z": scalar_int(0, 1 << 62)},
                 returns=i64_residue())
def powmod_many(exps: np.ndarray, z: int) -> np.ndarray:
    """``z ** exps mod p`` for a ``uint64`` exponent array.

    Binary exponentiation against the exact Python-int square ladder of
    ``z``; returns int64 canonical residues in ``[0, p)``, bit-identical
    to ``pow(z, e, p)`` per entry (canonical residues are unique, so any
    correct evaluation order agrees).
    """
    exps = np.asarray(exps, dtype=np.uint64)
    out = np.ones(exps.shape, dtype=np.uint64)
    base = int(z) % MERSENNE_P
    remaining = exps
    # Bit loop over <= 64 exponent bits, a word-size constant, never
    # over pool rows.
    while remaining.any():
        odd = (remaining & _U1) != 0
        if odd.any():
            out[odd] = mulmod_many(out[odd], np.uint64(base))
        base = base * base % MERSENNE_P
        remaining = remaining >> _U1
    return out.astype(np.int64)


@numpy_kernel("combine_limbs")
@kernel_contract(args={"lo": i64_any(), "hi": i64_any()},
                 returns=i64_residue())
def combine_limbs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``(lo + 2^32 * hi) mod p`` for int64 limb arrays (any sign).

    Reduces each limb mod p first, then applies the shift-by-32 with
    29/32-bit sub-limbs so every intermediate fits int64 (numpy's ``%``
    returns non-negative remainders, matching Python).
    """
    lo_m = lo % MERSENNE_P
    hi_m = hi % MERSENNE_P
    # (hi_m << 32) mod p: split hi_m = top*2^29 + bot, use 2^61 === 1.
    top = hi_m >> 29
    bot = hi_m & _IMASK29
    shifted = top + (bot << 32)                        # < 2^62
    shifted = (shifted & MERSENNE_P) + (shifted >> 61)
    shifted = np.where(shifted >= MERSENNE_P, shifted - MERSENNE_P,
                       shifted)
    return (lo_m + shifted) % MERSENNE_P


@numpy_kernel("pool_scatter")
@kernel_contract(
    args={
        "flat_cells": i64_acc(),
        "columns": scalar_int(1, 1 << 20),
        "levels": scalar_int(1, 64),
        "slots": i64_range(0, (1 << 31) - 1),
        "col_levels": i64_range(0, 63),
        "idxs": i64_range(0, 1 << 40),
        "deltas": i64_range(-(1 << 20), 1 << 20),
        "zpows": i64_residue(),
    },
    returns=None,
)
def pool_scatter(flat_cells: np.ndarray, columns: int, levels: int,
                 slots: np.ndarray, col_levels: np.ndarray,
                 idxs: np.ndarray, deltas: np.ndarray,
                 zpows: np.ndarray) -> None:
    """Scatter many (slot, coordinate, delta) updates into a flattened
    ``(count, 4, columns, levels)`` int64 cell block, in place.

    Duplicate (slot, cell) targets accumulate correctly (``np.add.at``),
    and int64 addition is exact and order-independent, so any partition
    of the entries over callers lands in the same final state.
    """
    e = slots.shape[0]
    if e == 0:
        return
    row_words = 4 * columns * levels
    cell_base = np.arange(columns, dtype=np.int64) * levels
    q_offsets = (np.arange(4, dtype=np.int64)
                 * (columns * levels))[None, :, None]
    cell_flat = cell_base[None, :] + col_levels                # (e, c)
    flat = ((slots * row_words)[:, None, None]
            + q_offsets + cell_flat[:, None, :]).ravel()
    weights = np.repeat(
        np.stack(
            [deltas, deltas * idxs, deltas * (zpows & _IMASK32),
             deltas * (zpows >> 32)],
            axis=1,
        ).ravel(),
        columns,
    )
    np.add.at(flat_cells, flat, weights)


@numpy_kernel("decode_prefix")
@kernel_contract(
    args={
        "prefix": i64_acc(),
        "max_index": scalar_int(1, 1 << 62),
        "z": scalar_int(0, 1 << 62),
    },
    returns=i64_range(-1, (1 << 62) - 1),
)
def decode_prefix(prefix: np.ndarray, max_index: int,
                  z: int) -> np.ndarray:
    """Decode many prefix-summed recovery columns at once.

    ``prefix`` is the ``(4, k, levels)`` int64 block of materialized
    ``(W, S, Flo, Fhi)`` level prefixes for ``k`` independent columns.
    For each column the divisibility, range, and fingerprint tests
    (``F == W * z^idx mod p``, with ``z`` the family's fingerprint
    base) run on every level as array operations, and the answer is
    the lowest passing level's coordinate -- ``-1`` marking columns
    where every level rejected (the sampler's ``bottom``).
    """
    W, S, lo, hi = prefix
    k = W.shape[0]
    nonzero = W != 0
    safe_w = np.where(nonzero, W, 1)
    # numpy's % and // follow Python's floored-division convention for
    # signed operands, so these match the scalar ``s % w`` / ``s // w``.
    # W and S are exact sums of at most 2^31 updates with |weight| <
    # 2^30, so |S| < 2^62 and the INT64_MIN // -1 corner cannot occur.
    divisible = nonzero & (S % safe_w == 0)
    idx = S // safe_w
    candidate = divisible & (idx >= 0) & (idx < max_index)
    # The bounds-checked coordinates: every position where ``candidate``
    # holds keeps its idx, every other position reads the sampler's
    # bottom.  Answers are only ever taken where ``ok`` (which implies
    # ``candidate``) holds, so this is bit-identical to indexing ``idx``
    # directly -- and it keeps the returned values inside the
    # contract's ``[-1, max_index)``.
    safe_idx = np.where(candidate, idx, -1)
    ok = np.zeros(candidate.shape, dtype=bool)
    if candidate.any():
        fingerprints = combine_limbs(lo[candidate], hi[candidate])
        wm = (W[candidate] % MERSENNE_P).astype(np.uint64)
        zp = powmod_many(idx[candidate].astype(np.uint64), z)
        ok[candidate] = (mulmod_many(wm, zp.astype(np.uint64))
                         .astype(np.int64) == fingerprints)
    found = ok.any(axis=1)
    first = np.argmax(ok, axis=1)
    return np.where(found, safe_idx[np.arange(k), first], -1)


@numpy_kernel("merge_groups")
@kernel_contract(
    args={
        "cells": i64_acc(),
        "members": i64_range(0, (1 << 31) - 1),
        "glens": i64_range(0, (1 << 31) - 1),
    },
    returns=i64_acc(),
)
def merge_groups(cells: np.ndarray, members: np.ndarray,
                 glens: np.ndarray) -> np.ndarray:
    """Per-group sums of member rows of a ``(count, 4, c, L)`` block.

    ``members`` is the flat concatenation of the groups' row indices
    and ``glens`` the per-group lengths; the result is the
    ``(len(glens), 4, c, L)`` stack of merged cells -- entry ``i`` the
    element-wise int64 sum of that group's rows (zeros for an empty
    group).  One gather plus one segmented reduction
    (``np.add.reduceat``) replaces the per-group Python loop; int64
    addition is exact and order-independent, so the result matches any
    merge order bit for bit.
    """
    g = glens.shape[0]
    out = np.zeros((g,) + cells.shape[1:], dtype=np.int64)
    live = glens > 0
    if not live.any():
        return out
    starts = np.zeros(g, dtype=np.int64)
    np.cumsum(glens[:-1], out=starts[1:])
    gathered = cells[members].reshape(members.shape[0], -1)
    # Empty groups are excluded from the reduceat starts (a zero-length
    # reduceat segment would return the element *at* the offset instead
    # of zero); consecutive live segments stay adjacent in ``members``,
    # so the surviving offsets bound exactly the live groups' rows.
    reduced = np.add.reduceat(gathered, starts[live], axis=0)
    out.reshape(g, -1)[live] = reduced
    return out


@numpy_kernel("is_zero_cells")
@kernel_contract(args={"cells": i64_acc()}, returns=bool_array())
def is_zero_cells(cells: np.ndarray) -> np.ndarray:
    """Per-row all-columns zero test over a ``(k, 4, c, L)`` stack."""
    sums = cells.sum(axis=-1)                          # (k, 4, columns)
    zero = (sums[:, 0] == 0) & (sums[:, 1] == 0)
    if zero.any():
        zero &= combine_limbs(sums[:, 2], sums[:, 3]) == 0
    return zero.all(axis=-1)
