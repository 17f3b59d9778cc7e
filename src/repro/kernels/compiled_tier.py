"""Compiled kernel tier: numba-jitted twins of the numpy kernels.

numba is auto-detected at import and is *never* a hard dependency --
when it is missing this module still imports, registers its wrapper
entries (so the RL007 parity check sees both tables), and reports
``AVAILABLE = False``; the dispatcher then refuses to activate the
tier.  The jitted cores are built lazily on first activation
(:func:`ensure_built`), so merely importing :mod:`repro.kernels` on
the numpy tier never pays numba's compile cost.

The scalar field arithmetic mirrors the numpy limb kernels exactly:
uint64 32-bit-limb products folded at bit 61 (``2^61 === 1 mod p``)
and the signed 29/32-bit sub-limb combine (``hi << 32`` would overflow
int64 -- ``|hi|`` reaches ~2^53 -- so the shift is applied to the
reduced residue's sub-limbs, as in the numpy tier).  numba follows
Python's floored ``//``/``%`` semantics for signed integers, matching
numpy, so the decoder's divisibility tests agree bit for bit.

What the compiled tier actually buys (``bench/``'s ``kernels.*_ms``
rows measure it): the scatter, decode, merge, and zero-test cores
replace buffered ``np.add.at`` / full-level-grid array passes with
fused scalar loops that early-exit per column -- and they release the
GIL, so the worker fleet's shards genuinely overlap.

The core bodies are plain module-level functions jitted at activation
time (``numba.njit(cache=True)`` applied in :func:`ensure_built`);
they call each other through module globals rebound to the jitted
dispatchers, which keeps ``cache=True`` effective (numba cannot cache
closures over other dispatchers).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SketchError
from repro.kernels.registry import compiled_kernel

try:  # pragma: no cover - exercised by the CI numba matrix job
    import numba
except Exception:  # pragma: no cover - the no-numba default container
    numba = None

#: True when numba imported; the dispatcher gates tier activation on it.
AVAILABLE = numba is not None

MERSENNE_P = (1 << 61) - 1

# uint64 scalar constants baked into the jitted cores (numba types a
# module-level np.uint64 global as uint64, keeping the limb arithmetic
# closed under uint64 -- mixing raw int literals into uint64 math would
# promote to float64 under numpy's casting rules).
_P_U64 = np.uint64(MERSENNE_P)
_MASK29_U = np.uint64((1 << 29) - 1)
_MASK32_U = np.uint64((1 << 32) - 1)
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U3 = np.uint64(3)
_U29 = np.uint64(29)
_U32 = np.uint64(32)
_U61 = np.uint64(61)

_IMASK29 = (1 << 29) - 1
_IMASK32 = (1 << 32) - 1


# ---------------------------------------------------------------------------
# Scalar helpers (jitted in ensure_built; called via these globals)
# ---------------------------------------------------------------------------

def _mulmod(a, b):
    a_hi = a >> _U32
    a_lo = a & _MASK32_U
    b_hi = b >> _U32
    b_lo = b & _MASK32_U
    hh = a_hi * b_hi
    mid = a_hi * b_lo + a_lo * b_hi
    ll = a_lo * b_lo
    acc = ((hh << _U3) + (mid >> _U29) + ((mid & _MASK29_U) << _U32)
           + (ll >> _U61) + (ll & _P_U64))
    acc = (acc & _P_U64) + (acc >> _U61)
    if acc >= _P_U64:
        acc -= _P_U64
    return acc


def _addmod(a, b):
    s = a + b
    s = (s & _P_U64) + (s >> _U61)
    if s >= _P_U64:
        s -= _P_U64
    return s


def _powmod(base, exp):
    result = _U1
    b = base
    e = exp
    while e != _U0:
        if e & _U1 != _U0:
            result = _mulmod(result, b)
        b = _mulmod(b, b)
        e = e >> _U1
    return result


def _combine(lo, hi):
    # int64 limbs, any sign; % follows Python's floored semantics.
    lo_m = lo % MERSENNE_P
    hi_m = hi % MERSENNE_P
    top = hi_m >> 29
    bot = hi_m & _IMASK29
    shifted = top + (bot << 32)
    shifted = (shifted & MERSENNE_P) + (shifted >> 61)
    if shifted >= MERSENNE_P:
        shifted -= MERSENNE_P
    return (lo_m + shifted) % MERSENNE_P


# ---------------------------------------------------------------------------
# Array cores (jitted in ensure_built)
# ---------------------------------------------------------------------------

def _mulmod_flat(a, b):
    out = np.empty(a.shape[0], dtype=np.uint64)
    for i in range(a.shape[0]):
        out[i] = _mulmod(a[i], b[i])
    return out


def _addmod_flat(a, b):
    out = np.empty(a.shape[0], dtype=np.uint64)
    for i in range(a.shape[0]):
        out[i] = _addmod(a[i], b[i])
    return out


def _poly_core(coeffs, xs):
    k = coeffs.shape[0]
    h = coeffs.shape[1]
    e = xs.shape[0]
    out = np.empty((e, h), dtype=np.uint64)
    for i in range(e):
        x = xs[i]
        for j in range(h):
            acc = coeffs[k - 1, j]
            for row in range(k - 2, -1, -1):
                acc = _addmod(_mulmod(acc, x), coeffs[row, j])
            out[i, j] = acc
    return out


def _tz_core(xs, cap):
    e = xs.shape[0]
    out = np.empty(e, dtype=np.int64)
    for i in range(e):
        x = xs[i]
        if x == _U0:
            out[i] = cap
            continue
        tz = 0
        while x & _U1 == _U0:
            x = x >> _U1
            tz += 1
        out[i] = tz if tz < cap else cap
    return out


def _powmod_core(exps, z):
    e = exps.shape[0]
    out = np.empty(e, dtype=np.int64)
    for i in range(e):
        out[i] = np.int64(_powmod(z, exps[i]))
    return out


def _combine_flat(lo, hi):
    out = np.empty(lo.shape[0], dtype=np.int64)
    for i in range(lo.shape[0]):
        out[i] = _combine(lo[i], hi[i])
    return out


def _scatter_core(flat_cells, columns, levels, slots, col_levels,
                  idxs, deltas, zpows):
    cl = columns * levels
    row_words = 4 * cl
    for i in range(slots.shape[0]):
        base = slots[i] * row_words
        d = deltas[i]
        w0 = d
        w1 = d * idxs[i]
        z = zpows[i]
        w2 = d * (z & _IMASK32)
        w3 = d * (z >> 32)
        for c in range(columns):
            cell = c * levels + col_levels[i, c]
            flat_cells[base + cell] += w0
            flat_cells[base + cl + cell] += w1
            flat_cells[base + 2 * cl + cell] += w2
            flat_cells[base + 3 * cl + cell] += w3


def _decode_core(W, S, lo, hi, max_index, z):
    k = W.shape[0]
    L = W.shape[1]
    out = np.full(k, -1, dtype=np.int64)
    for i in range(k):
        for lv in range(L):
            w = W[i, lv]
            if w == 0:
                continue
            s = S[i, lv]
            if s % w != 0:
                continue
            idx = s // w
            if idx < 0 or idx >= max_index:
                continue
            fingerprint = _combine(lo[i, lv], hi[i, lv])
            wm = np.uint64(w % MERSENNE_P)
            zp = _powmod(z, np.uint64(idx))
            if np.int64(_mulmod(wm, zp)) == fingerprint:
                out[i] = idx
                break
    return out


def _merge_core(rows, members, glens, out):
    # rows: (count, R) flat cells; out: (g, R) zeroed.
    words = rows.shape[1]
    offset = 0
    for gi in range(glens.shape[0]):
        for m in range(glens[gi]):
            row = members[offset + m]
            for wj in range(words):
                out[gi, wj] += rows[row, wj]
        offset += glens[gi]


def _zero_core(cells):
    k = cells.shape[0]
    columns = cells.shape[2]
    levels = cells.shape[3]
    out = np.empty(k, dtype=np.bool_)
    for i in range(k):
        zero = True
        for c in range(columns):
            sw = np.int64(0)
            ss = np.int64(0)
            slo = np.int64(0)
            shi = np.int64(0)
            for lv in range(levels):
                sw += cells[i, 0, c, lv]
                ss += cells[i, 1, c, lv]
                slo += cells[i, 2, c, lv]
                shi += cells[i, 3, c, lv]
            if sw != 0 or ss != 0 or _combine(slo, shi) != 0:
                zero = False
                break
        out[i] = zero
    return out


#: name -> jitted core, filled by :func:`ensure_built`.
_CORES: dict = {}


def ensure_built() -> None:
    """Jit-compile the cores once per process (idempotent, lazy compile).

    Rebinds the scalar-helper globals to their jitted dispatchers
    *before* registering the array cores, so the cores resolve them as
    jitted callees at (their own, lazy) compile time.  ``cache=True``
    persists the machine code next to this file, so respawned worker
    processes skip recompilation.
    """
    global _mulmod, _addmod, _powmod, _combine
    if _CORES:
        return
    if not AVAILABLE:
        raise SketchError(
            "the compiled kernel tier needs numba, which is not "
            "importable; select REPRO_KERNELS=auto or numpy"
        )

    def jit(func):
        return numba.njit(cache=True, nogil=True)(func)

    _mulmod = jit(_mulmod)
    _addmod = jit(_addmod)
    _powmod = jit(_powmod)
    _combine = jit(_combine)
    _CORES.update(
        mulmod=jit(_mulmod_flat),
        addmod=jit(_addmod_flat),
        poly=jit(_poly_core),
        tz=jit(_tz_core),
        powmod=jit(_powmod_core),
        combine=jit(_combine_flat),
        scatter=jit(_scatter_core),
        decode=jit(_decode_core),
        merge=jit(_merge_core),
        zero=jit(_zero_core),
    )


def _require_cores() -> dict:
    if not _CORES:
        ensure_built()
    return _CORES


def _u64_contig(arr) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, dtype=np.uint64))


def _i64_contig(arr) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(arr, dtype=np.int64))


# ---------------------------------------------------------------------------
# Registered wrappers
# ---------------------------------------------------------------------------
# These plain-python entry points are registered even without numba, so
# the RL007 parity table always has both sides; they only reach the
# jitted cores once the dispatcher activated the tier (which requires
# numba).  Parameter names match the numpy twins exactly -- RL007
# checks that -- and each wrapper is bound to its numpy twin's
# declared contract by kernel name (``registry.contract_for``).

@compiled_kernel("mulmod_many")
def mulmod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    a2, b2 = np.broadcast_arrays(np.asarray(a, dtype=np.uint64),
                                 np.asarray(b, dtype=np.uint64))
    out = cores["mulmod"](_u64_contig(a2).ravel(),
                          _u64_contig(b2).ravel())
    return out.reshape(a2.shape)


@compiled_kernel("addmod_many")
def addmod_many(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    a2, b2 = np.broadcast_arrays(np.asarray(a, dtype=np.uint64),
                                 np.asarray(b, dtype=np.uint64))
    out = cores["addmod"](_u64_contig(a2).ravel(),
                          _u64_contig(b2).ravel())
    return out.reshape(a2.shape)


@compiled_kernel("poly_field_values")
def poly_field_values(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    return cores["poly"](_u64_contig(coeffs), _u64_contig(xs))


@compiled_kernel("trailing_zeros_many")
def trailing_zeros_many(xs: np.ndarray, cap: int) -> np.ndarray:
    cores = _require_cores()
    flat = _u64_contig(xs)
    return cores["tz"](flat.ravel(),
                       np.int64(cap)).reshape(flat.shape)


@compiled_kernel("powmod_many")
def powmod_many(exps: np.ndarray, z: int) -> np.ndarray:
    cores = _require_cores()
    return cores["powmod"](_u64_contig(exps),
                           np.uint64(int(z) % MERSENNE_P))


@compiled_kernel("combine_limbs")
def combine_limbs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    lo2, hi2 = np.broadcast_arrays(np.asarray(lo, dtype=np.int64),
                                   np.asarray(hi, dtype=np.int64))
    out = cores["combine"](_i64_contig(lo2).ravel(),
                           _i64_contig(hi2).ravel())
    return out.reshape(lo2.shape)


@compiled_kernel("pool_scatter")
def pool_scatter(flat_cells: np.ndarray, columns: int, levels: int,
                 slots: np.ndarray, col_levels: np.ndarray,
                 idxs: np.ndarray, deltas: np.ndarray,
                 zpows: np.ndarray) -> None:
    if slots.shape[0] == 0:
        return
    cores = _require_cores()
    # flat_cells is mutated in place: it must already be the caller's
    # flat int64 view (never copied here).
    cores["scatter"](flat_cells, np.int64(columns), np.int64(levels),
                     _i64_contig(slots), _i64_contig(col_levels),
                     _i64_contig(idxs), _i64_contig(deltas),
                     _i64_contig(zpows))


@compiled_kernel("decode_prefix")
def decode_prefix(prefix: np.ndarray, max_index: int,
                  z: int) -> np.ndarray:
    cores = _require_cores()
    W, S, lo, hi = prefix
    return cores["decode"](_i64_contig(W), _i64_contig(S),
                           _i64_contig(lo), _i64_contig(hi),
                           np.int64(max_index),
                           np.uint64(int(z) % MERSENNE_P))


@compiled_kernel("merge_groups")
def merge_groups(cells: np.ndarray, members: np.ndarray,
                 glens: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    g = glens.shape[0]
    out = np.zeros((g,) + cells.shape[1:], dtype=np.int64)
    if g == 0 or members.shape[0] == 0:
        return out
    rows = _i64_contig(cells).reshape(cells.shape[0], -1)
    cores["merge"](rows, _i64_contig(members), _i64_contig(glens),
                   out.reshape(g, -1))
    return out


@compiled_kernel("is_zero_cells")
def is_zero_cells(cells: np.ndarray) -> np.ndarray:
    cores = _require_cores()
    return cores["zero"](_i64_contig(cells))
