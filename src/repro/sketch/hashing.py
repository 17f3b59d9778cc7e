"""k-wise independent hash families over a Mersenne-prime field.

The sketching layer needs pairwise-independent hashes (level sampling in
the L0-sampler, Lemma 3.1 / [CJ19]) and four-wise independent hashes
(vertex subsampling in the matching Tester, Section 8.2 / [AKL17]).
Both are polynomial hashing over ``GF(p)`` with ``p = 2^61 - 1``:

    h(x) = ((a_{k-1} x^{k-1} + ... + a_1 x + a_0) mod p) mod m

which is the textbook construction with exactly k-wise independence on
the field and negligible range bias for ``m << p``.

Bulk ingestion
--------------
Every function comes in a scalar flavour (exact Python-int arithmetic)
and an array flavour used by the vectorized bulk-update path.  The
array flavour evaluates the polynomial on whole numpy vectors at once.
Products of two 61-bit field elements need 122 bits, which does not fit
a numpy ``uint64``, so :func:`repro.kernels.mulmod_many` splits each
operand into 32-bit limbs::

    a = a_hi * 2^32 + a_lo,   b = b_hi * 2^32 + b_lo
    a*b = a_hi*b_hi * 2^64  +  (a_hi*b_lo + a_lo*b_hi) * 2^32  +  a_lo*b_lo

and reduces each partial product modulo the Mersenne prime with shifts
and masks only (``2^61 === 1 (mod p)``, so bits above position 61 fold
back onto the low bits).  Every intermediate stays below ``2^63``, so
the limb arithmetic is exact in ``uint64`` -- the two flavours return
bit-identical values, which the bulk-vs-sequential ingestion tests
assert.

The array flavours are numpy kernels (:mod:`repro.kernels`): callers
here and elsewhere call ``kernels.mulmod_many`` / ``addmod_many`` /
``poly_field_values`` / ``trailing_zeros_many`` through the package
attributes, checked against exact scalar arithmetic by
``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import kernels as _kernels

MERSENNE_P = (1 << 61) - 1


# uint64 view of the prime kept for callers that build field inputs.
_P_U64 = np.uint64(MERSENNE_P)


class KWiseHash:
    """One hash function drawn from a k-wise independent family.

    Parameters
    ----------
    k:
        Independence degree (2 = pairwise, 4 = four-wise).
    range_size:
        Output range ``[0, range_size)``.
    rng:
        Source of randomness for the coefficients; pass a seeded
        ``numpy.random.Generator`` for reproducibility.
    """

    __slots__ = ("k", "range_size", "coeffs", "_coeff_column")

    def __init__(self, k: int, range_size: int, rng: np.random.Generator):
        if k < 1:
            raise ValueError("independence degree k must be >= 1")
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        self.k = k
        self.range_size = range_size
        # Leading coefficient nonzero keeps the polynomial degree exactly
        # k-1 (harmless either way, conventional for the family).
        coeffs = [int(rng.integers(0, MERSENNE_P)) for _ in range(k)]
        if k > 1 and coeffs[-1] == 0:
            coeffs[-1] = 1
        self.coeffs = coeffs
        self._coeff_column = np.array(coeffs, dtype=np.uint64)[:, None]

    @classmethod
    def from_params(cls, range_size: int,
                    coeffs: Sequence[int]) -> "KWiseHash":
        """Rebuild a hash function from its parameters alone.

        The spawn-safe constructor: no ``rng`` is consumed, so an
        unpickled copy given ``(range_size, coeffs)`` reconstructs
        *exactly* the original function (same field polynomial, same range
        reduction).  ``cls`` is preserved, so pickling a
        :class:`PairwiseHash` round-trips to a :class:`PairwiseHash`.
        """
        if range_size < 1:
            raise ValueError("range_size must be >= 1")
        if len(coeffs) < 1:
            raise ValueError("need at least one coefficient")
        self = cls.__new__(cls)
        self.k = len(coeffs)
        self.range_size = range_size
        self.coeffs = [int(c) for c in coeffs]
        self._coeff_column = np.array(self.coeffs, dtype=np.uint64)[:, None]
        return self

    def __reduce__(self):
        return (_rebuild_kwise_hash,
                (type(self), self.range_size, tuple(self.coeffs)))

    def field_value(self, x: int) -> int:
        """The polynomial evaluated in GF(p), before range reduction."""
        acc = 0
        for coeff in reversed(self.coeffs):
            acc = (acc * x + coeff) % MERSENNE_P
        return acc

    def field_value_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`field_value`: ``(e,)`` ints -> uint64 array.

        Inputs are reduced mod p first, so any non-negative integers
        below ``2^63`` are accepted.
        """
        points = np.asarray(xs, dtype=np.int64).astype(np.uint64) % _P_U64
        return _kernels.poly_field_values(self._coeff_column,
                                          points)[:, 0]

    def __call__(self, x: int) -> int:
        return self.field_value(x) % self.range_size

    def hash_many(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`__call__` over an array of non-negative
        integers below ``2^63``: a uint64 array in ``[0, range_size)``."""
        return self.field_value_many(xs) % np.uint64(self.range_size)

    def many(self, xs: Sequence[int]) -> List[int]:
        """Hash a batch of inputs via the vectorized field evaluation.

        Arbitrary Python ints are accepted (they are reduced mod p up
        front); the output matches ``[self(x) for x in xs]`` exactly.
        """
        if len(xs) == 0:
            return []
        reduced = np.array([x % MERSENNE_P for x in xs], dtype=np.int64)
        return self.hash_many(reduced).tolist()


def _rebuild_kwise_hash(cls, range_size: int, coeffs) -> "KWiseHash":
    """Pickle hook for :meth:`KWiseHash.__reduce__` (module-level so the
    reducer pickles by reference under every protocol)."""
    return cls.from_params(range_size, coeffs)


class PairwiseHash(KWiseHash):
    """Pairwise-independent hash: ``h(x) = (a x + b mod p) mod m``."""

    def __init__(self, range_size: int, rng: np.random.Generator):
        super().__init__(2, range_size, rng)


class FourWiseHash(KWiseHash):
    """Four-wise independent hash, used by the matching Tester."""

    def __init__(self, range_size: int, rng: np.random.Generator):
        super().__init__(4, range_size, rng)


def random_field_element(rng: np.random.Generator,
                         nonzero: bool = True) -> int:
    """A uniform element of GF(p), optionally excluding zero.

    Used for fingerprint bases in :mod:`repro.sketch.sparse_recovery`.
    """
    value = int(rng.integers(1 if nonzero else 0, MERSENNE_P))
    return value


def trailing_zeros(x: int, cap: int) -> int:
    """Number of trailing zero bits of ``x``, capped at ``cap``.

    ``trailing_zeros(0, cap) == cap`` by convention -- an all-zero hash
    value lands in the sparsest level.  This turns a uniform hash value
    into a geometric level assignment: ``P[level >= l] = 2^-l``.
    """
    if x == 0:
        return cap
    return min(cap, (x & -x).bit_length() - 1)
