"""L0-samplers over an arbitrary coordinate universe (Lemma 3.1, [CJ19]).

An :class:`L0Sampler` receives ``+-1`` updates to a vector ``x`` over
``[universe]`` and, on query, returns some coordinate of the current
support (or ``None`` for the zero vector / the small failure event).
It is *linear*: adding two samplers' states gives a sampler for the sum
of their vectors (Remark 3.2) -- the property every algorithm in the
paper leans on; for the graph sketches that addition is
:func:`repro.kernels.merge_groups` over pool rows.

Construction: ``columns`` independent repetitions; in each column a
pairwise-independent hash assigns every coordinate a geometric level
(``P[level >= l] = 2^-l``) and a 1-sparse recovery cell is kept per
level prefix.  A query scans the cells for one that passes the
fingerprint test.  Each column succeeds with constant probability on a
nonzero vector, so ``columns = O(log(1/delta))`` boosts to ``1 - delta``.

Bulk ingestion: :meth:`L0Sampler.update_many` ingests a whole batch of
coordinate updates with array-level hashing (`levels_of_many`,
`zpow_many`) and one cell scatter (``kernels.pool_scatter``) --
bit-identical to a loop of :meth:`L0Sampler.update` calls, minus the
per-update Python dispatch.

Bulk queries mirror it on the way out: :meth:`L0Sampler.sample_columns`
decodes many columns of one sampler in a single pass, and the
cell-block core :func:`query_cells` answers a whole stack of merged
membership groups (:func:`repro.kernels.merge_groups`) at once -- the
shape the AGM halving iterations consume (one column across all live
supernodes per iteration) and the only bulk query the execution
backends route.  The scalar methods (:meth:`L0Sampler.update`,
:meth:`~L0Sampler.sample_column`, :meth:`~L0Sampler.is_zero`) stay as
the size-1 production shortcut and as the reference the bulk paths are
tested against: a standalone sampler holding the exact sum of a
group's pool rows answers what the group route must answer.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro import kernels as _kernels
from repro.sketch.hashing import (
    LRUMemo,
    MERSENNE_P,
    PairwiseHash,
    random_field_element,
    trailing_zeros,
)
from repro.sketch.sparse_recovery import RecoveryMatrix, _suffix_cumsum

#: Cap on the per-coordinate memo caches of :class:`SamplerRandomness`.
#: The caches only help when the stream revisits coordinates
#: (insert/delete churn); bounding them turns an unbounded slow leak on
#: long streams into a fixed O(1) footprint.  Eviction is
#: least-recently-used (:class:`~repro.sketch.hashing.LRUMemo`), so a
#: hot coordinate re-queried through capacity churn stays memoized.
CACHE_LIMIT = 1 << 16


def levels_for_universe(universe: int) -> int:
    """Number of geometric levels: ``ceil(log2 universe) + 2``."""
    if universe < 1:
        raise ValueError("universe must contain at least one coordinate")
    return max(2, math.ceil(math.log2(max(2, universe))) + 2)


class SamplerRandomness:
    """Shared randomness for a *family* of mergeable samplers.

    Two samplers can only be merged when they were built from the same
    randomness (same level hashes, same fingerprint base), so the
    algorithms create one :class:`SamplerRandomness` per logical vector
    family and derive all samplers from it.

    Scalar lookups (:meth:`levels_of`, :meth:`zpow`) memoize per
    coordinate in bounded LRU caches
    (:class:`~repro.sketch.hashing.LRUMemo`); the array flavours
    (:meth:`levels_of_many`, :meth:`zpow_many`) recompute vectorized --
    for a batch, the array path is far cheaper than filling the caches.
    """

    def __init__(self, universe: int, columns: int,
                 rng: np.random.Generator):
        if columns < 1:
            raise ValueError("need at least one column")
        level_range = 1 << levels_for_universe(universe)
        hashes = [PairwiseHash(level_range, rng) for _ in range(columns)]
        self._init_state(universe, columns, hashes,
                         random_field_element(rng))

    def _init_state(self, universe: int, columns: int,
                    hashes: "List[PairwiseHash]", z: int) -> None:
        """Shared tail of ``__init__`` and :meth:`from_params`: derive
        every cached structure from the defining ``(universe, columns,
        hashes, z)`` parameters, drawing no randomness."""
        self.universe = universe
        self.columns = columns
        self.levels = levels_for_universe(universe)
        self._level_range = 1 << self.levels
        self.level_hashes: List[PairwiseHash] = hashes
        self.z = z
        self._zpow_cache = LRUMemo(CACHE_LIMIT)
        self._levels_cache = LRUMemo(CACHE_LIMIT)
        # Stacked coefficients of the per-column pairwise hashes:
        # row j holds coefficient a_j of every column's polynomial.
        self._coeff_matrix = np.array(
            [[h.coeffs[j] for h in self.level_hashes] for j in range(2)],
            dtype=np.uint64,
        )
        self._range_mask = np.uint64(self._level_range - 1)

    # -- spawn-safe reconstruction --------------------------------------
    def params(self) -> tuple:
        """The defining parameters: ``(universe, columns, z, coeffs)``.

        Everything else (caches, coefficient matrix, power ladder) is
        derived; two instances with equal params behave identically on
        every input.
        """
        return (
            self.universe,
            self.columns,
            self.z,
            tuple(tuple(h.coeffs) for h in self.level_hashes),
        )

    @classmethod
    def from_params(cls, universe: int, columns: int, z: int,
                    level_coeffs) -> "SamplerRandomness":
        """Rebuild identical randomness from :meth:`params` alone.

        The spawn-safe constructor unpickling uses (checkpoints): no
        ``rng`` is consumed and no caches are shipped, yet the rebuilt
        instance hashes, levels, and fingerprints exactly like the
        original -- the contract a restored session's bit-identical
        continuation rests on.
        """
        if columns < 1 or len(level_coeffs) != columns:
            raise ValueError("level_coeffs must supply one coefficient "
                             "pair per column")
        level_range = 1 << levels_for_universe(universe)
        hashes = [PairwiseHash.from_params(level_range, coeffs)
                  for coeffs in level_coeffs]
        self = cls.__new__(cls)
        self._init_state(universe, columns, hashes, int(z))
        return self

    def __reduce__(self):
        return (_randomness_from_params, self.params())

    def levels_of(self, idx: int) -> np.ndarray:
        """Per-column top level of coordinate ``idx`` (cached)."""
        cached = self._levels_cache.get(idx)
        if cached is not None:
            return cached
        out = np.fromiter(
            (
                trailing_zeros(h(idx), self.levels - 1)
                for h in self.level_hashes
            ),
            dtype=np.int64,
            count=self.columns,
        )
        self._levels_cache.put(idx, out)
        return out

    def levels_of_many(self, idxs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`levels_of`: ``(e,)`` -> ``(e, columns)``.

        Evaluates every column's pairwise hash on the whole batch with
        the limb-arithmetic field evaluation; bit-identical to the
        scalar path.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return np.empty((0, self.columns), dtype=np.int64)
        points = idxs.astype(np.uint64)
        values = _kernels.poly_field_values(self._coeff_matrix, points)
        values &= self._range_mask
        return _kernels.trailing_zeros_many(values, self.levels - 1)

    def zpow(self, idx: int) -> int:
        """``z^idx mod p`` (cached; edges repeat across insert/delete)."""
        cached = self._zpow_cache.get(idx)
        if cached is not None:
            return cached
        value = pow(self.z, idx, MERSENNE_P)
        self._zpow_cache.put(idx, value)
        return value

    def zpow_many(self, idxs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`zpow`: kernel binary exponentiation.

        Returns int64 values in ``[0, p)``, bit-identical to
        ``pow(z, idx, p)`` (canonical residues are unique).
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        return _kernels.powmod_many(idxs.astype(np.uint64), self.z)

    def fingerprint_ok(self, idx: int, w: int, f: int) -> bool:
        """Verify ``F == W * z^idx`` and the level membership of ``idx``."""
        return (w % MERSENNE_P) * self.zpow(idx) % MERSENNE_P == f


def _randomness_from_params(universe, columns, z,
                            level_coeffs) -> SamplerRandomness:
    """Pickle hook for :meth:`SamplerRandomness.__reduce__` (module-level
    so the reducer pickles by reference under every protocol)."""
    return SamplerRandomness.from_params(universe, columns, z,
                                         level_coeffs)


# ---------------------------------------------------------------------------
# Cell-block query core
# ---------------------------------------------------------------------------
# Operates on a ``(k, 4, levels)`` stack of single merged columns in the
# limb read form ``(W, S, lo, hi)`` of
# :mod:`repro.sketch.sparse_recovery`: the op table of
# :mod:`repro.mpc.backend` calls it on the output of
# :func:`repro.kernels.merge_groups` -- one definition, so every route
# answers bit-identically.

def query_cells(merged: np.ndarray, randomness: SamplerRandomness
                ) -> "tuple[np.ndarray, np.ndarray]":
    """Fused zero test + recovery over a stack of merged columns.

    Row ``i`` is one column of one group's merged sketch.  By the
    column invariant (:mod:`repro.sketch.sparse_recovery`) its level
    sums are the whole vector's totals, so the zero test on that one
    column is the all-columns test, exactly.  Returns ``(zeros,
    found)``; only the non-zero rows pay for recovery, and ``found``
    is ``-1`` for zero rows and failed recovery alike.
    """
    k = merged.shape[0]
    zeros = _kernels.is_zero_cells(merged)
    found = np.full(k, -1, dtype=np.int64)
    live = np.flatnonzero(~zeros)
    if live.size:
        found[live] = _kernels.decode_prefix(
            _suffix_cumsum(merged[live]).transpose(1, 0, 2),
            randomness.universe, randomness.z
        )
    return zeros, found


def update_grouped(samplers, randomness: SamplerRandomness,
                   entries) -> None:
    """Group ``(key, idx, delta)`` entries by key and bulk-update each
    key's sampler, creating missing samplers from ``randomness``.

    The marshalling shared by the matching sparsifiers: ``samplers``
    is a dict the caller owns; per-key update order follows the entry
    order, so the result is bit-identical to a scalar update loop.
    """
    per_key: dict = {}
    for key, idx, delta in entries:
        per_key.setdefault(key, []).append((idx, delta))
    for key, pairs in per_key.items():
        sampler = samplers.get(key)
        if sampler is None:
            sampler = L0Sampler(randomness)
            samplers[key] = sampler
        count = len(pairs)
        sampler.update_many(
            np.fromiter((idx for idx, _ in pairs), dtype=np.int64,
                        count=count),
            np.fromiter((delta for _, delta in pairs), dtype=np.int64,
                        count=count),
        )


class L0Sampler:
    """A linear L0-sampler for one vector.

    Use :meth:`update` / :meth:`update_many` during the stream,
    :meth:`sample` on query.  ``sample`` returns ``None`` both for the
    zero vector and on the (rare) per-column failures; :meth:`is_zero`
    separates the two cases up to the fingerprint's negligible
    false-zero probability.
    """

    __slots__ = ("randomness", "matrix")

    def __init__(self, randomness: SamplerRandomness):
        self.randomness = randomness
        self.matrix = RecoveryMatrix(randomness.columns, randomness.levels)

    # ------------------------------------------------------------------
    def update(self, idx: int, delta: int) -> None:
        """Add ``delta`` (usually +-1) at coordinate ``idx``."""
        if not 0 <= idx < self.randomness.universe:
            raise ValueError(
                f"coordinate {idx} outside universe "
                f"[0, {self.randomness.universe})"
            )
        if delta == 0:
            return
        self.matrix.apply(
            self.randomness.levels_of(idx), idx, delta,
            self.randomness.zpow(idx),
        )

    def update_many(self, idxs: np.ndarray, deltas: np.ndarray) -> None:
        """Add many ``(idx, delta)`` updates with vectorized hashing.

        Bit-identical to ``for idx, delta in zip(idxs, deltas):
        self.update(idx, delta)`` -- same recovery state, same samples
        -- but the hashing, the ``z^idx`` powers, and the cell scatter
        all run as single array operations.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if idxs.shape != deltas.shape:
            raise ValueError("idxs and deltas must have the same shape")
        if idxs.size == 0:
            return
        if (int(idxs.min()) < 0
                or int(idxs.max()) >= self.randomness.universe):
            raise ValueError(
                f"coordinate outside universe "
                f"[0, {self.randomness.universe})"
            )
        live = deltas != 0
        if not live.all():
            idxs = idxs[live]
            deltas = deltas[live]
            if idxs.size == 0:
                return
        if idxs.size == 1:
            # Tiny batches are cheaper through the memoized scalar path.
            self.update(int(idxs[0]), int(deltas[0]))
            return
        self.matrix.apply_many(
            self.randomness.levels_of_many(idxs), idxs, deltas,
            self.randomness.zpow_many(idxs),
        )

    # ------------------------------------------------------------------
    def sample_column(self, col: int) -> Optional[int]:
        """Recover a support coordinate from one column, or ``None``."""
        return self.matrix.recover(
            col, self.randomness.universe, self.randomness.fingerprint_ok
        )

    def sample_columns(self, cols: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`sample_column` over many columns.

        One cumulative sum + decode pass covers every requested column
        (in the given order, repeats allowed); ``-1`` stands in for
        ``None``.  Bit-identical to the scalar scan per column.
        """
        return self.matrix.recover_many(
            cols, self.randomness.universe, self.randomness.z
        )

    def sample(self, start_column: int = 0) -> Optional[int]:
        """Try every column (starting from ``start_column``) in turn.

        All columns are decoded in one vectorized pass; the answer is
        the first succeeding column in rotation order, exactly as the
        scalar loop would return it.
        """
        columns = self.randomness.columns
        order = (start_column + np.arange(columns, dtype=np.int64)) \
            % columns
        found = self.sample_columns(order)
        hits = np.flatnonzero(found >= 0)
        if hits.size == 0:
            return None
        return int(found[hits[0]])

    def is_zero(self) -> bool:
        """True iff the sketched vector is zero (w.h.p.).

        Tests column 0's level-0 prefix: every column holds the same
        ``(W, S, F)`` totals (the column invariant of
        :mod:`repro.sketch.sparse_recovery`), so one column answers for
        all of them, with false-zero probability ``< N/p``.
        """
        return self.matrix.column_is_zero(0)

    @property
    def words(self) -> int:
        return self.matrix.words
