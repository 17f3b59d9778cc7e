"""L0-samplers over an arbitrary coordinate universe (Lemma 3.1, [CJ19]).

An L0-sampler receives ``+-1`` updates to a vector ``x`` over
``[universe]`` and, on query, returns some coordinate of the current
support (or nothing for the zero vector / the small failure event).
It is *linear*: adding two samplers' states gives a sampler for the sum
of their vectors (Remark 3.2) -- the property every algorithm in the
paper leans on.

Construction: ``columns`` independent repetitions; in each column a
pairwise-independent hash assigns every coordinate a geometric level
(``P[level >= l] = 2^-l``) and a 1-sparse recovery cell is kept per
level prefix.  A query scans the cells for one that passes the
fingerprint test.  Each column succeeds with constant probability on a
nonzero vector, so ``columns = O(log(1/delta))`` boosts to ``1 - delta``.

One representation: a sampler is a row of a
:class:`~repro.sketch.sparse_recovery.RecoveryPool`, and there is no
per-sampler object.  :class:`SamplerRandomness` hashes a whole batch
of coordinates at once (``levels_of_many``, ``zpow_many``) for one
``kernels.pool_scatter``; every read sums one column of some rows with
:func:`repro.kernels.merge_groups` and answers the merged stack with
:func:`query_cells`.  The graph sketches use one row per vertex and
read merged supernodes (:mod:`repro.sketch.graph_sketch`); the
matching sparsifiers use :class:`KeyedSamplers`, one row per touched
group pair, read as singleton groups over every column.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Sequence

import numpy as np

from repro import kernels as _kernels
from repro.sketch.hashing import PairwiseHash, random_field_element
from repro.sketch.sparse_recovery import RecoveryPool, _suffix_cumsum


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

        Everything else (the coefficient matrix, the level range) is
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
        ``rng`` is consumed and nothing derived is shipped, yet the rebuilt
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

    def levels_of_many(self, idxs: np.ndarray) -> np.ndarray:
        """Per-column top level of every coordinate: ``(e,)`` ->
        ``(e, columns)``.

        Evaluates every column's pairwise hash on the whole batch with
        the limb-arithmetic field evaluation; the level is the trailing
        zero count of the hash value, capped at ``levels - 1``.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        if idxs.size == 0:
            return np.empty((0, self.columns), dtype=np.int64)
        points = idxs.astype(np.uint64)
        values = _kernels.poly_field_values(self._coeff_matrix, points)
        values &= self._range_mask
        return _kernels.trailing_zeros_many(values, self.levels - 1)

    def zpow_many(self, idxs: np.ndarray) -> np.ndarray:
        """``z^idx mod p`` of every coordinate: kernel binary
        exponentiation.

        Returns int64 values in ``[0, p)``, bit-identical to
        ``pow(z, idx, p)`` (canonical residues are unique).
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        return _kernels.powmod_many(idxs.astype(np.uint64), self.z)


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
# :mod:`repro.mpc.backend` and :meth:`KeyedSamplers.sample` call it on
# the output of :func:`repro.kernels.merge_groups` -- one definition, so
# every route answers bit-identically.

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


class KeyedSamplers:
    """Linear L0-samplers keyed by hashable keys, one pool row each.

    A key gets the next row of :attr:`pool` the first time
    :meth:`update` names it; a key never updated has no row (it would
    be the zero vector).  The pool grows geometrically: a full pool is
    replaced by one at least twice as large holding a copy of the old
    rows.
    """

    def __init__(self, randomness: SamplerRandomness):
        self.randomness = randomness
        self.rows: Dict[Hashable, int] = {}
        self.pool = RecoveryPool(1, randomness.columns, randomness.levels)

    def update(self, keys: Sequence[Hashable], idxs: np.ndarray,
               deltas: np.ndarray) -> None:
        """Add ``deltas[i]`` at coordinate ``idxs[i]`` of the vector of
        ``keys[i]``: one level hash, one ``z^idx`` power and one scatter
        for the whole batch, whatever its key mix."""
        idxs = np.asarray(idxs, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if idxs.shape != deltas.shape or len(keys) != idxs.size:
            raise ValueError("keys, idxs and deltas must have one entry "
                             "per update")
        if idxs.size == 0:
            return
        rnd = self.randomness
        if int(idxs.min()) < 0 or int(idxs.max()) >= rnd.universe:
            raise ValueError(
                f"coordinate outside universe [0, {rnd.universe})")
        rows = self.rows
        slots = np.fromiter((rows.setdefault(key, len(rows))
                             for key in keys),
                            dtype=np.int64, count=idxs.size)
        if len(rows) > self.pool.count:
            grown = RecoveryPool(max(len(rows), 2 * self.pool.count),
                                 rnd.columns, rnd.levels)
            grown.cells[:self.pool.count] = self.pool.cells
            self.pool = grown
        self.pool.apply_points(slots, rnd.levels_of_many(idxs), idxs,
                               deltas, rnd.zpow_many(idxs))

    def sample(self, keys: Sequence[Hashable]) -> np.ndarray:
        """One sampled coordinate per key, ``-1`` where none is found.

        Every column of every key's row is read as a singleton group
        (the connectivity group route: ``merge_groups`` then
        :func:`query_cells`), and a key's answer is its first column,
        counting up from 0, that recovers a coordinate -- ``-1`` for
        the zero vector and when every column fails.
        """
        rows = np.fromiter((self.rows[key] for key in keys),
                           dtype=np.int64, count=len(keys))
        r, c = rows.size, self.randomness.columns
        merged = _kernels.merge_groups(
            self.pool.cells, np.repeat(rows, c),
            np.ones(r * c, dtype=np.int64),
            np.tile(np.arange(c, dtype=np.int64), r))
        found = query_cells(merged, self.randomness)[1].reshape(r, c)
        return found[np.arange(r), (found >= 0).argmax(axis=1)]
