"""1-sparse recovery cells, stacked into the rows of one pool.

The classic building block (paper, Lemma 3.1 via [CJ19]): for a vector
``x`` restricted to some coordinate subset, keep three sums

    W = sum x_i,    S = sum i * x_i,    F = sum x_i * z^i  (mod p)

If the restriction is exactly 1-sparse, then ``i* = S / W`` recovers the
coordinate and the fingerprint test ``F == W * z^{i*}`` confirms it; for
any other vector the test fails except with probability ``<= N/p`` over
the choice of ``z`` (a nonzero polynomial of degree < N has < N roots).

Bulk ingestion layout
---------------------
Logically, cell ``(c, l)`` of an L0-sampler holds the coordinates whose
geometric level in column ``c`` is *at least* ``l`` -- a prefix of the
level axis.  Storing those prefixes directly would force every update
to touch ``levels`` cells per column.  We instead store the
*differential* form ``(Wd, Sd, Fd)``: cell ``(c, lv)`` holds the
contribution of coordinates whose level is *exactly* ``lv``, so an
update touches exactly one cell per column and bulk ingestion becomes a
single scatter.  Queries rebuild the prefix cells with one reverse
cumulative sum per column, which is where the classic triple above
reappears bit for bit.

The stored fingerprint ``Fd`` is the canonical residue in ``[0, p)``,
so a cell is exactly the three words the model charges.  The one
write, the bulk scatter (:func:`repro.kernels.pool_scatter`), first
sums a batch's contributions per cell and then folds them in with one
``(F + v) mod p`` (both terms below ``2^61``, so the sum fits int64).
Residues are unique, so every partition of a batch lands on the same
cell words.  Sums *across* cells -- the level prefixes a query reads, the member rows a group
merge adds -- would overflow int64 on raw residues, so the readers
split ``Fd`` into its 32-bit low and 29-bit high limbs, sum the limbs
exactly, and fold the sums back with :func:`repro.kernels.combine_limbs`
(the ``(4, ...)`` read form ``(W, S, lo, hi)``).

Column invariant
----------------
Every update adds its three quantities to exactly one level of *every*
column (the one its hash picks).  So in every row the level sums of
``W`` and ``S``, and of ``F`` mod p, are the same in every column: they
are the whole vector's ``(W, S, F)`` totals.  Two things follow
exactly, not w.h.p.: the zero test of one column is the zero test of
all of them, and a group query that reads one column needs to merge
only that column of its member rows -- :func:`repro.kernels.merge_groups`
gathers ``(3, levels)`` per member
instead of the full ``(3, columns, levels)`` row, and
:func:`repro.kernels.is_zero_cells` tests the merged column.
``tests/test_column_invariant.py`` checks the invariant over every
write path.

Physically, a :class:`RecoveryPool` is one contiguous ``(count, 3,
columns, levels)`` int64 block of ``(Wd, Sd, Fd)`` rows, and every
sampler of the code base is one of its rows: the graph sketches (one
row per vertex) and the matching sparsifiers' per-pair samplers
(:class:`~repro.sketch.l0_sampler.KeyedSamplers`).  Rows are written by
one bulk scatter and read by the group merge, with no per-row object.
Recovery decodes a whole ``(4, k, levels)`` block of prefix-summed
merged columns in one pass (:func:`repro.kernels.decode_prefix`:
divisibility, range and fingerprint tests on every level at once, the
lowest passing level wins).

Magnitudes: ``|W| <= m``, ``|S| <= levels * m * N`` (< 2^59 for every
configuration we run), ``0 <= Fd < p``.  A limb sum over ``r`` cells is
below ``r * 2^32``, so the level prefix of a merge of up to ``2^25``
rows stays inside int64.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as _kernels


def _suffix_cumsum(arr: np.ndarray) -> np.ndarray:
    """Reverse cumulative sum along the last (level) axis."""
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


class RecoveryPool:
    """The recovery cells of a whole family of sketches.

    Holds ``count`` rows of differential cells as one contiguous
    ``(count, 3, columns, levels)`` block, each row the ``(Wd, Sd,
    Fd)`` cells of one sampler.  There is no per-row object:
    :meth:`apply_points` updates *many rows with one scatter*, which is
    what makes batch ingestion independent of the Python-level per-edge
    dispatch cost, and the group reads
    (:func:`repro.kernels.merge_groups`) sum member rows straight from
    :attr:`cells`.
    """

    __slots__ = ("count", "columns", "levels", "cells", "_flat")

    def __init__(self, count: int, columns: int, levels: int):
        if count < 1:
            raise ValueError("need at least one slot")
        if columns < 1 or levels < 1:
            raise ValueError("need at least one column and one level")
        self.count = count
        self.columns = columns
        self.levels = levels
        self.cells = np.zeros((count, 3, columns, levels), dtype=np.int64)
        self._flat = self.cells.reshape(-1)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle as pure values: a private copy of the cell block.  The
        flat view is a reconstruction artifact."""
        return (self.count, self.columns, self.levels,
                np.asarray(self.cells).copy())

    def __setstate__(self, state) -> None:
        count, columns, levels, cells = state
        self.__init__(count, columns, levels)
        self.cells[...] = cells

    # ------------------------------------------------------------------
    def apply_points(self, slots: np.ndarray, col_levels: np.ndarray,
                     idxs: np.ndarray, deltas: np.ndarray,
                     zpows: np.ndarray) -> None:
        """Scatter many (slot, coordinate, delta) updates at once.

        ``slots``, ``idxs``, ``deltas``, ``zpows`` have shape ``(e,)``
        and ``col_levels`` has shape ``(e, columns)``.  Duplicate
        (slot, cell) targets accumulate correctly (the kernel sums them
        per cell before its one write), so the result is bit-identical
        to applying the points one at a time, in any order.
        """
        if slots.shape[0] == 0:
            return
        _kernels.pool_scatter(self._flat, self.columns, self.levels,
                              slots, col_levels, idxs, deltas, zpows)

    @property
    def words(self) -> int:
        """Accounting footprint: three words per cell, exactly the
        stored ``(Wd, Sd, Fd)`` block."""
        return 3 * self.count * self.columns * self.levels
