"""1-sparse recovery cells, stacked into (columns x levels) matrices.

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
so a cell is exactly the three words the model charges.  Every write
adds mod p: a scalar update does one ``(F + v) mod p`` per cell (both
terms are below ``2^61``, so the sum fits int64), and the bulk scatter
(:func:`repro.kernels.pool_scatter`) first sums a batch's contributions
per cell and then folds them in with one such add.  Residues are
unique, so every write path and every partition of a batch lands on
the same cell words.  Sums *across*
cells -- the level prefixes a query reads, the member rows a group
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

Physically, a :class:`RecoveryMatrix` is a single ``(3, columns,
levels)`` int64 block holding ``(Wd, Sd, Fd)`` -- a whole update is then
*one* scatter into the flattened block.  A :class:`RecoveryPool` is the
same layout for ``count`` rows, ``(count, 3, columns, levels)``: the
graph sketches live there, one row per vertex, written by one bulk
scatter and read by the group merge, with no per-row object.

Bulk recovery mirrors bulk ingestion: :func:`repro.kernels.decode_prefix`
decodes a whole ``(4, k, levels)`` block of prefix-summed columns in
the read form in one pass (divisibility, range, and fingerprint tests
on every level at once, lowest passing level wins -- the scan order of
:meth:`RecoveryMatrix.recover`), and :meth:`RecoveryMatrix.recover_many`
feeds it -- bit-identical to the scalar scan (:meth:`RecoveryMatrix.
recover`, the reference the tests compare against), minus the
per-level Python dispatch.

Magnitudes: ``|W| <= m``, ``|S| <= levels * m * N`` (< 2^59 for every
configuration we run), ``0 <= Fd < p``.  A limb sum over ``r`` cells is
below ``r * 2^32``, so the level prefix of a merge of up to ``2^25``
rows stays inside int64.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import kernels as _kernels
from repro.sketch.hashing import MERSENNE_P

_MASK32 = (1 << 32) - 1

#: Rows of the stacked cell block.
_QW, _QS, _QF = 0, 1, 2


def _suffix_cumsum(arr: np.ndarray) -> np.ndarray:
    """Reverse cumulative sum along the last (level) axis."""
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


def _limb_form(block: np.ndarray) -> np.ndarray:
    """The ``(4, ...)`` read form ``(W, S, lo, hi)`` of a ``(3, ...)``
    cell block: ``Fd`` split into the 32-bit low and 29-bit high limbs
    that sum across cells without overflow."""
    f = block[_QF]
    return np.stack((block[_QW], block[_QS], f & _MASK32, f >> 32))


class RecoveryMatrix:
    """A (columns x levels) grid of 1-sparse recovery cells.

    The grid is updated by :meth:`apply` / :meth:`apply_many`: adding
    ``delta`` at coordinate ``idx`` touches the cell at ``idx``'s exact
    level in every column (differential storage, see module docstring);
    the level of ``idx`` in column ``c`` is ``col_levels[c]``, decided
    by the owner's hash functions.

    A matrix owns its cell block: it is the state of one standalone
    :class:`~repro.sketch.l0_sampler.L0Sampler`.  Graph sketches do not
    use it -- they are rows of a :class:`RecoveryPool`.
    """

    __slots__ = ("columns", "levels", "cells", "_cell_base", "_q_offsets",
                 "_flat_cells", "_scratch_vals")

    def __init__(self, columns: int, levels: int):
        if columns < 1 or levels < 1:
            raise ValueError("need at least one column and one level")
        self.columns = columns
        self.levels = levels
        self.cells = np.zeros((3, columns, levels), dtype=np.int64)
        self._cell_base = np.arange(columns, dtype=np.int64) * levels
        self._q_offsets = (np.arange(3, dtype=np.int64)
                           * (columns * levels))[:, None]
        self._flat_cells = self.cells.reshape(-1)
        self._scratch_vals = np.empty((3, columns), dtype=np.int64)

    # ------------------------------------------------------------------
    # Updates (linear operations)
    # ------------------------------------------------------------------
    def apply(self, col_levels: np.ndarray, idx: int, delta: int,
              zpow: int) -> None:
        """Add ``delta`` at coordinate ``idx``.

        ``col_levels`` is the per-column top level of ``idx`` (shape
        ``(columns,)``); ``zpow`` is ``z^idx mod p``.  One gather and
        one scatter over the stacked cell block cover all three
        quantities, with one ``(F + v) mod p`` per fingerprint cell.
        """
        flat = (self._q_offsets + (self._cell_base + col_levels)).ravel()
        values = self._scratch_vals
        values[_QW] = delta
        values[_QS] = delta * idx
        values[_QF] = int(delta) * int(zpow) % MERSENNE_P
        values += self._flat_cells[flat].reshape(values.shape)
        values[_QF] %= MERSENNE_P
        self._flat_cells[flat] = values.ravel()

    def apply_many(self, col_levels: np.ndarray, idxs: np.ndarray,
                   deltas: np.ndarray, zpows: np.ndarray) -> None:
        """Add many coordinates at once: one scatter for everything.

        ``col_levels`` has shape ``(e, columns)``; ``idxs``, ``deltas``
        and ``zpows`` have shape ``(e,)`` (all int64, ``zpows`` in
        ``[0, p)``).  Exactly equivalent to ``e`` :meth:`apply` calls --
        the scatter targets the same cells, and residues are unique --
        just without the per-edge Python dispatch.
        """
        e = idxs.shape[0]
        if e == 0:
            return
        # A standalone matrix is a 1-slot pool: the shared scatter
        # kernel with every point targeting slot 0 hits exactly the
        # cells a dedicated scatter would, with one source of truth.
        _kernels.pool_scatter(self._flat_cells, self.columns,
                              self.levels,
                              np.zeros(e, dtype=np.int64), col_levels,
                              idxs, deltas, zpows)

    def __reduce__(self):
        """Checkpoint-safe pickling (see :mod:`repro.session`): the
        cell block is pickled once and the flat alias rebuilt, so a
        restored matrix writes through to its own cells."""
        return (
            _restore_standalone_matrix,
            (self.columns, self.levels, np.asarray(self.cells)),
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def column_is_zero(self, col: int) -> bool:
        """True iff column ``col`` looks like the zero vector.

        Checked on the level-0 prefix, which contains every coordinate;
        the fingerprint makes a false zero require ``F = 0`` for a
        nonzero polynomial evaluation (probability ``< N/p``).
        """
        w, s, f = self.cells[:, col, :]
        if int(w.sum()) != 0 or int(s.sum()) != 0:
            return False
        return sum(f.tolist()) % MERSENNE_P == 0

    def recover(
        self,
        col: int,
        max_index: int,
        fingerprint_ok: Callable[[int, int, int], bool],
    ) -> Optional[int]:
        """Try to recover a coordinate from column ``col``.

        Scans the levels and returns the first coordinate whose cell
        passes the divisibility, range, and fingerprint tests; ``None``
        if every level rejects (the sampler's ``bottom`` outcome).
        """
        W_col, S_col = _suffix_cumsum(self.cells[:2, col, :])
        f_col = self.cells[_QF, col].tolist()
        for level in range(self.levels):
            w = int(W_col[level])
            if w == 0:
                continue
            s = int(S_col[level])
            if s % w != 0:
                continue
            idx = s // w
            if not 0 <= idx < max_index:
                continue
            fingerprint = sum(f_col[level:]) % MERSENNE_P
            if fingerprint_ok(idx, w, fingerprint):
                return idx
        return None

    def recover_many(self, cols: np.ndarray, max_index: int,
                     z: int) -> np.ndarray:
        """Vectorized :meth:`recover` over many columns of this matrix.

        Materializes the requested columns' level prefixes with one
        cumulative sum and decodes them together
        (:func:`repro.kernels.decode_prefix`).  ``cols`` may repeat and
        appear in any order; the result's entry ``i`` equals
        ``self.recover(cols[i], ...)`` with ``-1`` standing in for
        ``None``; ``z`` is the fingerprint base the scalar callback
        closes over.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size == 0:
            return np.empty(0, dtype=np.int64)
        prefix = _suffix_cumsum(_limb_form(self.cells[:, cols, :]))
        return _kernels.decode_prefix(prefix, max_index, int(z))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def words(self) -> int:
        """Accounting footprint: three words per cell, exactly the
        stored ``(Wd, Sd, Fd)`` block."""
        return 3 * self.columns * self.levels


def _restore_standalone_matrix(columns: int, levels: int,
                               cells: np.ndarray) -> RecoveryMatrix:
    """Pickle hook for standalone :class:`RecoveryMatrix` instances."""
    matrix = RecoveryMatrix(columns, levels)
    matrix.cells[...] = cells
    return matrix


class RecoveryPool:
    """The recovery cells of a whole family of sketches.

    Holds ``count`` rows of differential cells as one contiguous
    ``(count, 3, columns, levels)`` block, each row laid out like a
    :class:`RecoveryMatrix`.  There is no per-row object:
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

    def adopt_buffer(self, cells: np.ndarray) -> None:
        """Move this pool's cells into an externally owned buffer.

        The execution backends use this to place the cell block in
        ``multiprocessing.shared_memory`` so worker processes can
        scatter into their row shards directly.  Current contents are
        preserved.
        """
        if cells.shape != self.cells.shape or cells.dtype != np.int64:
            raise ValueError(
                f"buffer of shape {cells.shape} / {cells.dtype} cannot "
                f"back a pool of shape {self.cells.shape} int64"
            )
        cells[...] = self.cells
        self.cells = cells
        self._flat = cells.reshape(-1)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle as pure values: a private copy of the cell block.  The
        flat view and any shared-memory placement are reconstruction
        artifacts -- a restored pool always starts with a private
        buffer and is moved back into shared memory by the backend
        re-attach, if any."""
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
        """Accounting footprint: three words per cell, as for a
        :class:`RecoveryMatrix`."""
        return 3 * self.count * self.columns * self.levels
