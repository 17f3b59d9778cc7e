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
*differential* form: :attr:`RecoveryMatrix.Wd` ``[c, lv]`` holds the
contribution of coordinates whose level is *exactly* ``lv``, so an
update touches exactly one cell per column and bulk ingestion becomes a
single scatter-add.  Queries rebuild the prefix cells with one reverse
cumulative sum per column (the materialized :attr:`W` / :attr:`S` /
:attr:`F` views), which is where the classic triple above reappears bit
for bit.

The fingerprint needs mod-p sums, but a scatter-add cannot reduce mod p
on the fly without risking int64 overflow.  So ``F`` is stored as two
*limb* accumulators, plain int64 sums with no reduction:

    Flo = sum x_i * (z^i mod p & (2^32-1)),   Fhi = sum x_i * (z^i >> 32)

and ``F = (Flo + 2^32 * Fhi) mod p`` is recomputed on read.  Both limbs
stay linear, so merges remain plain additions.  A mass counter bounds
``|Flo| <= mass * 2^32``; once the mass reaches ``2^24`` the limbs are
*renormalized* (fold to the canonical residue, re-split), keeping every
intermediate -- including the query-time cumulative sums over at most 64
levels -- below ``2^63``.  Renormalization preserves the represented
value exactly, so the sequential and bulk paths stay bit-identical.

Physically, one matrix is a single ``(4, columns, levels)`` int64 block
holding ``(Wd, Sd, Flo, Fhi)`` -- a whole update is then *one* scatter
into the flattened block, and a merge is one array addition.  A
:class:`RecoveryPool` stacks many matrices into a ``(count, 4, columns,
levels)`` block so the family-level bulk router can ingest a batch for
every vertex at once.

Bulk recovery mirrors bulk ingestion: :func:`repro.kernels.decode_prefix`
decodes a whole ``(4, k, levels)`` block of prefix-summed columns in
one pass (divisibility, range, and limb-combined fingerprint tests on
every level at once, lowest passing level wins -- the scan order of
:meth:`RecoveryMatrix.recover`), and :meth:`RecoveryMatrix.recover_many`
/ ``column_is_zero_many`` feed it -- bit-identical to the scalar scans
(:meth:`RecoveryMatrix.recover` / ``column_is_zero``, the reference the
tests compare against), minus the per-level Python dispatch.

Magnitudes: ``|W| <= m``, ``|S| <= levels * m * N`` (< 2^59 for every
configuration we run), limbs as above.
"""

from __future__ import annotations

import weakref
from typing import Callable, List, Optional

import numpy as np

from repro import kernels as _kernels
from repro.errors import SketchError
from repro.sketch.hashing import MERSENNE_P

#: Renormalize the fingerprint limbs once this much absolute update
#: mass (sum of |delta|) has accumulated.  2^24 keeps the level-axis
#: cumulative sums exact in int64 with a wide margin (see module doc).
RENORM_MASS = 1 << 24

_MASK32 = (1 << 32) - 1
_MASK29 = (1 << 29) - 1

#: Rows of the stacked cell block.
_QW, _QS, _QLO, _QHI = 0, 1, 2, 3


def _combine_limb_scalars(lo: int, hi: int) -> int:
    """``(lo + 2^32 * hi) mod p`` for Python-int limbs (exact bigints)."""
    return (lo + (hi << 32)) % MERSENNE_P


def _renormalize_limbs(Flo: np.ndarray, Fhi: np.ndarray) -> None:
    """Fold the limbs to the canonical residue and re-split in place.

    Afterwards ``0 <= Flo < 2^32`` and ``0 <= Fhi < 2^29`` (mass 1)
    while the represented value ``(Flo + 2^32*Fhi) mod p`` is unchanged.
    """
    value = _kernels.combine_limbs(Flo, Fhi)
    Flo[...] = value & _MASK32
    Fhi[...] = value >> 32


def _suffix_cumsum(arr: np.ndarray) -> np.ndarray:
    """Reverse cumulative sum along the last (level) axis."""
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


class RecoveryMatrix:
    """A (columns x levels) grid of 1-sparse recovery cells.

    The grid is updated by :meth:`apply` / :meth:`apply_many`: adding
    ``delta`` at coordinate ``idx`` touches the cell at ``idx``'s exact
    level in every column (differential storage, see module docstring);
    the level of ``idx`` in column ``c`` is ``col_levels[c]``, decided
    by the owner's hash functions.

    A matrix either owns its cell block or is a view into a
    :class:`RecoveryPool` row (the per-vertex sketches of one
    :class:`~repro.sketch.graph_sketch.SketchFamily` share a pool so the
    bulk router can update all of them with one scatter).
    """

    __slots__ = ("columns", "levels", "cells", "_f_mass", "_pool",
                 "_pool_slot", "_cell_base", "_q_offsets", "_flat_cells",
                 "_scratch_vals", "__weakref__")

    def __init__(self, columns: int, levels: int):
        if columns < 1 or levels < 1:
            raise ValueError("need at least one column and one level")
        self.columns = columns
        self.levels = levels
        self.cells = np.zeros((4, columns, levels), dtype=np.int64)
        self._f_mass = 0
        self._pool: Optional["RecoveryPool"] = None
        self._pool_slot = -1
        self._cell_base = np.arange(columns, dtype=np.int64) * levels
        self._q_offsets = (np.arange(4, dtype=np.int64)
                           * (columns * levels))[:, None]
        self._flat_cells = self.cells.reshape(-1)
        self._scratch_vals = np.empty((4, columns), dtype=np.int64)

    def _rebind_cells(self, cells: np.ndarray) -> None:
        """Point this matrix at a different cell block (pool view/copy)."""
        self.cells = cells
        self._flat_cells = cells.reshape(-1)

    # -- stacked-block accessors ----------------------------------------
    @property
    def Wd(self) -> np.ndarray:
        """Differential counts: cell ``(c, lv)`` sums exact level lv."""
        return self.cells[_QW]

    @property
    def Sd(self) -> np.ndarray:
        """Differential index-sums (see :attr:`Wd`)."""
        return self.cells[_QS]

    @property
    def Flo(self) -> np.ndarray:
        """Low fingerprint limb (see module docstring)."""
        return self.cells[_QLO]

    @property
    def Fhi(self) -> np.ndarray:
        """High fingerprint limb (see module docstring)."""
        return self.cells[_QHI]

    # ------------------------------------------------------------------
    # Mass bookkeeping (fingerprint-limb overflow control)
    # ------------------------------------------------------------------
    @property
    def _mass(self) -> int:
        if self._pool is not None:
            return int(self._pool.row_mass[self._pool_slot])
        return self._f_mass

    def _bump_mass(self, amount: int) -> None:
        if self._pool is not None:
            self._pool.bump_row(self._pool_slot, amount)
            return
        self._f_mass += amount
        if self._f_mass > RENORM_MASS:
            _renormalize_limbs(self.cells[_QLO], self.cells[_QHI])
            self._f_mass = 1

    # ------------------------------------------------------------------
    # Updates / merging (linear operations)
    # ------------------------------------------------------------------
    def apply(self, col_levels: np.ndarray, idx: int, delta: int,
              zpow: int) -> None:
        """Add ``delta`` at coordinate ``idx``.

        ``col_levels`` is the per-column top level of ``idx`` (shape
        ``(columns,)``); ``zpow`` is ``z^idx mod p``.  One fancy
        scatter into the stacked cell block covers all four quantities.
        """
        flat = (self._q_offsets + (self._cell_base + col_levels)).ravel()
        values = self._scratch_vals
        values[_QW] = delta
        values[_QS] = delta * idx
        values[_QLO] = delta * (zpow & _MASK32)
        values[_QHI] = delta * (zpow >> 32)
        self._flat_cells[flat] += values.ravel()
        self._bump_mass(abs(delta))

    def apply_many(self, col_levels: np.ndarray, idxs: np.ndarray,
                   deltas: np.ndarray, zpows: np.ndarray) -> None:
        """Add many coordinates at once: one scatter for everything.

        ``col_levels`` has shape ``(e, columns)``; ``idxs``, ``deltas``
        and ``zpows`` have shape ``(e,)`` (all int64, ``zpows`` in
        ``[0, p)``).  Exactly equivalent to ``e`` :meth:`apply` calls --
        the scatter targets the same cells with the same integer
        arithmetic, just without the per-edge Python dispatch.
        """
        e = idxs.shape[0]
        if e == 0:
            return
        # A standalone matrix is a 1-slot pool: the shared scatter
        # kernel with every point targeting slot 0 hits exactly the
        # cells the old dedicated scatter did, so the bit-identical
        # contract keeps one source of truth across tiers.
        _kernels.pool_scatter(self._flat_cells, self.columns,
                              self.levels,
                              np.zeros(e, dtype=np.int64), col_levels,
                              idxs, deltas, zpows)
        self._bump_mass(int(np.abs(deltas).sum()))

    def merge_from(self, other: "RecoveryMatrix") -> None:
        """Add another matrix (sketch linearity, Remark 3.2)."""
        if (other.columns, other.levels) != (self.columns, self.levels):
            raise SketchError(
                f"cannot merge a {other.columns}x{other.levels} matrix "
                f"into a {self.columns}x{self.levels} one"
            )
        self.cells += other.cells
        self._bump_mass(other._mass)

    def copy(self) -> "RecoveryMatrix":
        dup = RecoveryMatrix(self.columns, self.levels)
        dup._rebind_cells(self.cells.copy())
        dup._f_mass = self._mass
        return dup

    def __reduce__(self):
        """Checkpoint-safe pickling (see :mod:`repro.session`).

        A pool-backed view must *stay* a view: pickling its cell array
        directly would detach it from the pool (numpy does not preserve
        aliasing across pickle), silently forking the sketch state.  A
        view therefore serialises as ``(pool, slot)`` -- the pickle memo
        keeps one shared pool instance -- and a standalone matrix as its
        own cell copy.
        """
        if self._pool is not None:
            return (_restore_pool_view, (self._pool, self._pool_slot))
        return (
            _restore_standalone_matrix,
            (self.columns, self.levels, np.asarray(self.cells),
             self._f_mass),
        )

    @staticmethod
    def sum_of(matrices: "list[RecoveryMatrix]") -> "RecoveryMatrix":
        """Sum many matrices (component merge).

        Row/column shapes are validated up front -- mixed shapes raise
        :class:`~repro.errors.SketchError` instead of surfacing as a
        numpy broadcast error mid-accumulation.  The fingerprint limbs
        are renormalized whenever the running mass exceeds the
        threshold, so the accumulator stays inside int64 regardless of
        how many matrices are merged.
        """
        if not matrices:
            raise SketchError("need at least one matrix to sum")
        first = matrices[0]
        shape = (first.columns, first.levels)
        for matrix in matrices:
            if (matrix.columns, matrix.levels) != shape:
                raise SketchError(
                    f"cannot sum matrices of mixed shapes: expected "
                    f"{shape[0]}x{shape[1]}, got "
                    f"{matrix.columns}x{matrix.levels}"
                )
        out = RecoveryMatrix(*shape)
        for matrix in matrices:
            out.merge_from(matrix)
        return out

    # ------------------------------------------------------------------
    # Materialized prefix views (the classic W / S / F triples)
    # ------------------------------------------------------------------
    @property
    def W(self) -> np.ndarray:
        """Materialized prefix counts: cell ``(c, l)`` sums levels >= l.

        A snapshot for queries and inspection -- writing to it does not
        affect the matrix.
        """
        return _suffix_cumsum(self.cells[_QW])

    @property
    def S(self) -> np.ndarray:
        """Materialized prefix index-sums (see :attr:`W`)."""
        return _suffix_cumsum(self.cells[_QS])

    @property
    def F(self) -> np.ndarray:
        """Materialized prefix fingerprints mod p (see :attr:`W`)."""
        return _kernels.combine_limbs(_suffix_cumsum(self.cells[_QLO]),
                                      _suffix_cumsum(self.cells[_QHI]))

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def column_is_zero(self, col: int) -> bool:
        """True iff column ``col`` looks like the zero vector.

        Checked on the level-0 prefix, which contains every coordinate;
        the fingerprint makes a false zero require ``F = 0`` for a
        nonzero polynomial evaluation (probability ``< N/p``).
        """
        sums = self.cells[:, col, :].sum(axis=1)
        if int(sums[_QW]) != 0 or int(sums[_QS]) != 0:
            return False
        return _combine_limb_scalars(int(sums[_QLO]),
                                     int(sums[_QHI])) == 0

    def column_is_zero_many(
        self, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized :meth:`column_is_zero` over many columns at once.

        ``cols`` selects the columns to test (default: all of them, in
        order).  One level-axis reduction covers every requested
        column; bit-identical to the scalar test per column.
        """
        block = self.cells if cols is None else self.cells[:, cols, :]
        sums = block.sum(axis=-1)                           # (4, k)
        zero = (sums[_QW] == 0) & (sums[_QS] == 0)
        if zero.any():
            zero &= _kernels.combine_limbs(sums[_QLO], sums[_QHI]) == 0
        return zero

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
        prefix = np.cumsum(self.cells[:, col, ::-1], axis=1)[:, ::-1]
        W_col, S_col, lo_col, hi_col = prefix
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
            fingerprint = _combine_limb_scalars(int(lo_col[level]),
                                                int(hi_col[level]))
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
        prefix = _suffix_cumsum(self.cells[:, cols, :])     # (4, k, L)
        return _kernels.decode_prefix(prefix, max_index, int(z))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def words(self) -> int:
        """Accounting footprint: three words per cell.

        The fingerprint's two int64 limbs represent one logical field
        element (61 bits plus carry slack), so the model-level count
        stays at three words per cell.
        """
        return 3 * self.columns * self.levels

    def is_entirely_zero(self) -> bool:
        return (
            not self.cells[_QW].any()
            and not self.cells[_QS].any()
            and not self.F.any()
        )


def _restore_pool_view(pool: "RecoveryPool", slot: int) -> RecoveryMatrix:
    """Pickle hook for pool-backed :class:`RecoveryMatrix` views."""
    return pool.matrix(slot)


def _restore_standalone_matrix(columns: int, levels: int,
                               cells: np.ndarray,
                               mass: int) -> RecoveryMatrix:
    """Pickle hook for standalone :class:`RecoveryMatrix` instances."""
    matrix = RecoveryMatrix(columns, levels)
    matrix.cells[...] = cells
    matrix._f_mass = mass
    return matrix


class RecoveryPool:
    """Stacked recovery cells for a whole family of matrices.

    Holds ``count`` matrices' differential cells as one contiguous
    ``(count, 4, columns, levels)`` block.  :meth:`matrix` hands out
    view-backed :class:`RecoveryMatrix` rows -- they behave exactly like
    standalone matrices -- while :meth:`apply_points` lets the bulk
    ingestion router update *many rows with one scatter*, which is what
    makes batch ingestion independent of the Python-level per-edge
    dispatch cost.
    """

    __slots__ = ("count", "columns", "levels", "cells", "f_mass",
                 "row_mass", "_flat", "_views",
                 "_view_cell_base", "_view_q_offsets", "_view_scratch")

    def __init__(self, count: int, columns: int, levels: int):
        if count < 1:
            raise ValueError("need at least one slot")
        if columns < 1 or levels < 1:
            raise ValueError("need at least one column and one level")
        self.count = count
        self.columns = columns
        self.levels = levels
        self.cells = np.zeros((count, 4, columns, levels), dtype=np.int64)
        #: Total mass and per-row (per-slot) mass.  The total drives the
        #: renormalization trigger (it dominates every row); the per-row
        #: masses give detached copies and merges an accurate bound so
        #: they do not inherit the whole pool's mass.
        self.f_mass = 0
        self.row_mass = np.zeros(count, dtype=np.int64)
        self._flat = self.cells.reshape(-1)
        #: Live view-backed matrices handed out by :meth:`matrix`, kept
        #: as weakrefs so :meth:`adopt_buffer` can re-point them when
        #: the cell block moves (backend attach after a checkpoint
        #: restore hands views out before the buffer is adopted).
        self._views: List["weakref.ref[RecoveryMatrix]"] = []
        # Index helpers shared by every view this pool hands out (the
        # bulk scatter itself is the ``pool_scatter`` kernel).
        self._view_cell_base = np.arange(columns, dtype=np.int64) * levels
        self._view_q_offsets = (np.arange(4, dtype=np.int64)
                                * (columns * levels))[:, None]
        self._view_scratch = np.empty((4, columns), dtype=np.int64)

    # -- per-quantity views (inspection / tests) ------------------------
    @property
    def Wd(self) -> np.ndarray:
        return self.cells[:, _QW]

    @property
    def Sd(self) -> np.ndarray:
        return self.cells[:, _QS]

    @property
    def Flo(self) -> np.ndarray:
        return self.cells[:, _QLO]

    @property
    def Fhi(self) -> np.ndarray:
        return self.cells[:, _QHI]

    def adopt_buffer(self, cells: np.ndarray) -> None:
        """Move this pool's cells into an externally owned buffer.

        The execution backends use this to place the cell block in
        ``multiprocessing.shared_memory`` so worker processes can
        scatter into their row shards directly.  Current contents are
        preserved, and any live :meth:`matrix` views are re-pointed at
        the new block (a checkpoint restore hands out views before the
        restored family re-attaches to a backend).
        """
        if cells.shape != self.cells.shape or cells.dtype != np.int64:
            raise ValueError(
                f"buffer of shape {cells.shape} / {cells.dtype} cannot "
                f"back a pool of shape {self.cells.shape} int64"
            )
        cells[...] = self.cells
        self.cells = cells
        self._flat = cells.reshape(-1)
        live: List["weakref.ref[RecoveryMatrix]"] = []
        for ref in self._views:
            view = ref()
            if view is None:
                continue
            view._rebind_cells(self.cells[view._pool_slot])
            live.append(ref)
        self._views = live

    def matrix(self, slot: int) -> RecoveryMatrix:
        """A view-backed matrix over row ``slot`` of the pool.

        Built without the standalone constructor's cell-block
        allocation; the small index/scratch helper arrays are shared
        across all of this pool's views (they are read-only except the
        scratch, which every ``apply`` call fully overwrites first).

        Two views of the same slot alias the same cells -- callers
        wanting an independent zero matrix should construct a
        standalone :class:`RecoveryMatrix` instead.
        """
        if not 0 <= slot < self.count:
            raise ValueError(f"slot {slot} outside pool of {self.count}")
        view = RecoveryMatrix.__new__(RecoveryMatrix)
        view.columns = self.columns
        view.levels = self.levels
        view._f_mass = 0
        view._pool = self
        view._pool_slot = slot
        view._cell_base = self._view_cell_base
        view._q_offsets = self._view_q_offsets
        view._scratch_vals = self._view_scratch
        view._rebind_cells(self.cells[slot])
        self._views.append(weakref.ref(view))
        return view

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle as pure values: a private copy of the cell block plus
        the mass counters.  The flat view, the view registry, and any
        shared-memory placement are reconstruction artifacts -- a
        restored pool always starts with a private buffer and is moved
        back into shared memory by the backend re-attach, if any."""
        return (self.count, self.columns, self.levels,
                np.asarray(self.cells).copy(), self.f_mass,
                self.row_mass.copy())

    def __setstate__(self, state) -> None:
        count, columns, levels, cells, f_mass, row_mass = state
        self.__init__(count, columns, levels)
        self.cells[...] = cells
        self.f_mass = f_mass
        self.row_mass[...] = row_mass

    # ------------------------------------------------------------------
    def bump_mass(self, amount: int) -> None:
        """Record update mass; renormalize the whole pool when due.

        The pool total over-approximates every row's mass, so one
        pool-wide renormalization keeps all rows inside the int64
        envelope.  Renormalization preserves represented values
        exactly (it only changes the limb decomposition).
        """
        self.f_mass += amount
        if self.f_mass > RENORM_MASS:
            _renormalize_limbs(self.cells[:, _QLO], self.cells[:, _QHI])
            self.f_mass = 1
            self.row_mass[:] = 1

    def bump_row(self, slot: int, amount: int) -> None:
        """Record update mass against one slot (scalar view updates)."""
        self.row_mass[slot] += amount
        self.bump_mass(amount)

    def apply_points(self, slots: np.ndarray, col_levels: np.ndarray,
                     idxs: np.ndarray, deltas: np.ndarray,
                     zpows: np.ndarray) -> None:
        """Scatter many (slot, coordinate, delta) updates at once.

        ``slots``, ``idxs``, ``deltas``, ``zpows`` have shape ``(e,)``
        and ``col_levels`` has shape ``(e, columns)``.  Duplicate
        (slot, cell) targets accumulate correctly (``np.add.at``), so
        the result is bit-identical to applying the points one at a
        time to the individual row matrices in any order.
        """
        if slots.shape[0] == 0:
            return
        _kernels.pool_scatter(self._flat, self.columns, self.levels,
                              slots, col_levels, idxs, deltas, zpows)
        self.record_mass(slots, deltas)

    def record_mass(self, slots: np.ndarray, deltas: np.ndarray) -> None:
        """Record a scatter's update mass (per row and pool-wide).

        Split out of :meth:`apply_points` because the shared-memory
        backend's workers only scatter -- the parent records the mass
        (and runs any due renormalization) after the barrier, at the
        same point in the update order as the sequential path.
        """
        if slots.shape[0] == 0:
            return
        mass = np.abs(deltas)
        # bincount beats the buffered np.add.at for this parent-side
        # bookkeeping; float64 weight sums are exact here (per-slot
        # mass stays far below 2^53 between renormalizations).
        self.row_mass += np.bincount(
            slots, weights=mass, minlength=self.count
        ).astype(np.int64)
        self.bump_mass(int(mass.sum()))

    @property
    def words(self) -> int:
        """Accounting footprint: three words per cell (see matrix)."""
        return 3 * self.count * self.columns * self.levels
