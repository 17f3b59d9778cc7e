"""Kernel registration table and the numeric-contract layer.

Every hot-path kernel is registered by name with
``@numpy_kernel("name")`` in :mod:`repro.kernels.numpy_tier`;
:mod:`repro.kernels` binds that table as its module attributes.

Kernel contracts
----------------
``@kernel_contract(args={...}, returns=...)`` attaches a numeric
contract to a kernel: per-argument ``(dtype, [lo, hi])`` value specs
and the declared return spec, declared once per kernel and looked up
by the registered name (:func:`contract_for`).  The decorator is a
no-op at runtime by default; with ``REPRO_KERNELS_CHECK=1``
:mod:`repro.kernels` wraps each bound kernel in dtype/range asserts
generated from that declaration (:mod:`repro.kernels.checks`).

What guards the arithmetic itself is ``tests/test_kernel_contracts.py``:
boundary-value parity against Python big-int arithmetic, plus a
seeded-mutation suite that pins which single-token edits of the numpy
tier those checks kill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

#: The sketch field modulus; duplicated from the tier module so the
#: contract layer stays import-light (no numpy).
MERSENNE_P = (1 << 61) - 1

_U64_MAX = (1 << 64) - 1
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class ValueSpec:
    """One ``(dtype, [lo, hi])`` lattice point of the numeric contract.

    ``dtype`` is the numpy dtype name (``uint64``/``int64``/``bool``)
    or ``pyint`` for plain Python scalar parameters.  ``lo``/``hi``
    are inclusive value bounds; ``role`` tags semantics:

    * ``"value"`` -- plain bounded values;
    * ``"residue"`` -- canonical mod-p field elements in ``[0, p)``;
    * ``"acc"`` -- an exact int64 accumulator whose no-overflow
      argument is external (at most 2^31 updates of weight below
      2^30, see ``docs/kernels.md``); only its dtype is checked.
    """

    dtype: str
    lo: Optional[int]
    hi: Optional[int]
    role: str = "value"

    def bounds(self) -> Tuple[int, int]:
        """Concrete inclusive bounds (dtype range when undeclared)."""
        dlo, dhi = dtype_bounds(self.dtype)
        return (dlo if self.lo is None else self.lo,
                dhi if self.hi is None else self.hi)

    def describe(self) -> str:
        lo, hi = self.bounds()
        tag = f" {self.role}" if self.role != "value" else ""
        return f"{self.dtype}[{lo}, {hi}]{tag}"


def dtype_bounds(dtype: str) -> Tuple[int, int]:
    """Inclusive representable range of a contract dtype."""
    if dtype == "uint64":
        return (0, _U64_MAX)
    if dtype == "int64":
        return (_I64_MIN, _I64_MAX)
    if dtype == "bool":
        return (0, 1)
    # pyint: arbitrary precision -- no representable-range obligation.
    return (None, None)  # type: ignore[return-value]


def u64_residue() -> ValueSpec:
    """Canonical GF(2^61-1) residues as uint64: values in ``[0, p)``."""
    return ValueSpec("uint64", 0, MERSENNE_P - 1, role="residue")


def i64_residue() -> ValueSpec:
    """Canonical GF(2^61-1) residues carried in int64 cells."""
    return ValueSpec("int64", 0, MERSENNE_P - 1, role="residue")


def i64_range(lo: int, hi: int) -> ValueSpec:
    return ValueSpec("int64", lo, hi)


def u64_any() -> ValueSpec:
    """Any uint64 value (full dtype range)."""
    return ValueSpec("uint64", None, None)


def i64_any() -> ValueSpec:
    """Any int64 value (full dtype range)."""
    return ValueSpec("int64", None, None)


def i64_acc() -> ValueSpec:
    """Exact int64 accumulator cells (externally bounded, see role)."""
    return ValueSpec("int64", None, None, role="acc")


def bool_array() -> ValueSpec:
    return ValueSpec("bool", 0, 1)


def scalar_int(lo: int, hi: int) -> ValueSpec:
    """A plain Python int scalar parameter in ``[lo, hi]``."""
    return ValueSpec("pyint", lo, hi)


@dataclass(frozen=True)
class Contract:
    """The numeric contract of one kernel."""

    args: Mapping[str, ValueSpec]
    returns: Optional[ValueSpec]


_NUMPY: Dict[str, Callable] = {}


def kernel_contract(args: Mapping[str, ValueSpec],
                    returns: Optional[ValueSpec] = None) -> Callable:
    """Declare a kernel's numeric contract (no-op at runtime).

    Applied *under* ``@numpy_kernel(name)``; :func:`contract_for`
    reads it back off the registered numpy flavour.
    """
    contract = Contract(args=dict(args), returns=returns)

    def mark(func: Callable) -> Callable:
        func.__kernel_contract__ = contract
        return func

    return mark


def contract_for(name: str) -> Optional[Contract]:
    """The declared contract of kernel ``name`` (``None`` if absent)."""
    return getattr(_NUMPY.get(name), "__kernel_contract__", None)


def numpy_kernel(name: str) -> Callable[[Callable], Callable]:
    """Register ``func`` as the numpy-tier implementation of ``name``."""

    def register(func: Callable) -> Callable:
        _NUMPY[name] = func
        return func

    return register


def numpy_table() -> Dict[str, Callable]:
    return dict(_NUMPY)


def kernel_names() -> Tuple[str, ...]:
    """All registered kernel names."""
    return tuple(sorted(_NUMPY))
