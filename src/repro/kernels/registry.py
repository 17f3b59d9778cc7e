"""Kernel registration tables and the numeric-contract layer.

Every hot-path kernel is registered twice -- once by the pure-numpy
tier (:mod:`repro.kernels.numpy_tier`, always available) and once by
the compiled tier (:mod:`repro.kernels.compiled_tier`, active only
when numba is importable).  :mod:`repro.kernels` binds one table as
the active implementation set; rule RL007 (``repro.lint``) checks the
two registrations stay in lockstep (same kernel names, same parameter
names) and that nothing outside this package calls a tier module
directly.

The decorators are deliberately trivial -- a dict insert -- so the
registration is visible to AST tooling: RL007 recognises a kernel
entry purely from the ``@numpy_kernel("name")`` /
``@compiled_kernel("name")`` decorator form.

Kernel contracts
----------------
``@kernel_contract(args={...}, returns=..., ...)`` attaches a
machine-checkable numeric contract to a registered kernel: per-argument
``(dtype, [lo, hi])`` value specs, the declared return spec, and any
*escapes* -- by-design departures from exact uint64/int64 interval
arithmetic (a float64 ``frexp`` trick, an intentional two's-complement
wrap) each carrying a mandatory justification.  The decorator is a
no-op at runtime by default (it only sets ``__kernel_contract__``);
it exists for two consumers:

* the abstract interpreter in :mod:`repro.lint.numeric` (rules
  RL013-RL016) parses the decorator *from source* and proves, per tier,
  that no intermediate overflows its dtype and the declared return
  interval holds;
* with ``REPRO_KERNELS_CHECK=1`` the dispatcher
  (:mod:`repro.kernels`) wraps each bound kernel in runtime
  dtype/range asserts generated from the same data -- the dynamic twin
  of the static proof.

Contracts must be identical across the two tiers of a kernel (RL016
extends RL007's signature check to semantics), so the spec helpers
below are the shared vocabulary of both tier modules.  The spec
constructors take only literal int expressions: the analyzer evaluates
the decorator AST without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

#: The sketch field modulus; duplicated from the tier modules so the
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
    are inclusive value bounds; ``total`` optionally bounds the *sum*
    over the array (length/offset arrays); ``role`` tags semantics:

    * ``"value"`` -- plain bounded values;
    * ``"residue"`` -- canonical mod-p field elements in ``[0, p)``;
    * ``"acc"`` -- an exact int64 accumulator whose no-overflow
      argument is external (bounded update counts x bounded weights,
      see ``docs/numeric-analysis.md``); reductions over it stay
      ``acc`` and are exempt from the pointwise overflow proof.
    """

    dtype: str
    lo: Optional[int]
    hi: Optional[int]
    role: str = "value"
    total: Optional[int] = None

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


def u64_range(lo: int, hi: int, total: Optional[int] = None) -> ValueSpec:
    return ValueSpec("uint64", lo, hi, total=total)


def i64_range(lo: int, hi: int, total: Optional[int] = None) -> ValueSpec:
    return ValueSpec("int64", lo, hi, total=total)


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
class Escape:
    """A declared, justified departure from exact int lattice math.

    ``kind`` names the analyzer's op label that is being excused
    (``"float64"`` for the frexp exponent trick, ``"wrap"`` for an
    intentional two's-complement wrap, ``"divide"`` for a floored
    division whose INT64_MIN/-1 corner is excluded by an external
    argument); ``result`` is the post-escape value spec the analysis
    continues with.  The justification is mandatory -- RL015 reports a
    declared escape that never fires as stale, and an escape-needing op
    with no declaration as unmodeled.
    """

    kind: str
    justification: str
    result: Optional[ValueSpec] = None


def escape(kind: str, justification: str,
           result: Optional[ValueSpec] = None) -> Escape:
    if not justification or not justification.strip():
        raise ValueError(
            f"kernel-contract escape {kind!r} needs a non-empty "
            f"justification (RL015 audits these)"
        )
    return Escape(kind=kind, justification=justification, result=result)


@dataclass(frozen=True)
class Contract:
    """The full numeric contract of one kernel (both tiers share it)."""

    args: Mapping[str, ValueSpec]
    returns: Optional[ValueSpec]
    shape: str = "elementwise"
    escapes: Tuple[Escape, ...] = ()
    mutates: Optional[str] = None

    def key(self) -> tuple:
        """Normalized identity for the RL016 cross-tier comparison."""
        return (
            tuple(sorted((n, s) for n, s in self.args.items())),
            self.returns,
            self.shape,
            self.escapes,
            self.mutates,
        )


#: kernel name -> contract, filled at decoration time (runtime view;
#: the static analyzer re-derives the same data from the AST).
_CONTRACTS: Dict[str, Contract] = {}

_NUMPY: Dict[str, Callable] = {}
_COMPILED: Dict[str, Callable] = {}


def kernel_contract(args: Mapping[str, ValueSpec],
                    returns: Optional[ValueSpec] = None,
                    shape: str = "elementwise",
                    escapes: Tuple[Escape, ...] = (),
                    mutates: Optional[str] = None) -> Callable:
    """Attach a numeric contract to a kernel (no-op at runtime).

    Applied *under* the registration decorator on both tiers of a
    kernel; the two declarations must be identical (RL016).  The
    runtime table keeps one copy per kernel name for the
    ``REPRO_KERNELS_CHECK=1`` wrapper.
    """
    contract = Contract(args=dict(args), returns=returns, shape=shape,
                        escapes=tuple(escapes), mutates=mutates)

    def mark(func: Callable) -> Callable:
        func.__kernel_contract__ = contract
        _CONTRACTS[func.__name__] = contract
        return func

    return mark


def contract_for(name: str) -> Optional[Contract]:
    """The declared contract of kernel ``name`` (``None`` if absent)."""
    return _CONTRACTS.get(name)


def numpy_kernel(name: str) -> Callable[[Callable], Callable]:
    """Register ``func`` as the numpy-tier implementation of ``name``."""

    def register(func: Callable) -> Callable:
        _NUMPY[name] = func
        return func

    return register


def compiled_kernel(name: str) -> Callable[[Callable], Callable]:
    """Register ``func`` as the compiled-tier implementation of ``name``."""

    def register(func: Callable) -> Callable:
        _COMPILED[name] = func
        return func

    return register


def numpy_table() -> Dict[str, Callable]:
    return dict(_NUMPY)


def compiled_table() -> Dict[str, Callable]:
    return dict(_COMPILED)


def kernel_names() -> Tuple[str, ...]:
    """All registered kernel names (the numpy tier is the roster)."""
    return tuple(sorted(_NUMPY))
