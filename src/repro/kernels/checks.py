"""Runtime kernel-contract checking (``REPRO_KERNELS_CHECK=1``).

When the knob is set, :mod:`repro.kernels` wraps every bound kernel in
dtype/range asserts generated from the kernel's one
``@kernel_contract`` declaration
(:func:`repro.kernels.registry.contract_for`, looked up by kernel
name).  Each call verifies, per declared argument and for the return
value, that

* the concrete numpy dtype matches the contract dtype (``pyint``
  arguments must be plain Python ints), and
* every element lies inside the declared inclusive ``[lo, hi]``
  interval -- residues really are canonical field elements in
  ``[0, p)``.

A violation raises :class:`~repro.errors.SketchError` naming the
kernel, the argument, the observed extreme, and the declared bound.
``role="acc"`` accumulator arguments are not checked beyond their
dtype: their no-overflow argument is a bound on update counts, not a
pointwise one (``docs/kernels.md``).

The knob is read once at import through the validated env layer
(``mpc/config``): ``0``/unset disables, any integer ``>= 1`` enables,
and a set-but-garbage value raises ``SketchError`` naming the
variable -- the uniform ``REPRO_*`` failure mode.  The tier1-kernels
CI job runs with the knob on (``docs/kernels.md``).
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from repro.errors import SketchError
from repro.kernels import registry
from repro.mpc.config import env_int

ENV_CHECK = "REPRO_KERNELS_CHECK"

#: Read once at import: 0/unset disables.
_ENABLED = (env_int(ENV_CHECK, 0) or 0) > 0

_DTYPES = {"uint64": np.uint64, "int64": np.int64, "bool": np.bool_}


def enabled() -> bool:
    """True when ``REPRO_KERNELS_CHECK`` enabled checking at import."""
    return _ENABLED


def _check_value(kernel: str, label: str, value,
                 spec: registry.ValueSpec) -> None:
    if spec.dtype == "pyint":
        if not isinstance(value, (int, np.integer)):
            raise SketchError(
                f"{ENV_CHECK}: kernel {kernel!r} {label} expected a "
                f"plain int scalar, got {type(value).__name__}")
        lo, hi = spec.bounds()
        if not (lo <= int(value) <= hi):
            raise SketchError(
                f"{ENV_CHECK}: kernel {kernel!r} {label} = {int(value)} "
                f"is outside the declared {spec.describe()}")
        return
    arr = np.asarray(value)
    want = _DTYPES[spec.dtype]
    if arr.dtype != want:
        raise SketchError(
            f"{ENV_CHECK}: kernel {kernel!r} {label} has dtype "
            f"{arr.dtype}, contract declares {spec.dtype}")
    if arr.size == 0 or spec.role == "acc":
        return
    lo, hi = spec.bounds()
    observed_lo = int(arr.min())
    observed_hi = int(arr.max())
    if observed_lo < lo or observed_hi > hi:
        observed = observed_lo if observed_lo < lo else observed_hi
        raise SketchError(
            f"{ENV_CHECK}: kernel {kernel!r} {label} contains "
            f"{observed}, outside the declared {spec.describe()}")


def wrap(name: str, func: Callable) -> Callable:
    """``func`` under the per-call asserts of kernel ``name``'s contract
    (``func`` itself when ``name`` declares none)."""
    contract: Optional[registry.Contract] = registry.contract_for(name)
    if contract is None:
        return func
    params = [p for p in func.__code__.co_varnames[
        :func.__code__.co_argcount]]

    @functools.wraps(func)
    def checked_kernel(*args, **kwargs):
        bound = dict(zip(params, args))
        bound.update(kwargs)
        for param, spec in contract.args.items():
            if param in bound:
                _check_value(name, f"argument {param!r}", bound[param],
                             spec)
        result = func(*args, **kwargs)
        if contract.returns is not None:
            _check_value(name, "return value", result,
                         contract.returns)
        elif result is not None:
            raise SketchError(
                f"{ENV_CHECK}: kernel {name!r} returned "
                f"{type(result).__name__} but its contract declares "
                f"returns=None")
        return result

    return checked_kernel
