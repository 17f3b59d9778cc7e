"""The hot-path kernels, bound once at import.

The sketch layer's inner loops -- GF(2^61-1) limb arithmetic, level
hashing, the pool scatter, the batch prefix decoder, and the
group-merge / zero-test cell cores -- are implemented once, in pure
numpy, by :mod:`repro.kernels.numpy_tier`.  This package binds them as
module attributes: callers use ``kernels.mulmod_many(...)`` etc. and
never import the tier module directly, so the two debug wrappers
below, and ``bench/``'s per-kernel trace, see every call
(``tests/test_kernels.py`` pins the kernels a session stream reaches
through these attributes).

With ``REPRO_KERNELS_CHECK=1`` every bound kernel is wrapped in the
:mod:`repro.kernels.checks` contract asserts; with
``REPRO_KERNELS_PROFILE=1`` in the :mod:`repro.kernels.profile`
accumulators.  Both knobs are read once at import.
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels import checks, numpy_tier, profile, registry


def kernel_names() -> Tuple[str, ...]:
    """Names of every bound kernel."""
    return registry.kernel_names()


def active_tier() -> str:
    """Always ``"numpy"``; ``bench/run.py`` records it as provenance."""
    return "numpy"


def numba_available() -> bool:
    """Always ``False``; ``bench/run.py`` records it as provenance."""
    return False


# Importing ``numpy_tier`` above filled the registry.
for _name, _impl in registry.numpy_table().items():
    _impl = checks.wrap(_name, _impl) if checks.enabled() else _impl
    globals()[_name] = (profile.wrap(_name, _impl) if profile.enabled()
                        else _impl)
del _name, _impl
