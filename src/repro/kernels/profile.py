"""Kernel profiling hooks (``REPRO_KERNELS_PROFILE=1``).

When enabled, :mod:`repro.kernels` wraps every bound kernel in a
nanosecond-granularity accumulator, and the thread backend brackets its
per-call sections (shard splitting, waiting on the shares) with
:func:`timed`.  The thread backend's worker threads record
concurrently, so :func:`record` folds under a lock.  The counters are
cumulative monotone ints, exactly the shape
:meth:`repro.mpc.metrics.ClusterMetrics.end_phase` diffs into
per-phase ``backend_events`` -- so with profiling on, every phase row
attributes its wall-clock between kernels and orchestration.

Disabled (the default) the hooks cost one predicate: :func:`timed`
returns a shared no-op context manager and :mod:`repro.kernels` binds
the raw kernel functions, unwrapped.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict

from repro.mpc.config import env_int

ENV_PROFILE = "REPRO_KERNELS_PROFILE"

#: Read once at import: 0/unset disables.
_ENABLED = (env_int(ENV_PROFILE, 0) or 0) > 0

_NS: Dict[str, int] = {}
_CALLS: Dict[str, int] = {}
_LOCK = threading.Lock()


def enabled() -> bool:
    """True when ``REPRO_KERNELS_PROFILE`` enabled profiling at import."""
    return _ENABLED


def counters() -> Dict[str, int]:
    """Cumulative ``{name}_ns`` / ``{name}_calls`` counters (a copy)."""
    out: Dict[str, int] = {}
    with _LOCK:
        for name in sorted(_NS):
            out[f"{name}_ns"] = int(_NS[name])
            out[f"{name}_calls"] = int(_CALLS[name])
    return out


def reset() -> None:
    with _LOCK:
        _NS.clear()
        _CALLS.clear()


def record(name: str, ns: int) -> None:
    """Fold ``ns`` nanoseconds into section ``name``'s accumulators."""
    with _LOCK:
        _NS[name] = _NS.get(name, 0) + int(ns)
        _CALLS[name] = _CALLS.get(name, 0) + 1


def wrap(name: str, func: Callable) -> Callable:
    """``func`` instrumented under ``kernel.{name}`` (profiling on)."""
    label = f"kernel.{name}"

    @functools.wraps(func)
    def timed_kernel(*args, **kwargs):
        # Profiling timestamps measure the kernel and never feed its
        # result.
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            record(label, time.perf_counter_ns() - start)

    return timed_kernel


class _NullSection:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class _Section:
    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name
        self._start = 0

    def __enter__(self) -> "_Section":
        # Profiling timestamps measure the section and never feed a
        # result.
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        record(self.name, time.perf_counter_ns() - self._start)
        return False


_NULL = _NullSection()


def timed(name: str):
    """Context manager timing a backend section; no-op when disabled."""
    if not _ENABLED:
        return _NULL
    return _Section(name)
