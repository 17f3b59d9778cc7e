"""Theoretical resource bounds, as checkable formulas.

The benchmarks print measured values next to these bounds so every
``benchmarks/test_exp*`` table row is a direct theorem-vs-measurement
comparison.  All
constants are explicit arguments: the theorems hide them in O(.), the
experiments sweep them.
"""

from __future__ import annotations

import math


def log2p(n: int) -> float:
    """log2(n) clamped below at 1 (polylog conventions for tiny n)."""
    return max(1.0, math.log2(max(2, n)))


def connectivity_total_memory_bound(n: int, c: float = 12.0) -> float:
    """Theorem 1.1: ~O(n) = c * n * log^3 n words (sketches dominate:
    n vertices x O(log n) columns x O(log^2 n) cells)."""
    return c * n * log2p(n) ** 3


def full_graph_total_memory_bound(n: int, m: int, c: float = 4.0) -> float:
    """Prior work ([ILMP19]/[NO21]): Theta(n + m)."""
    return c * (n + m)


def rounds_bound_per_batch(phi: float, c: float = 60.0) -> float:
    """Theorem 6.7: O(1/phi) rounds per update batch."""
    return c / phi


def agm_query_rounds_bound(n: int, c: float = 3.0) -> float:
    """AGM static query: O(log n) halving iterations."""
    return c * log2p(n)


def batch_bound(n: int, phi: float) -> int:
    """Theorem 6.7's batch size: O(n^phi / log^3 n)."""
    return max(1, int(n ** phi / log2p(n) ** 3))


def matching_memory_bound_insert_only(n: int, alpha: float,
                                      c: float = 4.0) -> float:
    """Theorem 1.3: ~O(n / alpha) for insertion-only matching."""
    return c * n / alpha * log2p(n)


def matching_memory_bound_dynamic(n: int, alpha: float,
                                  c: float = 60.0) -> float:
    """Theorem 1.3: ~O(max(n^2/alpha^3, n/alpha)) for dynamic matching."""
    return c * max(n * n / alpha ** 3, n / alpha) * log2p(n)


def size_estimation_memory_bound(n: int, alpha: float, dynamic: bool,
                                 c: float = 60.0) -> float:
    """Theorem 1.3 (estimation): ~O(n/alpha^2) / ~O(n^2/alpha^4).

    The dynamic tester stores an O(log^3 n)-bit L0-sampler per group
    pair, so its ~O(.) hides a log^3 factor on top of the pair count.
    """
    if dynamic:
        return c * (n / alpha ** 2) ** 2 * log2p(n) ** 3
    return c * n / alpha ** 2 * log2p(n)


def msf_approx_memory_bound(n: int, eps: float, max_weight: float,
                            c: float = 12.0) -> float:
    """Theorem 1.2(ii): one connectivity instance per weight class."""
    levels = max(1, math.ceil(math.log(max_weight, 1 + eps))) + 1
    return levels * connectivity_total_memory_bound(n, c)
