"""Named workloads shared by the benchmark harness (``benchmarks/``).

Each workload function returns ``(description, batches)`` so that a
bench both runs and documents the exact stream it used.  Seeds are
fixed: every table row the harness prints is reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.streams.batching import as_batches
from repro.streams.generators import (
    ChurnStream,
    erdos_renyi_insertions,
    even_cycle_insertions,
    odd_cycle_insertions,
    planted_matching_insertions,
    weighted_insertions,
)
from repro.types import Batch


def er_insert_only(n: int, density: float, batch_size: int,
                   seed: int = 0) -> Tuple[str, List[Batch]]:
    """Erdos-Renyi insertions with m = density * n edges."""
    m = int(density * n)
    updates = erdos_renyi_insertions(n, m, seed=seed)
    return (
        f"ER insert-only n={n} m={m} batch={batch_size}",
        as_batches(updates, batch_size),
    )


def er_churn(n: int, phases: int, batch_size: int, target_density: float,
             seed: int = 0) -> Tuple[str, List[Batch]]:
    """Mixed insert/delete batches steered to m ~= target_density * n."""
    stream = ChurnStream(n, seed=seed, delete_fraction=0.3,
                         target_edges=int(target_density * n))
    batches = list(stream.batches(phases, batch_size))
    return (
        f"ER churn n={n} phases={phases} batch={batch_size} "
        f"target_m={int(target_density * n)}",
        batches,
    )


def weighted_er_insert_only(n: int, density: float, batch_size: int,
                            max_weight: float = 100.0,
                            seed: int = 0) -> Tuple[str, List[Batch]]:
    m = int(density * n)
    updates = weighted_insertions(n, m, max_weight=max_weight, seed=seed)
    return (
        f"weighted ER insert-only n={n} m={m} W={max_weight}",
        as_batches(updates, batch_size),
    )


def weighted_churn(n: int, phases: int, batch_size: int,
                   max_weight: int = 100,
                   seed: int = 0) -> Tuple[str, List[Batch]]:
    stream = ChurnStream(n, seed=seed, delete_fraction=0.25,
                         target_edges=4 * n, weights=(1, max_weight))
    return (
        f"weighted churn n={n} phases={phases} batch={batch_size}",
        list(stream.batches(phases, batch_size)),
    )


def bipartite_probe(n: int, batch_size: int) -> Tuple[str, List[Batch]]:
    """Even cycle, then an odd chord, then its removal (EXP-10)."""
    length = n if n % 2 == 0 else n - 1
    updates = even_cycle_insertions(length)
    return (
        f"even cycle n={length} + odd chord probes",
        as_batches(updates, batch_size),
    )


def odd_cycle_probe(length: int, batch_size: int) -> Tuple[str, List[Batch]]:
    if length % 2 == 0:
        length -= 1
    updates = odd_cycle_insertions(length)
    return (
        f"odd cycle length={length}",
        as_batches(updates, batch_size),
    )


def planted_matching(n: int, size: int, noise: int, batch_size: int,
                     seed: int = 0) -> Tuple[str, List[Batch]]:
    updates = planted_matching_insertions(n, size, noise=noise, seed=seed)
    return (
        f"planted matching n={n} OPT>={size} noise={noise}",
        as_batches(updates, batch_size),
    )
