"""Dynamic graph stream generators and batching."""

from repro.streams.batching import as_batches, iter_batches, singleton_batches
from repro.streams.generators import (
    ChurnStream,
    SplitMergeStream,
    erdos_renyi_insertions,
    even_cycle_insertions,
    odd_cycle_insertions,
    path_insertions,
    planted_matching_insertions,
    power_law_insertions,
    random_tree_insertions,
    star_insertions,
    weighted_insertions,
)

__all__ = [
    "as_batches",
    "iter_batches",
    "singleton_batches",
    "ChurnStream",
    "SplitMergeStream",
    "erdos_renyi_insertions",
    "even_cycle_insertions",
    "odd_cycle_insertions",
    "path_insertions",
    "planted_matching_insertions",
    "power_law_insertions",
    "random_tree_insertions",
    "star_insertions",
    "weighted_insertions",
]
