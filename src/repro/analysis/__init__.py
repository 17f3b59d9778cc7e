"""Analysis helpers: derived resource costs and table rendering."""

from repro.analysis.tables import print_table, ratio, render_table
from repro.analysis.theory import (
    agm_static_memory,
    akly_memory,
    approx_msf_memory,
    bipartiteness_memory,
    connectivity_memory,
    connectivity_total_memory_bound,
    derived_memory,
    estimator_caps,
    exact_msf_memory,
    full_graph_memory,
    greedy_matching_memory,
    matching_size_memory,
    rounds_bound_per_batch,
    sampler_words,
    sketch_columns,
    sketch_levels,
)

__all__ = [
    "print_table",
    "ratio",
    "render_table",
    "agm_static_memory",
    "akly_memory",
    "approx_msf_memory",
    "bipartiteness_memory",
    "connectivity_memory",
    "connectivity_total_memory_bound",
    "derived_memory",
    "estimator_caps",
    "exact_msf_memory",
    "full_graph_memory",
    "greedy_matching_memory",
    "matching_size_memory",
    "rounds_bound_per_batch",
    "sampler_words",
    "sketch_columns",
    "sketch_levels",
]
