"""Resource costs of the implemented algorithms, derived from the code.

Each ``*_memory`` function returns the memory ledger a task registers
(``memory_breakdown()``), as a closed form of its configuration and of
the few state sizes the ledger follows: the forest size |F|, the edge
count m, the sparsifier sizes of the matching tasks.  Nothing here is
fitted: ``benchmarks/test_claims.py`` and ``tests/test_charge_ledger.py``
assert measured == derived with zero slack, and check the theorem's
O(.) class separately over an n sweep.

The one fitted constant left is the rounds bound's ``c = 60``
(:func:`rounds_bound_per_batch`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def sketch_columns(n: int) -> int:
    """``t = ceil(2 log2 n)`` sketch columns, at least 4
    (``MPCConfig.sketch_columns``)."""
    return max(4, (n * n - 1).bit_length())


def sketch_levels(n: int) -> int:
    """``L = ceil(log2 C(n, 2)) + 2`` levels per column, over the edge
    universe of an n-vertex graph (``levels_for_universe``)."""
    return (max(2, n * (n - 1) // 2) - 1).bit_length() + 2


def sampler_words(n: int, columns: int) -> int:
    """One L0-sampler (one pool row) over an n-vertex edge universe:
    three words (W, S, F) per cell, ``columns x L`` cells."""
    return 3 * columns * sketch_levels(n)


def connectivity_memory(n: int, forest_edges: int,
                        columns: Optional[int] = None) -> Dict[str, int]:
    """Theorem 1.1: ``3 n c L + 2n + 4|F|`` words.

    One sampler stack per vertex, the Euler tours (``n + 4|F|``) and the
    component-id array (``n``).  Every term is O(n) times a polylog, and
    none depends on m.
    """
    if columns is None:
        columns = sketch_columns(n)
    return {
        "sketches": n * sampler_words(n, columns),
        "forest": n + 4 * forest_edges,
        "component-ids": n,
    }


def connectivity_total_memory_bound(n: int) -> int:
    """Theorem 1.1's worst case: :func:`connectivity_memory` with a
    spanning tree, ``|F| = n - 1``."""
    return sum(connectivity_memory(n, max(0, n - 1)).values())


def agm_static_memory(n: int, columns: Optional[int] = None) -> Dict[str, int]:
    """The sketch-only baseline stores the sketches and nothing else."""
    return {"sketches": connectivity_memory(n, 0, columns)["sketches"]}


def full_graph_memory(n: int, m: int, forest_edges: int) -> Dict[str, int]:
    """Prior work ([ILMP19] / [NO21]): the graph itself, Theta(n + m)."""
    return {
        "graph": n + 2 * m,
        "forest": n + 4 * forest_edges,
        "component-ids": n,
    }


def exact_msf_memory(n: int, forest_edges: int) -> Dict[str, int]:
    """Theorem 1.2(i): the tours, one weight per tree edge, the ids."""
    return {
        "forest": n + 4 * forest_edges,
        "tree-weights": forest_edges,
        "component-ids": n,
    }


def approx_msf_memory(n: int,
                      level_forest_edges: Sequence[int]) -> Dict[str, int]:
    """Theorem 1.2(ii): one connectivity instance per weight class."""
    return {"level-instances": sum(
        sum(connectivity_memory(n, f).values()) for f in level_forest_edges
    )}


def bipartiteness_memory(n: int, base_forest_edges: int,
                         cover_forest_edges: int) -> Dict[str, int]:
    """Theorem 7.3: connectivity on G plus on its 2n-vertex double
    cover."""
    return {
        "base-instance":
            sum(connectivity_memory(n, base_forest_edges).values()),
        "cover-instance":
            sum(connectivity_memory(2 * n, cover_forest_edges).values()),
    }


def greedy_matching_memory(matching_size: int) -> Dict[str, int]:
    """Theorem 8.1: the matching, one mate word per matched vertex."""
    return {"matching": 2 * matching_size}


def _h_words(h_edges: int, h_matching: int) -> int:
    """The maximal-matching black box over a sparsifier H
    (Proposition 8.4): its adjacency plus its mate map."""
    return 2 * h_edges + 2 * h_matching


def akly_memory(n: int, active_pairs: int, h_edges: int, h_matching: int,
                pair_columns: int = 5) -> Dict[str, int]:
    """Theorem 8.2: one sampler per active group pair, summed over the
    OPT guesses, plus each guess's sparsifier H."""
    return {"sparsifier": active_pairs * sampler_words(n, pair_columns)
            + _h_words(h_edges, h_matching)}


def estimator_caps(n: int, alpha: float) -> List[int]:
    """``k_eff`` per Tester: guesses ``k = 1, 2, 4, ... <= n/2``, each
    subsampled down to at most ``ceil(n / alpha^2)``."""
    budget = max(1, math.ceil(n / alpha ** 2))
    caps, k = [], 1
    while k <= n // 2:
        caps.append(min(k, budget))
        k *= 2
    return caps


def matching_size_memory(n: int, alpha: float, dynamic: bool,
                         h_edges: int = 0, h_matching: int = 0,
                         pair_columns: int = 4) -> Dict[str, int]:
    """Theorems 8.5 / 8.6: insertion-only testers hold a matching capped
    at ``k_eff``; dynamic ones a sampler per pair of ``2 k_eff`` groups
    plus their sparsifier H."""
    caps = estimator_caps(n, alpha)
    if not dynamic:
        return {"testers": 2 * sum(caps)}
    pairs = 0
    for k_eff in caps:
        groups = max(2, 2 * k_eff)
        pairs += groups * (groups - 1) // 2
    return {"testers": pairs * sampler_words(n, pair_columns)
            + _h_words(h_edges, h_matching)}


def derived_memory(alg) -> Dict[str, int]:
    """The ledger ``alg`` should hold now, from its observable state.

    A spanning forest has ``|F| = n - cc`` edges, so the connectivity
    family needs only the component counts; the matching tasks are
    read for their group pairs and sparsifier sizes.
    """
    n = alg.n
    if alg.name == "mpc-connectivity":
        return connectivity_memory(n, n - alg.num_components(),
                                   alg.family.columns)
    if alg.name == "agm-static":
        return agm_static_memory(n, alg.family.columns)
    if alg.name == "full-graph":
        return full_graph_memory(n, alg.num_edges, n - alg.num_components())
    if alg.name == "msf-exact":
        return exact_msf_memory(n, n - alg.num_components())
    if alg.name == "msf-approx":
        return approx_msf_memory(
            n, [n - level.num_components() for level in alg.levels])
    if alg.name == "bipartiteness":
        return bipartiteness_memory(n, n - alg.base.num_components(),
                                    2 * n - alg.cover.num_components())
    if alg.name == "matching-greedy":
        return greedy_matching_memory(alg.matching_size())
    if alg.name == "matching-akly":
        guesses = alg.guesses
        sparsifiers = [g.sparsifier for g in guesses]
        return akly_memory(
            n, sum(len(g.active) for g in guesses),
            sum(s.matching.num_edges for s in sparsifiers),
            sum(s.matching.matching_size() for s in sparsifiers),
            sparsifiers[0].samplers.randomness.columns)
    if alg.name == "matching-size":
        sparsifiers = [t.sparsifier for t in alg.testers] \
            if alg.dynamic else []
        return matching_size_memory(
            n, alg.alpha, alg.dynamic,
            sum(s.matching.num_edges for s in sparsifiers),
            sum(s.matching.matching_size() for s in sparsifiers),
            sparsifiers[0].samplers.randomness.columns
            if sparsifiers else 4)
    raise ValueError(f"no derived memory for {alg.name!r}")


def rounds_bound_per_batch(phi: float, c: float = 60.0) -> float:
    """Theorem 6.7: O(1/phi) rounds per update batch.

    ``c = 60`` is fitted to the measured ledger, not derived from it.
    """
    return c / phi
