"""The AGM halving loops retire finished supernodes.

A supernode whose merged sketch tests zero has an empty cut (AGM's
rule), and the zero test reads the whole vector's totals whatever the
column, so ``MPCConnectivity._agm_replacements`` and
``AGMStaticConnectivity._agm_forest`` stop querying it until a
contraction merges into it.  The reference loops below are the loops
without that rule -- every surviving supernode queried on every
iteration, then every one scanned again -- kept here as
``ReferenceSampler`` is kept for the sampler: the rule must change
how many group rows are merged and nothing else.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.baselines import AGMStaticConnectivity
from repro.core import MPCConnectivity
from repro.errors import SketchFailureError
from repro.mpc import MPCConfig
from repro.streams import ChurnStream
from repro.types import ForestSolution


# ---------------------------------------------------------------------------
# The loops without retirement
# ---------------------------------------------------------------------------

def reference_agm_replacements(self, fragments, members):
    """``MPCConnectivity._agm_replacements`` querying every surviving
    supernode on every iteration."""
    leader = {tid: tid for tid in fragments}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    replacement = []
    columns = self.family.columns
    roots: Set[int] = set(fragments)
    iterations = 0
    for it in range(columns):
        ordered = sorted(roots)
        if not ordered:
            break
        column = (self._column_cursor + it) % columns
        zeros, sampled = self.family.query_iteration_groups(
            [members[root] for root in ordered], column)
        if zeros.all():
            break
        iterations = it + 1
        candidates = [(root, edge)
                      for root, is_z, edge in zip(ordered, zeros, sampled)
                      if not is_z and edge is not None]
        for root, (a, b) in candidates:
            tid_a = self.forest.tree_id(a)
            tid_b = self.forest.tree_id(b)
            ra = find(tid_a) if tid_a in leader else None
            rb = find(tid_b) if tid_b in leader else None
            if ra is None or rb is None or ra == rb:
                continue
            leader[ra] = rb
            members[rb] = np.concatenate((members[rb], members[ra]))
            roots.discard(ra)
            replacement.append((a, b))
    self.stats["agm_iterations"] = max(self.stats["agm_iterations"],
                                       iterations)
    self._column_cursor = (self._column_cursor + iterations) % columns
    remaining = sorted(roots)
    leftover_zero = self.family.cuts_empty_groups(
        [members[r] for r in remaining])
    leftovers = [r for r, is_z in zip(remaining, leftover_zero)
                 if not is_z]
    if leftovers:
        self.stats["sketch_failures"] += len(leftovers)
        if self.strict:
            raise SketchFailureError("nonzero cut left")
    return replacement


def reference_agm_forest(self):
    """``AGMStaticConnectivity._agm_forest`` recomputing and querying
    every supernode on every iteration."""
    n = self.n
    leader: Dict[int, int] = {v: v for v in range(n)}

    def find(x):
        while leader[x] != x:
            leader[x] = leader[leader[x]]
            x = leader[x]
        return x

    members = {v: np.array([v], dtype=np.int64) for v in range(n)}
    forest_edges = []
    iterations = 0
    for column in range(self.family.columns):
        roots = sorted(r for r in members if find(r) == r)
        zeros, sampled = self.family.query_iteration_groups(
            [members[r] for r in roots], column)
        if zeros.all():
            break
        iterations += 1
        live_count = int((~zeros).sum())
        self.cluster.charge_converge(words=self.family.words_per_vertex,
                                     category="query-merge")
        self.cluster.charge_exchange(messages=live_count, words=live_count,
                                     category="query-route")
        for root, edge in zip(roots, sampled):
            if edge is None:
                continue
            a, b = edge
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            leader[ra] = rb
            members[rb] = np.concatenate((members[rb], members[ra]))
            del members[ra]
            forest_edges.append((a, b))
    self.stats["query_iterations"] = iterations
    remaining = sorted(r for r in members if find(r) == r)
    zero = self.family.cuts_empty_groups([members[r] for r in remaining])
    self.stats["sketch_failures"] += sum(1 for z in zero if not z)
    return ForestSolution(n=n, edges=sorted(forest_edges), weights=[])


def count_group_rows(alg) -> List[int]:
    """Wrap ``alg.family``'s two group reads so every member row they
    merge is counted; returns the one-entry counter."""
    family, rows = alg.family, [0]

    def counted(read):
        def wrapper(groups, *args):
            rows[0] += sum(len(g) for g in groups)
            return read(groups, *args)
        return wrapper

    family.query_iteration_groups = counted(family.query_iteration_groups)
    family.cuts_empty_groups = counted(family.cuts_empty_groups)
    return rows


def churn(n, seed):
    return ChurnStream(n, seed=seed, delete_fraction=0.35,
                       target_edges=2 * n).batches(24, n // 4)


def metrics_row(metrics):
    row = dataclasses.asdict(metrics)
    row.pop("backend_events")
    return row


# ---------------------------------------------------------------------------
# Seeded churn: identical answers, strictly fewer merged rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [64, 256])
def test_replacement_search_matches_reference_loop(n):
    config = MPCConfig(n=n, phi=0.5, seed=5)
    algs = MPCConnectivity(config), MPCConnectivity(config)
    ref = algs[1]
    ref._agm_replacements = types.MethodType(reference_agm_replacements,
                                             ref)
    rows = [count_group_rows(alg) for alg in algs]
    found: Tuple[list, list] = ([], [])
    for alg, log in zip(algs, found):
        search = alg._agm_replacements

        def logged(fragments, members, search=search, log=log):
            log.append(search(fragments, members))
            return log[-1]

        alg._agm_replacements = logged
    for batch in churn(n, seed=n):
        for alg in algs:
            alg.apply_batch(batch)
        assert found[0] == found[1]
        assert algs[0].stats == ref.stats
        assert algs[0]._column_cursor == ref._column_cursor
        assert (algs[0].query_spanning_forest().edges
                == ref.query_spanning_forest().edges)
        assert metrics_row(algs[0].phases[-1]) == metrics_row(ref.phases[-1])
    assert ref.stats["agm_iterations"] >= 2
    assert sum(map(len, found[0])) > 0
    assert rows[0][0] < rows[1][0]


@pytest.mark.parametrize("n", [64, 256])
def test_static_agm_query_matches_reference_loop(n):
    config = MPCConfig(n=n, phi=0.5, seed=6)
    algs = AGMStaticConnectivity(config), AGMStaticConnectivity(config)
    ref = algs[1]
    ref._agm_forest = types.MethodType(reference_agm_forest, ref)
    rows = [count_group_rows(alg) for alg in algs]
    for i, batch in enumerate(churn(n, seed=n + 1)):
        for alg in algs:
            alg.apply_batch(batch)
        if i % 6 != 5:
            continue
        (got, got_metrics), (want, want_metrics) = (
            alg.query_with_metrics() for alg in algs)
        assert got.edges == want.edges
        assert algs[0].stats == ref.stats
        assert metrics_row(got_metrics) == metrics_row(want_metrics)
    assert ref.stats["query_iterations"] >= 2
    assert rows[0][0] < rows[1][0]


# ---------------------------------------------------------------------------
# Scripted edge cases
# ---------------------------------------------------------------------------

class ScriptedFamily:
    """Answers each ``query_iteration_groups`` call from a script of
    ``(zeros, edges)`` pairs and records every group read."""

    def __init__(self, columns, script):
        self.columns = columns
        self.script = list(script)
        self.queried: List[list] = []
        self.scanned: List[list] = []

    def query_iteration_groups(self, groups, column):
        self.queried.append([sorted(g.tolist()) for g in groups])
        zeros, edges = self.script.pop(0)
        return np.array(zeros, dtype=bool), list(edges)

    def cuts_empty_groups(self, groups):
        self.scanned.append([sorted(g.tolist()) for g in groups])
        return np.ones(len(groups), dtype=bool)


def scripted_search(loop, script, fragments):
    """Run ``loop`` on tour ids ``fragments``, vertex ``10 * t`` being
    the one member of tour ``t``; returns ``(alg, family, found)``."""
    alg = MPCConnectivity(MPCConfig(n=8, phi=0.5, seed=0))
    alg.family = ScriptedFamily(4, script)
    alg.forest = types.SimpleNamespace(tree_id=lambda v: v // 10)
    members = {t: np.array([10 * t], dtype=np.int64) for t in fragments}
    found = loop(alg, list(fragments), members)
    return alg, alg.family, found


def test_contraction_into_a_retired_root_requeries_it():
    # Iteration 0: tour 1 reads zero (a false zero), tour 2 recovers an
    # edge into tour 1, tour 3 recovers nothing.  Tour 1 was dropped,
    # but the contraction puts it back: iteration 1 re-queries it with
    # tour 2's rows merged in, beside tour 3.
    script = [([True, False, False], [None, (20, 10), None]),
              ([True, True], [None, None])]
    alg, family, found = scripted_search(MPCConnectivity._agm_replacements,
                                         script, (1, 2, 3))
    assert found == [(20, 10)]
    assert family.queried == [[[10], [20], [30]], [[10, 20], [30]]]
    assert family.scanned == [[]]
    assert alg.stats["agm_iterations"] == 1
    assert alg._column_cursor == 1


def test_all_zero_break_leaves_no_leftover_scan():
    # Tour 1 reads zero at once and is never queried again; tour 2
    # reads zero one iteration later, which ends the search with
    # nothing left to scan.  The reference loop queries both twice and
    # then scans both.
    script = [([True, False], [None, None]), ([True], [None])]
    alg, family, found = scripted_search(MPCConnectivity._agm_replacements,
                                         script, (1, 2))
    assert found == []
    assert family.queried == [[[10], [20]], [[20]]]
    assert family.scanned == [[]]
    assert alg.stats["agm_iterations"] == 1
    assert alg._column_cursor == 1

    script = [([True, False], [None, None]), ([True, True], [None, None])]
    ref, ref_family, ref_found = scripted_search(reference_agm_replacements,
                                                 script, (1, 2))
    assert ref_found == found
    assert ref_family.queried == [[[10], [20]], [[10], [20]]]
    assert ref_family.scanned == [[[10], [20]]]
    assert ref.stats == alg.stats
    assert ref._column_cursor == alg._column_cursor
