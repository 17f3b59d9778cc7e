"""Analysis helpers: table rendering and the derived cost formulas."""

import math

import pytest

from repro.analysis import (
    connectivity_memory,
    connectivity_total_memory_bound,
    derived_memory,
    estimator_caps,
    full_graph_memory,
    matching_size_memory,
    print_table,
    ratio,
    render_table,
    rounds_bound_per_batch,
    sketch_columns,
    sketch_levels,
)
from repro.baselines import AGMStaticConnectivity, FullGraphConnectivity
from repro.core.api import BatchDynamicAlgorithm
from repro.mpc import MPCConfig
from repro.sketch.edge_coding import num_pairs
from repro.sketch.l0_sampler import levels_for_universe
from repro.streams import as_batches, erdos_renyi_insertions, path_insertions
from repro.types import dele

#: Every registered task at its defaults, plus the two baselines.
TASKS = {**BatchDynamicAlgorithm.task_registry(),
         "agm-static": AGMStaticConnectivity,
         "full-graph": FullGraphConnectivity}
#: Small enough for n = 3 (Theorems 8.5/8.6 need alpha <= sqrt(n)) and
#: for 1 000 vertices per weight level.
OPTIONS = {"matching_size": {"alpha": 1.5},
           "msf_approx": {"eps": 1.0, "max_weight": 4.0}}


class TestTables:
    def test_render_alignment(self):
        rows = [
            {"alg": "ours", "rounds": 12, "memory": 3456.0},
            {"alg": "baseline", "rounds": 120, "memory": 1.0e9},
        ]
        text = render_table(rows, title="EXP-X")
        lines = text.splitlines()
        assert lines[0] == "EXP-X"
        assert "alg" in lines[1] and "rounds" in lines[1]
        assert len(lines) == 5
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1, "columns must align"

    def test_empty_rows(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = render_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_ratio(self):
        assert ratio(5, 10) == 0.5
        assert ratio(1, 0) == float("inf")

    def test_print_table_smoke(self, capsys):
        print_table([{"x": 1}], title="t")
        assert "t" in capsys.readouterr().out


class TestBounds:
    """The derived memory formulas of :mod:`repro.analysis.theory`, each
    equal to the ledger of an instantiated task at non-power n."""

    def test_integer_closed_forms_match_the_code(self):
        for n in range(2, 3000):
            assert sketch_columns(n) == MPCConfig(n=n).sketch_columns
            assert sketch_levels(n) == levels_for_universe(num_pairs(n))

    @pytest.mark.parametrize("n", [3, 5, 100, 300, 1000])
    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_formula_equals_ledger(self, task, n):
        alg = TASKS[task](MPCConfig(n=n, seed=n), **OPTIONS.get(task, {}))
        edges = erdos_renyi_insertions(n, min(24, num_pairs(n)), seed=n)
        stream = list(edges)
        if alg.supports_deletions:
            stream += [dele(*up.edge) for up in edges[::3]]
        for batch in as_batches(stream, min(8, alg.batch_limit)):
            alg.apply_batch(batch)
            assert alg.memory_breakdown() == derived_memory(alg)
        assert alg.total_memory_words() == sum(derived_memory(alg).values())

    def test_connectivity_memory_superlinear_in_n(self):
        assert (connectivity_total_memory_bound(2048)
                > 2 * connectivity_total_memory_bound(1024))

    def test_connectivity_bound_is_the_spanning_tree_case(self):
        assert connectivity_total_memory_bound(2048) == 3_121_148
        assert connectivity_total_memory_bound(16384) == 40_009_724
        for n in (3, 100, 1000):
            assert connectivity_total_memory_bound(n) == \
                sum(connectivity_memory(n, n - 1).values())

    def test_full_graph_linear_in_m(self):
        n = 100
        assert (sum(full_graph_memory(n, 10000, n - 1).values())
                > 5 * sum(full_graph_memory(n, 100, n - 1).values()))

    def test_rounds_bound_inverse_in_phi(self):
        assert rounds_bound_per_batch(0.25) == 2 * rounds_bound_per_batch(0.5)

    def test_agm_query_logarithmic(self):
        """The static AGM query pays one routing round and one merge
        converge-cast per halving iteration, over O(log n) iterations."""
        n = 512
        agm = AGMStaticConnectivity(MPCConfig(n=n, seed=n + 1))
        for batch in as_batches(path_insertions(n, seed=n), 16):
            agm.apply_batch(batch)
        ledger = agm.query_with_metrics()[1].rounds_by_category
        iterations = agm.stats["query_iterations"]
        assert 2 <= iterations <= 2 * math.log2(n)
        assert ledger["query-route"] == iterations
        assert ledger["query-merge"] % iterations == 0

    def test_batch_bound_monotone_in_phi(self):
        assert (MPCConfig(n=2 ** 20, phi=0.75).paper_batch_bound()
                > MPCConfig(n=2 ** 20, phi=0.25).paper_batch_bound())

    def test_matching_bounds_shrink_with_alpha(self):
        n = 1024
        for dynamic in (False, True):
            assert (matching_size_memory(n, 8, dynamic)["testers"]
                    < matching_size_memory(n, 2, dynamic)["testers"])
        assert (len(estimator_caps(n, 8)) == len(estimator_caps(n, 2))
                == 10)
