"""The message-passing reference primitives (``tests/mpc_reference.py``):
correctness and the measured-rounds == closed-form-charge contract that
keeps the ledger honest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Cluster, MPCConfig
from tests.mpc_reference import (
    broadcast_value,
    converge_cast,
    distributed_sort,
    distributed_sort_flat,
    gather_to_root,
)


def fresh_cluster(n=64, phi=0.5, machines=None, seed=0):
    return Cluster(MPCConfig(n=n, phi=phi, seed=seed,
                             num_machines=machines))


class TestBroadcast:
    @pytest.mark.parametrize("machines", [1, 2, 7, 33, 130])
    def test_everyone_receives(self, machines):
        cluster = fresh_cluster(machines=machines)
        values = broadcast_value(cluster, "payload")
        assert values == ["payload"] * machines

    @pytest.mark.parametrize("machines", [2, 7, 33, 130])
    def test_measured_rounds_equal_charge(self, machines):
        cluster = fresh_cluster(machines=machines)
        before = cluster.metrics.rounds
        broadcast_value(cluster, 42, words=1)
        measured = cluster.metrics.rounds - before
        charged = cluster.charge_broadcast(words=1)
        assert measured == charged

    def test_nondefault_root(self):
        cluster = fresh_cluster(machines=9)
        values = broadcast_value(cluster, "v", root=4)
        assert values == ["v"] * 9


class TestConvergeCast:
    @pytest.mark.parametrize("machines", [1, 2, 5, 31, 70])
    def test_sum_aggregation(self, machines):
        cluster = fresh_cluster(machines=machines)
        result = converge_cast(cluster, list(range(machines)),
                               lambda a, b: a + b)
        assert result == sum(range(machines))

    @pytest.mark.parametrize("machines", [2, 5, 31, 70])
    def test_measured_rounds_equal_charge(self, machines):
        cluster = fresh_cluster(machines=machines)
        before = cluster.metrics.rounds
        converge_cast(cluster, [1] * machines, lambda a, b: a + b)
        measured = cluster.metrics.rounds - before
        charged = cluster.charge_converge(words=1)
        assert measured == charged

    def test_wrong_arity_rejected(self):
        cluster = fresh_cluster(machines=4)
        with pytest.raises(ValueError):
            converge_cast(cluster, [1, 2], lambda a, b: a + b)

    def test_gather_concatenates_in_machine_order(self):
        cluster = fresh_cluster(machines=6)
        parts = [[i] for i in range(6)]
        gathered = gather_to_root(cluster, parts)
        assert gathered == [0, 1, 2, 3, 4, 5]


class TestDistributedSort:
    @pytest.mark.parametrize("machines", [1, 2, 9, 40])
    def test_sorts_globally(self, machines):
        cluster = fresh_cluster(machines=machines)
        rng = np.random.default_rng(3)
        items = [int(x) for x in rng.integers(0, 10 ** 6, 500)]
        result = distributed_sort_flat(cluster, items)
        assert result == sorted(items)

    def test_respects_key(self):
        cluster = fresh_cluster(machines=8)
        items = [(i % 5, i) for i in range(100)]
        result = distributed_sort_flat(cluster, items,
                                       key=lambda t: (-t[0], t[1]))
        assert result == sorted(items, key=lambda t: (-t[0], t[1]))

    @pytest.mark.parametrize("machines", [2, 9])
    def test_measured_rounds_equal_charge_small_clusters(self, machines):
        """When the splitter vector fits the tree fanout, the one-level
        sample sort achieves exactly the [GSZ11] charge."""
        cluster = fresh_cluster(machines=machines)
        per_machine = [[int(x) for x in
                        np.random.default_rng(m).integers(0, 999, 10)]
                       for m in range(machines)]
        before = cluster.metrics.rounds
        distributed_sort(cluster, per_machine)
        measured = cluster.metrics.rounds - before
        charged = cluster.charge_sort(10 * machines)
        assert measured == charged

    def test_one_level_sort_never_beats_theory(self):
        """On wide clusters the single-level implementation pays extra
        splitter-dissemination rounds; the theoretical charge (which
        models the recursive [GSZ11] construction) is a lower bound."""
        cluster = fresh_cluster(machines=40)
        per_machine = [[int(x) for x in
                        np.random.default_rng(m).integers(0, 999, 20)]
                       for m in range(40)]
        before = cluster.metrics.rounds
        distributed_sort(cluster, per_machine)
        measured = cluster.metrics.rounds - before
        charged = cluster.charge_sort(20 * 40)
        assert measured >= charged

    def test_empty_machines_tolerated(self):
        cluster = fresh_cluster(machines=5)
        per_machine = [[], [3, 1], [], [2], []]
        result = distributed_sort(cluster, per_machine)
        flat = [x for part in result for x in part]
        assert flat == [1, 2, 3]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=200))
    def test_sort_property(self, items):
        cluster = fresh_cluster(machines=7)
        assert distributed_sort_flat(cluster, items) == sorted(items)


class TestCapacityUnderPrimitives:
    def test_no_violations_for_small_payloads(self):
        cluster = fresh_cluster(machines=20)
        broadcast_value(cluster, 1, words=1)
        converge_cast(cluster, [1] * 20, lambda a, b: a + b, words=1)
        assert cluster.metrics.violations == []
