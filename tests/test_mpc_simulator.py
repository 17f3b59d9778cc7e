"""Tests for the cluster ledger's closed-form round charges and capacity
enforcement, and for the reference exchange round built on them."""

import pickle

import pytest

from repro.errors import CapacityExceededError
from repro.mpc import Cluster, MPCConfig
from repro.mpc.simulator import tree_depth
from tests.mpc_reference import Message, exchange


class TestTreeDepth:
    def test_single_node(self):
        assert tree_depth(1, 4) == 0

    def test_exact_powers(self):
        assert tree_depth(16, 4) == 2
        assert tree_depth(17, 4) == 3

    def test_fanout_two(self):
        assert tree_depth(8, 2) == 3

    @pytest.mark.parametrize("fanout", [2, 3, 5, 6, 7, 8, 10, 31, 125, 199])
    def test_every_exact_power(self, fanout):
        """Integer depths: a float log overshoots at 125 = 5^3,
        216 = 6^3 and 8^7, and would charge one round too many."""
        k, power = 1, fanout
        while power <= 10 ** 7:
            assert tree_depth(power, fanout) == k
            assert tree_depth(power + 1, fanout) == k + 1
            k, power = k + 1, power * fanout

    def test_bad_fanout(self):
        with pytest.raises(ValueError):
            tree_depth(4, 1)


class TestExchange:
    def test_delivery_and_counters(self, small_cluster):
        msgs = [Message(src=0, dst=1, payload="x", words=2),
                Message(src=0, dst=2, payload="y", words=1)]
        before = small_cluster.metrics.rounds
        inboxes = exchange(small_cluster, msgs)
        assert small_cluster.metrics.rounds == before + 1
        assert inboxes[1][0].payload == "x"
        assert inboxes[2][0].payload == "y"
        assert small_cluster.metrics.messages >= 2
        assert small_cluster.metrics.words_sent >= 3

    def test_bad_destination_rejected(self, small_cluster):
        bad = [Message(src=0, dst=10 ** 9, payload=None, words=1)]
        with pytest.raises(ValueError):
            exchange(small_cluster, bad)

    def test_capacity_violation_recorded(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        flood = [Message(src=0, dst=1, payload=None,
                         words=cluster.local_memory + 1)]
        exchange(cluster, flood)
        assert len(cluster.metrics.violations) >= 1

    def test_capacity_violation_strict_raises(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=True)
        cluster = Cluster(config)
        flood = [Message(src=0, dst=1, payload=None,
                         words=cluster.local_memory + 1)]
        with pytest.raises(CapacityExceededError):
            exchange(cluster, flood)

    def test_bad_source_rejected(self, small_cluster):
        bad = [Message(src=-1, dst=0, payload=None, words=1)]
        with pytest.raises(ValueError):
            exchange(small_cluster, bad)

    def test_oversized_message_breaks_send_and_recv_budgets(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        for _ in range(3):
            exchange(cluster, [Message(src=0, dst=1, payload=None,
                                       words=10 ** 6)])
        assert [(v.machine_id, v.what, v.used)
                for v in cluster.metrics.violations] == [
            (0, "send", 10 ** 6), (1, "recv", 10 ** 6)] * 3

    def test_budget_is_summed_per_machine_per_round(self):
        """Messages within budget one by one still overflow their shared
        receiver; each sender stays within its own budget."""
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        share = cluster.local_memory // 2 + 1
        exchange(cluster, [Message(src=src, dst=0, payload=None,
                                   words=share) for src in (1, 2)])
        assert [(v.machine_id, v.what, v.used)
                for v in cluster.metrics.violations] == [
            (0, "recv", 2 * share)]


class TestCluster:
    def test_machine_count_comes_from_config(self):
        config = MPCConfig(n=16384, phi=0.5, seed=0)
        cluster = Cluster(config)
        assert type(cluster.num_machines) is int
        assert cluster.num_machines == config.machine_count

    def test_pickled_size_independent_of_machine_count(self):
        """The ledger keeps no per-machine object, so a cluster of
        25 088 machines pickles as small as one of a few hundred."""
        small = Cluster(MPCConfig(n=64, phi=0.5, seed=0))
        large = Cluster(MPCConfig(n=16384, phi=0.5, seed=0))
        assert large.num_machines > 50 * small.num_machines
        assert abs(len(pickle.dumps(large)) - len(pickle.dumps(small))) < 64


class TestCharges:
    def test_local_is_one_round(self, small_cluster):
        assert small_cluster.charge_local() == 1

    def test_broadcast_depth_positive(self, small_cluster):
        rounds = small_cluster.charge_broadcast(words=1)
        assert rounds >= 1
        depth = tree_depth(small_cluster.num_machines,
                           small_cluster.config.fanout(1))
        assert rounds == max(1, depth)

    def test_broadcast_bigger_messages_cost_more(self):
        cluster = Cluster(MPCConfig(n=1024, phi=0.33, seed=0))
        cheap = cluster.charge_broadcast(words=1)
        costly = cluster.charge_broadcast(words=cluster.local_memory // 2)
        assert costly >= cheap

    def test_converge_matches_broadcast(self, small_cluster):
        assert (small_cluster.charge_converge(words=1)
                == small_cluster.charge_broadcast(words=1))

    def test_gather_flags_oversized_result(self):
        config = MPCConfig(n=16, phi=0.5, strict_capacity=False)
        cluster = Cluster(config)
        cluster.charge_gather(total_words=cluster.local_memory * 10)
        assert len(cluster.metrics.violations) >= 1

    def test_sort_charge_formula(self, small_cluster):
        import math
        rounds = small_cluster.charge_sort(1000)
        depth = math.ceil(math.log(1000, small_cluster.local_memory))
        assert rounds == 2 * max(1, depth) + 1

    def test_charges_at_exact_powers(self):
        broadcast = Cluster(MPCConfig(n=256, num_machines=125))
        assert broadcast.config.fanout(12) == 5
        assert broadcast.charge_broadcast(words=12) == 3
        sort = Cluster(MPCConfig(n=25, phi=0.5, mem_factor=1.0))
        assert sort.local_memory == 5
        assert sort.charge_sort(125) == 2 * 3 + 1

    def test_sort_charge_constant_in_machine_count(self):
        few = Cluster(MPCConfig(n=64, phi=0.5, num_machines=4))
        many = Cluster(MPCConfig(n=64, phi=0.5, num_machines=400))
        assert few.charge_sort(500) == many.charge_sort(500)

    def test_rounds_constant_in_n_for_fixed_phi(self):
        """The O(1/phi) claim: charges do not grow with n (they only
        depend on log_s(#machines) ~ 1/phi)."""
        rounds = []
        for n in (256, 1024, 4096, 16384):
            cluster = Cluster(MPCConfig(n=n, phi=0.5, seed=0))
            rounds.append(cluster.charge_broadcast())
        assert max(rounds) <= min(rounds) + 1

    def test_rounds_grow_as_phi_shrinks(self):
        shallow = Cluster(MPCConfig(n=4096, phi=0.75, seed=0))
        deep = Cluster(MPCConfig(n=4096, phi=0.25, seed=0))
        assert (deep.charge_broadcast() >= shallow.charge_broadcast())


class TestPhases:
    def test_phase_wraps_metrics(self, small_cluster):
        small_cluster.begin_phase("test")
        small_cluster.charge_local()
        snap = small_cluster.end_phase(batch_size=3)
        assert snap.rounds == 1
        assert snap.batch_size == 3
        assert snap.label == "test"
