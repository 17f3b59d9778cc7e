"""Component-id array and label-forest tests.

:func:`repro.core.components.forest_picks` is the one local
spanning-forest step over component labels.  Beside its unit cases,
the forests of the algorithms that call it are pinned by sha1 on
seeded streams, recorded before it replaced their private union-finds.
"""

import hashlib

import pytest

from repro.baselines import FullGraphConnectivity
from repro.core import ApproxMSF, ComponentIds, ExactMSFInsertOnly
from repro.core.components import forest_picks
from repro.mpc import MPCConfig
from repro.streams import ChurnStream, weighted_insertions


class TestComponentIds:
    def test_initial_identity(self):
        comp = ComponentIds(5)
        assert [comp.id_of(v) for v in range(5)] == [0, 1, 2, 3, 4]

    def test_relabel_min_convention(self):
        comp = ComponentIds(6)
        new_id = comp.relabel_min([4, 2, 5])
        assert new_id == 2
        assert comp.same(4, 5) and comp.same(2, 4)
        assert not comp.same(0, 2)
        assert [comp.id_of(v) for v in range(6)] == [0, 1, 2, 3, 2, 2]

    def test_empty_relabel_min_rejected(self):
        comp = ComponentIds(3)
        with pytest.raises(ValueError):
            comp.relabel_min([])

    def test_words(self):
        assert ComponentIds(7).words == 7


class TestForestPicks:
    def test_kruskal_in_the_given_order(self):
        # (1, 2) is parallel to (2, 1), (3, 3) a self-loop, (1, 3)
        # closes the cycle 1-2-3 once (2, 3) is in.
        pairs = [(1, 2), (2, 1), (3, 3), (2, 3), (1, 3), (4, 5)]
        assert forest_picks(pairs) == [0, 3, 5]
        assert forest_picks(reversed(pairs)) == [0, 1, 2]

    def test_labels_need_not_be_dense(self):
        assert forest_picks([(10 ** 9, -7), (-7, 3), (3, 10 ** 9)]) == [0, 1]
        assert forest_picks([]) == []


def _sha1(rows):
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def _full_graph_forests():
    alg = FullGraphConnectivity(MPCConfig(n=128, phi=0.5, seed=3))
    for batch in ChurnStream(128, seed=11, delete_fraction=0.35,
                             target_edges=256).batches(24, alg.batch_limit):
        alg.apply_batch(batch)
        yield alg.query_spanning_forest().edges


def _exact_msf_forests():
    alg = ExactMSFInsertOnly(MPCConfig(n=128, phi=0.5, seed=3))
    stream = weighted_insertions(128, 384, max_weight=50.0, seed=12)
    for i in range(0, len(stream), alg.batch_limit):
        alg.apply_batch(stream[i:i + alg.batch_limit])
        msf = alg.query_msf()
        yield msf.edges, msf.weights


def _approx_msf_forests():
    alg = ApproxMSF(MPCConfig(n=64, phi=0.5, seed=3), eps=0.5,
                    max_weight=100.0)
    for batch in ChurnStream(64, seed=13, delete_fraction=0.3,
                             target_edges=128,
                             weights=(1, 100)).batches(16, alg.batch_limit):
        alg.apply_batch(batch)
        forest = alg.query_forest()
        yield forest.edges, forest.weights


@pytest.mark.parametrize("forests,digest", [
    (_full_graph_forests, "3a8e20253cecae7d"),
    (_exact_msf_forests, "7b328e8c57b1cb33"),
    (_approx_msf_forests, "aeec9fa86856881b"),
], ids=["full-graph", "msf-exact", "msf-approx-query-forest"])
def test_forests_after_every_batch_are_pinned(forests, digest):
    assert _sha1(list(forests())) == digest
