"""Dynamic bipartiteness tests (Theorem 7.3)."""

import hashlib

import networkx as nx
import numpy as np
import pytest

from tests.conftest import make_valid_batch
from repro.analysis import connectivity_memory
from repro.baselines import is_bipartite as nx_bipartite
from repro.core import DynamicBipartiteness, MPCConnectivity
from repro.mpc import MPCConfig
from repro.session import GraphSession
from repro.streams import (
    ChurnStream,
    even_cycle_insertions,
    odd_cycle_insertions,
)
from repro.types import dele, ins


class TestCycles:
    def test_empty_graph_is_bipartite(self):
        alg = DynamicBipartiteness(MPCConfig(n=8, phi=0.5, seed=0))
        assert alg.is_bipartite()

    def test_even_cycle_bipartite(self):
        alg = DynamicBipartiteness(MPCConfig(n=12, phi=0.5, seed=0))
        alg.apply_batch(even_cycle_insertions(10))
        assert alg.is_bipartite()

    def test_odd_cycle_not_bipartite(self):
        alg = DynamicBipartiteness(MPCConfig(n=12, phi=0.5, seed=0))
        alg.apply_batch(odd_cycle_insertions(9))
        assert not alg.is_bipartite()

    def test_triangle_toggle(self):
        alg = DynamicBipartiteness(MPCConfig(n=6, phi=0.5, seed=1))
        alg.apply_batch([ins(0, 1), ins(1, 2)])
        assert alg.is_bipartite()
        alg.apply_batch([ins(0, 2)])
        assert not alg.is_bipartite()
        alg.apply_batch([dele(0, 2)])
        assert alg.is_bipartite()

    def test_disconnected_components_each_count(self):
        alg = DynamicBipartiteness(MPCConfig(n=10, phi=0.5, seed=2))
        alg.apply_batch([ins(0, 1), ins(1, 2), ins(0, 2),  # odd triangle
                         ins(5, 6), ins(6, 7)])            # bipartite path
        assert not alg.is_bipartite()
        alg.apply_batch([dele(1, 2)])
        assert alg.is_bipartite()


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        alg = DynamicBipartiteness(MPCConfig(n=n, phi=0.5, seed=seed))
        live = set()
        for _ in range(12):
            batch = make_valid_batch(rng, n, live, size=4,
                                     delete_fraction=0.3)
            alg.apply_batch(batch)
            assert alg.is_bipartite() == nx_bipartite(n, live)


#: The differential stream: the last ``ISOLATED`` vertices are never
#: touched, and 4-12 updates per phase with 45 % deletions keep odd and
#: bipartite components side by side in one graph.
DIFF_N, ISOLATED, SEEDS, PHASES = 32, 4, 30, 15


def _networkx_components(n, live):
    """``(odd, even, total)``: components holding an odd cycle,
    bipartite ones with an edge, and all components (isolated
    vertices included)."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(live)
    parts = [graph.subgraph(c) for c in nx.connected_components(graph)]
    odd = sum(not nx.is_bipartite(part) for part in parts)
    even = sum(nx.is_bipartite(part) and part.number_of_edges() > 0
               for part in parts)
    return odd, even, len(parts)


class TestDifferential:
    """Both answers come from the double cover alone: checked against
    networkx after every phase, standalone and inside a session (where
    ``session.num_components()`` is the cover's unless a connectivity
    task is present, whose count must agree)."""

    @pytest.mark.parametrize(
        "setup", ["standalone", "bipartiteness-only", "with-connectivity"])
    def test_matches_networkx_every_phase(self, setup):
        states = non_bipartite = mixed = 0
        for seed in range(SEEDS):
            rng = np.random.default_rng(seed)
            config = MPCConfig(n=DIFF_N, seed=seed)
            tasks = {"bipartiteness-only": ("bipartiteness",),
                     "with-connectivity": ("connectivity", "bipartiteness"),
                     }.get(setup)
            session = (GraphSession(config=config, tasks=tasks)
                       if tasks else None)
            alg = (session.query("bipartiteness") if session
                   else DynamicBipartiteness(config))
            live = set()
            for _ in range(PHASES):
                batch = make_valid_batch(rng, DIFF_N - ISOLATED, live,
                                         size=int(rng.integers(4, 13)),
                                         delete_fraction=0.45)
                (session or alg).apply_batch(batch)
                odd, even, total = _networkx_components(DIFF_N, live)
                assert alg.is_bipartite() == (odd == 0), (seed, live)
                assert alg.num_components() == total, (seed, live)
                if session:
                    assert session.is_bipartite() == (odd == 0)
                    assert session.num_components() == total
                if setup == "with-connectivity":
                    assert session.query("connectivity").num_components() \
                        == alg.num_components()
                states += 1
                non_bipartite += odd > 0
                mixed += odd > 0 and even > 0
            if session:
                session.close()
        assert states == SEEDS * PHASES
        assert 4 * non_bipartite >= states, non_bipartite
        assert mixed > 0


class TestCoverParity:
    #: sha1 of the cover's pool cells, forest edges and ``stats`` after
    #: the last phase, and of every phase's ``(is_bipartite,
    #: num_components, rounds)``; recorded while a second connectivity
    #: instance on G still ran beside the cover.
    COVER_SHA1 = "e39d48eb740d656152ab80cfa95341ac00bcd591"
    ANSWERS_SHA1 = "066d7257e4a216ba15fb08f60eb94b62d4f3090b"

    @staticmethod
    def _cover_sha1(cover):
        h = hashlib.sha1()
        h.update(cover.family.pool.cells.tobytes())
        h.update(repr(sorted(cover.forest.all_edges())).encode())
        h.update(repr(sorted(cover.stats.items())).encode())
        return h.hexdigest()

    def test_cover_is_unchanged_by_dropping_the_instance_on_g(self):
        n = 128
        alg = DynamicBipartiteness(MPCConfig(n=n, seed=5))
        stream = ChurnStream(n, seed=6, delete_fraction=0.35,
                             target_edges=2 * n)
        answers = []
        for batch in stream.batches(20, 16):
            alg.apply_batch(batch)
            answers.append((self._cover_sha1(alg.cover), alg.is_bipartite(),
                            alg.num_components(), alg.phases[-1].rounds))
        assert answers[-1][0] == self.COVER_SHA1
        assert hashlib.sha1(repr(answers).encode()).hexdigest() == \
            self.ANSWERS_SHA1


class TestResources:
    def test_memory_is_the_cover_alone(self):
        n = 8
        alg = DynamicBipartiteness(MPCConfig(n=n, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1)])
        assert [m for m in vars(alg).values()
                if isinstance(m, MPCConnectivity)] == [alg.cover]
        # One edge of G is two forest edges of its 2n-vertex cover.
        assert alg.memory_breakdown() == {
            "cover-instance": sum(connectivity_memory(2 * n, 2).values())}

    def test_rounds_bounded(self):
        alg = DynamicBipartiteness(MPCConfig(n=16, phi=0.5, seed=0))
        alg.apply_batch(even_cycle_insertions(12))
        assert alg.max_rounds() <= 80
