"""The golden charge ledger: exact ``rounds_by_category`` of seeded phases.

Rounds per batch is the quantity the paper is about, and in this repo
it exists only as ``charge_*`` calls.  Every other rounds assertion in
the suites is an *upper* bound, so a deleted charge makes the numbers
look better and nothing fails.  This file pins the ledger from below:
one explicit stream, every registered task plus the AGM baseline, the
exact per-category rounds of each phase kind -- standalone, and inside
a :class:`GraphSession` where the ``(route)`` row carries the routing
gather once and each task's row carries the rest.

A task that is registered without a pinned ledger fails
``test_every_registered_task_has_a_pinned_ledger``: a new task cannot
ship uncharged.  Charges are parent-side, so the pinned dicts hold on
every execution backend.

The memory ledger is pinned the same way, from the formulas of
:mod:`repro.analysis.theory`: after every phase of every stream here,
each task's ``memory_breakdown()`` and ``total_memory_words()`` equal
the derived closed form with zero slack, standalone and per task inside
a session.  ``test_sketch_pool_equals_its_ledger_entry`` checks that
every sketch family's pool is exactly the words its owner charges.
"""

import pytest

from repro.analysis import derived_memory
from repro.baselines import AGMStaticConnectivity
from repro.core.api import BatchDynamicAlgorithm
from repro.mpc import Cluster, MPCConfig
from repro.mpc.backend import open_backend
from repro.session import GraphSession
from repro.types import dele, ins

N = 64
WORKERS = 2
BACKENDS = ("sequential", "shared_memory")

#: A 20-edge path, two chords over it, and one far edge: the insert
#: batch merges 22 singleton components into two.
INSERTS = ([ins(i, i + 1) for i in range(20)]
           + [ins(0, 10), ins(5, 15), ins(30, 31)])
#: Two path edges whose fragments the chords reconnect (two recovered
#: replacements) and one tree edge with no replacement.
DELETES = [dele(3, 4), dele(12, 13), dele(30, 31)]

#: The Section 1.2 routing gather: once per standalone phase, once per
#: *session* phase on the ``(route)`` row.
ROUTE = {"route-updates": 2}

#: name -> phase kind -> rounds_by_category, ``ROUTE`` excluded.  The
#: phases run in the order insert, delete, query on one instance;
#: ``preload`` loads ``INSERTS`` into a fresh one.  A missing kind means
#: the default-constructed task does not have that phase.
LEDGER = {
    "connectivity": {
        "insert": {"sketch-update": 9, "classify": 1, "build-H": 2,
                   "tour-update": 9, "relabel": 3},
        "delete": {"sketch-update": 3, "classify": 1, "tour-update": 18,
                   "sketch-merge": 9, "build-H": 2, "relabel": 3},
        "query": {"query": 3},
        "preload": {"preload": 54, "tour-update": 9},
    },
    "bipartiteness": {
        "insert": {"double-cover": 28},
        "delete": {"double-cover": 43},
    },
    "matching": {
        "insert": {"batch": 9, "sparsifier": 2, "maximal-matching": 2},
        "delete": {"batch": 3, "sparsifier": 2, "maximal-matching": 2},
    },
    "matching_greedy": {
        "insert": {"batch": 9, "filter": 1},
    },
    "matching_size": {
        "insert": {"batch": 9, "testers": 1},
    },
    "msf": {
        "insert": {"batch": 9, "identify-path": 12, "build-H": 2,
                   "tour-update": 9, "relabel": 3},
    },
    "msf_approx": {
        "insert": {"parallel-levels": 26},
        "delete": {"parallel-levels": 38},
    },
    "agm-static": {
        "insert": {"sketch-update": 9},
        "delete": {"sketch-update": 3},
        "query": {"query-merge": 36, "query-route": 4},
    },
}

#: Session groupings: the first sees both batches; the second holds the
#: insertion-only theorems, so it sees ``INSERTS`` alone.
SESSIONS = (
    ("connectivity", "bipartiteness", "matching"),
    ("msf", "msf_approx", "matching_greedy", "matching_size"),
)


CONFIG = MPCConfig(n=N, seed=0)


def _cluster(backend):
    """A cluster of its own on ``backend`` (a name), owning its
    executor (``WORKERS`` threads for ``shared_memory``)."""
    return Cluster(CONFIG, backend=open_backend(backend, WORKERS))


def _classes():
    return {**BatchDynamicAlgorithm.task_registry(),
            "agm-static": AGMStaticConnectivity}


def _unpinned(registry):
    return sorted(set(registry) - set(LEDGER))


def test_every_registered_task_has_a_pinned_ledger():
    registry = _classes()
    assert _unpinned(registry) == []
    assert _unpinned({**registry, "shiny_new_task": object}) == \
        ["shiny_new_task"]
    assert sorted(set(LEDGER) - set(registry)) == [], "stale pins"
    in_a_session = [task for group in SESSIONS for task in group]
    assert sorted(in_a_session) == \
        sorted(BatchDynamicAlgorithm.task_registry())


def _assert_memory_derived(alg):
    derived = derived_memory(alg)
    assert alg.memory_breakdown() == derived, alg.name
    assert alg.total_memory_words() == sum(derived.values()), alg.name


def _measured_phases(alg):
    """Drive ``alg`` through the phase kinds it has; kind -> ledger.
    The memory ledger must equal its derived formula after each."""
    out = {"insert": alg.apply_batch(INSERTS).rounds_by_category}
    _assert_memory_derived(alg)
    if alg.supports_deletions:
        out["delete"] = alg.apply_batch(DELETES).rounds_by_category
        _assert_memory_derived(alg)
    if hasattr(alg, "query_with_metrics"):
        out["query"] = alg.query_with_metrics()[1].rounds_by_category
        _assert_memory_derived(alg)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(LEDGER))
def test_standalone_ledger(name, backend):
    cls = _classes()[name]
    with _cluster(backend) as cluster:
        measured = _measured_phases(cls(CONFIG, cluster=cluster))
    if hasattr(cls, "preload"):
        with _cluster(backend) as cluster:
            fresh = cls(CONFIG, cluster=cluster)
            measured["preload"] = fresh.preload(
                [up.edge for up in INSERTS]).rounds_by_category
        _assert_memory_derived(fresh)
    routed = ("insert", "delete")
    assert measured == {
        kind: ({**ROUTE, **pinned} if kind in routed else pinned)
        for kind, pinned in LEDGER[name].items()
    }


def test_stream_has_the_shape_the_ledger_is_pinned_on():
    alg = _classes()["connectivity"](CONFIG)
    alg.apply_batch(INSERTS)
    assert alg.num_components() == N - 21
    alg.apply_batch(DELETES)
    assert alg.stats["tree_edge_deletions"] == 3
    assert alg.stats["replacement_edges"] == 2
    assert alg.num_components() == N - 20


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("tasks", SESSIONS, ids="+".join)
def test_session_ledger_routes_once(tasks, backend):
    batches = {"insert": INSERTS}
    if all("delete" in LEDGER[task] for task in tasks):
        batches["delete"] = DELETES
    with GraphSession(config=CONFIG, tasks=tasks, backend=backend,
                      backend_workers=WORKERS) as session:
        for kind, batch in batches.items():
            phase = session.apply_batch(batch)
            assert phase.route.rounds_by_category == ROUTE
            assert {task: snap.rounds_by_category
                    for task, snap in phase.per_task.items()} == \
                {task: LEDGER[task][kind] for task in tasks}
            # One shared memory ledger, each task under its own prefix.
            algs = [session.query(task) for task in tasks]
            assert session.cluster.metrics.memory_breakdown() == {
                f"{alg.name}/{key}": words for alg in algs
                for key, words in derived_memory(alg).items()}
            for alg in algs:
                assert alg.registered_memory_words() == \
                    sum(derived_memory(alg).values())


def _owned_families(alg):
    """``(owner, family)`` for every sketch family ``alg`` owns,
    directly or through its nested members (bipartiteness's double
    cover, approximate MSF's weight levels)."""
    owners = [alg]
    if hasattr(alg, "cover"):
        owners.append(alg.cover)
    owners += getattr(alg, "levels", [])
    return [(owner, owner.family) for owner in owners
            if hasattr(owner, "family")]


def test_sketch_pool_equals_its_ledger_entry():
    """The ledger charges a cell's three words (W, S, F), and the pool
    stores exactly those three int64 words, F as its residue mod p.
    Checked for every family of every registered task that owns one,
    after the pinned insert, delete and query phases."""
    owners = set()
    for name, cls in sorted(BatchDynamicAlgorithm.task_registry().items()):
        alg = cls(CONFIG)
        _measured_phases(alg)
        for owner, family in _owned_families(alg):
            owners.add(name)
            charged = family.n * family.words_per_vertex
            assert family.pool.cells.size == charged, name
            assert owner.cluster.metrics.memory_breakdown()["sketches"] \
                == charged, name
    assert owners == {"bipartiteness", "connectivity", "msf_approx"}
