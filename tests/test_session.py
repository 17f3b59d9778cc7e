"""GraphSession: shared-cluster multiplexing, parity, checkpoints.

The contracts under test (ISSUE 4 acceptance):

* one ``Cluster`` / execution backend / validator serves every task,
  with validation and the route-updates charge once per session phase;
* per-task answers are **bit-identical** to the standalone algorithm
  classes fed the same batches, on both execution backends;
* ``checkpoint`` -> ``restore`` round-trips to identical query answers
  and identical continuation;
* ``close()`` tears the backend down deterministically (worker threads
  joined when it returns, not at GC time).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import re
import sys
import types

import numpy as np
import pytest

from repro import GraphSession, dele, ins
from repro.core import (
    DynamicBipartiteness,
    ExactMSFInsertOnly,
    MPCConnectivity,
)
from repro.core.api import BatchDynamicAlgorithm
from repro.core.matching_akly import _Guess
from repro.errors import (
    BatchTooLargeError,
    ConfigurationError,
    InvalidUpdateError,
    QueryError,
)
from repro.euler import DistributedEulerForest
from repro.mpc import (
    Cluster,
    ExecutionBackend,
    MPCConfig,
    PhaseMetrics,
    SharedMemoryBackend,
)
from repro.mpc import backend as backend_module
from repro.session import graph_session
from repro.sketch import RecoveryPool, SketchFamily, l0_sampler
from repro.streams import as_batches
from tests.conftest import make_valid_batch, workers_for

N = 48
WORKERS = 2
PARITY_TASKS = ("connectivity", "msf", "bipartiteness")


@pytest.fixture(scope="module")
def shared_backend():
    """One 2-thread backend for the module, joined at teardown.  The
    sessions built on it close with ``close_backend=False``."""
    with SharedMemoryBackend(num_workers=WORKERS) as backend:
        yield backend


def _config(seed: int = 3, n: int = N) -> MPCConfig:
    return MPCConfig(n=n, seed=seed)


def _executor(name: str, shared_backend):
    """The backend a parametrised test runs on: the name for
    ``sequential``, the module's thread backend for ``shared_memory``."""
    return shared_backend if name == "shared_memory" else name


def _standalone(cls, config: MPCConfig, backend, **kw):
    """``cls`` on its own cluster and ledger, executing on ``backend``."""
    return cls(config, cluster=Cluster(config, backend=backend), **kw)


def _insert_stream(n: int = N):
    """Weighted insertion-only stream (msf-compatible), two components
    merged late plus a non-tree spare."""
    ups = [ins(i, i + 1, float(i % 7 + 1)) for i in range(0, 12)]
    ups += [ins(i, i + 1, float(i % 5 + 1)) for i in range(20, 30)]
    ups += [ins(12, 20, 2.0), ins(0, 30, 9.0), ins(1, 29, 1.0)]
    return ups


def _answers(session):
    """Every query answer of ``session``'s tasks, next to every sketch
    cell block behind them (pool rows, and the key -> row maps)."""
    out = {}
    if "connectivity" in session.tasks:
        out["forest"] = session.spanning_forest().edges
        out["cells"] = session.query("connectivity").family.pool.cells
    if "bipartiteness" in session.tasks:
        out["bipartite"] = session.is_bipartite()
    sparsifiers = []
    if "matching" in session.tasks:
        out["matching"] = session.matching().edges
        sparsifiers = [g.sparsifier
                       for g in session.query("matching").guesses]
    if "matching_size" in session.tasks:
        alg = session.query("matching_size")
        out["estimate"] = alg.estimate()
        sparsifiers = [t.sparsifier for t in alg.testers]
    for i, sparsifier in enumerate(sparsifiers):
        out[f"rows {i}"] = list(sparsifier.samplers.rows.items())
        out[f"pair cells {i}"] = sparsifier.samplers.pool.cells
    return out


def _churn_stream():
    """Insertions then deletions that force AGM replacement recovery."""
    ups = [ins(i, i + 1) for i in range(0, 14)]
    ups += [ins(0, 7), ins(3, 11), ins(20, 21), ins(21, 22), ins(20, 22)]
    ups += [dele(5, 6), dele(0, 1), dele(21, 22), dele(3, 4)]
    ups += [ins(40, 41), dele(9, 10)]
    return ups


# ---------------------------------------------------------------------------
# Shared-substrate structure
# ---------------------------------------------------------------------------

class TestSharedSubstrate:
    def test_one_cluster_one_validator(self):
        with GraphSession(N, tasks=PARITY_TASKS,
                          config=_config()) as session:
            algs = [session.query(task) for task in PARITY_TASKS]
            assert len(algs) == 3
            for alg in algs:
                assert alg.cluster is session.cluster
                assert alg.validator is session.validator
                assert alg._attached

    def test_validation_and_routing_once_per_phase(self):
        with GraphSession(N, tasks=PARITY_TASKS,
                          config=_config()) as session:
            phases = session.ingest(_insert_stream(), batch_size=8)
            assert phases and all(p.batch_size for p in phases)
            for phase in phases:
                # The routing gather is charged once, on the session's
                # own phase record ...
                assert phase.route.rounds_by_category.get(
                    "route-updates", 0) > 0
                # ... and never again inside any task's phase.
                for snap in phase.per_task.values():
                    assert "route-updates" not in snap.rounds_by_category
            # A valid shared stream: per-task validation would have
            # rejected every post-first-task insert as a duplicate, so
            # reaching here with the right edge count is the proof.
            assert session.num_edges == len(_insert_stream())

    def test_memory_ledger_namespaced_per_task(self):
        with GraphSession(N, tasks=("connectivity", "msf"),
                          config=_config()) as session:
            session.ingest(_insert_stream(), batch_size=8)
            breakdown = session.cluster.metrics.memory_breakdown()
            # Both tasks register a "forest"; namespacing keeps them
            # from overwriting each other on the shared ledger.
            assert "mpc-connectivity/forest" in breakdown
            assert "msf-exact/forest" in breakdown
            assert "forest" not in breakdown

    def test_unknown_and_duplicate_tasks_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown task"):
            GraphSession(N, tasks=("connectivity", "nope"),
                         config=_config())
        with pytest.raises(ConfigurationError, match="duplicate"):
            GraphSession(N, tasks=("msf", "msf"),
                         config=_config())
        with pytest.raises(ConfigurationError, match="at least one"):
            GraphSession(N, tasks=(), config=_config())

    def test_attach_requires_shared_cluster(self):
        session = GraphSession(N, config=_config())
        stray = MPCConnectivity(_config())
        with pytest.raises(ConfigurationError, match="shared cluster"):
            stray.attach(session.cluster, session.validator)
        session.close()

    def test_task_registry_covers_all_maintained_algorithms(self):
        registry = BatchDynamicAlgorithm.task_registry()
        for task in ("connectivity", "msf", "msf_approx", "bipartiteness",
                     "matching", "matching_greedy", "matching_size"):
            assert task in registry

    def test_task_options(self):
        with GraphSession(
            N, tasks={"msf_approx": {"eps": 0.5, "max_weight": 64.0}},
            config=_config(),
        ) as session:
            assert session.query("msf_approx").eps == 0.5

    @pytest.mark.parametrize("task, options, name", [
        ("connectivity", {"columns": 0}, "columns"),
        ("connectivity", {"columns": 2.5}, "columns"),
        ("connectivity", {"batch_limit": 0}, "batch_limit"),
        ("connectivity", {"batch_limit": -3}, "batch_limit"),
        ("msf_approx", {"eps": float("nan")}, "eps"),
        ("msf_approx", {"eps": float("inf")}, "eps"),
        ("msf_approx", {"max_weight": float("nan")}, "max_weight"),
        ("msf_approx", {"max_weight": float("inf")}, "max_weight"),
        ("connectivity", {"colums": 4}, "colums"),
        ("connectivity", {"cluster": None}, "cluster"),
        ("matching", 5, "dict"),
    ])
    def test_bad_task_options_fail_by_name(self, task, options, name):
        with pytest.raises(ConfigurationError, match=name):
            GraphSession(N, tasks={task: options},
                         config=_config())

    def test_worker_count_contradicting_an_instance_fails(self):
        with SharedMemoryBackend(num_workers=2) as backend:
            with pytest.raises(ConfigurationError,
                               match="backend_workers=3"):
                GraphSession(8, backend=backend, backend_workers=3)
            with pytest.raises(ConfigurationError,
                               match="backend_workers=3"):
                GraphSession(config=_config(),
                             backend=backend, backend_workers=3)
            with GraphSession(8, backend=backend,
                              backend_workers=2) as session:
                assert session.cluster.backend is backend

    def test_tasks_accepts_one_shot_iterator(self):
        with GraphSession(N, tasks=iter(["connectivity", "msf"]),
                          config=_config()) as session:
            assert session.tasks == ["connectivity", "msf"]

    def test_tasks_accepts_bare_string(self):
        with GraphSession(N, tasks="connectivity",
                          config=_config()) as session:
            assert session.tasks == ["connectivity"]

    def test_rejected_batch_leaves_state_untouched(self):
        with GraphSession(N, tasks=("connectivity", "bipartiteness"),
                          config=_config()) as session:
            session.ingest([(0, 1)])
            # (2, 3) is fresh but rides in a batch with a duplicate
            # insert: atomic validation must not admit it.
            with pytest.raises(InvalidUpdateError, match="existing"):
                session.apply_batch([ins(2, 3), ins(0, 1)])
            assert session.edges() == {(0, 1)}
            with pytest.raises(InvalidUpdateError, match="missing"):
                session.apply_batch([dele(2, 3)])
            # The session stays consistent and keeps serving.
            session.ingest([(2, 3)])
            assert session.connected(2, 3)
            assert session.num_edges == 2

    def test_backend_workers_honoured_with_explicit_config(
            self, shared_backend):
        # backend_workers must take effect even when config= is given,
        # and a name builds the session's own backend.
        session = GraphSession(config=_config(),
                               backend="shared_memory",
                               backend_workers=WORKERS)
        backend = session.cluster.backend
        assert type(backend) is SharedMemoryBackend
        assert backend is not shared_backend
        assert backend.num_workers == WORKERS
        session.close()
        assert not backend.usable

    def test_mid_phase_task_failure_marks_session_inconsistent(self):
        session = GraphSession(N, tasks=("connectivity", "bipartiteness"),
                               config=_config())
        session.ingest([(0, 1)])

        def boom(batch):
            raise RuntimeError("boom")

        session.query("bipartiteness").apply_batch = boom
        with pytest.raises(RuntimeError, match="boom"):
            session.apply_batch([(1, 2)])
        # Tasks now sit at different stream positions: everything but
        # close() refuses to touch the inconsistent state.
        with pytest.raises(QueryError, match="inconsistent"):
            session.ingest([(2, 3)])
        with pytest.raises(QueryError, match="inconsistent"):
            session.spanning_forest()
        with pytest.raises(QueryError, match="inconsistent"):
            session.query("connectivity")
        with pytest.raises(QueryError, match="inconsistent"):
            session.checkpoint("/dev/null")
        session.close()


# ---------------------------------------------------------------------------
# Ingestion surface
# ---------------------------------------------------------------------------

class TestIngestion:
    def test_accepts_pairs_triples_updates_and_generators(self):
        with GraphSession(N, tasks=("connectivity", "msf"),
                          config=_config()) as session:
            session.ingest([(0, 1), (1, 2, 5.0), ins(2, 3, 7.0)])
            assert session.num_edges == 3
            assert session.connected(0, 3)

            def lazy():
                for i in range(10, 20):
                    yield (i, i + 1)

            phases = session.ingest(lazy(), batch_size=4)
            assert [p.batch_size for p in phases] == [4, 4, 2]
            assert session.num_edges == 13

    def test_generator_consumed_lazily_in_stream_order(self):
        consumed = []

        def stream():
            for i in range(9):
                consumed.append(i)
                yield (i, i + 1)

        with GraphSession(N, config=_config()) as session:
            it = iter(stream())
            phases = session.ingest(it, batch_size=4)
            # Order preserved: edge (i, i+1) entered phase i // 4.
            assert [p.batch_size for p in phases] == [4, 4, 1]
            assert consumed == list(range(9))
            assert session.connected(0, 9)

    def test_batch_bound_enforced(self):
        config = _config()
        with GraphSession(N, config=config) as session:
            too_many = [(i, i + 1) for i in range(session.batch_size + 1)]
            with pytest.raises(BatchTooLargeError):
                session.apply_batch(too_many)
            with pytest.raises(ConfigurationError):
                session.ingest(too_many, batch_size=session.batch_size + 1)
            # ingest() splits the same stream fine.
            session.ingest(too_many)

    @pytest.mark.parametrize("size", [2.5, True, "3", 0])
    def test_ingest_batch_size_checked_at_the_boundary(self, size):
        # A float or bool would silently run phases of another size,
        # and a string would raise a raw TypeError from the comparison.
        with GraphSession(N, config=_config()) as session:
            with pytest.raises(ConfigurationError, match="batch_size"):
                session.ingest([(0, 1), (1, 2)], batch_size=size)
            assert session.num_edges == 0 and not session.phases

    def test_ingest_accepts_a_numpy_batch_size(self):
        with GraphSession(N, config=_config()) as session:
            phases = session.ingest([(i, i + 1) for i in range(9)],
                                    batch_size=np.int64(4))
            assert [p.batch_size for p in phases] == [4, 4, 1]

    def test_insert_only_task_rejects_deletions_before_any_state_change(self):
        with GraphSession(N, tasks=("connectivity", "msf"),
                          config=_config()) as session:
            session.ingest([(0, 1), (1, 2)])
            edges_before = session.edges()
            phases_before = len(session.phases)
            with pytest.raises(InvalidUpdateError, match="insertion-only"):
                session.apply_batch([dele(0, 1)])
            # The guard fired before the validator or any task ran.
            assert session.edges() == edges_before
            assert len(session.phases) == phases_before
            assert len(session.query("connectivity").phases) == phases_before

    def test_invalid_item_rejected(self):
        with GraphSession(N, config=_config()) as session:
            with pytest.raises(InvalidUpdateError):
                session.apply_batch(["nonsense"])

    @pytest.mark.parametrize("call, arg", [
        *(("ingest", item) for item in (
            (1, 99), (0, 16), (-1, 3), (1.7, 2), ("3", "4"), (True, 2),
            (np.float64(2.5), 3), ("a", 1), (None, 1), (1, 1),
            (1, 2, float("nan")), (1, 2, float("inf")), (1, 2, "3"),
            ins(1.5, 2), ins(1, 99), ins(-1, 3),
            ins(1, 2, float("nan")))),
        *(("connected", q) for q in ((-1, 15), (-16, 0), (1, 99), (1.5, 2))),
    ])
    def test_bad_input_raises_named_error_and_session_stays_usable(
            self, call, arg):
        with GraphSession(tasks=("connectivity", "msf"),
                          config=_config(n=16)) as session:
            if call == "ingest":
                with pytest.raises(InvalidUpdateError):
                    session.ingest([arg])
            else:
                with pytest.raises(QueryError, match="vertex ids"):
                    session.connected(*arg)
            session.ingest([(1, 2, 3.0)])
            assert session.connected(1, 2) and session.msf_weight() == 3.0


# ---------------------------------------------------------------------------
# Query surface + reporting
# ---------------------------------------------------------------------------

class TestQueriesAndReport:
    def test_absent_tasks_raise_query_error(self):
        with GraphSession(N, tasks=("msf",),
                          config=_config()) as session:
            with pytest.raises(QueryError, match="not maintained"):
                session.query("bipartiteness")
            with pytest.raises(QueryError):
                session.is_bipartite()
            with pytest.raises(QueryError):
                session.matching()
            # msf still answers connectivity-style queries.
            session.ingest([(0, 1, 2.0)])
            assert session.connected(0, 1)
            assert session.msf_weight() == 2.0
            assert session.num_components() == N - 1
            assert len(session.spanning_forest().edges) == 1

    def test_report_feeds_tables(self):
        with GraphSession(N, tasks=PARITY_TASKS,
                          config=_config()) as session:
            session.ingest(_insert_stream(), batch_size=8)
            rows = session.report()
            tasks_seen = {row["task"] for row in rows}
            assert tasks_seen == {"(route)", *PARITY_TASKS}
            per_phase = [r for r in rows if r["task"] == "connectivity"]
            assert len(per_phase) == len(session.phases)
            text = session.report_table()
            assert "connectivity" in text and "rounds" in text

    def test_summary_records_backend(self):
        with GraphSession(N, tasks=("connectivity",),
                          config=_config()) as session:
            rows = session.summary()
            assert rows[0]["backend"] == session.cluster.backend.describe()
            assert rows[0]["task"] == "connectivity"

    def test_summary_memory_is_per_task_share(self):
        with GraphSession(N, tasks=("connectivity", "msf"),
                          config=_config()) as session:
            session.ingest([(i, i + 1, 1.0) for i in range(8)])
            by_task = {row["task"]: row["memory_words"]
                       for row in session.summary()}
            # The shares partition the shared ledger instead of each
            # row repeating the whole-cluster total.
            assert (sum(by_task.values())
                    == session.cluster.metrics.total_memory)
            # Sketchless MSF is orders of magnitude below connectivity.
            assert by_task["msf"] < by_task["connectivity"]

    def test_session_phase_rounds_parallel_composition(self):
        with GraphSession(N, tasks=PARITY_TASKS,
                          config=_config()) as session:
            (phase,) = session.ingest([(0, 1, 1.0)])
            worst = max(m.rounds for m in phase.per_task.values())
            assert phase.rounds == phase.route.rounds + worst


# ---------------------------------------------------------------------------
# Parity matrix: session answers == standalone answers, both backends
# ---------------------------------------------------------------------------

def _standalone_answers(config: MPCConfig, backend, batches):
    conn = _standalone(MPCConnectivity, config, backend)
    msf = _standalone(ExactMSFInsertOnly, config, backend)
    bip = _standalone(DynamicBipartiteness, config, backend)
    for batch in batches:
        conn.apply_batch(batch)
        msf.apply_batch(batch)
        bip.apply_batch(batch)
    return {
        "forest": conn.query_spanning_forest().edges,
        "components": conn.num_components(),
        "msf_edges": msf.query_msf().edges,
        "msf_weight": msf.msf_weight(),
        "bipartite": bip.is_bipartite(),
        "cells": conn.family.pool.cells.copy(),
    }


class TestParityMatrix:
    @pytest.mark.parametrize("backend", ["sequential", "shared_memory"])
    def test_insert_only_matrix(self, backend, shared_backend):
        config, backend = _config(), _executor(backend, shared_backend)
        stream = _insert_stream()
        reference = _standalone_answers(config, backend,
                                        as_batches(stream, 8))

        session = GraphSession(N, tasks=PARITY_TASKS, config=config,
                               backend=backend)
        session.ingest(iter(stream), batch_size=8)
        try:
            assert (session.spanning_forest().edges
                    == reference["forest"])
            assert session.num_components() == reference["components"]
            msf = session.query("msf").query_msf()
            assert msf.edges == reference["msf_edges"]
            assert session.msf_weight() == reference["msf_weight"]
            assert session.is_bipartite() == reference["bipartite"]
            # Bit-identical sketch state, not merely equal answers.
            assert np.array_equal(
                session.query("connectivity").family.pool.cells,
                reference["cells"],
            )
        finally:
            session.close(close_backend=False)

    @pytest.mark.parametrize("backend", ["sequential", "shared_memory"])
    def test_deletion_churn_matrix(self, backend, shared_backend):
        config = _config(seed=11)
        backend = _executor(backend, shared_backend)
        stream = _churn_stream()
        conn = _standalone(MPCConnectivity, config, backend)
        bip = _standalone(DynamicBipartiteness, config, backend)
        for batch in as_batches(stream, 6):
            conn.apply_batch(batch)
            bip.apply_batch(batch)

        session = GraphSession(N, tasks=("connectivity", "bipartiteness"),
                               config=config, backend=backend)
        session.ingest(stream, batch_size=6)
        try:
            assert (session.spanning_forest().edges
                    == conn.query_spanning_forest().edges)
            assert session.num_components() == conn.num_components()
            assert session.is_bipartite() == bip.is_bipartite()
            assert (session.query("connectivity").stats
                    == conn.stats)
            assert np.array_equal(
                session.query("connectivity").family.pool.cells,
                conn.family.pool.cells,
            )
        finally:
            session.close(close_backend=False)

    def test_backends_agree_with_each_other(self, shared_backend):
        answers = {}
        for backend in ("sequential", "shared_memory"):
            session = GraphSession(N, tasks=("connectivity",),
                                   config=_config(seed=11),
                                   backend=_executor(backend,
                                                     shared_backend))
            session.ingest(_churn_stream(), batch_size=6)
            answers[backend] = session.spanning_forest().edges
            session.close(close_backend=False)
        assert answers["sequential"] == answers["shared_memory"]


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------

class TestCheckpointRestore:
    def test_round_trip_answers_identical(self, tmp_path):
        stream = _insert_stream()
        session = GraphSession(N, tasks=PARITY_TASKS,
                               config=_config())
        session.ingest(stream, batch_size=8)
        path = os.fspath(tmp_path / "session.ckpt")
        session.checkpoint(path)

        restored = GraphSession.restore(path)
        assert restored.tasks == session.tasks
        assert restored.num_edges == session.num_edges
        assert (restored.spanning_forest().edges
                == session.spanning_forest().edges)
        assert restored.msf_weight() == session.msf_weight()
        assert restored.is_bipartite() == session.is_bipartite()
        assert np.array_equal(
            restored.query("connectivity").family.pool.cells,
            session.query("connectivity").family.pool.cells,
        )
        assert len(restored.phases) == len(session.phases)
        session.close()
        restored.close()

    @pytest.mark.parametrize(
        "tasks", [("connectivity", "bipartiteness"), ("matching",),
                  {"matching_size": {"dynamic": True}}],
        ids=["connectivity+bipartiteness", "matching",
             "matching_size-dynamic"])
    def test_continuation_matches_uninterrupted_run(self, tmp_path, tasks):
        config = _config(seed=11)
        part1 = _churn_stream()[:15]
        part2 = _churn_stream()[15:]

        uninterrupted = GraphSession(N, tasks=tasks, config=config)
        uninterrupted.ingest(part1, batch_size=6)
        uninterrupted.ingest(part2, batch_size=6)

        session = GraphSession(N, tasks=tasks, config=config)
        session.ingest(part1, batch_size=6)
        path = os.fspath(tmp_path / "mid.ckpt")
        session.checkpoint(path)
        restored = GraphSession.restore(path)
        restored.ingest(part2, batch_size=6)

        want, got = _answers(uninterrupted), _answers(restored)
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(got[name], value), name
            else:
                assert got[name] == value, name
        session.close()
        restored.close()
        uninterrupted.close()

    def test_bad_format_rejected(self, tmp_path):
        path = os.fspath(tmp_path / "bad.ckpt")
        with open(path, "wb") as fh:
            pickle.dump({"format": 999}, fh)
        with pytest.raises(ConfigurationError, match="format"):
            GraphSession.restore(path)

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "non-dict", "format-1",
                   "format-2", "format-3", "format-4", "format-5",
                   "format-6", "format-7"])
    def test_unreadable_checkpoint_fails_by_name(self, tmp_path,
                                                 monkeypatch, damage):
        path = os.fspath(tmp_path / "damaged.ckpt")
        if damage == "format-1":
            # What the format-1 writer produced: a (count, 4, c, L) pool
            # of two fingerprint limbs plus its mass counters.
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 1)
            monkeypatch.setattr(RecoveryPool, "__getstate__", lambda pool: (
                pool.count, pool.columns, pool.levels,
                np.zeros((pool.count, 4, pool.columns, pool.levels),
                         dtype=np.int64),
                0, np.zeros(pool.count, dtype=np.int64)))
        if damage == "format-2":
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 2)
            monkeypatch.setattr(DistributedEulerForest, "__getstate__",
                                _format2_forest_state, raising=False)
        if damage == "format-3":
            # Format 3 kept one standalone sampler object per touched
            # active pair, pickled by its class name.
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 3)
            monkeypatch.setattr(l0_sampler, "L0Sampler", _Format3Sampler,
                                raising=False)
            monkeypatch.setattr(_Guess, "__getstate__",
                                _format3_guess_state, raising=False)
        if damage == "format-4":
            # Format 4 pickled a cluster's lazy backend spec and a
            # family's empty pool registration instead of the backend.
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 4)
            monkeypatch.setattr(Cluster, "__getstate__",
                                _format4_cluster_state, raising=False)
            monkeypatch.setattr(SketchFamily, "__getstate__",
                                _format4_family_state, raising=False)
        if damage == "format-5":
            # Format 5 pickled one machine object per simulated machine
            # inside every cluster.
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 5)
            monkeypatch.setitem(sys.modules, "repro.mpc.machine",
                                _FORMAT5_MACHINE_MODULE)
            monkeypatch.setattr(Cluster, "__getstate__",
                                _format5_cluster_state, raising=False)
        if damage == "format-6":
            # Format 6 kept a connectivity instance on G beside the
            # double cover, and no odd-component count.
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 6)
            monkeypatch.setattr(DynamicBipartiteness, "__getstate__",
                                _format6_bipartiteness_state, raising=False)
        if damage == "format-7":
            # Format 7 pickled a backend as a call to the backend
            # factory ``repro.mpc.backend.get_backend`` (gone since
            # format 8).
            monkeypatch.setattr(graph_session, "CHECKPOINT_FORMAT", 7)
            monkeypatch.setattr(backend_module, "get_backend",
                                _format7_get_backend, raising=False)
            monkeypatch.setattr(ExecutionBackend, "__reduce__",
                                _format7_backend_reduce)
        tasks = ("connectivity",)
        if damage == "format-3":
            tasks += ("matching",)
        if damage == "format-6":
            tasks += ("bipartiteness",)
        session = GraphSession(N, tasks=tasks, config=_config())
        session.ingest(_insert_stream(), batch_size=8)
        session.checkpoint(path)
        session.close()
        monkeypatch.undo()
        with open(path, "rb") as fh:
            data = fh.read()
        data = {"truncated": data[:len(data) // 2],
                "garbage": b"not a checkpoint\n" * 8,
                "non-dict": pickle.dumps([1, 2, 3]),
                "format-1": data, "format-2": data,
                "format-3": data, "format-4": data,
                "format-5": data, "format-6": data,
                "format-7": data}[damage]
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(ConfigurationError, match=re.escape(path)) as err:
            GraphSession.restore(path)
        if damage.startswith("format-"):
            assert "format" in str(err.value)


class _Format3Sampler:
    """A per-pair sampler as format 3 pickled it: a standalone object
    owning its ``(3, columns, levels)`` cell block, pickled under the
    name ``repro.sketch.l0_sampler.L0Sampler`` (gone since format 4)."""

    def __init__(self, randomness, cells):
        self.randomness = randomness
        self.cells = cells


_Format3Sampler.__module__ = "repro.sketch.l0_sampler"
_Format3Sampler.__qualname__ = _Format3Sampler.__name__ = "L0Sampler"


def _format3_guess_state(guess):
    """An AKLY guess as format 3 pickled it: a dict of standalone
    samplers and a dict of outcomes next to the matching."""
    state = dict(guess.__dict__)
    sparsifier = state.pop("sparsifier")
    keyed = sparsifier.samplers
    state["randomness"] = keyed.randomness
    state["samplers"] = {pair: _Format3Sampler(keyed.randomness,
                                               keyed.pool.cells[row])
                         for pair, row in keyed.rows.items()}
    state["outcome"] = {pair: None if idx < 0 else idx
                        for pair, idx in sparsifier.outcome.items()}
    state["matching"] = sparsifier.matching
    return state


def _format4_cluster_state(cluster):
    state = dict(cluster.__dict__)
    state["_backend_spec"] = state.pop("backend").name
    state["_backend"] = None
    return state


def _format4_family_state(family):
    return {**family.__dict__, "backend": None, "_pool_handle": None,
            "_detach": None}


class _Format5Machine:
    """A simulated machine as format 5 pickled it: a capacity and an
    empty word store, pickled under the name
    ``repro.mpc.machine.Machine`` (gone since format 6)."""

    def __init__(self, machine_id, capacity):
        self.machine_id = machine_id
        self.capacity = capacity
        self.store = {}


_Format5Machine.__module__ = "repro.mpc.machine"
_Format5Machine.__qualname__ = _Format5Machine.__name__ = "Machine"
_FORMAT5_MACHINE_MODULE = types.ModuleType("repro.mpc.machine")
_FORMAT5_MACHINE_MODULE.Machine = _Format5Machine


def _format5_cluster_state(cluster):
    """A cluster as format 5 pickled it: one machine object per machine
    next to the ledger."""
    state = dict(cluster.__dict__)
    state["machines"] = [_Format5Machine(i, cluster.local_memory)
                         for i in range(state.pop("num_machines"))]
    return state


def _format6_bipartiteness_state(alg):
    """Bipartiteness as format 6 pickled it: an instance on G beside
    the double cover, no odd-component count."""
    state = dict(alg.__dict__)
    del state["odd_components"]
    state["base"] = MPCConnectivity(
        alg.config, track_edges=False,
        cluster=Cluster(alg.config, backend=alg.cluster.backend))
    return state


def _format7_get_backend(name, workers):
    """The backend factory format 7 pickled backends through."""
    raise AssertionError("a format-7 checkpoint reached the factory")


_format7_get_backend.__module__ = "repro.mpc.backend"
_format7_get_backend.__qualname__ = "get_backend"
_format7_get_backend.__name__ = "get_backend"


def _format7_backend_reduce(backend):
    return _format7_get_backend, (backend.name, backend.num_workers)


def _format2_forest_state(forest):
    """The forest as the format-2 writer pickled it: dicts of tuples and
    sets keyed by vertex, directed edge and tour id, with no arrays."""
    tour_of = {v: forest.tree_id(v) for v in range(forest.n)}
    vertices = {}
    for v, tid in tour_of.items():
        vertices.setdefault(tid, set()).add(v)
    pos, tid_of_edge = {}, {}
    edges_by_tour = {tid: set() for tid in vertices}
    for tid in vertices:
        for i, (a, b) in enumerate(forest.reconstruct_tour(tid)):
            pos[(a, b)] = i
            if a < b:
                edges_by_tour[tid].add((a, b))
                tid_of_edge[(a, b)] = tid
    adj = {v: set() for v in range(forest.n)}
    for a, b in tid_of_edge:
        adj[a].add(b)
        adj[b].add(a)
    return {
        "n": forest.n, "_next_tid": forest._next_tid,
        "_tour_of_vertex": tour_of, "_vertices_by_tour": vertices,
        "_tour_len": {tid: 2 * len(e) for tid, e in edges_by_tour.items()},
        "_root_of_tour": {tid: forest.root_of(tid) for tid in vertices},
        "_pos": pos, "_edges_by_tour": edges_by_tour,
        "_tid_of_edge": tid_of_edge, "_adj": adj,
    }


# ---------------------------------------------------------------------------
# Deterministic teardown
# ---------------------------------------------------------------------------

def _threads(backend):
    """The backend's live worker threads (started on first use)."""
    return list(backend._threads._threads)


class TestDeterministicShutdown:
    def test_session_close_stops_workers(self):
        backend = SharedMemoryBackend(num_workers=1)
        session = GraphSession(N, tasks=("connectivity",),
                               config=_config(),
                               backend=backend)
        session.ingest([(0, 1), (1, 2)])
        threads = _threads(backend)
        assert threads and all(t.is_alive() for t in threads)
        session.close()
        assert session.closed
        assert not backend.usable
        assert not any(t.is_alive() for t in threads), (
            "worker threads survived session.close()")
        # Idempotent, and a closed session rejects further work.
        session.close()
        with pytest.raises(QueryError, match="closed"):
            session.ingest([(2, 3)])

    def test_cluster_context_manager_stops_workers(self):
        backend = SharedMemoryBackend(num_workers=1)
        from repro.mpc import Cluster

        with Cluster(_config(), backend=backend) as cluster:
            assert cluster.backend is backend
            session = GraphSession(N, tasks=("connectivity",),
                                   config=_config(),
                                   backend=backend)
            session.ingest([(0, 1), (1, 2)])
            threads = _threads(backend)
        assert not backend.usable
        assert threads and not any(t.is_alive() for t in threads), (
            "worker threads survived Cluster.__exit__")

    def test_backend_context_manager(self):
        with SharedMemoryBackend(num_workers=1) as backend:
            session = GraphSession(N, tasks=("connectivity",),
                                   config=_config(),
                                   backend=backend)
            session.ingest([(0, 1), (1, 2)])
            threads = _threads(backend)
            assert threads and all(t.is_alive() for t in threads)
        assert not backend.usable
        assert not any(t.is_alive() for t in threads), (
            "worker threads survived backend.__exit__")

    def test_close_backend_false_leaves_a_shared_instance_up(self):
        """Sessions handed one instance share it; ``close_backend=False``
        leaves it for the others, and a plain close() closes it."""
        backend = SharedMemoryBackend(num_workers=WORKERS)
        s1 = GraphSession(N, config=_config(), backend=backend)
        s2 = GraphSession(N, config=_config(), backend=backend)
        assert s1.cluster.backend is s2.cluster.backend is backend
        s1.ingest([(0, 1)])
        s2.ingest([(0, 1)])
        s1.close(close_backend=False)
        assert backend.usable
        s2.ingest([(1, 2)])        # the survivor keeps working
        assert s2.connected(0, 2)
        s2.close()
        assert not backend.usable

    def test_cluster_owns_the_backend_it_builds(self):
        with Cluster(_config(), backend="shared_memory") as cluster:
            backend = cluster.backend
            assert type(backend) is SharedMemoryBackend and backend.usable
        assert not backend.usable

    def test_sequential_close_is_noop(self):
        with GraphSession(N, config=_config()) as session:
            session.ingest([(0, 1)])
        assert session.closed
        # In-process execution has nothing to release.
        assert session.cluster.backend.usable

    def test_queries_still_answer_after_close(self):
        """Closing releases execution resources; the maintained
        solution stays readable (it lives in parent memory)."""
        session = GraphSession(N, tasks=("connectivity",),
                               config=_config())
        session.ingest([(0, 1), (1, 2)])
        session.close()
        assert session.connected(0, 2)


# ---------------------------------------------------------------------------
# Restore onto a backend; close
# ---------------------------------------------------------------------------

def _clusters_and_families(session):
    """Every cluster and sketch family of a session of connectivity,
    bipartiteness and msf_approx, nested ones included."""
    conn = session.query("connectivity")
    cover = session.query("bipartiteness").cover
    levels = session.query("msf_approx").levels
    owners = [conn, cover, *levels]
    clusters = [session.cluster, *(alg.cluster for alg in owners)]
    return clusters, [alg.family for alg in owners]


class TestRestoreBackends:
    def _checkpoint(self, tmp_path, backend="sequential",
                    tasks=("connectivity",)):
        """A session on the backend named ``backend`` and the path of
        its checkpoint."""
        path = os.fspath(tmp_path / "session.ckpt")
        session = GraphSession(N, tasks=tasks, config=_config(),
                               backend=backend,
                               backend_workers=workers_for(backend, WORKERS))
        session.ingest(_insert_stream())
        session.checkpoint(path)
        return session, path

    @pytest.mark.parametrize("name", ["sequential", "shared_memory"])
    def test_restore_builds_one_fresh_backend(self, tmp_path, name):
        """Every cluster and family of the restored session holds one
        new backend of the kind and worker count the session was
        written with.  Closing it joins its threads and leaves the
        original session working."""
        session, path = self._checkpoint(
            tmp_path, backend=name,
            tasks=("connectivity", "bipartiteness", "msf_approx"))
        original = session.cluster.backend
        restored = GraphSession.restore(path)
        live = restored.cluster.backend
        assert type(live) is type(original) and live is not original
        assert live.num_workers == original.num_workers
        assert live.num_workers == (WORKERS if name == "shared_memory"
                                    else 1)
        clusters, families = _clusters_and_families(restored)
        assert len(clusters) > 3 and len(families) > 3
        assert all(c.backend is live for c in clusters)
        assert all(f.backend is live for f in families)
        restored.ingest([(40, 41)])
        assert restored.connected(40, 41)
        threads = _threads(live) if name == "shared_memory" else []
        assert threads or name == "sequential"
        restored.close()
        assert not any(t.is_alive() for t in threads)
        assert original.usable
        session.ingest([(40, 41)])
        assert np.array_equal(
            session.query("connectivity").family.pool.cells,
            restored.query("connectivity").family.pool.cells)
        session.close()

    def test_checkpoint_holds_no_thread_pool(self, tmp_path):
        session, path = self._checkpoint(tmp_path, backend="shared_memory")
        session.close()
        with open(path, "rb") as fh:
            data = fh.read()
        assert b"ThreadPoolExecutor" not in data
        assert b"SharedMemoryBackend" in data
        assert b"get_backend" not in data

    def test_double_close_on_inconsistent_session(self):
        session = GraphSession(N, tasks=("connectivity",
                                         "bipartiteness"),
                               config=_config())
        session.ingest([(0, 1)])

        def boom(batch):
            raise RuntimeError("boom")

        session.query("bipartiteness").apply_batch = boom
        with pytest.raises(RuntimeError, match="boom"):
            session.apply_batch([(1, 2)])
        # Latched inconsistent: close() still works, twice, quietly.
        session.close()
        session.close()
        assert session.closed

    def test_restored_session_ingests_on_its_own_backend(self,
                                                         tmp_path):
        """Checkpoint under the thread backend and restore: continued
        ingestion runs on the restored session's threads, not on the
        original's, bit-identically to a sequential run."""
        session, path = self._checkpoint(tmp_path, backend="shared_memory")
        original = session.cluster.backend
        restored = GraphSession.restore(path)
        live = restored.cluster.backend
        before = (original.ring_dispatches, live.ring_dispatches)
        restored.ingest([(40, 41), (41, 42)])
        assert original.ring_dispatches == before[0]
        assert live.ring_dispatches > before[1]
        assert restored.connected(40, 42)
        with GraphSession(N, tasks=("connectivity",),
                          config=_config()) as reference:
            reference.ingest(_insert_stream())
            reference.ingest([(40, 41), (41, 42)])
            assert np.array_equal(
                restored.query("connectivity").family.pool.cells,
                reference.query("connectivity").family.pool.cells,
            )
        restored.close()
        session.close()


# ---------------------------------------------------------------------------
# The executor is invisible to the model
# ---------------------------------------------------------------------------

def test_phase_metrics_do_not_depend_on_the_executor():
    """One seeded churn stream on ``sequential`` and on a 2-thread
    backend: every ``PhaseMetrics`` field but ``backend_events`` is
    equal, phase by phase, for the route and for every task -- rounds,
    traffic, peak memory and capacity violations alike."""
    tasks = ("connectivity", "bipartiteness", "msf_approx")
    rng = np.random.default_rng(8)
    live = set()
    batches = [make_valid_batch(rng, N, live, 10, weighted=True)
               for _ in range(8)]
    assert sum(up.is_delete for batch in batches for up in batch) > 10
    fields = [f.name for f in dataclasses.fields(PhaseMetrics)
              if f.name != "backend_events"]
    runs = []
    with SharedMemoryBackend(num_workers=2) as threads:
        for backend in ("sequential", threads):
            with GraphSession(N, tasks=tasks, backend=backend,
                              seed=5) as session:
                phases = [session.apply_batch(b) for b in batches]
                runs.append([
                    {task: {name: getattr(snap, name) for name in fields}
                     for task, snap in [("(route)", phase.route),
                                        *phase.per_task.items()]}
                    for phase in phases])
    sequential, threaded = runs
    assert len(sequential) == len(batches)
    for index, (want, got) in enumerate(zip(sequential, threaded)):
        assert got == want, f"phase {index}"
