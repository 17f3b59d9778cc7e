"""Execution-backend matrix: parity, spawn-safety, the thread executor.

The contract under test (see :mod:`repro.mpc.backend`): the
``shared_memory`` thread backend is *bit-identical* to the
``sequential`` one -- same pool cells after any mix of insert and
delete batches, same query answers, and therefore identical end-to-end
behaviour of every algorithm built on the sketches -- and a failing
share re-raises its own exception only after every share has finished.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tests.conftest import (
    check_groups,
    edge_arrays,
    family_pair,
    make_valid_batch,
    replay_rows,
)
from repro.baselines.agm_static import AGMStaticConnectivity
from repro.core import MPCConnectivity
from repro.core.bipartiteness import DynamicBipartiteness
from repro.core.msf_approx import ApproxMSF
from repro.errors import ConfigurationError, SketchError
from repro.mpc import Cluster, MPCConfig
from repro.mpc import backend as backend_module
from repro.mpc.backend import (
    ROUTED_OPS,
    ExecutionBackend,
    SequentialBackend,
    SharedMemoryBackend,
    _execute_op,
    available_cpus,
    open_backend,
)
from repro.mpc.config import env_int
from repro.session import GraphSession
from repro.sketch import (
    FourWiseHash,
    PairwiseHash,
    RecoveryPool,
    SamplerRandomness,
    SketchFamily,
)

WORKERS = 2


@pytest.fixture(scope="module")
def shared_backend():
    """One 2-thread backend for the module (so the suite starts one
    thread pool here, not one per test), joined at teardown."""
    with SharedMemoryBackend(num_workers=WORKERS) as backend:
        yield backend


def _on_both(cls, n, backend, seed=7, **kw):
    """``cls`` built twice from one config: on ``sequential`` and on a
    cluster running ``backend``."""
    config = MPCConfig(n=n, seed=seed)
    return (cls(config, **kw),
            cls(config, cluster=Cluster(config, backend=backend), **kw))


# ---------------------------------------------------------------------------
# Satellite: spawn-safe randomness -- (seed, params) round trips
# ---------------------------------------------------------------------------

class TestSpawnSafeRandomness:
    def test_kwise_hash_pickle_roundtrip(self, rng):
        for cls in (PairwiseHash, FourWiseHash):
            original = cls(1 << 12, rng)
            clone = pickle.loads(pickle.dumps(original))
            assert type(clone) is cls
            assert clone.coeffs == original.coeffs
            assert clone.range_size == original.range_size
            xs = [0, 1, 17, (1 << 40) + 3]
            assert [clone(x) for x in xs] == [original(x) for x in xs]

    def test_kwise_hash_from_params(self, rng):
        original = PairwiseHash(64, rng)
        rebuilt = PairwiseHash.from_params(64, original.coeffs)
        assert rebuilt.field_value(12345) == original.field_value(12345)
        many = np.arange(50, dtype=np.int64)
        assert np.array_equal(rebuilt.field_value_many(many),
                              original.field_value_many(many))

    def test_randomness_roundtrip_is_bit_identical(self, rng):
        original = SamplerRandomness(universe=5000, columns=6, rng=rng)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.params() == original.params()
        idxs = np.array([0, 1, 2, 999, 4999], dtype=np.int64)
        assert np.array_equal(clone.levels_of_many(idxs),
                              original.levels_of_many(idxs))
        assert np.array_equal(clone.zpow_many(idxs),
                              original.zpow_many(idxs))

    def test_from_params_draws_no_randomness(self, rng):
        original = SamplerRandomness(universe=300, columns=4, rng=rng)
        rebuilt = SamplerRandomness.from_params(*original.params())
        assert rebuilt.params() == original.params()
        idxs = np.arange(0, 300, 7, dtype=np.int64)
        assert np.array_equal(rebuilt.levels_of_many(idxs),
                              original.levels_of_many(idxs))
        assert np.array_equal(rebuilt.zpow_many(idxs),
                              original.zpow_many(idxs))

    def test_from_params_validates_columns(self):
        with pytest.raises(ValueError):
            SamplerRandomness.from_params(100, 3, 1, ((1, 2),))

    def test_pickle_ships_params_only(self, rng):
        # The checkpoint payload of every family: the defining params,
        # nothing derived (coefficient matrix, level range).
        randomness = SamplerRandomness(universe=5000, columns=6, rng=rng)
        hook, args = randomness.__reduce__()
        assert args == randomness.params()
        assert hook(*args).params() == randomness.params()


# ---------------------------------------------------------------------------
# Backend construction / resolution
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_a_name_builds_a_fresh_backend(self):
        for spec in (None, "sequential"):
            backend = open_backend(spec)
            assert type(backend) is SequentialBackend
            assert open_backend(spec) is not backend
        with open_backend("shared_memory", 3) as backend:
            assert type(backend) is SharedMemoryBackend
            assert backend.num_workers == 3
            with open_backend("shared_memory", 3) as other:
                assert other is not backend
        with open_backend("shared_memory") as backend:
            assert backend.num_workers == min(4, available_cpus())

    @pytest.mark.parametrize("spec", ["shm", "Shared-Memory", "",
                                      "gpu", b"sequential", 3])
    def test_unknown_backend_fails_by_name(self, spec):
        """Only the two canonical names are accepted: the retired
        spellings fail, naming the value, wherever an executor is
        chosen."""
        for build in (open_backend,
                      lambda s: Cluster(MPCConfig(n=16), backend=s),
                      lambda s: GraphSession(16, backend=s)):
            with pytest.raises(ConfigurationError,
                               match=re.escape(repr(spec))):
                build(spec)

    def test_instances_pass_through(self, shared_backend):
        assert open_backend(shared_backend) is shared_backend
        assert Cluster(MPCConfig(n=16),
                       backend=shared_backend).backend is shared_backend

    def test_closed_instance_fails_where_it_is_handed_over(self):
        backend = SharedMemoryBackend(num_workers=1)
        backend.close()
        with pytest.raises(SketchError, match="closed"):
            open_backend(backend)
        with pytest.raises(SketchError, match="closed"):
            SketchFamily(8, columns=3, rng=np.random.default_rng(0),
                         backend=backend)

    def test_sequential_takes_no_worker_count(self):
        """``sequential`` runs on one thread: 1 (or no count) is the
        only worker count it accepts, by name or as the default."""
        for spec in (None, "sequential"):
            assert type(open_backend(spec, 1)) is SequentialBackend
            for workers in (2, 3):
                with pytest.raises(ConfigurationError,
                                   match=f"backend_workers={workers}"):
                    open_backend(spec, workers)
        with pytest.raises(ConfigurationError, match="backend_workers=3"):
            GraphSession(16, backend_workers=3)

    @pytest.mark.parametrize("spec", ["sequential", "shared_memory"])
    def test_a_sketch_family_takes_no_name(self, spec):
        """A family gets its holder's instance, or ``None`` for a
        sequential one: a name would build an executor nobody owns."""
        with pytest.raises(ConfigurationError, match=repr(spec)):
            SketchFamily(8, columns=3, rng=np.random.default_rng(0),
                         backend=spec)
        family = SketchFamily(8, columns=3, rng=np.random.default_rng(0))
        assert type(family.backend) is SequentialBackend

    def test_worker_count_must_agree_with_an_instance(self,
                                                      shared_backend):
        assert open_backend(shared_backend, WORKERS) is shared_backend
        with pytest.raises(ConfigurationError, match="backend_workers=3"):
            open_backend(shared_backend, 3)

    @pytest.mark.parametrize("workers", [0, 2.5, "2", True, False])
    @pytest.mark.parametrize("spec", ["sequential", "shared_memory"])
    def test_bad_worker_count_names_the_argument(self, spec, workers):
        # Refused where the executor is chosen, on every backend.
        with pytest.raises(ConfigurationError, match="backend_workers"):
            GraphSession(16, backend=spec, backend_workers=workers)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32,
                                       np.int64, np.uint8, np.uint16,
                                       np.uint32, np.uint64])
    def test_numpy_worker_count_is_stored_as_a_plain_int(self, dtype):
        with open_backend("shared_memory", dtype(2)) as backend:
            assert type(backend.num_workers) is int
            assert backend.num_workers == 2

    @pytest.mark.parametrize("name,workers", [("sequential", None),
                                              ("shared_memory", WORKERS)],
                             ids=["sequential", "shared_memory"])
    def test_pickle_is_class_and_worker_count(self, name, workers):
        """A pickled backend carries no threads: unpickling builds a
        fresh backend of the same class and size, and objects pickled
        together share one."""
        with open_backend(name, workers) as private:
            blob = pickle.dumps(private)
            assert b"ThreadPoolExecutor" not in blob
            clone = pickle.loads(blob)
            assert type(clone) is type(private) and clone is not private
            assert clone.num_workers == private.num_workers
            assert clone.usable
            family = SketchFamily(8, columns=3, backend=private,
                                  rng=np.random.default_rng(0))
            cluster = Cluster(MPCConfig(n=8), backend=private)
            twin_family, twin_cluster = pickle.loads(
                pickle.dumps((family, cluster)))
            assert twin_family.backend is twin_cluster.backend
            assert type(twin_family.backend) is type(private)
            assert twin_family.backend not in (private, clone)
            assert np.array_equal(twin_family.pool.cells,
                                  family.pool.cells)
            clone.close()
            twin_cluster.close()


# ---------------------------------------------------------------------------
# Pool-level parity: ingestion, scalar/bulk mixes, queries
# ---------------------------------------------------------------------------

class TestPoolParity:
    def test_bulk_ingestion_bit_identical(self, shared_backend):
        seq, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 60)
        deltas = np.ones(60, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, deltas)
        shm.apply_edges_bulk(us, vs, deltas)
        assert np.array_equal(seq.pool.cells, shm.pool.cells)

    def test_scalar_and_bulk_mix_bit_identical(self, shared_backend):
        # Interleaved insert and delete batches, on both backends, land
        # on the per-vertex scalar replay row for row.
        seq, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 30)
        log = []
        for rows, delta in ((slice(0, 20), 1), (slice(0, 9), -1),
                            (slice(20, 30), 1), (slice(3, 9), 1),
                            (slice(25, 30), -1)):
            deltas = np.full(us[rows].shape, delta, dtype=np.int64)
            seq.apply_edges_bulk(us[rows], vs[rows], deltas)
            shm.apply_edges_bulk(us[rows], vs[rows], deltas)
            log += [(u, v, delta) for u, v in zip(us[rows], vs[rows])]
        assert np.array_equal(seq.pool.cells, shm.pool.cells)
        assert np.array_equal(seq.pool.cells, replay_rows(seq, log))

    def test_query_routes_bit_identical(self, shared_backend):
        # Every vertex as its own size-1 group (the shape the static
        # AGM contraction starts from), on both backends, against the
        # exact references.
        seq, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 60)
        ones = np.ones(60, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        live = set(zip(us.tolist(), vs.tolist()))
        singletons = [np.array([v]) for v in range(40)]
        for column in range(seq.columns):
            check_groups((seq, shm), singletons, column, live)

    def test_subset_and_repeated_slots(self, shared_backend):
        # Groups may overlap, repeat, and list members in any order:
        # group shares only read pool rows, so placement is free.
        seq, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 50)
        ones = np.ones(50, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        groups = [np.array([7, 3]), np.array([3, 7]), np.array([39]),
                  np.array([0, 21, 7]), np.array([39]),
                  np.array([21, 0, 7])]
        check_groups((seq, shm), groups, 1, set(zip(us.tolist(),
                                                    vs.tolist())))


# ---------------------------------------------------------------------------
# Tentpole: membership-shipped supernode queries
# ---------------------------------------------------------------------------

class TestGroupRouting:
    def _loaded_pair(self, shared_backend, n=40, k=60, seed=21):
        seq, shm = family_pair(shared_backend, n=n)
        us, vs = edge_arrays(n, k, seed=seed)
        ones = np.ones(k, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        return seq, shm, set(zip(us.tolist(), vs.tolist()))

    def test_group_queries_match_materialised_merges(self, shared_backend):
        seq, shm, live = self._loaded_pair(shared_backend)
        groups = [np.array([0, 1, 2, 3]), np.array([10]),
                  np.array([20, 25, 30, 35, 39]), np.array([4, 5])]
        for column in range(seq.columns):
            check_groups((seq, shm), groups, column, live)
        check_groups((seq, shm), groups, np.arange(4), live)

    def test_group_validation(self, shared_backend):
        pair = [np.array([0]), np.array([1])]
        for family in family_pair(shared_backend):
            with pytest.raises(SketchError, match="empty"):
                family.query_iteration_groups(
                    [np.array([], dtype=np.int64)], 0)
            with pytest.raises(SketchError, match="vertex range"):
                family.cuts_empty_groups([np.array([0, 40])])
            # Columns outside [0, 6) are refused before dispatch: -1
            # would read column 5, 6 would fail a share.
            for column in (-1, 6, [0, 6], [-1, 2]):
                with pytest.raises(SketchError, match="column range"):
                    family.query_iteration_groups(pair, column)
            zeros, edges = family.query_iteration_groups([], 0)
            assert zeros.shape == (0,) and edges == []

    def test_group_split_spreads_over_workers(self, shared_backend):
        _, shm, _ = self._loaded_pair(shared_backend, seed=23)
        groups = [np.arange(10), np.arange(10, 20), np.arange(20, 30),
                  np.arange(30, 40)]
        shm.query_iteration_groups(groups, 0)
        split = shared_backend.last_split
        assert sum(split.values()) == 40
        assert len(split) == WORKERS, (
            "balanced groups must spread across the fleet"
        )


# ---------------------------------------------------------------------------
# Satellite: the op list, the op table and the protocol stay closed
# ---------------------------------------------------------------------------

class TestOpTableClosure:
    """``ROUTED_OPS``, ``_execute_op`` (the op table) and the routed
    methods of ``ExecutionBackend``: none may name an op the others
    lack."""

    #: Wire-shaped descriptor arrays per op, for a 4-row pool.
    ARGS = {
        "apply": [np.array([0, 3]), np.array([[1, 0, 2], [1, 0, 2]]),
                  np.array([2, 2]), np.array([1, -1]), np.array([5, 5])],
        "gquery": [np.array([2, 2]), np.array([0, 1, 2, 3]),
                   np.array([0, 1])],
        "gzero": [np.array([1, 3]), np.array([3, 0, 1, 2])],
    }

    def test_every_routed_op_executes(self):
        assert set(self.ARGS) == set(ROUTED_OPS)
        family = SketchFamily(4, columns=3, rng=np.random.default_rng(1))
        for op in ROUTED_OPS:
            _execute_op(op, family.pool.cells, family.randomness,
                        self.ARGS[op])
        # The apply above really landed: +1 on row 0, -1 on row 3.
        assert family.cuts_empty_groups(
            [np.array([0]), np.array([0, 3])]).tolist() == [False, True]

    def test_unknown_op_is_rejected(self):
        family = SketchFamily(4, columns=3, rng=np.random.default_rng(1))
        for op in ("query", "sample", "is_zero", "frobnicate"):
            with pytest.raises(ValueError, match="unknown backend op"):
                _execute_op(op, family.pool.cells, family.randomness, [])

    def test_gquery_recovers_a_coordinate_past_2_53(self):
        # One row holds weight 2^20 - 3 at idx = 2^40 - 3, so S is near
        # 2^60: a float64 step between the merge and the decode (the
        # merged cells, their level prefixes) loses the coordinate.
        randomness = SamplerRandomness(1 << 40, 1, np.random.default_rng(4))
        pool = RecoveryPool(1, 1, randomness.levels)
        idx = np.array([(1 << 40) - 3])
        pool.apply_points(np.zeros(1, np.int64),
                          randomness.levels_of_many(idx), idx,
                          np.array([(1 << 20) - 3]),
                          randomness.zpow_many(idx))
        one, zero = np.ones(1, np.int64), np.zeros(1, np.int64)
        zeros, found = _execute_op("gquery", pool.cells, randomness,
                                   [one, zero, zero])
        assert zeros.tolist() == [False]
        assert found.tolist() == idx.tolist()

    def test_both_backends_override_every_routed_method(self):
        wire_op = {"scatter_edges": "apply", "query_groups": "gquery",
                   "zero_groups": "gzero"}
        assert sorted(wire_op.values()) == sorted(ROUTED_OPS)
        # What the protocol declares and leaves to the backends.
        abstract = {
            name for name, member in vars(ExecutionBackend).items()
            if callable(member)
            and "NotImplementedError" in member.__code__.co_names
        }
        assert abstract == set(wire_op)
        for cls in (SequentialBackend, SharedMemoryBackend):
            assert abstract <= set(vars(cls)), cls.__name__

    def test_one_executor_behind_every_route(self, shared_backend):
        """Sequential and the thread backend answer the same flat
        groups byte-equal to ``_execute_op`` on their cells."""
        members = np.array([0, 1, 2, 3, 10, 20, 25, 39, 4, 5])
        glens, cols = np.array([4, 1, 3, 2]), np.array([0, 1, 2, 3])
        us, vs = edge_arrays(40, 60, seed=21)
        answers = []
        for backend in (SequentialBackend(), shared_backend):
            family = SketchFamily(40, columns=6, backend=backend,
                                  rng=np.random.default_rng(9))
            family.apply_edges_bulk(us, vs, np.ones(60, dtype=np.int64))
            pool, cells = family.pool, family.pool.cells
            got = (*backend.query_groups(pool, family.randomness, members,
                                         glens, cols),
                   backend.zero_groups(pool, family.randomness, members,
                                       glens))
            ref = (*_execute_op("gquery", cells, family.randomness,
                                [glens, members, cols]),
                   _execute_op("gzero", cells, family.randomness,
                               [glens, members]))
            answers.append([a.tobytes() for a in got])
            assert answers[-1] == [r.tobytes() for r in ref]
        assert answers[0] == answers[1]
        # ... and the answer is not the trivial all-empty one.
        assert not all(np.frombuffer(answers[0][0], dtype=bool))


# ---------------------------------------------------------------------------
# Satellite: deletion-heavy mixes stay bit-identical across backends
# ---------------------------------------------------------------------------

class TestDeletionHeavyMix:
    def test_deletion_heavy_interleaving_parity(self, shared_backend):
        """>=30% deletions with insert->delete->reinsert churn of the
        same edges across phases: sketch cells, forests, and stats must
        stay bit-identical between the backends."""
        from repro.types import dele, ins

        n = 40
        a, b = _on_both(MPCConnectivity, n, shared_backend)
        us, vs = edge_arrays(n, 30, seed=41)
        edges = list(zip(us.tolist(), vs.tolist()))
        phases = [
            [ins(u, v) for u, v in edges[:20]],
            # Phase 2: 10 inserts + 10 deletes (50% deletions).
            [ins(u, v) for u, v in edges[20:]]
            + [dele(u, v) for u, v in edges[:10]],
            # Phase 3: reinsert 6 of the deleted edges, delete 6 more
            # (50% deletions), churning the same coordinates again.
            [ins(u, v) for u, v in edges[:6]]
            + [dele(u, v) for u, v in edges[10:16]],
            # Phase 4: delete-only (100% deletions), incl. reinserted.
            [dele(u, v) for u, v in edges[:4]],
        ]
        total = sum(len(p) for p in phases)
        deletions = sum(1 for p in phases for up in p if up.is_delete)
        assert deletions / total >= 0.30
        for batch in phases:
            a.apply_batch(list(batch))
            b.apply_batch(list(batch))
            assert np.array_equal(a.family.pool.cells,
                                  b.family.pool.cells)
        assert a.num_components() == b.num_components()
        assert sorted(a.forest.all_edges()) == sorted(b.forest.all_edges())
        assert a.stats == b.stats


# ---------------------------------------------------------------------------
# Satellite: env-knob validation at read time
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

#: Every ``REPRO_*`` knob named by a string constant in ``src/``.
KNOBS = sorted({name for path in (ROOT / "src").rglob("*.py")
                for name in re.findall(r"[\"'](REPRO_[A-Z][A-Z0-9_]*)[\"']",
                                       path.read_text(encoding="utf-8"))})
assert KNOBS, "no REPRO_* knob found in src/"

#: Reads every knob the way a run does: the kernel knobs are read
#: when ``repro.kernels`` is imported.
READ_EVERY_KNOB = "import repro.kernels\n"


class TestEnvValidation:
    @pytest.mark.parametrize("knob", KNOBS)
    def test_knob_is_documented_and_fails_by_name(self, knob):
        quickstart = (ROOT / "examples" / "quickstart.py").read_text(
            encoding="utf-8")
        assert re.search(rf"\b{knob}\b", quickstart), \
            f"{knob} is read in src/ but not named in examples/quickstart.py"
        # A fresh interpreter: the knobs are read once, at import.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        for value in ("garbage", ""):
            proc = subprocess.run(
                [sys.executable, "-c", READ_EVERY_KNOB],
                env={**env, knob: value}, capture_output=True, text=True,
                timeout=60)
            assert proc.returncode != 0, f"{knob}={value!r} was accepted"
            assert f"{knob}={value!r}" in proc.stderr, proc.stderr

    def test_only_the_kernel_knobs_are_left(self):
        assert KNOBS == ["REPRO_KERNELS_CHECK", "REPRO_KERNELS_PROFILE"]

    def test_retired_backend_knobs_are_ignored(self):
        """The executor is chosen only through the constructors: a
        fresh interpreter with the retired backend variables set still
        runs a default session sequentially."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(ROOT / "src"),
                   REPRO_BACKEND="shared_memory",
                   REPRO_BACKEND_WORKERS="2")
        script = ("from repro import GraphSession\n"
                  "with GraphSession(16) as session:\n"
                  "    session.ingest([(0, 1), (1, 2)])\n"
                  "    assert session.connected(0, 2)\n"
                  "    print(session.cluster.backend.describe())\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sequential(workers=1)"

    @pytest.mark.parametrize("value", ["abc", "-1", "", "1.5", "0"])
    def test_garbage_integer_raises_sketch_error(self, monkeypatch,
                                                 value):
        monkeypatch.setenv("REPRO_TEST_KNOB", value)
        with pytest.raises(SketchError,
                           match=f"REPRO_TEST_KNOB={value!r}"):
            env_int("REPRO_TEST_KNOB", minimum=1)

    def test_valid_env_values_accepted(self, monkeypatch):
        assert env_int("REPRO_TEST_KNOB", minimum=1) is None
        monkeypatch.setenv("REPRO_TEST_KNOB", " 3 ")
        assert env_int("REPRO_TEST_KNOB", minimum=1) == 3

    @pytest.mark.parametrize("count", [0, -1, 2.5, "2", True])
    def test_bad_worker_count_names_the_argument(self, count):
        with pytest.raises(ConfigurationError, match="num_workers"):
            SharedMemoryBackend(num_workers=count)

    def test_numpy_worker_count_accepted(self):
        with SharedMemoryBackend(num_workers=np.int64(2)) as backend:
            assert backend.num_workers == 2


# ---------------------------------------------------------------------------
# End-to-end algorithm matrix on both backends
# ---------------------------------------------------------------------------

def _drive(alg_a, alg_b, n, rng, phases=5, size=10, weighted=False):
    live = set()
    for _ in range(phases):
        batch = make_valid_batch(rng, n, live, size, weighted=weighted)
        alg_a.apply_batch(list(batch))
        alg_b.apply_batch(list(batch))


class TestAlgorithmParity:
    def test_connectivity_matrix(self, shared_backend):
        n = 48
        a, b = _on_both(MPCConnectivity, n, shared_backend)
        _drive(a, b, n, np.random.default_rng(31))
        assert a.num_components() == b.num_components()
        assert sorted(a.forest.all_edges()) == sorted(b.forest.all_edges())
        assert a.stats == b.stats
        assert a.query_spanning_forest().edges == \
            b.query_spanning_forest().edges

    def test_msf_matrix(self, shared_backend):
        n = 32
        a, b = _on_both(ApproxMSF, n, shared_backend, eps=0.5,
                        max_weight=64.0)
        _drive(a, b, n, np.random.default_rng(5), phases=4, size=8,
               weighted=True)
        assert a.weight_estimate() == b.weight_estimate()
        fa, fb = a.query_forest(), b.query_forest()
        assert fa.edges == fb.edges
        assert fa.weights == fb.weights

    def test_bipartiteness_matrix(self, shared_backend):
        n = 24
        a, b = _on_both(DynamicBipartiteness, n, shared_backend)
        rng = np.random.default_rng(13)
        live = set()
        for _ in range(4):
            batch = make_valid_batch(rng, n, live, 8)
            a.apply_batch(list(batch))
            b.apply_batch(list(batch))
            assert a.is_bipartite() == b.is_bipartite()
            assert a.num_components() == b.num_components()

    def test_agm_static_matrix(self, shared_backend):
        n = 32
        a, b = _on_both(AGMStaticConnectivity, n, shared_backend)
        _drive(a, b, n, np.random.default_rng(17), phases=3, size=8)
        assert a.query_spanning_forest().edges == \
            b.query_spanning_forest().edges

    def test_cluster_instance_picks_the_executor(self, shared_backend):
        # An algorithm runs on its cluster's backend; nested instances
        # (bipartiteness's double cover) share it.
        n = 24
        a = MPCConnectivity(MPCConfig(n=n, seed=7))
        b = MPCConnectivity(MPCConfig(n=n, seed=7), cluster=Cluster(
            MPCConfig(n=n, seed=7), backend=shared_backend))
        assert b.cluster.backend is b.family.backend is shared_backend
        bip = DynamicBipartiteness(MPCConfig(n=n, seed=7), cluster=Cluster(
            MPCConfig(n=n, seed=7), backend=shared_backend))
        assert bip.cover.cluster.backend is shared_backend
        assert bip.cover.family.backend is shared_backend
        _drive(a, b, n, np.random.default_rng(23), phases=3, size=6)
        assert sorted(a.forest.all_edges()) == sorted(b.forest.all_edges())


# ---------------------------------------------------------------------------
# Satellite: per-shard metrics attribution
# ---------------------------------------------------------------------------

class TestShardAttribution:
    @pytest.mark.parametrize("backend", ["sequential", "shared_memory"])
    def test_route_gather_lands_on_one_machine(self, backend):
        # Section 1.2: the batch is routed to one dedicated machine on
        # every backend.
        n = 48
        config = MPCConfig(n=n, seed=7)
        with Cluster(config, backend=backend) as cluster:
            alg = MPCConnectivity(config, cluster=cluster)
            rng = np.random.default_rng(2)
            live = set()
            snapshot = alg.apply_batch(make_valid_batch(rng, n, live, 12))
        assert snapshot.rounds_by_category["route-updates"] >= 1

    def test_backend_records_shard_split(self, shared_backend):
        _, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 20)
        shm.apply_edges_bulk(us, vs, np.ones(20, dtype=np.int64))
        split = shared_backend.last_split
        assert sum(split.values()) == 40  # two endpoints per edge
        assert set(split) <= set(range(WORKERS))


# ---------------------------------------------------------------------------
# The thread executor: waits for every share, joins its threads
# ---------------------------------------------------------------------------

class TestThreadExecutor:
    @staticmethod
    def _loaded(backend, n=40):
        family = SketchFamily(n, columns=4, rng=np.random.default_rng(0),
                              backend=backend)
        us, vs = edge_arrays(n, 10, seed=3)
        family.apply_edges_bulk(us, vs, np.ones(10, dtype=np.int64))
        return family

    def test_share_exception_surfaces_after_every_share(self,
                                                        monkeypatch):
        """Worker 0's share fails at once, worker 1's is still writing:
        the call raises worker 0's exception, unchanged, only once
        worker 1 has finished."""
        finished = []
        real = backend_module._execute_op

        def staged(op, cells, randomness, arrays):
            if int(arrays[0].min()) < 20:       # worker 0's rows
                raise IndexError("share 0 failed")
            time.sleep(0.2)
            real(op, cells, randomness, arrays)
            finished.append(threading.current_thread().name)

        with SharedMemoryBackend(num_workers=2) as backend:
            family = self._loaded(backend)
            monkeypatch.setattr(backend_module, "_execute_op", staged)
            hi, lo = np.array([30, 25]), np.array([5, 22])
            with pytest.raises(IndexError, match="share 0 failed"):
                backend.scatter_edges(family.pool, family.randomness, hi,
                                      lo, np.array([7, 9]),
                                      np.array([1, 1]))
            assert len(finished) == 1, "returned before share 1 ended"
            assert backend.usable

    def test_lowest_failing_worker_wins(self, monkeypatch):
        def both_fail(op, cells, randomness, arrays):
            if int(arrays[0].min()) < 20:
                time.sleep(0.1)
                raise ValueError("worker 0")
            raise KeyError("worker 1")

        with SharedMemoryBackend(num_workers=2) as backend:
            family = self._loaded(backend)
            monkeypatch.setattr(backend_module, "_execute_op", both_fail)
            with pytest.raises(ValueError, match="worker 0"):
                backend.scatter_edges(family.pool, family.randomness,
                                      np.array([30]), np.array([5]),
                                      np.array([7]), np.array([1]))

    def test_bench_counters(self):
        """What the benchmark harness reads off the parallel backend:
        shares handed to threads, no pipe dispatches, zero health."""
        with SharedMemoryBackend(num_workers=2) as backend:
            family = self._loaded(backend)
            assert backend.ring_dispatches == 2  # one scatter, 2 shares
            family.cuts_empty_groups([np.array([0]), np.array([39])])
            assert backend.ring_dispatches == 4
            assert backend.raw_dispatches == 0
            assert backend.health_counters() == {
                "respawns": 0, "retries": 0, "degrades": 0}

    def test_close_and_with_join_the_threads(self):
        backend = SharedMemoryBackend(num_workers=2)
        self._loaded(backend)
        threads = list(backend._threads._threads)
        assert threads and all(t.is_alive() for t in threads)
        backend.close()
        assert not any(t.is_alive() for t in threads)
        backend.close()  # idempotent
        with SharedMemoryBackend(num_workers=2) as backend:
            self._loaded(backend)
            threads = list(backend._threads._threads)
        assert threads and not any(t.is_alive() for t in threads)

    def test_closed_backend_rejects_work(self):
        backend = SharedMemoryBackend(num_workers=1)
        family = SketchFamily(8, columns=4,
                              rng=np.random.default_rng(0),
                              backend=backend)
        backend.close()
        with pytest.raises(SketchError, match="closed"):
            family.apply_edges_bulk(
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([1], dtype=np.int64),
            )
        with pytest.raises(SketchError, match="closed"):
            family.cuts_empty_groups([np.array([0])])


# ---------------------------------------------------------------------------
# How a call is cut into shares
# ---------------------------------------------------------------------------

#: Group-length shapes the AGM iterations produce: all singletons (the
#: first iteration), even fragments, one giant fragment among
#: singletons, a skewed head, a single group, fewer groups than
#: workers, and a random mix.
GLENS = {
    "singletons": [1] * 40,
    "even": [3] * 12,
    "one_giant": [1, 1, 30, 1, 1],
    "skewed": [20] + [1] * 9,
    "single_group": [7],
    "two_groups": [2, 5],
    "random": np.random.default_rng(4).integers(1, 10, 25).tolist(),
}


class TestShareSplit:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("shape", sorted(GLENS))
    def test_group_shares_are_contiguous_and_balanced(self, shape,
                                                      workers):
        """The shares are ordered, non-empty, contiguous runs of whole
        groups that concatenate back to the input, and no share carries
        more than its even part plus one group."""
        glens = np.array(GLENS[shape], dtype=np.int64)
        members = np.arange(int(glens.sum()), dtype=np.int64)[::-1].copy()
        cols = np.arange(glens.shape[0], dtype=np.int64) % 6
        with SharedMemoryBackend(num_workers=workers) as backend:
            for with_cols in (True, False):
                jobs = backend._group_jobs(
                    members, glens, cols if with_cols else None,
                    "gquery" if with_cols else "gzero")
                wids = [wid for wid, _, _ in jobs]
                assert wids == sorted(set(wids))
                assert all(0 <= wid < workers for wid in wids)
                shares = [arrays for _, _, arrays in jobs]
                assert all(len(a) == (3 if with_cols else 2)
                           for a in shares)
                assert all(a[0].shape[0] > 0 for a in shares)
                assert np.array_equal(
                    np.concatenate([a[0] for a in shares]), glens)
                assert np.array_equal(
                    np.concatenate([a[1] for a in shares]), members)
                if with_cols:
                    assert np.array_equal(
                        np.concatenate([a[2] for a in shares]), cols)
                for a in shares:
                    assert int(a[0].sum()) == a[1].shape[0]
                assert backend.last_split == {
                    wid: a[1].shape[0] for wid, a in zip(wids, shares)}
                even = -(-int(glens.sum()) // workers)
                assert max(a[1].shape[0] for a in shares) <= \
                    even + int(glens.max())

    @pytest.mark.parametrize("workers", range(1, 9))
    def test_equal_groups_use_every_worker(self, workers):
        glens = np.full(5 * workers, 2, dtype=np.int64)
        members = np.arange(10 * workers, dtype=np.int64)
        with SharedMemoryBackend(num_workers=workers) as backend:
            backend._group_jobs(members, glens, None, "gzero")
            assert backend.last_split == {
                wid: 10 for wid in range(workers)}

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("n", [5, 40, 97])
    def test_scatter_shares_write_only_their_own_rows(self, n, workers):
        """Every entry lands in exactly one share, the share of the
        worker owning its row, with its payloads still aligned and in
        the original order."""
        rng = np.random.default_rng(n * 10 + workers)
        slots = rng.integers(0, n, 3 * n).astype(np.int64)
        position = np.arange(slots.shape[0], dtype=np.int64)
        blocks = backend_module.VertexPartition(n, workers)
        with SharedMemoryBackend(num_workers=workers) as backend:
            jobs = backend._sharded_jobs(n, slots, [position, slots * 7],
                                         "apply")
        seen = []
        for wid, op, (share_slots, share_pos, share_payload) in jobs:
            assert op == "apply" and share_slots.shape[0] > 0
            assert (blocks.machines_of_vertices(share_slots) == wid).all()
            assert np.array_equal(share_slots, slots[share_pos])
            assert np.array_equal(share_payload, share_slots * 7)
            assert (np.diff(share_pos) > 0).all()
            assert backend.last_split[wid] == share_slots.shape[0]
            seen.append(share_pos)
        assert np.array_equal(np.sort(np.concatenate(seen)), position)
        assert [wid for wid, _, _ in jobs] == sorted(backend.last_split)


# ---------------------------------------------------------------------------
# Parity at every worker count
# ---------------------------------------------------------------------------

class TestWorkerCountParity:
    """Each routed method on a K-thread backend answers byte-equal to
    the sequential backend, including K above the rows a batch
    touches."""

    @staticmethod
    def _pair(backend, n=40):
        seq, thr = family_pair(backend, n=n)
        us, vs = edge_arrays(n, 50, seed=11)
        ones = np.ones(50, dtype=np.int64)
        for family in (seq, thr):
            family.apply_edges_bulk(us, vs, ones)
            family.apply_edges_bulk(us[:15], vs[:15], -ones[:15])
        live = set(zip(us[15:].tolist(), vs[15:].tolist()))
        return seq, thr, live

    @staticmethod
    def _groups(n=40, seed=5):
        order = np.random.default_rng(seed).permutation(n)
        cuts = [0, 1, 2, 5, 9, 16, 17, 30, n]
        return [order[a:b] for a, b in zip(cuts, cuts[1:])]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    def test_scatter(self, workers):
        with SharedMemoryBackend(num_workers=workers) as backend:
            seq, thr, _ = self._pair(backend)
            assert np.array_equal(seq.pool.cells, thr.pool.cells)
            # The last batch (15 deletions) has one entry per endpoint.
            assert sum(backend.last_split.values()) == 30
            assert set(backend.last_split) <= set(range(workers))

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    def test_query_groups(self, workers):
        with SharedMemoryBackend(num_workers=workers) as backend:
            seq, thr, live = self._pair(backend)
            groups = self._groups()
            check_groups((seq, thr), groups, np.arange(len(groups)) % 6,
                         live)
            for column in range(seq.columns):
                (zs, es), (zt, et) = (
                    f.query_iteration_groups(groups, column)
                    for f in (seq, thr))
                assert zs.tolist() == zt.tolist() and es == et

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    def test_zero_groups(self, workers):
        with SharedMemoryBackend(num_workers=workers) as backend:
            seq, thr, live = self._pair(backend)
            groups = self._groups(seed=workers) + [np.arange(40)]
            want = seq.cuts_empty_groups(groups)
            assert np.array_equal(thr.cuts_empty_groups(groups), want)
            assert want[-1], "the whole vertex set has an empty cut"
            members = np.concatenate(groups)
            glens = np.array([len(g) for g in groups])
            assert np.array_equal(backend.zero_groups(
                thr.pool, thr.randomness, members, glens), want)


# ---------------------------------------------------------------------------
# Failing shares, on every route
# ---------------------------------------------------------------------------

class ShareFailure(Exception):
    """Raised by one staged share; carries that share's first slot."""


class TestShareFailures:
    ROUTES = ("scatter", "query", "zero")

    @staticmethod
    def _call(backend, family, route):
        pool, rnd = family.pool, family.randomness
        members = np.arange(40, dtype=np.int64)
        glens = np.full(8, 5, dtype=np.int64)
        if route == "scatter":
            hi = np.arange(20, 40, dtype=np.int64)
            lo = np.arange(0, 20, dtype=np.int64)
            return backend.scatter_edges(pool, rnd, hi, lo,
                                         np.arange(20, dtype=np.int64),
                                         np.ones(20, dtype=np.int64))
        if route == "query":
            return backend.query_groups(pool, rnd, members, glens,
                                        np.zeros(8, dtype=np.int64))
        return backend.zero_groups(pool, rnd, members, glens)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("route", ROUTES)
    def test_every_share_fails_lowest_worker_raised(self, monkeypatch,
                                                    route, workers):
        """All shares fail, the lowest worker's last: the call raises
        that share's own exception object, and only once every share
        has ended."""
        raised, ended = {}, []

        def failing(op, cells, randomness, arrays):
            rows = arrays[0] if op == "apply" else arrays[1]
            first = int(rows.min())
            time.sleep(0.05 * (40 - first) / 40)
            raised[first] = ShareFailure(first)
            ended.append(first)
            raise raised[first]

        with SharedMemoryBackend(num_workers=workers) as backend:
            family = TestThreadExecutor._loaded(backend)
            monkeypatch.setattr(backend_module, "_execute_op", failing)
            with pytest.raises(ShareFailure) as info:
                self._call(backend, family, route)
            assert len(ended) == len(backend.last_split) == workers
            assert info.value is raised[0]
            assert backend.usable

    @pytest.mark.parametrize("route", ROUTES)
    def test_one_slow_failure_waits_for_the_rest(self, monkeypatch,
                                                 route):
        """Only the last worker's share fails, at once; the others are
        slow and real.  The call still waits for them."""
        real = backend_module._execute_op
        ended = []

        def staged(op, cells, randomness, arrays):
            rows = arrays[0] if op == "apply" else arrays[1]
            if int(rows.max()) == 39:
                raise ShareFailure(39)
            time.sleep(0.1)
            result = real(op, cells, randomness, arrays)
            ended.append(int(rows.min()))
            return result

        with SharedMemoryBackend(num_workers=3) as backend:
            family = TestThreadExecutor._loaded(backend)
            monkeypatch.setattr(backend_module, "_execute_op", staged)
            with pytest.raises(ShareFailure):
                self._call(backend, family, route)
            assert len(ended) == 2

    @pytest.mark.parametrize("route", ROUTES)
    def test_backend_keeps_working_after_a_failed_call(self, monkeypatch,
                                                       route):
        real = backend_module._execute_op
        with SharedMemoryBackend(num_workers=2) as backend:
            family = TestThreadExecutor._loaded(backend)
            monkeypatch.setattr(
                backend_module, "_execute_op",
                lambda *a: (_ for _ in ()).throw(ShareFailure(-1)))
            with pytest.raises(ShareFailure):
                self._call(backend, family, route)
            monkeypatch.setattr(backend_module, "_execute_op", real)
            seq = TestThreadExecutor._loaded(SequentialBackend())
            if route == "scatter":
                # A failed scatter wrote nothing: the shares raised
                # before touching a cell.
                assert np.array_equal(family.pool.cells, seq.pool.cells)
            got = self._call(backend, family, route)
            want = self._call(SequentialBackend(), seq, route)
            if route == "scatter":
                assert np.array_equal(family.pool.cells, seq.pool.cells)
            elif route == "query":
                assert all(np.array_equal(g, w)
                           for g, w in zip(got, want))
            else:
                assert np.array_equal(got, want)
