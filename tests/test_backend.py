"""Execution-backend matrix: parity, spawn-safety, crash surfacing.

The contract under test (see :mod:`repro.mpc.backend`): the
``shared_memory`` backend is *bit-identical* to the ``sequential`` one
-- same pool cells after any mix of bulk and scalar updates, same query
answers, and therefore identical end-to-end behaviour of every
algorithm built on the sketches -- while worker failures surface as
:class:`~repro.errors.SketchError` instead of hangs or corruption.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from tests.conftest import edge_arrays, family_pair, make_valid_batch
from repro.baselines.agm_static import AGMStaticConnectivity
from repro.core import MPCConnectivity
from repro.core.bipartiteness import DynamicBipartiteness
from repro.core.msf_approx import ApproxMSF
from repro.errors import ConfigurationError, SketchError
from repro.mpc import MPCConfig
from repro.mpc.backend import (
    DEFAULT_BACKOFF,
    ExecutionBackend,
    SequentialBackend,
    SharedMemoryBackend,
    _execute_op,
    default_worker_count,
    get_backend,
    resolve_backend,
)
from repro.mpc.faults import ROUTED_OPS, FaultPlan
from repro.sketch import (
    FourWiseHash,
    MergedSketch,
    PairwiseHash,
    SamplerRandomness,
    SketchFamily,
)

WORKERS = 2


@pytest.fixture(scope="module")
def shared_backend():
    """The process-wide 2-worker backend (shared across tests so the
    suite spawns one fleet, not one per test)."""
    return get_backend("shared_memory", workers=WORKERS)


def _seq_config(n: int, seed: int = 7, **kw) -> MPCConfig:
    return MPCConfig(n=n, seed=seed, backend="sequential", **kw)


def _shm_config(n: int, seed: int = 7, **kw) -> MPCConfig:
    return MPCConfig(n=n, seed=seed, backend="shared_memory",
                     backend_workers=WORKERS, **kw)


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
        for idx in idxs.tolist():
            assert np.array_equal(clone.levels_of(idx),
                                  original.levels_of(idx))
            assert clone.zpow(idx) == original.zpow(idx)
        ws = [1, -2, 3, 7, 1]
        fs = original.zpow_many(idxs).tolist()
        for idx, w, f in zip(idxs.tolist(), ws, fs):
            assert clone.fingerprint_ok(idx, w, f) == \
                original.fingerprint_ok(idx, w, f)

    def test_from_params_draws_no_randomness(self, rng):
        original = SamplerRandomness(universe=300, columns=4, rng=rng)
        rebuilt = SamplerRandomness.from_params(*original.params())
        assert rebuilt.params() == original.params()
        # Fresh caches, same behaviour.
        assert len(rebuilt._zpow_cache) == 0
        assert rebuilt.zpow(123) == original.zpow(123)

    def test_from_params_validates_columns(self):
        with pytest.raises(ValueError):
            SamplerRandomness.from_params(100, 3, 1, ((1, 2),))

    def test_pickle_ships_params_not_caches(self, rng):
        # The attach payload every worker receives: without __reduce__
        # it would carry the scalar memo caches (574 B -> 1.1 MB after
        # 5 000 lookups).
        randomness = SamplerRandomness(universe=5000, columns=6, rng=rng)
        fresh = len(pickle.dumps(randomness))
        for idx in range(1000):
            randomness.levels_of(idx)
            randomness.zpow(idx)
        assert len(pickle.dumps(randomness)) == fresh


# ---------------------------------------------------------------------------
# Backend construction / resolution
# ---------------------------------------------------------------------------

class TestBackendResolution:
    def test_sequential_is_shared_singleton(self):
        assert get_backend("sequential") is get_backend("sequential")
        assert isinstance(get_backend(None), SequentialBackend) or \
            get_backend(None).parallel  # env may force shared_memory

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("gpu")
        with pytest.raises(ConfigurationError):
            MPCConfig(n=16, backend="gpu")

    def test_resolve_accepts_instances(self, shared_backend):
        assert resolve_backend(shared_backend) is shared_backend
        with pytest.raises(ConfigurationError):
            resolve_backend(42)

    def test_shared_cache_reuses_fleet(self, shared_backend):
        assert get_backend("shared_memory",
                           workers=WORKERS) is shared_backend
        assert get_backend("shm", workers=WORKERS) is shared_backend


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
        seq, shm = family_pair(shared_backend)
        seq_sk = {v: seq.new_vertex_sketch(v) for v in range(40)}
        shm_sk = {v: shm.new_vertex_sketch(v) for v in range(40)}
        us, vs = edge_arrays(40, 30)
        ones = np.ones(30, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        # Scalar updates write the (possibly shared-memory) pool rows
        # directly from the parent -- same cells either way.
        for u, v in ((1, 2), (5, 38), (0, 39)):
            for sketches in (seq_sk, shm_sk):
                sketches[u].apply_edge(u, v, +1)
                sketches[v].apply_edge(u, v, +1)
        seq.apply_edges_bulk(us[:9], vs[:9], -ones[:9])
        shm.apply_edges_bulk(us[:9], vs[:9], -ones[:9])
        assert np.array_equal(seq.pool.cells, shm.pool.cells)

    def test_query_routes_bit_identical(self, shared_backend):
        # Every vertex as its own size-1 group (the shape the static
        # AGM contraction starts from), on both backends, against the
        # scalar per-vertex sketch.
        seq, shm = family_pair(shared_backend)
        oracle = [seq.new_vertex_sketch(v).sampler for v in range(40)]
        us, vs = edge_arrays(40, 60)
        ones = np.ones(60, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        singletons = [np.array([v]) for v in range(40)]

        zeros_ref = [s.is_zero() for s in oracle]
        for column in range(seq.columns):
            z_seq, e_seq = seq.query_iteration_groups(singletons, column)
            z_shm, e_shm = shm.query_iteration_groups(singletons, column)
            assert z_seq.tolist() == z_shm.tolist() == zeros_ref
            assert e_seq == e_shm == [
                None if (idx := s.sample_column(column)) is None
                else seq.decode(idx)
                for s in oracle
            ]
        assert seq.cuts_empty_groups(singletons).tolist() == zeros_ref
        assert shm.cuts_empty_groups(singletons).tolist() == zeros_ref

    def test_subset_and_repeated_slots(self, shared_backend):
        # Groups may overlap, repeat, and list members in any order:
        # workers only read pool rows, so placement is free.
        seq, shm = family_pair(shared_backend)
        sketches = [seq.new_vertex_sketch(v) for v in range(40)]
        us, vs = edge_arrays(40, 50)
        ones = np.ones(50, dtype=np.int64)
        seq.apply_edges_bulk(us, vs, ones)
        shm.apply_edges_bulk(us, vs, ones)
        groups = [np.array([7, 3]), np.array([3, 7]), np.array([39]),
                  np.array([0, 21, 7]), np.array([39]),
                  np.array([21, 0, 7])]
        z_seq, e_seq = seq.query_iteration_groups(groups, 1)
        z_shm, e_shm = shm.query_iteration_groups(groups, 1)
        assert np.array_equal(z_seq, z_shm)
        assert e_seq == e_shm
        merged = [MergedSketch.of([sketches[int(v)] for v in group])
                  for group in groups]
        assert z_seq.tolist() == [m.cut_is_empty() for m in merged]
        assert e_seq == [None if m.cut_is_empty()
                         else m.sample_cut_edge(1) for m in merged]


# ---------------------------------------------------------------------------
# Tentpole: ring-buffer descriptor transport
# ---------------------------------------------------------------------------

class TestRingTransport:
    def test_small_batches_take_the_ring(self):
        """The hot path: small-batch dispatch ships (seq, offset, len)
        tokens through the descriptor ring, never pickled arrays."""
        backend = SharedMemoryBackend(num_workers=2)
        try:
            seq = SketchFamily(40, columns=6,
                               rng=np.random.default_rng(3),
                               backend="sequential")
            shm = SketchFamily(40, columns=6,
                               rng=np.random.default_rng(3),
                               backend=backend)
            raw_before = backend.raw_dispatches
            us, vs = edge_arrays(40, 32)
            ones = np.ones(32, dtype=np.int64)
            for family in (seq, shm):
                family.apply_edges_bulk(us, vs, ones)
                family.apply_edges_bulk(us[:8], vs[:8], -ones[:8])
            groups = [np.arange(5), np.array([7, 9])]
            shm.query_iteration_groups(groups, 1)
            shm.cuts_empty_groups(groups)
            assert backend.ring_dispatches > 0
            assert backend.raw_dispatches == raw_before, (
                "small-batch work must never fall back to pipe pickling"
            )
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
        finally:
            backend.close()

    def test_oversized_descriptors_fall_back_to_pipe(self):
        """Descriptors that cannot fit the ring take the legacy pickled
        path -- bit-identically."""
        backend = SharedMemoryBackend(num_workers=2, ring_words=64)
        try:
            seq = SketchFamily(64, columns=6,
                               rng=np.random.default_rng(4),
                               backend="sequential")
            shm = SketchFamily(64, columns=6,
                               rng=np.random.default_rng(4),
                               backend=backend)
            us, vs = edge_arrays(64, 200, seed=11)
            ones = np.ones(200, dtype=np.int64)
            seq.apply_edges_bulk(us, vs, ones)
            shm.apply_edges_bulk(us, vs, ones)
            assert backend.raw_dispatches > 0
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            # Group descriptors overflow the ring the same way.
            raw_before = backend.raw_dispatches
            groups = [np.arange(64), np.arange(64)[::-1]]
            z_seq, e_seq = seq.query_iteration_groups(groups, 0)
            z_shm, e_shm = shm.query_iteration_groups(groups, 0)
            assert backend.raw_dispatches > raw_before
            assert np.array_equal(z_seq, z_shm) and e_seq == e_shm
        finally:
            backend.close()

    def test_ring_wraps_and_stays_in_sync(self):
        """Many small dispatches wrap the write offset; the seq/ack
        discipline keeps every record decoding correctly."""
        backend = SharedMemoryBackend(num_workers=1, ring_words=96)
        try:
            seq = SketchFamily(16, columns=4,
                               rng=np.random.default_rng(5),
                               backend="sequential")
            shm = SketchFamily(16, columns=4,
                               rng=np.random.default_rng(5),
                               backend=backend)
            us, vs = edge_arrays(16, 40, seed=12)
            for i in range(40):
                one = np.ones(1, dtype=np.int64)
                seq.apply_edges_bulk(us[i:i + 1], vs[i:i + 1], one)
                shm.apply_edges_bulk(us[i:i + 1], vs[i:i + 1], one)
                group = [np.array([int(us[i]), int(vs[i])])]
                z_seq, e_seq = seq.query_iteration_groups(group, i % 4)
                z_shm, e_shm = shm.query_iteration_groups(group, i % 4)
                assert np.array_equal(z_seq, z_shm) and e_seq == e_shm
            assert backend.ring_dispatches >= 80
            assert backend.raw_dispatches == 0
            assert max(backend._ring_offsets) <= backend.ring_words
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
        finally:
            backend.close()

    def test_ring_disabled_uses_pipe_only(self):
        backend = SharedMemoryBackend(num_workers=1, ring_words=0)
        try:
            family = SketchFamily(8, columns=4,
                                  rng=np.random.default_rng(6),
                                  backend=backend)
            us, vs = edge_arrays(8, 6)
            family.apply_edges_bulk(us, vs, np.ones(6, dtype=np.int64))
            zeros, _ = family.query_iteration_groups([np.arange(8)], 0)
            assert zeros.tolist() == [True]  # whole graph: empty cut
            assert backend.ring_dispatches == 0
            assert backend.raw_dispatches >= 2
        finally:
            backend.close()


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
        return seq, shm

    @staticmethod
    def _oracle(family, members) -> MergedSketch:
        """The scalar reference: parent-side merge of member stacks."""
        return MergedSketch.of([family.new_vertex_sketch(int(v))
                                for v in members])

    def test_group_queries_match_materialised_merges(self, shared_backend):
        seq, shm = self._loaded_pair(shared_backend)
        groups = [np.array([0, 1, 2, 3]), np.array([10]),
                  np.array([20, 25, 30, 35, 39]), np.array([4, 5])]
        for column in range(seq.columns):
            z_seq, e_seq = seq.query_iteration_groups(groups, column)
            z_shm, e_shm = shm.query_iteration_groups(groups, column)
            assert np.array_equal(z_seq, z_shm)
            assert e_seq == e_shm
            # Ground truth: the scalar merged-sketch queries.
            merged = [self._oracle(seq, group) for group in groups]
            assert z_seq.tolist() == [m.cut_is_empty() for m in merged]
            assert e_seq == [None if m.cut_is_empty()
                             else m.sample_cut_edge(column)
                             for m in merged]
        empty_ref = [self._oracle(seq, g).cut_is_empty() for g in groups]
        assert seq.cuts_empty_groups(groups).tolist() == empty_ref
        assert shm.cuts_empty_groups(groups).tolist() == empty_ref

    def test_group_validation(self, shared_backend):
        seq, _ = family_pair(shared_backend)
        with pytest.raises(SketchError, match="empty"):
            seq.query_iteration_groups([np.array([], dtype=np.int64)], 0)
        with pytest.raises(SketchError, match="vertex range"):
            seq.cuts_empty_groups([np.array([0, 40])])
        zeros, edges = seq.query_iteration_groups([], 0)
        assert zeros.shape == (0,) and edges == []

    def test_detached_family_raises_named_error(self):
        family = SketchFamily(8, columns=3, rng=np.random.default_rng(0),
                              backend="sequential")
        family.detach_backend()
        one = np.ones(1, dtype=np.int64)
        for call in (lambda: family.apply_edges_bulk(one - 1, one, one),
                     lambda: family.query_iteration_groups([one], 0),
                     lambda: family.cuts_empty_groups([one])):
            with pytest.raises(SketchError, match="detached"):
                call()
        family.attach_backend("sequential")
        assert family.cuts_empty_groups([one]).tolist() == [True]

    def test_group_split_spreads_over_workers(self, shared_backend):
        _, shm = self._loaded_pair(shared_backend, seed=23)
        groups = [np.arange(10), np.arange(10, 20), np.arange(20, 30),
                  np.arange(30, 40)]
        shm.query_iteration_groups(groups, 0)
        split = shared_backend.last_split
        assert sum(split.values()) == 40
        assert len(split) == WORKERS, (
            "balanced groups must spread across the fleet"
        )


# ---------------------------------------------------------------------------
# Satellite: the three hand-maintained op lists stay closed
# ---------------------------------------------------------------------------

class TestOpTableClosure:
    """``faults.ROUTED_OPS`` (fault grammar), ``_execute_op`` (worker op
    table) and the routed methods of ``ExecutionBackend`` live in three
    files; none may name an op the others lack."""

    #: Wire-shaped descriptor arrays per op, for a 4-row pool.
    ARGS = {
        "apply": [np.array([0, 3]), np.array([2, 2]), np.array([1, -1])],
        "gquery": [np.array([2, 2]), np.array([0, 1, 2, 3]),
                   np.array([0, 1])],
        "gzero": [np.array([1, 3]), np.array([3, 0, 1, 2])],
    }

    def test_every_routed_op_executes(self):
        assert set(self.ARGS) == set(ROUTED_OPS)
        family = SketchFamily(4, columns=3, rng=np.random.default_rng(1),
                              backend="sequential")
        for op in ROUTED_OPS:
            _execute_op(op, family.pool.cells, family.randomness,
                        self.ARGS[op])
        # The apply above really landed: +1 on row 0, -1 on row 3.
        assert family.cuts_empty_groups(
            [np.array([0]), np.array([0, 3])]).tolist() == [False, True]

    def test_unknown_op_is_rejected(self):
        family = SketchFamily(4, columns=3, rng=np.random.default_rng(1),
                              backend="sequential")
        for op in ("query", "sample", "is_zero", "frobnicate"):
            with pytest.raises(ValueError, match="unknown backend op"):
                _execute_op(op, family.pool.cells, family.randomness, [])

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
        assert abstract == set(wire_op) | {"attach_pool", "detach_pool"}
        for cls in (SequentialBackend, SharedMemoryBackend):
            assert abstract <= set(vars(cls)), cls.__name__

    def test_one_executor_behind_every_route(self, shared_backend):
        """Sequential, a healthy fleet and a degraded fleet answer the
        same flat groups byte-equal to ``_execute_op`` on their cells."""
        members = np.array([0, 1, 2, 3, 10, 20, 25, 39, 4, 5])
        glens, cols = np.array([4, 1, 3, 2]), np.array([0, 1, 2, 3])
        us, vs = edge_arrays(40, 60, seed=21)
        degraded = SharedMemoryBackend(
            num_workers=WORKERS, retries=0, backoff=0.0,
            faults="kill:w=1:n=1:repeat=1")
        try:
            answers = []
            for backend in (SequentialBackend(), shared_backend, degraded):
                family = SketchFamily(40, columns=6, backend=backend,
                                      rng=np.random.default_rng(9))
                family.apply_edges_bulk(us, vs, np.ones(60, dtype=np.int64))
                handle, cells = family._pool_handle, family.pool.cells
                got = (*backend.query_groups(handle, members, glens, cols),
                       backend.zero_groups(handle, members, glens))
                ref = (*_execute_op("gquery", cells, family.randomness,
                                    [glens, members, cols]),
                       _execute_op("gzero", cells, family.randomness,
                                   [glens, members]))
                answers.append([a.tobytes() for a in got])
                assert answers[-1] == [r.tobytes() for r in ref]
            assert degraded.degraded and not shared_backend.degraded
            assert answers[0] == answers[1] == answers[2]
            # ... and the answer is not the trivial all-empty one.
            assert not all(np.frombuffer(answers[0][0], dtype=bool))
        finally:
            degraded.close()


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
        a = MPCConnectivity(_seq_config(n))
        b = MPCConnectivity(_shm_config(n))
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

class TestEnvValidation:
    @pytest.mark.parametrize("value", ["abc", "-1", "", "1.5", "0"])
    def test_garbage_worker_count_raises_sketch_error(
        self, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_BACKEND_WORKERS", value)
        with pytest.raises(SketchError, match="REPRO_BACKEND_WORKERS"):
            default_worker_count()
        # The same validation guards the factory path.
        with pytest.raises(SketchError, match="REPRO_BACKEND_WORKERS"):
            get_backend("shared_memory")

    @pytest.mark.parametrize("value", ["abc", "-1", "", "0", "nan"])
    def test_garbage_timeout_raises_sketch_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BACKEND_TIMEOUT", value)
        # Validated before any worker spawns: the raise is immediate.
        with pytest.raises(SketchError, match="REPRO_BACKEND_TIMEOUT"):
            SharedMemoryBackend(num_workers=1)

    def test_valid_env_values_accepted(self, monkeypatch):
        from repro.mpc.config import env_float

        monkeypatch.setenv("REPRO_BACKEND_WORKERS", " 3 ")
        assert default_worker_count() == 3
        # Only exercise the parse, not a full fleet spawn.
        monkeypatch.setenv("REPRO_BACKEND_TIMEOUT", "30.5")
        assert env_float("REPRO_BACKEND_TIMEOUT", 120.0) == 30.5

    def test_explicit_timeout_bypasses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_TIMEOUT", "garbage")
        backend = SharedMemoryBackend(num_workers=1, call_timeout=15.0)
        try:
            assert backend.call_timeout == 15.0
        finally:
            backend.close()

    @pytest.mark.parametrize("value", ["abc", "-1", "", "1.5"])
    def test_garbage_retries_raises_sketch_error(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BACKEND_RETRIES", value)
        with pytest.raises(SketchError, match="REPRO_BACKEND_RETRIES"):
            SharedMemoryBackend(num_workers=1)

    @pytest.mark.parametrize("kwargs", [
        {"call_timeout": 0.0}, {"call_timeout": -1.0},
        {"start_timeout": 0.0}, {"start_timeout": -3.0},
        {"ring_words": -5}, {"retries": -1}, {"backoff": -1.0},
        {"num_workers": 0},
    ])
    def test_bad_constructor_arguments_spawn_nothing(self, monkeypatch,
                                                     kwargs):
        spawned = []
        monkeypatch.setattr(SharedMemoryBackend, "_spawn_worker",
                            lambda self, wid: spawned.append(wid))
        with pytest.raises(ConfigurationError):
            SharedMemoryBackend(**{"num_workers": 1, **kwargs})
        assert not spawned

    def test_garbage_fault_spec_raises_sketch_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_FAULTS", "explode:w=0")
        with pytest.raises(SketchError, match="REPRO_BACKEND_FAULTS"):
            SharedMemoryBackend(num_workers=1)

    def test_supervisor_knobs_read_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_RETRIES", " 5 ")
        backend = SharedMemoryBackend(num_workers=1, call_timeout=15.0)
        try:
            assert backend.retries == 5
            assert backend.backoff == DEFAULT_BACKOFF
        finally:
            backend.close()

    def test_explicit_supervisor_knobs_bypass_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_RETRIES", "garbage")
        backend = SharedMemoryBackend(num_workers=1, call_timeout=15.0,
                                      retries=0, backoff=0.0)
        try:
            assert backend.retries == 0
            assert backend.backoff == 0.0
        finally:
            backend.close()


# ---------------------------------------------------------------------------
# Satellite: shared-memory segments never leak, on any exit path
# ---------------------------------------------------------------------------

def _shm_segments() -> "set[str]":
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        pytest.skip("/dev/shm not available on this platform")


@pytest.mark.skipif(not __import__("os").path.isdir("/dev/shm"),
                    reason="needs a visible /dev/shm")
class TestSegmentLeaks:
    def test_close_unlinks_every_segment(self):
        before = _shm_segments()
        backend = SharedMemoryBackend(num_workers=2, call_timeout=30.0)
        family = SketchFamily(16, columns=4,
                              rng=np.random.default_rng(0),
                              backend=backend)
        us, vs = edge_arrays(16, 10)
        family.apply_edges_bulk(us, vs, np.ones(10, dtype=np.int64))
        assert _shm_segments() - before  # pools + rings + status live
        family.detach_backend()
        backend.close()
        assert _shm_segments() - before == set()

    def test_hard_teardown_after_worker_kill_unlinks(self):
        # close() must unlink pool/ring/status segments even when the
        # fleet died ungracefully (workers never ack the stop).
        before = _shm_segments()
        backend = SharedMemoryBackend(num_workers=2, call_timeout=30.0)
        family = SketchFamily(16, columns=4,
                              rng=np.random.default_rng(0),
                              backend=backend)
        us, vs = edge_arrays(16, 10)
        family.apply_edges_bulk(us, vs, np.ones(10, dtype=np.int64))
        for proc in backend._procs:
            proc.kill()
            proc.join(timeout=5)
        family.detach_backend()
        backend.close()
        assert _shm_segments() - before == set()

    def test_mid_attach_failure_unlinks_fresh_segment(self, monkeypatch):
        # If adopting the buffer blows up halfway through attach_pool,
        # the just-created segment was registered nowhere -- the except
        # path must unlink it rather than leak it until reboot.
        from repro.sketch.sparse_recovery import RecoveryPool

        before = _shm_segments()
        backend = SharedMemoryBackend(num_workers=1, call_timeout=30.0)
        try:
            seq = SketchFamily(16, columns=4,
                               rng=np.random.default_rng(0),
                               backend="sequential")

            def explode(self, buffer):
                raise RuntimeError("induced adopt failure")

            monkeypatch.setattr(RecoveryPool, "adopt_buffer", explode)
            with pytest.raises(RuntimeError, match="induced"):
                backend.attach_pool(seq.pool, seq.randomness)
        finally:
            backend.close()
        assert _shm_segments() - before == set()

    def test_failed_transport_creation_unlinks_earlier_segments(
        self, monkeypatch
    ):
        # The constructor creates ring segments first, then the status
        # slot.  If the status-slot creation fails, the already-created
        # rings must be unlinked on the unwind: with transport creation
        # outside __init__'s cleanup guard a mid-sequence failure strands
        # segments until reboot, and no other test can see it, because
        # no backend object exists to close.
        from multiprocessing import shared_memory as shm_mod

        before = _shm_segments()
        real = shm_mod.SharedMemory
        creates = {"count": 0}

        class FlakySegments:
            def __new__(cls, *args, **kwargs):
                if kwargs.get("create"):
                    creates["count"] += 1
                    if creates["count"] == 3:
                        raise OSError("induced transport failure")
                return real(*args, **kwargs)

        monkeypatch.setattr(shm_mod, "SharedMemory", FlakySegments)
        with pytest.raises(OSError, match="induced"):
            SharedMemoryBackend(num_workers=2, call_timeout=30.0)
        # Two rings were created before the status slot blew up ...
        assert creates["count"] == 3
        # ... and both were unlinked by the constructor's cleanup.
        assert _shm_segments() - before == set()

    def test_degraded_backend_releases_transport_segments(self):
        from repro.mpc.faults import FaultPlan

        before = _shm_segments()
        backend = SharedMemoryBackend(num_workers=2, call_timeout=30.0,
                                      retries=0, backoff=0.0,
                                      faults=FaultPlan.kill_always(1))
        family = SketchFamily(16, columns=4,
                              rng=np.random.default_rng(0),
                              backend=backend)
        us, vs = edge_arrays(16, 10)
        family.apply_edges_bulk(us, vs, np.ones(10, dtype=np.int64))
        assert backend.degraded is not None
        # Transport (rings + status) is gone; only the pool segment --
        # which the parent's adopted cells still live in -- remains.
        leftover = _shm_segments() - before
        assert len(leftover) <= 1
        family.detach_backend()
        backend.close()
        assert _shm_segments() - before == set()


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
        a = MPCConnectivity(_seq_config(n))
        b = MPCConnectivity(_shm_config(n))
        _drive(a, b, n, np.random.default_rng(31))
        assert a.num_components() == b.num_components()
        assert sorted(a.forest.all_edges()) == sorted(b.forest.all_edges())
        assert a.stats == b.stats
        assert a.query_spanning_forest().edges == \
            b.query_spanning_forest().edges

    def test_msf_matrix(self, shared_backend):
        n = 32
        a = ApproxMSF(_seq_config(n), eps=0.5, max_weight=64.0)
        b = ApproxMSF(_shm_config(n), eps=0.5, max_weight=64.0)
        _drive(a, b, n, np.random.default_rng(5), phases=4, size=8,
               weighted=True)
        assert a.weight_estimate() == b.weight_estimate()
        fa, fb = a.query_forest(), b.query_forest()
        assert fa.edges == fb.edges
        assert fa.weights == fb.weights

    def test_bipartiteness_matrix(self, shared_backend):
        n = 24
        a = DynamicBipartiteness(_seq_config(n))
        b = DynamicBipartiteness(_shm_config(n))
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
        a = AGMStaticConnectivity(_seq_config(n))
        b = AGMStaticConnectivity(_shm_config(n))
        _drive(a, b, n, np.random.default_rng(17), phases=3, size=8)
        assert a.query_spanning_forest().edges == \
            b.query_spanning_forest().edges

    def test_driver_level_backend_knob(self, shared_backend):
        # The batch-dynamic drivers accept backend= directly (it only
        # applies when they build their own cluster).
        n = 24
        a = MPCConnectivity(_seq_config(n))
        b = MPCConnectivity(MPCConfig(n=n, seed=7),
                            backend=shared_backend)
        assert b.cluster.backend is shared_backend
        assert AGMStaticConnectivity(
            MPCConfig(n=n, seed=7), backend="sequential"
        ).cluster.backend.name == "sequential"
        _drive(a, b, n, np.random.default_rng(23), phases=3, size=6)
        assert sorted(a.forest.all_edges()) == sorted(b.forest.all_edges())


# ---------------------------------------------------------------------------
# Satellite: per-shard metrics attribution
# ---------------------------------------------------------------------------

class TestShardAttribution:
    def test_parallel_backend_attributes_per_machine(self):
        n = 48
        alg = MPCConnectivity(_shm_config(n))
        rng = np.random.default_rng(2)
        live = set()
        snapshot = alg.apply_batch(make_valid_batch(rng, n, live, 12))
        by_machine = snapshot.words_by_machine
        assert sum(by_machine.values()) >= 12  # one word per update
        assert len(by_machine) > 1, (
            "a spread batch must land on more than one machine"
        )
        partition = alg.cluster.partition
        assert all(0 <= mid < partition.num_machines
                   for mid in by_machine)

    def test_sequential_backend_keeps_legacy_lumping(self):
        n = 48
        alg = MPCConnectivity(_seq_config(n))
        rng = np.random.default_rng(2)
        live = set()
        snapshot = alg.apply_batch(make_valid_batch(rng, n, live, 12))
        assert snapshot.words_by_machine == {}

    def test_backend_records_shard_split(self, shared_backend):
        _, shm = family_pair(shared_backend)
        us, vs = edge_arrays(40, 20)
        shm.apply_edges_bulk(us, vs, np.ones(20, dtype=np.int64))
        split = shared_backend.last_split
        assert sum(split.values()) == 40  # two endpoints per edge
        assert set(split) <= set(range(WORKERS))


# ---------------------------------------------------------------------------
# Failure model: dead workers are respawned, not fatal
# ---------------------------------------------------------------------------

class TestWorkerCrash:
    def test_dead_worker_is_respawned_bit_identically(self):
        # A private fleet: killing a worker must not poison the shared
        # module-level backend other tests use.  The supervisor must
        # detect the loss on the next call, respawn the worker, replay
        # its pool attachments, and complete the call -- bit-identical
        # to a fleet that never crashed.
        backend = SharedMemoryBackend(num_workers=2, call_timeout=30.0)
        try:
            seq = SketchFamily(16, columns=4,
                               rng=np.random.default_rng(0),
                               backend="sequential")
            family = SketchFamily(16, columns=4,
                                  rng=np.random.default_rng(0),
                                  backend=backend)
            us, vs = edge_arrays(16, 10)
            ones = np.ones(10, dtype=np.int64)
            seq.apply_edges_bulk(us, vs, ones)
            family.apply_edges_bulk(us, vs, ones)
            backend._procs[0].kill()
            backend._procs[0].join(timeout=5)
            seq.apply_edges_bulk(us, vs, -ones)
            family.apply_edges_bulk(us, vs, -ones)
            assert np.array_equal(seq.pool.cells, family.pool.cells)
            assert backend.usable and backend.degraded is None
            assert backend.health["respawns"] >= 1
            assert "respawns=" in backend.describe()
            # And the respawned worker keeps serving.
            seq.apply_edges_bulk(us, vs, ones)
            family.apply_edges_bulk(us, vs, ones)
            assert np.array_equal(seq.pool.cells, family.pool.cells)
        finally:
            backend.close()

    def test_worker_exception_surfaces_with_traceback(self):
        backend = SharedMemoryBackend(num_workers=2)
        try:
            family = SketchFamily(16, columns=4,
                                  rng=np.random.default_rng(0),
                                  backend=backend)
            # A malformed descriptor (member row outside the pool --
            # SketchFamily validates this, the raw backend call does
            # not) blows up in the worker; the exception must come back
            # as SketchError and the fleet must stay usable afterwards.
            us0, vs0 = edge_arrays(16, 8, seed=3)
            family.apply_edges_bulk(us0, vs0,
                                    np.ones(8, dtype=np.int64))
            handle = family._pool_handle
            bad_members = np.array([0, 99], dtype=np.int64)  # no row 99
            cols = np.zeros(1, dtype=np.int64)
            with pytest.raises(SketchError, match="worker"):
                backend.query_groups(handle, bad_members,
                                     np.array([2], dtype=np.int64), cols)
            assert backend.usable
            us, vs = edge_arrays(16, 5)
            family.apply_edges_bulk(us, vs, np.ones(5, dtype=np.int64))
        finally:
            backend.close()

    def test_unknown_reply_tag_is_a_transport_failure(self):
        # A reply tagged neither ok / error / desync is a garbled ack:
        # _exchange reports it as a failure, so the supervisor
        # classifies the op from the status slot and respawns instead
        # of filing the payload under results.
        backend = SharedMemoryBackend(num_workers=1, call_timeout=30.0,
                                      faults=FaultPlan())
        try:
            seq, shm = family_pair(backend)
            conn = backend._conns[0]  # stubbed until the respawn
            recv = conn.recv
            conn.recv = lambda: ("okay", recv()[1])
            results, failures, _ = backend._exchange([(0, ("ping",))])
            assert results == {}
            assert failures == {0: "unknown reply tag 'okay'"}
            us, vs = edge_arrays(40, 10)
            ones = np.ones(10, dtype=np.int64)
            seq.apply_edges_bulk(us, vs, ones)
            shm.apply_edges_bulk(us, vs, ones)
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            assert backend.health["respawns"] == 1
            assert backend.usable and backend.degraded is None
        finally:
            backend.close()

    def test_pool_detach_is_deferred_and_flushed(self):
        # Finalizers may run from GC inside an in-flight dispatch, so
        # release_token must only queue the worker-side detach; the
        # next top-level call drains the queue.
        import gc

        backend = SharedMemoryBackend(num_workers=1)
        try:
            family = SketchFamily(8, columns=4,
                                  rng=np.random.default_rng(0),
                                  backend=backend)
            token = family._pool_handle.token
            del family
            gc.collect()
            assert token in backend._pending_detach
            assert token not in backend._handles  # segment released
            survivor = SketchFamily(8, columns=4,
                                    rng=np.random.default_rng(1),
                                    backend=backend)
            assert backend._pending_detach == []
            us, vs = edge_arrays(8, 4)
            survivor.apply_edges_bulk(us, vs,
                                      np.ones(4, dtype=np.int64))
        finally:
            backend.close()

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
