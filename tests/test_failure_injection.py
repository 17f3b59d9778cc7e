"""Failure injection and extreme-shape stress tests.

What happens when the w.h.p. guarantees are starved (one sketch
column), when the graph is as small or as pathological as the model
allows, and when capacity budgets are deliberately violated.
"""

import numpy as np
import pytest

from repro.baselines import DynamicConnectivityOracle
from repro.core import MPCConnectivity
from repro.errors import CapacityExceededError, SketchFailureError
from repro.mpc import Cluster, MPCConfig
from repro.mpc.machine import Message
from repro.streams import star_insertions
from repro.types import dele, ins


class TestStarvedSketches:
    def test_single_column_eventually_fails_or_splits_safely(self):
        """With one column, deletion storms must either recover or fall
        back to a conservative split -- never corrupt the forest."""
        n = 48
        total_failures = 0
        for seed in range(6):
            alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=seed),
                                  columns=1)
            oracle = DynamicConnectivityOracle(n)
            rng = np.random.default_rng(seed)
            # Dense cluster, then delete most of a spanning structure.
            edges = [(u, v) for u in range(16) for v in range(u + 1, 16)]
            for i in range(0, len(edges), 10):
                batch = [ins(*e) for e in edges[i:i + 10]]
                alg.apply_batch(batch)
                oracle.apply_batch(batch)
            picks = rng.permutation(len(edges))[:60]
            victims = [edges[i] for i in picks]
            for i in range(0, len(victims), 8):
                batch = [dele(*e) for e in victims[i:i + 8]]
                alg.apply_batch(batch)
                oracle.apply_batch(batch)
                alg.forest.check_invariants()
                # Conservative splits may OVER-split, never under-split:
                assert alg.num_components() >= oracle.num_components()
            total_failures += alg.stats["sketch_failures"]
        assert total_failures > 0, \
            "one column must be starved somewhere in 6 storm runs"

    def test_strict_mode_raises_on_starved_sketch(self):
        n = 32
        raised = False
        for seed in range(8):
            alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=seed),
                                  columns=1, strict=True)
            edges = [(u, v) for u in range(12) for v in range(u + 1, 12)]
            try:
                for i in range(0, len(edges), 12):
                    alg.apply_batch([ins(*e) for e in edges[i:i + 12]])
                for i in range(0, len(edges), 8):
                    alg.apply_batch([dele(*e) for e in edges[i:i + 8]])
            except SketchFailureError:
                raised = True
                break
        assert raised, "strict mode must surface a starved sketch"


class TestExtremeShapes:
    def test_minimal_graph(self):
        alg = MPCConnectivity(MPCConfig(n=2, phi=0.5, seed=0))
        alg.apply_batch([ins(0, 1)])
        assert alg.connected(0, 1)
        alg.apply_batch([dele(0, 1)])
        assert not alg.connected(0, 1)
        assert alg.num_components() == 2

    def test_full_star_lifecycle(self):
        n = 32
        alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=1))
        star = star_insertions(n)
        half = len(star) // 2
        alg.apply_batch(star[:half])
        alg.apply_batch(star[half:])
        assert alg.num_components() == 1
        # Shatter the entire star, then rebuild it reversed.
        spokes = [dele(0, v) for v in range(1, n)]
        alg.apply_batch(spokes[:half])
        alg.apply_batch(spokes[half:])
        assert alg.num_components() == n
        rebuild = [ins(v, 0) for v in range(1, n)]
        alg.apply_batch(rebuild[:half])
        alg.apply_batch(rebuild[half:])
        assert alg.num_components() == 1
        alg.forest.check_invariants()

    def test_repeated_insert_delete_same_edge(self):
        alg = MPCConnectivity(MPCConfig(n=4, phi=0.5, seed=2))
        for _ in range(25):
            alg.apply_batch([ins(0, 1)])
            alg.apply_batch([dele(0, 1)])
        assert not alg.connected(0, 1)
        assert alg.stats["sketch_failures"] == 0

    def test_batch_exactly_at_limit(self):
        config = MPCConfig(n=64, phi=0.5, seed=3)
        alg = MPCConnectivity(config)
        limit = alg.batch_limit
        batch = [ins(i, i + 1) for i in range(min(limit, 63))]
        alg.apply_batch(batch)  # must not raise
        assert alg.num_edges == len(batch)

    def test_two_cliques_bridge_cycling(self):
        """Delete and re-find the only bridge between two cliques; the
        replacement must always be the bridge itself (no other edge
        crosses)."""
        n = 16
        alg = MPCConnectivity(MPCConfig(n=n, phi=0.5, seed=4))
        left = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        right = [(u, v) for u in range(8, 16) for v in range(u + 1, 16)]
        for i in range(0, len(left), 12):
            alg.apply_batch([ins(*e) for e in left[i:i + 12]])
        for i in range(0, len(right), 12):
            alg.apply_batch([ins(*e) for e in right[i:i + 12]])
        assert alg.num_components() == 2
        alg.apply_batch([ins(0, 8)])
        assert alg.num_components() == 1
        alg.apply_batch([dele(0, 8)])
        assert not alg.connected(0, 8)
        assert alg.num_components() == 2
        alg.apply_batch([ins(7, 15)])
        assert alg.connected(0, 15)


class TestCapacityInjection:
    def test_strict_cluster_rejects_oversized_message(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=True)
        cluster = Cluster(config)
        with pytest.raises(CapacityExceededError) as excinfo:
            cluster.exchange([Message(src=0, dst=1, payload=None,
                                      words=10 ** 6)])
        assert excinfo.value.machine_id in (0, 1)
        assert excinfo.value.used == 10 ** 6

    def test_lenient_cluster_records_everything(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        for _ in range(3):
            cluster.exchange([Message(src=0, dst=1, payload=None,
                                      words=10 ** 6)])
        # Each oversized exchange violates both the send and recv budget.
        assert len(cluster.metrics.violations) == 6

    def test_violations_surface_in_phase_metrics(self):
        config = MPCConfig(n=16, phi=0.5, seed=0, strict_capacity=False)
        cluster = Cluster(config)
        cluster.begin_phase("inject")
        cluster.exchange([Message(src=0, dst=1, payload=None,
                                  words=10 ** 6)])
        snapshot = cluster.end_phase()
        assert snapshot.capacity_violations == 2


# ---------------------------------------------------------------------------
# Worker-fleet fault injection: the self-healing supervisor contract
# ---------------------------------------------------------------------------
#
# A `kill -9` (or hang, dropped ack, truncated ring record) of any
# worker mid-phase must yield either a bit-identically completed phase
# after a respawn or a clean degrade to the in-process cores with
# identical answers -- never a hang, never corruption, never a latched-
# broken backend.

from repro.errors import SketchError  # noqa: E402
from repro.mpc.backend import SharedMemoryBackend  # noqa: E402
from repro.mpc.faults import ROUTED_OPS, Fault, FaultPlan  # noqa: E402
from tests.conftest import edge_arrays, family_pair  # noqa: E402

FLEET = 2


def _drive_op(family, op, n=40):
    """Run one family-level operation that routes backend op ``op``;
    returns a comparable answer structure."""
    if op == "apply":
        us, vs = edge_arrays(n, 20, seed=5)
        family.apply_edges_bulk(us, vs, np.ones(20, dtype=np.int64))
        return None
    groups = [np.arange(i, min(i + 5, n), dtype=np.int64)
              for i in range(0, n, 5)]
    if op == "gquery":
        zeros, found = family.query_iteration_groups(groups, 0)
        return zeros.tolist(), found
    if op == "gzero":
        return family.cuts_empty_groups(groups).tolist()
    raise AssertionError(f"unknown op {op}")


class TestFaultPlanParsing:
    def test_parse_single_kill(self):
        plan = FaultPlan.parse("kill:w=1:n=3:op=apply")
        fault = plan._armed[0]
        assert (fault.kind, fault.worker, fault.nth, fault.op) == \
            ("kill", 1, 3, "apply")
        assert not fault.repeat

    def test_parse_chaos(self):
        plan = FaultPlan.parse("chaos:kill:every=400:seed=7")
        assert plan.chaos_every == 400
        assert plan.chaos_seed == 7
        assert plan.chaos_kind == "kill"

    def test_parse_empty_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ;  ") is None

    @pytest.mark.parametrize("spec", [
        "explode:w=0",                 # unknown kind
        "kill",                        # missing worker
        "kill:w=abc",                  # non-integer worker
        "kill:w=-1",                   # negative worker
        "kill:w=0:n=0",                # nth is 1-based
        "kill:w=0:op=frobnicate",      # unknown routed op
        "kill:w=0:op=query",           # per-row wire ops no longer exist
        "drop:w=0:op=sample",
        "hang:w=0:op=is_zero",
        "kill:w=0:op=gscan",           # nor does the one-group scan
        "hang:w=0:s=-2",               # negative seconds
        "kill:w=0:bogus=1",            # unknown setting
        "chaos:kill:seed=1",           # chaos without every
        "chaos:warp:every=10",         # unknown chaos kind
    ])
    def test_garbage_specs_raise_naming_the_source(self, spec):
        with pytest.raises(SketchError, match="REPRO_BACKEND_FAULTS"):
            FaultPlan.parse(spec)

    def test_draw_is_deterministic(self):
        a = FaultPlan(chaos_every=10, chaos_seed=3)
        b = FaultPlan(chaos_every=10, chaos_seed=3)
        seq_a = [a.draw(i % 2, "apply") is not None for i in range(100)]
        seq_b = [b.draw(i % 2, "apply") is not None for i in range(100)]
        assert seq_a == seq_b
        assert any(seq_a)

    def test_one_shot_fault_fires_once(self):
        plan = FaultPlan.kill_before(0, nth=2)
        assert plan.draw(0, "gquery") is None
        assert plan.draw(0, "gquery") is not None
        assert plan.draw(0, "gquery") is None
        assert plan.exhausted


class TestFaultSpecEdgeCases:
    """Spec-grammar corners: the error must name the offending token,
    not just the variable, so a bad CI env line is a one-glance fix."""

    @pytest.mark.parametrize("spec", ["", "   ", ";", " ; ;; "])
    def test_empty_and_separator_only_specs_mean_no_plan(self, spec):
        assert FaultPlan.parse(spec) is None

    def test_env_unset_and_env_empty_mean_no_plan(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_BACKEND_FAULTS", "  ")
        assert FaultPlan.from_env() is None

    def test_unknown_kind_names_the_token(self):
        with pytest.raises(SketchError, match=r"explode") as exc:
            FaultPlan.parse("explode:w=0")
        assert "REPRO_BACKEND_FAULTS" in str(exc.value)

    def test_negative_nth_names_the_token(self):
        with pytest.raises(SketchError, match=r"n='-1'"):
            FaultPlan.parse("kill:w=0:n=-1")

    def test_negative_nth_from_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_FAULTS", "kill:w=0:n=-3")
        with pytest.raises(SketchError,
                           match=r"REPRO_BACKEND_FAULTS.*n='-3'"):
            FaultPlan.from_env()

    def test_overlapping_per_worker_targets_fire_in_listed_order(self):
        # Two faults aimed at the same worker's same op window are
        # legal; the first-listed entry wins each draw and the second
        # stays armed for the next eligible send.
        plan = FaultPlan.parse("hang:w=0:n=1:s=1;kill:w=0:n=1")
        first = plan.draw(0, "apply")
        assert first is not None and first.kind == "hang"
        second = plan.draw(0, "apply")
        assert second is not None and second.kind == "kill"
        assert plan.exhausted

    def test_overlapping_targets_respect_op_filters(self):
        # Same worker, disjoint op filters: each send consults both but
        # only the matching fault fires, so filters never shadow each
        # other.
        plan = FaultPlan.parse("drop:w=1:op=gquery;kill:w=1:op=apply")
        fired = plan.draw(1, "apply")
        assert fired is not None and fired.kind == "kill"
        fired = plan.draw(1, "gquery")
        assert fired is not None and fired.kind == "drop"

    def test_chaos_seed_reuse_replays_identically(self):
        spec = "chaos:kill:every=7:seed=42"
        a, b = FaultPlan.parse(spec), FaultPlan.parse(spec)
        schedule_a = [(w, a.draw(w, "apply") is not None)
                      for i in range(120) for w in (i % 3,)]
        schedule_b = [(w, b.draw(w, "apply") is not None)
                      for i in range(120) for w in (i % 3,)]
        assert schedule_a == schedule_b
        assert any(hit for _, hit in schedule_a)

    def test_chaos_different_seeds_diverge(self):
        a = FaultPlan.parse("chaos:kill:every=5:seed=0")
        b = FaultPlan.parse("chaos:kill:every=5:seed=1")
        sched = lambda p: [p.draw(0, "apply") is not None  # noqa: E731
                           for _ in range(200)]
        assert sched(a) != sched(b)


class TestWorkerKillMatrix:
    """Kill a worker immediately before each routed op; the phase must
    complete bit-identically to the sequential backend after respawn."""

    @pytest.mark.parametrize("op", ROUTED_OPS)
    def test_kill_mid_phase_recovers_bit_identically(self, op):
        # Every op fans out over both workers, so worker 1 always has
        # a share to lose.
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=30.0,
            faults=FaultPlan.kill_before(1, nth=1, op=op),
        )
        try:
            seq, shm = family_pair(backend)
            if op != "apply":
                us, vs = edge_arrays(40, 60)
                ones = np.ones(60, dtype=np.int64)
                seq.apply_edges_bulk(us, vs, ones)
                shm.apply_edges_bulk(us, vs, ones)
            expected = _drive_op(seq, op)
            actual = _drive_op(shm, op)
            assert expected == actual
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            assert backend.usable and backend.degraded is None
            assert backend.health["respawns"] >= 1
            assert backend.health["faults_injected"] == 1
            # The fleet keeps serving after recovery.
            us2, vs2 = edge_arrays(40, 10, seed=11)
            ones2 = np.ones(10, dtype=np.int64)
            seq.apply_edges_bulk(us2, vs2, ones2)
            shm.apply_edges_bulk(us2, vs2, ones2)
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
        finally:
            backend.close()


class TestOtherFaultKinds:
    def test_hung_worker_times_out_and_recovers(self):
        # The worker sleeps past the call deadline without acking: the
        # dispatch must time out (never hang), kill, respawn, retry.
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=3.0,
            faults=FaultPlan(faults=[
                Fault("hang", 1, nth=1, op="apply", seconds=60.0)
            ]),
        )
        try:
            seq, shm = family_pair(backend)
            expected = _drive_op(seq, "apply")
            actual = _drive_op(shm, "apply")
            assert expected == actual is None
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            assert backend.usable and backend.degraded is None
            assert backend.health["respawns"] >= 1
        finally:
            backend.close()

    def test_short_delay_completes_without_recovery(self):
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=30.0,
            faults=FaultPlan(faults=[
                Fault("delay", 1, nth=1, op="apply", seconds=0.3)
            ]),
        )
        try:
            seq, shm = family_pair(backend)
            # Four consecutive ring records: a worker whose expected
            # seq froze would desync on every one after the first and
            # still answer correctly through silent respawn-and-retry,
            # so the counters are the assertion.
            for op in ("apply", "gquery", "gzero", "apply"):
                assert _drive_op(seq, op) == _drive_op(shm, op)
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            health = backend.health_counters()
            assert (health["respawns"] == health["retries"]
                    == health["degrades"] == 0)
            assert backend.raw_dispatches == 0
        finally:
            backend.close()

    def test_dropped_scatter_ack_is_never_reapplied(self):
        # The worker executes the scatter but swallows the ack.  The
        # status-slot protocol must classify the op as completed --
        # re-applying it would double the deltas and break parity.
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=3.0,
            faults=FaultPlan(faults=[
                Fault("drop", 1, nth=1, op="apply")
            ]),
        )
        try:
            seq, shm = family_pair(backend)
            _drive_op(seq, "apply")
            _drive_op(shm, "apply")
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            assert backend.usable and backend.degraded is None
            # No retry happened: the lost ack was proved complete.
            assert backend.health["retries"] == 0
        finally:
            backend.close()

    def test_truncated_ring_record_desyncs_and_recovers(self):
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=30.0,
            faults="truncate:w=0:n=1",
        )
        try:
            seq, shm = family_pair(backend)
            _drive_op(seq, "apply")
            _drive_op(shm, "apply")
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            assert backend.usable and backend.degraded is None
            assert backend.health["respawns"] >= 1
        finally:
            backend.close()


class TestGracefulDegradation:
    def test_exhausted_retries_degrade_with_identical_answers(self):
        # Worker 1 dies on *every* send: after `retries` respawn/retry
        # cycles the backend must degrade to the in-process cores --
        # same shared cells, bit-identical answers, still usable.
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=30.0, retries=1,
            backoff=0.01, faults=FaultPlan.kill_always(1),
        )
        try:
            seq, shm = family_pair(backend)
            us, vs = edge_arrays(40, 60)
            ones = np.ones(60, dtype=np.int64)
            seq.apply_edges_bulk(us, vs, ones)
            shm.apply_edges_bulk(us, vs, ones)
            assert backend.degraded is not None
            assert backend.usable, "degraded is not broken"
            assert backend.health["degrades"] == 1
            assert "degraded" in backend.describe()
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
            # Every op keeps answering, identically, after degradation.
            for op in ROUTED_OPS:
                if op != "apply":
                    assert _drive_op(seq, op) == _drive_op(shm, op)
            seq.apply_edges_bulk(us[:9], vs[:9], -ones[:9])
            shm.apply_edges_bulk(us[:9], vs[:9], -ones[:9])
            assert np.array_equal(seq.pool.cells, shm.pool.cells)
        finally:
            backend.close()

    def test_degraded_backend_attaches_new_pools(self):
        backend = SharedMemoryBackend(
            num_workers=FLEET, call_timeout=30.0, retries=0,
            backoff=0.0, faults=FaultPlan.kill_always(0),
        )
        try:
            seq, shm = family_pair(backend)
            _drive_op(seq, "apply")
            _drive_op(shm, "apply")
            assert backend.degraded is not None
            # A family attached *after* degradation works too.
            seq2, shm2 = family_pair(backend, seed=13)
            _drive_op(seq2, "apply")
            _drive_op(shm2, "apply")
            assert np.array_equal(seq2.pool.cells, shm2.pool.cells)
            assert _drive_op(seq2, "gquery") == _drive_op(shm2, "gquery")
        finally:
            backend.close()
