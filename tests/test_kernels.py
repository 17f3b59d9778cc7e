"""Kernel-tier dispatcher: parity matrix, fallback semantics, profiling.

The contract under test (see ``docs/kernels.md``): every kernel's
tiers are bit-identical, the dispatcher resolves ``REPRO_KERNELS``
through the validated-read contract (garbage raises naming the
variable, ``numba`` without numba raises, ``auto`` degrades silently
with a counter), and callers reach kernels only through the
dispatcher's re-bindable module attributes.

The cross-tier matrix parametrizes over ``available_tiers()``: on a
numpy-only host it degenerates to the reference tier (still asserting
the kernels against exact scalar arithmetic); CI's numba lane runs the
full numpy-vs-compiled comparison.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.errors import SketchError
from repro.kernels import profile, registry
from repro.mpc.backend import SequentialBackend, SharedMemoryBackend
from repro.mpc.faults import FaultPlan
from repro.sketch import L0Sampler, SamplerRandomness, SketchFamily
from repro.sketch.hashing import KWiseHash, MERSENNE_P, trailing_zeros
from repro.sketch.l0_sampler import query_cells
from repro.sketch.sparse_recovery import _suffix_cumsum

ROOT = Path(__file__).resolve().parents[1]

P = MERSENNE_P

TIERS = kernels.available_tiers()

CROSS_TIER = pytest.mark.skipif(
    len(TIERS) < 2, reason="compiled tier unavailable (no numba)")


@pytest.fixture(autouse=True)
def _restore_tier():
    """Every test leaves the process on the tier it found."""
    before = kernels.active_tier()
    yield
    kernels.set_tier(before)


def _field(rng, n):
    return rng.integers(0, P, size=n, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Each tier against exact scalar arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tier", TIERS)
class TestScalarGolden:
    def test_mulmod_addmod(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(1)
        a, b = _field(rng, 300), _field(rng, 300)
        mul = kernels.mulmod_many(a, b)
        add = kernels.addmod_many(a, b)
        for x, y, m, s in zip(a, b, mul, add):
            assert int(m) == (int(x) * int(y)) % P
            assert int(s) == (int(x) + int(y)) % P

    def test_poly_field_values(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(2)
        hashes = [KWiseHash(4, 1 << 20, rng) for _ in range(3)]
        coeffs = np.array([[h.coeffs[j] for h in hashes]
                           for j in range(4)], dtype=np.uint64)
        xs = _field(rng, 64)
        values = kernels.poly_field_values(coeffs, xs)
        for i, x in enumerate(xs):
            for j, h in enumerate(hashes):
                assert int(values[i, j]) == h.field_value(int(x))

    def test_trailing_zeros_many(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 1 << 62, size=200, dtype=np.uint64)
        xs[:4] = [0, 1, 2, 1 << 40]
        out = kernels.trailing_zeros_many(xs, 17)
        assert out.tolist() == [trailing_zeros(int(x), 17) for x in xs]

    def test_powmod_many(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(4)
        z = int(rng.integers(1, P))
        exps = rng.integers(0, 1 << 40, size=100, dtype=np.uint64)
        exps[:2] = [0, 1]
        out = kernels.powmod_many(exps, z)
        assert out.dtype == np.int64
        assert out.tolist() == [pow(z, int(e), P) for e in exps]

    def test_combine_limbs(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(5)
        lo = rng.integers(-(1 << 52), 1 << 52, size=200, dtype=np.int64)
        hi = rng.integers(-(1 << 52), 1 << 52, size=200, dtype=np.int64)
        out = kernels.combine_limbs(lo, hi)
        assert out.tolist() == [
            (int(a) + (int(b) << 32)) % P for a, b in zip(lo, hi)
        ]

    def test_merge_groups_with_empty_group(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(6)
        cells = rng.integers(-50, 50, size=(5, 4, 3, 4)).astype(np.int64)
        members = np.array([0, 2, 4, 1, 3], dtype=np.int64)
        glens = np.array([2, 0, 3], dtype=np.int64)
        cols = np.array([2, 1, 0], dtype=np.int64)
        merged = kernels.merge_groups(cells, members, glens, cols)
        expected = np.stack([     # an empty selection sums to zeros
            cells[g][:, :, c].sum(axis=0)
            for g, c in zip(np.split(members, np.cumsum(glens)[:-1]), cols)
        ])
        assert np.array_equal(merged, expected)

    def test_decode_prefix_matches_generic_path(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(7)
        randomness = SamplerRandomness(256, 5, rng)
        sampler = L0Sampler(randomness)
        idxs = rng.integers(0, 256, size=150).astype(np.int64)
        deltas = rng.choice([-1, 1], size=150).astype(np.int64)
        sampler.update_many(idxs, deltas)
        prefix = _suffix_cumsum(sampler.matrix.cells)
        fused = kernels.decode_prefix(prefix, randomness.universe,
                                      randomness.z)
        # The generic path: the scalar level scan of
        # RecoveryMatrix.recover with Python big-int fingerprints.
        scalar = [sampler.matrix.recover(col, randomness.universe,
                                         randomness.fingerprint_ok)
                  for col in range(randomness.columns)]
        assert [None if g < 0 else g for g in fused.tolist()] == scalar
        # Every recovered coordinate is a real support member.
        vec = {}
        for i, d in zip(idxs.tolist(), deltas.tolist()):
            vec[i] = vec.get(i, 0) + d
        live = {i for i, v in vec.items() if v != 0}
        for got in fused.tolist():
            assert got == -1 or got in live

    def test_sampler_roundtrip_and_zero(self, tier):
        kernels.set_tier(tier)
        rng = np.random.default_rng(8)
        randomness = SamplerRandomness(128, 6, rng)
        sampler = L0Sampler(randomness)
        assert sampler.is_zero()
        idxs = rng.integers(0, 128, size=60).astype(np.int64)
        deltas = np.ones(60, dtype=np.int64)
        sampler.update_many(idxs, deltas)
        assert not sampler.is_zero()
        got = sampler.sample()
        assert got in set(idxs.tolist())
        sampler.update_many(idxs, -deltas)
        assert sampler.is_zero()
        assert sampler.sample() is None


# ---------------------------------------------------------------------------
# Cross-tier bit-identity (full matrix; needs both tiers)
# ---------------------------------------------------------------------------

def _op_snapshot(tier):
    """Pool state + every backend-op answer, computed on ``tier``."""
    kernels.set_tier(tier)
    rng = np.random.default_rng(11)
    randomness = SamplerRandomness(512, 6, rng)
    samplers = [L0Sampler(randomness) for _ in range(4)]
    for sampler in samplers:
        idxs = rng.integers(0, 512, size=300).astype(np.int64)
        deltas = rng.choice([-1, 1], size=300).astype(np.int64)
        sampler.update_many(idxs, deltas)
        sampler.update(int(idxs[0]), 1)  # scalar path too
    cells = np.stack([s.matrix.cells for s in samplers])
    cols = np.arange(4, dtype=np.int64) % randomness.columns
    singles = cells[np.arange(4), :, cols, :]
    zeros, found = query_cells(singles, randomness)
    # Groups {0, 2}, {1}, {} and {3, 1, 0} in the flat wire shape.
    members = np.array([0, 2, 1, 3, 1, 0], dtype=np.int64)
    glens = np.array([2, 1, 0, 3], dtype=np.int64)
    merged = kernels.merge_groups(cells, members, glens, cols)
    gzeros, gfound = query_cells(merged, randomness)
    return {
        "cells": cells,
        "zeros": zeros, "found": found,
        "is_zero": kernels.is_zero_cells(singles),
        "merged": merged,
        "gzeros": gzeros, "gfound": gfound,
        "zgroups": kernels.is_zero_cells(merged),
        "scan": samplers[0].sample_columns(
            np.arange(randomness.columns, dtype=np.int64)),
    }


@CROSS_TIER
class TestCrossTierMatrix:
    def test_backend_ops_bit_identical(self):
        a = _op_snapshot(TIERS[0])
        b = _op_snapshot(TIERS[1])
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_family_pool_bit_identical(self):
        pools = {}
        for tier in TIERS:
            kernels.set_tier(tier)
            family = SketchFamily(32, columns=4,
                                  rng=np.random.default_rng(0),
                                  backend="sequential")
            us = np.array([0, 1, 2, 3, 4, 5], dtype=np.int64)
            vs = np.array([6, 7, 8, 9, 10, 11], dtype=np.int64)
            family.apply_edges_bulk(us, vs,
                                    np.ones(6, dtype=np.int64))
            pools[tier] = (family.pool.cells.copy(),
                           family.pool.row_mass.copy())
        ref_cells, ref_mass = pools[TIERS[0]]
        for tier in TIERS[1:]:
            assert np.array_equal(pools[tier][0], ref_cells)
            assert np.array_equal(pools[tier][1], ref_mass)


def test_checkpoint_restore_across_tiers(tmp_path):
    """A checkpoint written on one tier restores bit-identically on
    every other (degenerates to same-tier roundtrip without numba)."""
    from repro import GraphSession, ins

    answers = {}
    kernels.set_tier(TIERS[0])
    with GraphSession(24, tasks=("connectivity",), seed=3) as session:
        session.apply_batch([ins(i, i + 1) for i in range(12)])
        session.checkpoint(str(tmp_path / "ck.pkl"))
        base = session.num_components()
    for tier in TIERS:
        kernels.set_tier(tier)
        with GraphSession.restore(str(tmp_path / "ck.pkl")) as restored:
            answers[tier] = restored.num_components()
    assert all(v == base for v in answers.values()), answers


def test_fault_respawn_rereads_tier_env(monkeypatch):
    """A respawned worker re-resolves REPRO_KERNELS from the current
    environment -- with numba present it lands on a different tier
    than its predecessor and answers stay bit-identical."""
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    backend = SharedMemoryBackend(
        num_workers=2, call_timeout=60.0, retries=2, backoff=0.0,
        faults=FaultPlan.parse("kill:w=1:n=1:op=apply", source="test"))
    try:
        # Workers spawned after this point resolve to the other tier
        # when one exists; the answers must not change either way.
        monkeypatch.setenv("REPRO_KERNELS", "auto")
        shm = SketchFamily(16, columns=4,
                           rng=np.random.default_rng(0),
                           backend=backend)
        seq = SketchFamily(16, columns=4,
                           rng=np.random.default_rng(0),
                           backend="sequential")
        rng = np.random.default_rng(42)
        us = rng.integers(0, 16, size=30).astype(np.int64)
        vs = (us + 1 + rng.integers(0, 14, size=30).astype(np.int64)) % 16
        keep = us != vs
        us, vs = us[keep], vs[keep]
        deltas = np.ones(us.shape[0], dtype=np.int64)
        shm.apply_edges_bulk(us, vs, deltas)
        seq.apply_edges_bulk(us, vs, deltas)
        assert backend.health_counters()["respawns"] >= 1
        assert np.array_equal(shm.pool.cells, seq.pool.cells)
        shm.detach_backend()
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Dispatcher semantics
# ---------------------------------------------------------------------------

class TestDispatcher:
    def test_registry_tables_cover_the_same_names(self):
        assert set(registry.numpy_table()) == set(registry.compiled_table())
        assert set(registry.numpy_table()) == set(kernels.kernel_names())

    def test_set_tier_rejects_unknown(self):
        with pytest.raises(SketchError, match="REPRO_KERNELS"):
            kernels.set_tier("cython")

    @pytest.mark.skipif(kernels.numba_available(),
                        reason="numba importable here")
    def test_set_tier_numba_raises_without_numba(self):
        with pytest.raises(SketchError, match="REPRO_KERNELS=numba"):
            kernels.set_tier("numba")

    def test_callers_follow_rebinds(self, monkeypatch):
        seen = {}
        real = registry.numpy_table()["poly_field_values"]

        def spy(coeffs, xs):
            seen["hit"] = True
            return real(coeffs, xs)

        monkeypatch.setattr(kernels, "poly_field_values", spy)
        h = KWiseHash.from_params(97, [2, 3])         # 3x + 2
        out = h.field_value_many(np.array([3], dtype=np.int64))
        assert seen.get("hit") and int(out[0]) == 11

    def test_active_tier_tracks_set_tier(self):
        kernels.set_tier("numpy")
        assert kernels.active_tier() == "numpy"
        assert "numpy" in kernels.available_tiers()

    def test_describe_reports_tier(self):
        text = SequentialBackend().describe()
        assert f"kernels={kernels.active_tier()}" in text


# ---------------------------------------------------------------------------
# Import-time env contract (subprocesses: the resolution is at import)
# ---------------------------------------------------------------------------

def _child(env_extra, code):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.pop("REPRO_KERNELS", None)
    env.pop("REPRO_KERNELS_PROFILE", None)
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=240)


class TestEnvContract:
    def test_invalid_value_raises_naming_the_variable(self):
        proc = _child({"REPRO_KERNELS": "fortran"},
                      "import repro.kernels")
        assert proc.returncode != 0
        assert "REPRO_KERNELS" in proc.stderr
        assert "SketchError" in proc.stderr

    def test_numpy_forced(self):
        proc = _child(
            {"REPRO_KERNELS": "numpy"},
            "import repro.kernels as k;"
            "print(k.active_tier(), k.counters()['auto_fallbacks'])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["numpy", "0"]

    def test_auto_resolution(self):
        proc = _child(
            {"REPRO_KERNELS": "auto"},
            "import repro.kernels as k;"
            "print(k.active_tier(), k.counters()['auto_fallbacks'])")
        assert proc.returncode == 0, proc.stderr
        tier, fallbacks = proc.stdout.split()
        if kernels.numba_available():
            assert (tier, fallbacks) == ("numba", "0")
        else:
            # The silent-degrade contract: numpy, counter bumped.
            assert (tier, fallbacks) == ("numpy", "1")

    @pytest.mark.skipif(kernels.numba_available(),
                        reason="numba importable here")
    def test_numba_required_but_missing_raises(self):
        proc = _child({"REPRO_KERNELS": "numba"},
                      "import repro.kernels")
        assert proc.returncode != 0
        assert "REPRO_KERNELS=numba" in proc.stderr
        assert "numba" in proc.stderr

    def test_profile_env_populates_counters(self):
        proc = _child(
            {"REPRO_KERNELS_PROFILE": "1"},
            "import numpy as np\n"
            "from repro import kernels\n"
            "from repro.kernels import profile\n"
            "a = np.array([5], dtype=np.uint64)\n"
            "kernels.mulmod_many(a, a)\n"
            "c = profile.counters()\n"
            "print(c['kernel.mulmod_many_calls'],"
            "      c['kernel.mulmod_many_ns'] > 0)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "True"]


class TestProfileHooks:
    def test_disabled_timed_is_shared_noop(self):
        if profile.enabled():
            pytest.skip("profiling enabled in this environment")
        assert profile.timed("x") is profile.timed("y")

    def test_record_and_reset(self):
        profile.reset()
        profile.record("unit", 5)
        profile.record("unit", 7)
        assert profile.counters() == {"unit_ns": 12, "unit_calls": 2}
        profile.reset()
        assert profile.counters() == {}

    def test_wrap_accumulates(self):
        profile.reset()
        wrapped = profile.wrap("demo", lambda v: v + 1)
        assert wrapped(1) == 2 and wrapped(2) == 3
        counters = profile.counters()
        assert counters["kernel.demo_calls"] == 2
        assert counters["kernel.demo_ns"] >= 0
        profile.reset()
