"""The kernels package: scalar goldens, call-site coverage, profiling.

The contract under test (see ``docs/kernels.md``): every kernel agrees
with exact scalar arithmetic, callers reach kernels only through the
``kernels.<name>`` attributes the package binds (so the contract
checks, the profiler and ``bench/``'s per-kernel trace see every
call), and the ``REPRO_KERNELS_*`` knobs are validated at import.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import GraphSession, dele, ins, kernels
from repro.kernels import profile, registry
from repro.sketch import KeyedSamplers, SamplerRandomness
from repro.sketch.hashing import KWiseHash, MERSENNE_P, trailing_zeros
from repro.sketch.sparse_recovery import _suffix_cumsum
from tests.conftest import ReferenceSampler

ROOT = Path(__file__).resolve().parents[1]

P = MERSENNE_P


def _field(rng, n):
    return rng.integers(0, P, size=n, dtype=np.uint64)


def _limb_form(block):
    """The ``(4, ...)`` read form ``(W, S, lo, hi)`` of a ``(3, ...)``
    cell block: ``Fd`` split into its 32-bit low and high limbs."""
    f = block[2]
    return np.stack((block[0], block[1], f & 0xFFFFFFFF, f >> 32))


# ---------------------------------------------------------------------------
# The kernels against exact scalar arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [kernels], ids=["numpy"])
class TestScalarGolden:
    def test_mulmod_addmod(self, k):
        rng = np.random.default_rng(1)
        a, b = _field(rng, 300), _field(rng, 300)
        mul = k.mulmod_many(a, b)
        add = k.addmod_many(a, b)
        for x, y, m, s in zip(a, b, mul, add):
            assert int(m) == (int(x) * int(y)) % P
            assert int(s) == (int(x) + int(y)) % P

    def test_poly_field_values(self, k):
        rng = np.random.default_rng(2)
        hashes = [KWiseHash(4, 1 << 20, rng) for _ in range(3)]
        coeffs = np.array([[h.coeffs[j] for h in hashes]
                           for j in range(4)], dtype=np.uint64)
        xs = _field(rng, 64)
        values = k.poly_field_values(coeffs, xs)
        for i, x in enumerate(xs):
            for j, h in enumerate(hashes):
                assert int(values[i, j]) == h.field_value(int(x))

    def test_trailing_zeros_many(self, k):
        rng = np.random.default_rng(3)
        xs = rng.integers(0, 1 << 62, size=200, dtype=np.uint64)
        xs[:4] = [0, 1, 2, 1 << 40]
        out = k.trailing_zeros_many(xs, 17)
        assert out.tolist() == [trailing_zeros(int(x), 17) for x in xs]

    def test_powmod_many(self, k):
        rng = np.random.default_rng(4)
        z = int(rng.integers(1, P))
        exps = rng.integers(0, 1 << 40, size=100, dtype=np.uint64)
        exps[:2] = [0, 1]
        out = k.powmod_many(exps, z)
        assert out.dtype == np.int64
        assert out.tolist() == [pow(z, int(e), P) for e in exps]

    def test_combine_limbs(self, k):
        rng = np.random.default_rng(5)
        lo = rng.integers(-(1 << 52), 1 << 52, size=200, dtype=np.int64)
        hi = rng.integers(-(1 << 52), 1 << 52, size=200, dtype=np.int64)
        out = k.combine_limbs(lo, hi)
        assert out.tolist() == [
            (int(a) + (int(b) << 32)) % P for a, b in zip(lo, hi)
        ]

    def test_merge_groups_with_empty_group(self, k):
        rng = np.random.default_rng(6)
        cells = rng.integers(-50, 50, size=(5, 3, 3, 4)).astype(np.int64)
        cells[:, 2] = rng.integers(0, P, size=(5, 3, 4))
        members = np.array([0, 2, 4, 1, 3], dtype=np.int64)
        glens = np.array([2, 0, 3], dtype=np.int64)
        cols = np.array([2, 1, 0], dtype=np.int64)
        merged = k.merge_groups(cells, members, glens, cols)
        expected = np.stack([     # an empty selection sums to zeros
            _limb_form(cells[g][:, :, c].transpose(1, 0, 2)).sum(axis=1)
            for g, c in zip(np.split(members, np.cumsum(glens)[:-1]), cols)
        ])
        assert np.array_equal(merged, expected)

    def test_decode_prefix_matches_generic_path(self, k):
        rng = np.random.default_rng(7)
        randomness = SamplerRandomness(256, 5, rng)
        sampler = ReferenceSampler(randomness)
        idxs = rng.integers(0, 256, size=150).astype(np.int64)
        deltas = rng.choice([-1, 1], size=150).astype(np.int64)
        for idx, delta in zip(idxs.tolist(), deltas.tolist()):
            sampler.update(idx, delta)
        prefix = _suffix_cumsum(_limb_form(sampler.cells))
        fused = k.decode_prefix(prefix, randomness.universe, randomness.z)
        # The generic path: the scalar level scan of the reference
        # sampler with Python big-int fingerprints.
        scalar = [sampler.sample_column(col)
                  for col in range(randomness.columns)]
        assert [None if g < 0 else g for g in fused.tolist()] == scalar
        # Every recovered coordinate is a real support member.
        vec = {}
        for i, d in zip(idxs.tolist(), deltas.tolist()):
            vec[i] = vec.get(i, 0) + d
        live = {i for i, v in vec.items() if v != 0}
        for got in fused.tolist():
            assert got == -1 or got in live

    def test_sampler_roundtrip_and_zero(self, k):
        rng = np.random.default_rng(8)
        keyed = KeyedSamplers(SamplerRandomness(128, 6, rng))
        idxs = rng.integers(0, 128, size=60).astype(np.int64)
        deltas = np.ones(60, dtype=np.int64)
        keyed.update([0] * 60, idxs, deltas)
        assert keyed.pool.cells.any()
        assert int(keyed.sample([0])[0]) in set(idxs.tolist())
        keyed.update([0] * 60, idxs, -deltas)
        assert not keyed.pool.cells.any()
        assert keyed.sample([0]).tolist() == [-1]


# ---------------------------------------------------------------------------
# Call-site coverage
# ---------------------------------------------------------------------------

#: ``(kernel, calling module)`` for every kernel call the stream in
#: :meth:`TestDispatcher.test_callers_reach_kernels_through_the_package`
#: makes.  A module that aliases a kernel out of ``numpy_tier`` instead
#: of calling ``kernels.<name>`` drops its pair from this set -- and its
#: calls from the contract checks, the profiler and ``bench/``'s trace.
REACHED = {
    ("decode_prefix", "repro.sketch.l0_sampler"),
    ("is_zero_cells", "repro.mpc.backend"),
    ("is_zero_cells", "repro.sketch.l0_sampler"),
    ("merge_groups", "repro.mpc.backend"),
    ("merge_groups", "repro.sketch.l0_sampler"),
    ("pool_scatter", "repro.mpc.backend"),
    ("poly_field_values", "repro.sketch.hashing"),
    ("poly_field_values", "repro.sketch.l0_sampler"),
    ("pool_scatter", "repro.sketch.sparse_recovery"),
    ("powmod_many", "repro.sketch.l0_sampler"),
    ("trailing_zeros_many", "repro.sketch.l0_sampler"),
}


class TestDispatcher:
    def test_registry_tables_cover_the_same_names(self):
        names = kernels.kernel_names()
        assert set(registry.numpy_table()) == set(names)
        assert all(callable(getattr(kernels, name)) for name in names)

    def test_callers_reach_kernels_through_the_package(self, monkeypatch):
        calls = Counter()

        def spy(name, real):
            def counted(*args, **kwargs):
                caller = sys._getframe(1).f_globals["__name__"]
                calls[name, caller] += 1
                return real(*args, **kwargs)
            return counted

        for name in kernels.kernel_names():
            monkeypatch.setattr(kernels, name,
                                spy(name, getattr(kernels, name)))
        cuts = [(2, 3), (10, 11), (15, 16)]
        with GraphSession(32, tasks=("connectivity", "bipartiteness",
                                     "matching"),
                          seed=7, backend="sequential") as session:
            session.apply_batch([ins(i, i + 1) for i in range(20)]
                                + [ins(0, 10), ins(3, 17)])
            assert set(cuts) <= set(session.spanning_forest().edges)
            session.apply_batch([dele(u, v) for u, v in cuts])
            assert session.num_components() == 13
            assert session.is_bipartite() is True
            session.matching()
        h = KWiseHash.from_params(97, [2, 3])         # 3x + 2
        assert int(h.field_value_many(np.array([3]))[0]) == 11
        assert set(calls) == REACHED


# ---------------------------------------------------------------------------
# Import-time env contract (subprocesses: the knobs are read at import)
# ---------------------------------------------------------------------------

def _child(env_extra, code):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env.pop("REPRO_KERNELS_PROFILE", None)
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=240)


class TestEnvContract:
    def test_invalid_value_raises_naming_the_variable(self):
        proc = _child({"REPRO_KERNELS_PROFILE": "fortran"},
                      "import repro.kernels")
        assert proc.returncode != 0
        assert "REPRO_KERNELS_PROFILE" in proc.stderr
        assert "SketchError" in proc.stderr

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

    def test_concurrent_records_lose_no_update(self):
        # The thread backend's shares record from several threads at
        # once; a tiny switch interval makes an unguarded
        # read-modify-write lose updates.
        import sys
        import threading

        profile.reset()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [
                profile.record("race", 1) for _ in range(50_000)])
                for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert profile.counters() == {"race_ns": 100_000,
                                      "race_calls": 100_000}
        profile.reset()

    def test_wrap_accumulates(self):
        profile.reset()
        wrapped = profile.wrap("demo", lambda v: v + 1)
        assert wrapped(1) == 2 and wrapped(2) == 3
        counters = profile.counters()
        assert counters["kernel.demo_calls"] == 2
        assert counters["kernel.demo_ns"] >= 0
        profile.reset()
