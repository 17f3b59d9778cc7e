"""EXP-15: per-kernel micro-benchmarks across ``REPRO_KERNELS`` tiers.

EXP-12/14 measure composed hot paths (ingest, backend dispatch);
EXP-15 isolates the ten dispatched kernels themselves
(:mod:`repro.kernels`) at representative shapes -- the GF(2^61-1) limb
arithmetic, level hashing, pool scatter, batch prefix decoder, and the
group-merge / zero-test cell cores -- and times each one on every tier
:func:`repro.kernels.available_tiers` offers in this process.

Two things are recorded per kernel into ``BENCH_ingest.json`` under
``exp15_kernels``:

* best-of-reps wall time per tier (``numpy`` always; ``numba`` when
  importable, with a warm-up call so JIT compilation never lands in
  the measurement), and
* the compiled-over-numpy speedup when both tiers ran.

Before any timing, the tiers' outputs are asserted **bit-identical**
on the exact benchmark inputs -- the same contract
``tests/test_kernels.py`` checks on small shapes, re-checked here at
benchmark scale.  There is no perf gate: the composed floors live in
EXP-14; this table exists so a tier regression can be localized to the
kernel that caused it.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import update_bench_ingest

from repro import kernels
from repro.analysis import print_table
from repro.mpc.backend import available_cpus

MERSENNE_P = (1 << 61) - 1

#: Representative shapes: n=1024 vertices, 20 columns, 9 levels (the
#: EXP-14 workload's geometry), 4096-entry update batches.
ROWS = 1024
COLUMNS = 20
LEVELS = 9
BATCH = 4096
ELEMS = 65536
REPS = 5
Z = 1_234_567_891_234_567


def _build_cases():
    """``name -> args_factory`` for every dispatched kernel.

    Each factory returns a *fresh* argument tuple (``pool_scatter``
    mutates its first argument in place, so parity runs and every
    timing rep must not share buffers).  Factories are deterministic:
    both tiers see bit-identical inputs.
    """
    rng = np.random.default_rng(20260808)
    residues = rng.integers(0, MERSENNE_P, 2 * ELEMS,
                            dtype=np.uint64)
    a, b = residues[:ELEMS], residues[ELEMS:]
    coeffs = rng.integers(0, MERSENNE_P, (4, COLUMNS), dtype=np.uint64)
    xs = rng.integers(0, MERSENNE_P, BATCH, dtype=np.uint64)
    tz_input = rng.integers(0, 1 << 62, ELEMS, dtype=np.uint64)
    exps = rng.integers(0, ROWS, BATCH, dtype=np.uint64)
    lo = rng.integers(-(1 << 40), 1 << 40, ELEMS, dtype=np.int64)
    hi = rng.integers(-(1 << 40), 1 << 40, ELEMS, dtype=np.int64)

    slots = rng.integers(0, ROWS, BATCH, dtype=np.int64)
    col_levels = rng.integers(0, LEVELS, (BATCH, COLUMNS),
                              dtype=np.int64)
    idxs = rng.integers(0, ROWS, BATCH, dtype=np.int64)
    deltas = rng.choice(np.array([-1, 1], dtype=np.int64), BATCH)
    zpows = rng.integers(0, MERSENNE_P, BATCH, dtype=np.int64)

    prefix = rng.integers(-(1 << 30), 1 << 30, (4, ROWS, LEVELS),
                          dtype=np.int64)
    cells = rng.integers(-4, 5, (ROWS, 4, COLUMNS, LEVELS),
                         dtype=np.int64)
    cells[:: 3] = 0  # give the zero test's early column exit work
    members = rng.permutation(ROWS).astype(np.int64)
    glens = np.bincount(rng.integers(0, 64, ROWS), minlength=64)
    glens = glens.astype(np.int64)

    return {
        "mulmod_many": lambda: (a, b),
        "addmod_many": lambda: (a, b),
        "poly_field_values": lambda: (coeffs, xs),
        "trailing_zeros_many": lambda: (tz_input, LEVELS),
        "powmod_many": lambda: (exps, Z),
        "combine_limbs": lambda: (lo, hi),
        "pool_scatter": lambda: (
            np.zeros(ROWS * 4 * COLUMNS * LEVELS, dtype=np.int64),
            COLUMNS, LEVELS, slots, col_levels, idxs, deltas, zpows,
        ),
        "decode_prefix": lambda: (prefix.copy(), ROWS, Z),
        "merge_groups": lambda: (cells, members, glens),
        "is_zero_cells": lambda: (cells,),
    }


def _observable(name, args, result):
    """What to compare across tiers: the return value, except for the
    in-place ``pool_scatter`` whose output is its mutated buffer."""
    return args[0] if name == "pool_scatter" else result


def _time_kernel(fn, make_args):
    best = float("inf")
    for _ in range(REPS):
        args = make_args()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_exp15_kernel_tiers():
    tiers = kernels.available_tiers()
    cases = _build_cases()
    assert set(cases) == set(kernels.kernel_names()), (
        "EXP-15 must cover every dispatched kernel"
    )

    measured = {name: {} for name in cases}
    baseline = {}
    try:
        for tier in tiers:
            kernels.set_tier(tier)
            for name, make_args in cases.items():
                fn = getattr(kernels, name)
                args = make_args()
                observed = _observable(name, args, fn(*args))
                if name in baseline:
                    # The tentpole contract at benchmark scale: tiers
                    # are bit-identical on the exact inputs we time.
                    assert np.array_equal(baseline[name], observed), (
                        f"kernel {name!r}: tier {tier!r} disagrees "
                        f"with {tiers[0]!r}"
                    )
                else:
                    baseline[name] = observed
                measured[name][tier] = _time_kernel(fn, make_args)
    finally:
        kernels.set_tier(kernels.resolve_env_tier())

    rows = []
    recorded = {}
    for name, times in measured.items():
        entry = {f"{tier}_time_sec": t for tier, t in times.items()}
        row = {"kernel": name}
        for tier in tiers:
            row[f"{tier} (us)"] = round(times[tier] * 1e6, 1)
        if "numpy" in times and "numba" in times:
            speedup = times["numpy"] / times["numba"]
            entry["numba_speedup"] = speedup
            row["numba speedup"] = round(speedup, 2)
        recorded[name] = entry
        rows.append(row)
    print_table(rows, title=f"EXP-15 kernel tiers "
                            f"(tiers={'/'.join(tiers)}, reps={REPS}, "
                            f"cpus={available_cpus()})")

    update_bench_ingest(lambda payload: payload.update(exp15_kernels={
        "rows": ROWS,
        "columns": COLUMNS,
        "levels": LEVELS,
        "batch": BATCH,
        "elems": ELEMS,
        "reps": REPS,
        "cpus": available_cpus(),
        "tiers": list(tiers),
        "kernels": recorded,
    }))
