"""Shared helpers for the benchmark harness.

Every ``test_expN_*`` module reproduces one experiment (its module
docstring says which claim), prints a paper-style table, and asserts
the *shape* claims of the corresponding theorem.
``pytest benchmarks/ --benchmark-only`` runs them; pass ``-s`` to see
the tables live.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro import kernels
from repro.baselines import DynamicConnectivityOracle
from repro.core import MPCConnectivity
from repro.lint.stamp import lint_stamp
from repro.mpc import MPCConfig
from repro.streams import ChurnStream


@pytest.fixture(scope="session", autouse=True)
def _lint_gate():
    """Fail every EXP report fast if ``src/`` has lint findings.

    A benchmark number measured on a tree that violates the MPC
    conventions (uncharged bulk ops, Python loops in ``@hot_path``
    kernels) is not a trajectory point -- refuse to record it.  The
    verdict is cached per process (``repro.lint.stamp``), so the whole
    benchmark run pays for one lint pass.
    """
    stamp = lint_stamp()
    if stamp["findings"]:
        pytest.fail(
            "repro.lint found {} violation(s); fix them before "
            "recording benchmark numbers:\n{}".format(
                stamp["findings"], "\n".join(stamp["errors"])
            ),
            pytrace=False,
        )
    return stamp


def kernels_stamp() -> Dict[str, object]:
    """Kernel-tier provenance for ``BENCH_ingest.json``.

    :func:`update_bench_ingest` stamps this next to the ``lint`` field
    so each trajectory point records *which* hot-path implementations
    produced it (PR 8): the active ``REPRO_KERNELS`` tier, whether the compiled
    tier was even available, and how often ``auto`` silently fell back
    to numpy in this process.
    """
    return {
        "tier": kernels.active_tier(),
        "numba_available": kernels.numba_available(),
        "auto_fallbacks": kernels.counters()["auto_fallbacks"],
    }


BENCH_INGEST_PATH = Path(__file__).resolve().parents[1] / "BENCH_ingest.json"


def update_bench_ingest(mutator: Callable[[dict], None]) -> None:
    """Read-modify-write ``BENCH_ingest.json`` (EXP-12/14/15 share it).

    ``mutator`` edits the loaded trajectory dict in place -- each
    experiment owns its keys and must leave the others' alone, so a
    solo run never wipes a sibling's numbers -- then the ``lint`` /
    ``kernels`` provenance is re-stamped for the process that produced
    the new numbers.
    """
    payload = {}
    if BENCH_INGEST_PATH.exists():
        payload = json.loads(BENCH_INGEST_PATH.read_text())
    mutator(payload)
    stamp = lint_stamp()
    payload["lint"] = {"rule_pack": stamp["rule_pack"],
                       "findings": stamp["findings"]}
    payload["kernels"] = kernels_stamp()
    BENCH_INGEST_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def run_churn(alg, n: int, phases: int, batch_size: int, seed: int,
              delete_fraction: float = 0.3, target_density: float = 2.0,
              oracle: bool = False):
    """Drive an algorithm with a standard churn stream; returns the
    oracle (if requested) for quality checks."""
    stream = ChurnStream(n, seed=seed, delete_fraction=delete_fraction,
                         target_edges=int(target_density * n))
    check = DynamicConnectivityOracle(n) if oracle else None
    for batch in stream.batches(phases, batch_size):
        alg.apply_batch(batch)
        if check is not None:
            check.apply_batch(batch)
    return check


def summarize_phases(alg) -> Dict[str, object]:
    rounds = [p.rounds for p in alg.phases if p.batch_size > 0]
    return {
        "phases": len(rounds),
        "rounds/batch(max)": max(rounds, default=0),
        "rounds/batch(med)": sorted(rounds)[len(rounds) // 2]
        if rounds else 0,
        "peak_memory": alg.cluster.metrics.peak_total_memory,
        # Where the phases executed (PR 3 follow-on): experiment tables
        # stay interpretable when CI re-runs them on a worker fleet.
        "backend": alg.cluster.backend.describe(),
    }


def standard_config(n: int, phi: float = 0.5, seed: int = 0) -> MPCConfig:
    return MPCConfig(n=n, phi=phi, seed=seed)
