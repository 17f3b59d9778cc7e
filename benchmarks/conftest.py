"""Shared helpers for the benchmark harness.

Every ``test_expN_*`` module reproduces one experiment (its module
docstring says which claim), prints a paper-style table, and asserts
the *shape* claims of the corresponding theorem.
``pytest benchmarks/ --benchmark-only`` runs them; pass ``-s`` to see
the tables live.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines import DynamicConnectivityOracle
from repro.core import MPCConnectivity
from repro.mpc import MPCConfig
from repro.streams import ChurnStream


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
