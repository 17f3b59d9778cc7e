"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpc import Cluster, MPCConfig


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_config():
    return MPCConfig(n=64, phi=0.5, seed=7)


@pytest.fixture
def small_cluster(small_config):
    return Cluster(small_config)


def make_valid_batch(rng, n, live, size, delete_fraction=0.4,
                     weighted=False):
    """A model-valid batch: no within-batch edge reuse, deletes target
    live edges only.  Mutates ``live`` to the post-batch edge set."""
    from repro.types import dele, ins

    updates = []
    touched = set()
    for _ in range(size):
        pool = sorted(live - touched)
        if pool and rng.random() < delete_fraction:
            edge = pool[int(rng.integers(0, len(pool)))]
            touched.add(edge)
            live.discard(edge)
            updates.append(dele(*edge))
        else:
            for _ in range(80):
                u = int(rng.integers(0, n))
                v = int(rng.integers(0, n))
                if u == v:
                    continue
                edge = (min(u, v), max(u, v))
                if edge not in live and edge not in touched:
                    touched.add(edge)
                    live.add(edge)
                    weight = float(rng.integers(1, 64)) if weighted else 1.0
                    updates.append(ins(u, v, weight))
                    break
    return updates


def random_edges(n, count, seed=0):
    """``count`` distinct random edges of ``K_n``, sorted."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def edge_arrays(n, count, seed=0):
    """:func:`random_edges` as ``(us, vs)`` int64 arrays."""
    us, vs = zip(*random_edges(n, count, seed))
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


def family_pair(backend, n=40, columns=6, seed=9):
    """One sketch family twice: on ``sequential`` and on ``backend``."""
    from repro.sketch import SketchFamily

    seq, other = (SketchFamily(n, columns=columns, backend=b,
                               rng=np.random.default_rng(seed))
                  for b in ("sequential", backend))
    assert seq.randomness.params() == other.randomness.params()
    return seq, other
