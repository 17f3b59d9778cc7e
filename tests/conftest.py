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


def workers_for(name, workers=2):
    """The worker count to open the backend ``name`` with: ``workers``
    threads for ``shared_memory``; ``sequential`` takes no count."""
    return workers if name == "shared_memory" else None


def family_pair(backend, n=40, columns=6, seed=9):
    """One sketch family twice: on a sequential backend and on
    ``backend`` (an instance)."""
    from repro.sketch import SketchFamily

    seq, other = (SketchFamily(n, columns=columns, backend=b,
                               rng=np.random.default_rng(seed))
                  for b in (None, backend))
    assert seq.randomness.params() == other.randomness.params()
    return seq, other


class ReferenceSampler:
    """The scalar reference L0-sampler: one standalone ``(3, columns,
    levels)`` block of differential ``(Wd, Sd, Fd)`` cells.

    :meth:`update` computes a coordinate's per-column level and
    ``z^idx`` directly from the randomness's hashes with Python ints
    (no array kernel) and writes one cell per column; the reads scan
    the level prefixes with Python-int sums.  Pool rows, written by
    ``kernels.pool_scatter`` and read by the group route, must hold and
    answer exactly what this holds and answers.
    """

    def __init__(self, randomness):
        self.randomness = randomness
        self.cells = np.zeros((3, randomness.columns, randomness.levels),
                              dtype=np.int64)

    def update(self, idx, delta):
        """Add ``delta`` at coordinate ``idx``."""
        from repro.sketch import MERSENNE_P, trailing_zeros

        rnd = self.randomness
        idx, delta = int(idx), int(delta)
        if not 0 <= idx < rnd.universe:
            raise ValueError(f"coordinate {idx} outside universe")
        fd = delta * pow(rnd.z, idx, MERSENNE_P) % MERSENNE_P
        for col, h in enumerate(rnd.level_hashes):
            level = trailing_zeros(h(idx), rnd.levels - 1)
            w, s, f = self.cells[:, col, level].tolist()
            self.cells[:, col, level] = (w + delta, s + delta * idx,
                                         (f + fd) % MERSENNE_P)

    def is_zero(self):
        """Column 0's level-0 prefix is zero (the column invariant)."""
        from repro.sketch import MERSENNE_P

        w, s, f = (sum(q.tolist()) for q in self.cells[:, 0])
        return w == 0 and s == 0 and f % MERSENNE_P == 0

    def sample_column(self, col):
        """The lowest level of column ``col`` whose prefix passes the
        divisibility, range and fingerprint tests, or ``None``."""
        from repro.sketch import MERSENNE_P

        rnd = self.randomness
        w_col, s_col, f_col = (q.tolist() for q in self.cells[:, col])
        for level in range(rnd.levels):
            w, s = sum(w_col[level:]), sum(s_col[level:])
            if w == 0 or s % w != 0:
                continue
            idx = s // w
            if not 0 <= idx < rnd.universe:
                continue
            if (w % MERSENNE_P) * pow(rnd.z, idx, MERSENNE_P) \
                    % MERSENNE_P == sum(f_col[level:]) % MERSENNE_P:
                return idx
        return None

    def sample(self):
        """The first column, counting up from 0, that recovers."""
        for col in range(self.randomness.columns):
            idx = self.sample_column(col)
            if idx is not None:
                return idx
        return None


def exact_group_answers(family, groups, cols, live):
    """Exact references for a group query on ``family``'s pool.

    Per group, a :class:`ReferenceSampler` whose cells are the exact sum
    of the member rows (``W`` and ``S`` as Python-int sums, ``F`` as the
    Python-int sum mod p) answers the zero test and decodes the asked
    column with the scalar scan: the bit-identical reference for
    ``query_iteration_groups`` / ``cuts_empty_groups``.  The group's cut
    in the live edge set ``live`` checks that reference in turn: a group
    is zero exactly when its cut is empty, and a recovered edge lies in
    the cut.  Returns ``(zeros, found)``, ``found`` -1 where nothing is
    recovered.
    """
    from repro.sketch import MERSENNE_P, decode_index

    zeros, found = [], []
    for group, col in zip(groups, np.broadcast_to(cols, (len(groups),))):
        total = family.pool.cells[np.asarray(group)].astype(object).sum(0)
        total[2] %= MERSENNE_P
        sampler = ReferenceSampler(family.randomness)
        sampler.cells[...] = total
        side = {int(v) for v in group}
        cut = {e for e in live if (e[0] in side) != (e[1] in side)}
        zero = sampler.is_zero()
        idx = None if zero else sampler.sample_column(int(col))
        assert zero == (not cut)
        assert idx is None or decode_index(family.n, idx) in cut
        zeros.append(zero)
        found.append(-1 if idx is None else idx)
    return np.array(zeros, dtype=bool), np.array(found, dtype=np.int64)


def check_groups(families, groups, cols, live):
    """Query ``groups`` on every family (one per backend) and assert
    that both group entries answer exactly :func:`exact_group_answers`;
    returns the shared ``(zeros, edges)``."""
    want_zeros, want_found = exact_group_answers(families[0], groups, cols,
                                                 live)
    for family in families:
        zeros, edges = family.query_iteration_groups(groups, cols)
        assert zeros.tolist() == want_zeros.tolist()
        assert family.cuts_empty_groups(groups).tolist() == \
            want_zeros.tolist()
        assert edges == family.decode_many(want_found)
    return zeros.tolist(), edges


def replay_rows(family, updates):
    """The per-vertex scalar replay of signed edge updates ``(u, v,
    delta)``: one standalone sampler per vertex from ``family``'s
    randomness, updated with ``edge_sign(x, u, v) * delta`` at both
    endpoints -- the reference for the pool's bulk ingestion, stacked
    like ``family.pool.cells``."""
    from repro.sketch import edge_sign, encode_edge

    samplers = [ReferenceSampler(family.randomness)
                for _ in range(family.n)]
    for u, v, delta in updates:
        idx = encode_edge(family.n, int(u), int(v))
        for x in (int(u), int(v)):
            samplers[x].update(idx, edge_sign(x, u, v) * int(delta))
    return np.stack([s.cells for s in samplers])
