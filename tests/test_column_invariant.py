"""The column invariant, and the one-column group read path it licenses.

Every update adds to exactly one level of *every* column
(:mod:`repro.sketch.sparse_recovery`), so a column's level sums are the
whole vector's ``(W, S, F)`` totals in every column.  The group read
path (``kernels.merge_groups`` gathering one column per group, the
zero test on that column) is exact only because of it, so:

* a hypothesis property drives every write path -- the scalar
  reference sampler, keyed rows (``KeyedSamplers``) and the family's
  bulk edge router -- and checks the invariant, and that every stored fingerprint is a canonical residue,
  on every row afterwards;
* a differential test checks the routed ``gquery`` / ``gzero`` answers
  on a churned pool against ``exact_group_answers``: the Python-int sum
  of the *full* member rows, decoded with the scalar big-int scan, and
  the exact cut of the live edge set -- on the sequential backend and on
  the 2-thread shared_memory backend, so the sharded path is compared too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.backend import _execute_op, open_backend
from repro.sketch import MERSENNE_P, KeyedSamplers, SketchFamily
from tests.conftest import ReferenceSampler, exact_group_answers

N = 8
COLUMNS = 4


def assert_column_invariant(cells):
    """Level sums of W and S, and of F mod p, agree across columns."""
    w, s = cells[:2].sum(axis=-1).tolist()
    f = [sum(levels.tolist()) % MERSENNE_P for levels in cells[2]]
    for name, row in (("W", w), ("S", s), ("F", f)):
        assert row == [row[0]] * len(row), (name, row)


_UNIVERSE = N * (N - 1) // 2

deltas = st.sampled_from([-2, -1, 1, 2])
coords = st.integers(0, _UNIVERSE - 1)
vertices = st.integers(0, N - 1)
OPS = st.one_of(
    st.tuples(st.just("apply"), coords, deltas),
    st.tuples(st.just("keyed"),
              st.lists(st.tuples(coords, deltas), min_size=1, max_size=6)),
    st.tuples(st.just("bulk"),
              st.lists(st.tuples(vertices, vertices, deltas), max_size=8)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, max_size=14), st.integers(0, 2 ** 32 - 1))
def test_every_write_path_keeps_columns_equal(ops, seed):
    family = SketchFamily(N, columns=COLUMNS,
                          rng=np.random.default_rng(seed),
                          backend="sequential")
    rnd = family.randomness
    reference = ReferenceSampler(rnd)
    keyed = KeyedSamplers(rnd)
    for op in ops:
        kind = op[0]
        if kind == "apply":
            _, idx, delta = op
            reference.update(idx, delta)
        elif kind == "keyed":
            keys = [i % 3 for i in range(len(op[1]))]
            keyed.update(keys, [i for i, _ in op[1]], [d for _, d in op[1]])
        else:
            edges = [(u, v, d) for u, v, d in op[1] if u != v]
            if edges:
                us, vs, ds = (np.array(col, dtype=np.int64)
                              for col in zip(*edges))
                family.apply_edges_bulk(us, vs, ds)
    for cells in (reference.cells, *keyed.pool.cells, *family.pool.cells):
        assert_column_invariant(cells)
        # Every write path leaves Fd a canonical residue.
        assert 0 <= cells[2].min() and cells[2].max() < MERSENNE_P


# ---------------------------------------------------------------------------
# Routed gquery / gzero against the full-row reference
# ---------------------------------------------------------------------------

CHURN_N = 32
CHURN_COLUMNS = 6


def churned_family(backend):
    """A family whose pool went through inserts and deletes, and its
    live edge set; a few vertices stay isolated."""
    family = SketchFamily(CHURN_N, columns=CHURN_COLUMNS,
                          rng=np.random.default_rng(5), backend=backend)
    rng = np.random.default_rng(17)
    active = CHURN_N - 4                      # the last four stay isolated
    us = rng.integers(0, active, size=160)
    vs = rng.integers(0, active, size=160)
    edges = sorted({(min(u, v), max(u, v))
                    for u, v in zip(us.tolist(), vs.tolist()) if u != v})
    us, vs = (np.array(c, dtype=np.int64) for c in zip(*edges))
    ones = np.ones(us.shape[0], dtype=np.int64)
    family.apply_edges_bulk(us, vs, ones)
    gone = rng.random(us.shape[0]) < 0.4
    family.apply_edges_bulk(us[gone], vs[gone], -ones[gone])
    return family, {e for e, g in zip(edges, gone.tolist()) if not g}


def group_batches():
    """Singletons (isolated ones included), the whole vertex set (a
    zero group: every edge enters it twice with opposite signs),
    random supernodes, and repeated columns."""
    rng = np.random.default_rng(3)
    batches = []
    for trial in range(12):
        groups = [np.array([v]) for v in rng.choice(CHURN_N, 4,
                                                      replace=False)]
        groups.append(np.arange(CHURN_N))
        for _ in range(5):
            size = int(rng.integers(2, 9))
            groups.append(rng.choice(CHURN_N, size, replace=False))
        order = rng.permutation(len(groups))
        groups = [groups[i].astype(np.int64) for i in order]
        if trial % 2:
            cols = np.full(len(groups), trial % CHURN_COLUMNS)
        else:
            cols = rng.integers(0, CHURN_COLUMNS, size=len(groups))
        batches.append((groups, cols.astype(np.int64)))
    return batches


def flat(groups):
    return (np.concatenate(groups),
            np.array([len(g) for g in groups], dtype=np.int64))


@pytest.fixture(params=["sequential", "shared_memory"])
def backend(request):
    """Each executor, the thread one with 2 workers, closed after."""
    with open_backend(request.param, 2) as backend:
        yield backend


def test_routed_group_ops_match_full_row_reference(backend):
    """The routed ops, and the op table in-process, answer exactly
    ``exact_group_answers`` -- whose zero test reads column 0 of the
    full sum, so a one-column shortcut that broke the invariant would
    show."""
    family, live = churned_family(backend)
    pool, rnd = family.pool, family.randomness
    for row in pool.cells:
        assert_column_invariant(row)
    seen_zero = seen_found = 0
    for groups, cols in group_batches():
        members, glens = flat(groups)
        want_zeros, want_found = exact_group_answers(family, groups,
                                                     cols, live)
        zeros, found = family.backend.query_groups(pool, rnd, members,
                                                   glens, cols)
        assert zeros.tolist() == want_zeros.tolist()
        assert found.tolist() == want_found.tolist()
        assert family.backend.zero_groups(
            pool, rnd, members, glens).tolist() == want_zeros.tolist()
        # The op table itself, in-process.
        local_zeros, local_found = _execute_op(
            "gquery", pool.cells, rnd, [glens, members, cols])
        assert local_zeros.tolist() == want_zeros.tolist()
        assert local_found.tolist() == want_found.tolist()
        seen_zero += int(want_zeros.sum())
        seen_found += int((want_found >= 0).sum())
    # The cases are really there: the whole-vertex-set groups and the
    # isolated singletons are zero, most of the rest recover.
    assert seen_zero >= 12
    assert seen_found > 60
