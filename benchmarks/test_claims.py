"""The claims table: one row per resource claim of the paper.

Every memory figure is a closed form of the configuration
(:mod:`repro.analysis.theory`), asserted equal to the ledger after every
phase with zero slack.  Each theorem row also checks the maintained
answer against an exact oracle, and the theorem's O(.) class over an n
sweep.  Three rows are not theorems: the batching speedup, AGM static
query rounds and the sketch-column ablation.

    PYTHONPATH=src python -m pytest benchmarks -q -s

runs the rows and prints the table.  Wall-clock timing is ``bench/``'s
job; nothing here is timed.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    connectivity_memory,
    connectivity_total_memory_bound,
    derived_memory,
    print_table,
    rounds_bound_per_batch,
    estimator_caps,
)
from repro.baselines import (
    AGMStaticConnectivity,
    DynamicConnectivityOracle,
    FullGraphConnectivity,
    is_bipartite,
    maximum_matching_size,
    msf_weight,
)
from repro.core import (
    AKLYMatching,
    ApproxMSF,
    DynamicBipartiteness,
    ExactMSFInsertOnly,
    GreedyMatchingInsertOnly,
    MatchingSizeEstimator,
    MPCConnectivity,
)
from repro.mpc import MPCConfig
from repro.streams import (
    ChurnStream,
    as_batches,
    erdos_renyi_insertions,
    even_cycle_insertions,
    path_insertions,
    planted_matching_insertions,
    singleton_batches,
    weighted_insertions,
)
from repro.types import dele, ins

N = 256
PHI = 0.5
ALPHAS = (2.0, 4.0, 8.0)
BOUND = rounds_bound_per_batch(PHI)
COLUMNS = ["claim", "n", "rounds/batch", "rounds bound", "memory",
           "derived", "quality", "class"]


def cfg(n=N, seed=0, phi=PHI):
    return MPCConfig(n=n, phi=phi, seed=seed)


def churn(n, phases, batch, seed, delete_fraction=0.3, density=2.0,
          weights=None):
    stream = ChurnStream(n, seed=seed, delete_fraction=delete_fraction,
                         target_edges=int(density * n), weights=weights)
    return list(stream.batches(phases, batch))


def drive(alg, batches, oracle=None, check=None):
    """Apply ``batches``.  After every phase the ledger equals the
    derived formula exactly, and ``check()`` holds; no registration
    between phases peaks above the derived totals."""
    peak = alg.cluster.metrics.peak_total_memory
    for batch in batches:
        alg.apply_batch(batch)
        if oracle is not None:
            oracle.apply_batch(batch)
        derived = derived_memory(alg)
        assert alg.memory_breakdown() == derived, alg.name
        peak = max(peak, sum(derived.values()))
        if check is not None:
            check()
    assert alg.cluster.metrics.peak_total_memory == peak, alg.name


def row(claim, alg, quality, klass, n=N):
    """One theorem row; its rounds must sit under Theorem 6.7's bound."""
    memory = alg.total_memory_words()
    assert memory == sum(derived_memory(alg).values())
    assert alg.max_rounds() <= BOUND, claim
    # The row records where its phases ran.
    assert alg.cluster.backend.describe()
    return {"claim": claim, "n": n, "rounds/batch": alg.max_rounds(),
            "rounds bound": int(BOUND), "memory": memory,
            "derived": memory, "quality": quality, "class": klass}


def connectivity_sweep(n, phi, seed):
    """A churned connectivity instance (12 phases of 8 updates)."""
    alg = MPCConnectivity(MPCConfig(n=n, phi=phi, seed=seed))
    drive(alg, churn(n, 12, 8, seed))
    return alg


# ----------------------------------------------------------------------
# Theorem rows
# ----------------------------------------------------------------------
def theorem_1_1():
    alg = MPCConnectivity(cfg(seed=1))
    oracle = DynamicConnectivityOracle(N)

    def check():
        assert alg.num_components() == oracle.num_components()

    drive(alg, churn(N, 30, 16, seed=2), oracle, check)
    for comp in oracle.component_sets():
        assert all(alg.connected(comp[0], v) for v in comp)
    # Class: sketch words are Theta(n log^2 n), measured on the sweep
    # and continued by the formula (3 t L ~ 12 log^2 n).
    ratios = []
    for k in range(6, 21):
        n = 2 ** k
        words = (connectivity_sweep(n, PHI, n).total_memory_words()
                 if n <= 512 else connectivity_total_memory_bound(n))
        ratios.append(words / (n * k * k))
    assert all(12 <= r <= 14.5 for r in ratios), ratios
    assert ratios == sorted(ratios, reverse=True)
    return row("connectivity (Thm 1.1)", alg, "components exact",
               f"words/(n log2^2 n) {ratios[-1]:.2f}..{ratios[0]:.2f}")


def memory_vs_m():
    """Theorem 1.1 against the Theta(n + m) full graph of [ILMP19]/[NO21]."""
    ours, full = [], []
    for density in (1, 8, 32):
        a = MPCConnectivity(cfg(seed=density))
        b = FullGraphConnectivity(cfg(seed=density))
        for batch in as_batches(
                erdos_renyi_insertions(N, density * N, seed=density), 64):
            drive(a, [batch])
            drive(b, [batch])
        ours.append(a.total_memory_words())
        full.append(b.total_memory_words())
    # Ours is flat in m: only the forest term moves.
    assert max(ours) <= 1.05 * min(ours)
    assert ours[-1] - ours[0] <= 4 * N
    # The full graph grows linearly with m, by far more than ours.
    assert full[-1] >= 5 * full[0]
    assert full[-1] - full[0] > 10 * max(1, ours[-1] - ours[0])
    return {"claim": "memory vs m (Thm 1.1 vs NO21)", "n": N,
            "memory": ours[-1], "derived": ours[-1],
            "quality": f"full graph {full[0]} -> {full[-1]}",
            "class": f"ours +{ours[-1] - ours[0]} over m/n 1 -> 32"}


def theorem_6_7():
    """O(1/phi) rounds per batch: flat in n, growing as phi falls."""
    by_phi = [connectivity_sweep(N, phi, int(100 * phi)).max_rounds()
              for phi in (0.67, 0.5, 0.33, 0.25)]
    for phi, rounds in zip((0.67, 0.5, 0.33, 0.25), by_phi):
        assert rounds <= rounds_bound_per_batch(phi)
    assert by_phi == sorted(by_phi), by_phi
    by_n = [connectivity_sweep(n, PHI, n).max_rounds()
            for n in (64, 128, 256, 512)]
    assert max(by_n) - min(by_n) <= 12, by_n
    return {"claim": "rounds per batch (Thm 6.7)", "n": "64..512",
            "rounds/batch": max(by_n), "rounds bound": int(BOUND),
            "quality": f"phi .67->.25: {by_phi}",
            "class": f"n 64->512: {by_n}"}


def theorem_1_2_i():
    alg = ExactMSFInsertOnly(cfg(seed=3))
    updates = weighted_insertions(N, 3 * N, max_weight=100, seed=4)
    drive(alg, as_batches(updates, 16))
    ref = msf_weight(N, [(u.u, u.v, u.weight) for u in updates])
    assert alg.msf_weight() == pytest.approx(ref, abs=1e-9)
    # Class: 2n + 5|F| <= 7n words, linear in n and free of m.
    assert alg.total_memory_words() <= 7 * N
    return row("exact MSF ins-only (Thm 1.2i)", alg, "weight exact",
               f"{alg.total_memory_words() / N:.2f} n words <= 7 n")


def theorem_1_2_ii():
    n, ratios = 128, []
    for eps in (0.1, 0.25, 0.5):
        alg = ApproxMSF(cfg(n, seed=8), eps=eps, max_weight=64)
        stream = ChurnStream(n, seed=9, delete_fraction=0.25,
                             target_edges=3 * n, weights=(1, 64))
        live = {}
        for batch in stream.batches(15, 10):
            for up in batch:
                if up.is_insert:
                    live[up.edge] = up.weight
                else:
                    live.pop(up.edge)
            drive(alg, [batch])
        ref = msf_weight(n, [(u, v, w) for (u, v), w in live.items()])
        ratio = alg.weight_estimate() / ref
        assert 1.0 - 1e-9 <= ratio <= 1 + eps + 1e-9, (eps, ratio)
        assert len(alg.query_forest().edges) == n - alg.num_components()
        assert alg.max_rounds() <= BOUND
        ratios.append(f"{ratio:.3f}")
        # Class: one connectivity instance per weight class.
        assert alg.total_memory_words() <= \
            len(alg.levels) * connectivity_total_memory_bound(n)
    return row("approx MSF eps .1/.25/.5 (Thm 1.2ii)", alg,
               "w/w* " + " / ".join(ratios),
               f"{len(alg.levels)} levels x conn(n)", n=n)


def theorem_7_3():
    n = 64
    alg = DynamicBipartiteness(cfg(n, seed=10))
    oracle = DynamicConnectivityOracle(n)
    cycle = even_cycle_insertions(n)
    # Chords at odd distance keep the even cycle bipartite; chords at
    # even distance close an odd cycle, and deleting them restores it.
    surgery = [cycle[:n // 2], cycle[n // 2:], [ins(0, 3)], [ins(10, 15)],
               [ins(1, 6)], [ins(0, 2)], [dele(0, 2)],
               [ins(7, 21), ins(22, 40)], [dele(7, 21), dele(22, 40)]]
    answers = []

    def check():
        answers.append(alg.is_bipartite())
        assert answers[-1] == is_bipartite(n, oracle.edges())

    drive(alg, surgery, oracle, check)
    assert answers == [True] * 5 + [False, True, False, True]
    assert alg.max_rounds() <= 90
    churned = DynamicBipartiteness(cfg(seed=7))
    oracle = DynamicConnectivityOracle(N)

    def check_churned():
        assert churned.is_bipartite() == is_bipartite(N, oracle.edges())

    drive(churned, churn(N, 15, 8, seed=8), oracle, check_churned)
    # Class: the double cover costs conn(2n) ~ 2 conn(n).
    ratios = []
    for inst in (alg, churned):
        part = inst.memory_breakdown()
        ratios.append(part["cover-instance"] / part["base-instance"])
    ratios += [sum(connectivity_memory(2 * k, 2 * k - 1).values())
               / sum(connectivity_memory(k, k - 1).values())
               for k in (1 << 12, 1 << 16, 1 << 20)]
    assert all(1.5 <= r <= 3.5 for r in ratios), ratios
    assert ratios[1:] == sorted(ratios[1:], reverse=True)
    return row("bipartiteness (Thm 7.3)", churned,
               "4 parity flips + churn exact",
               f"cover/base {ratios[1]:.2f} -> {ratios[-1]:.2f}")


def matching_rows():
    """Theorems 8.1 (insertion-only greedy) and 8.2 (AKLY, dynamic)."""
    updates = planted_matching_insertions(N, size=N // 4, noise=N // 2,
                                          seed=7)
    deletes = [dele(u.u, u.v) for u in updates[::3]]
    opt = maximum_matching_size(N, [u.edge for u in updates])
    opt_after = maximum_matching_size(
        N, {u.edge for u in updates} - {d.edge for d in deletes})
    rows, memory = [], {"greedy": [], "akly": []}
    for alpha in ALPHAS:
        greedy = GreedyMatchingInsertOnly(cfg(seed=1), alpha=alpha)
        drive(greedy, as_batches(updates, 16))
        akly = AKLYMatching(cfg(seed=2), alpha=alpha)
        drive(akly, as_batches(updates, 16) + as_batches(deletes, 16))
        for name, alg, best in (("greedy", greedy, opt),
                                ("akly", akly, opt_after)):
            assert alg.matching_size() >= 1
            assert best / alg.matching_size() <= 8 * alpha, (name, alpha)
            memory[name].append(alg.total_memory_words())
        # Class: ~O(n/alpha) words for greedy; AKLY's active pairs stay
        # within sum over guesses of beta * gamma.
        assert greedy.total_memory_words() <= 2 * math.ceil(N / alpha)
        assert sum(len(g.active) for g in akly.guesses) <= \
            sum(g.beta * g.gamma for g in akly.guesses)
        if alpha == 4.0:
            rows.append(row(f"greedy matching a={alpha} (Thm 8.1)", greedy,
                            f"OPT/alg {opt / greedy.matching_size():.2f}",
                            "words <= 2 ceil(n/a)"))
            rows.append(row(f"AKLY matching a={alpha} (Thm 8.2)", akly,
                            f"OPT/alg {opt_after / akly.matching_size():.2f}",
                            "pairs <= sum beta gamma"))
    # Memory shrinks strictly with alpha in both families.
    for trace in memory.values():
        assert all(b < a for a, b in zip(trace, trace[1:])), memory
    for r, name in zip(rows, memory):
        r["class"] += f"; a 2/4/8: {memory[name]}"
    return rows


def size_estimation_rows():
    """Theorems 8.5 (insertion-only) and 8.6 (dynamic)."""
    rows = []
    for dynamic in (False, True):
        worst, memory = 0.0, []
        for alpha in (2.0, 4.0):
            estimates = []
            for size in (16, 32, 64):
                alg = MatchingSizeEstimator(
                    cfg(seed=int(alpha) * 100 + size), alpha=alpha,
                    dynamic=dynamic)
                drive(alg, as_batches(planted_matching_insertions(
                    N, size=size, noise=size, seed=int(alpha) * 100 + size),
                    16))
                est = alg.estimate()
                assert size / max(est, 1.0) <= 8 * alpha
                assert est / size <= 8 * alpha
                worst = max(worst, size / max(est, 1.0), est / size)
                estimates.append(est)
            # The estimate follows the planted matching up.
            assert estimates[-1] >= estimates[0], estimates
            memory.append(alg.total_memory_words())
        # Class: each tester is capped at ceil(n / alpha^2), so memory
        # is ~O(n/alpha^2) (insertion-only) and shrinks with alpha.
        budget = math.ceil(N / alpha ** 2)
        assert max(estimator_caps(N, alpha)) == budget
        assert memory[1] < memory[0], memory
        if not dynamic:
            assert memory[1] <= 2 * budget * len(alg.testers)
        kind = "8.6 dyn" if dynamic else "8.5 ins"
        rows.append(row(f"size estimation a={alpha} (Thm {kind})", alg,
                        f"OPT/est, est/OPT <= {worst:.2f}",
                        f"a 2/4: {memory}"))
    return rows


# ----------------------------------------------------------------------
# Rows that are not theorems
# ----------------------------------------------------------------------
def batching_speedup():
    """k updates in one phase cost O(1) rounds, not k * O(1)."""
    n = 128
    updates = [up for batch in churn(n, 16, 32, seed=5) for up in batch]

    def total(batches, seed):
        alg = MPCConnectivity(cfg(n, seed=seed))
        drive(alg, batches)
        return sum(p.rounds for p in alg.phases)

    single = total(singleton_batches(updates), seed=1)
    speedups = [single / total(as_batches(updates, k), seed=2)
                for k in (2, 4, 8, 16, 32)]
    assert speedups == sorted(speedups), speedups
    assert speedups[-1] >= 2 * speedups[1]
    assert speedups[-1] >= 4
    return {"claim": "batching speedup (NO21 vs ILMP19)", "n": n,
            "quality": f"{single} singleton rounds",
            "class": "k 2..32: " + " ".join(f"{s:.1f}x" for s in speedups)}


def agm_static_queries():
    """Sketch-only AGM pays O(log n) rounds per query; ours O(1)."""
    ours, agm = [], []
    for n in (64, 128, 256, 512):
        a = MPCConnectivity(cfg(n, seed=n))
        b = AGMStaticConnectivity(cfg(n, seed=n + 1))
        for batch in as_batches(path_insertions(n, seed=n), 16):
            drive(a, [batch])
            drive(b, [batch])
        ours.append(a.query_with_metrics()[1].rounds)
        agm.append(b.query_with_metrics()[1].rounds)
        assert b.stats["query_iterations"] >= 2
        assert a.max_rounds() <= 80 and b.max_rounds() <= 20
    assert max(ours) - min(ours) <= 2
    assert all(x > o for x, o in zip(agm, ours))
    return {"claim": "query rounds vs AGM static", "n": "64..512",
            "quality": f"ours {ours}", "class": f"AGM {agm}"}


def sketch_ablation():
    """Failures vanish once the columns reach the O(log n) regime."""
    n, failures, drift = 128, {}, {}
    for columns in (1, 2, 4, 8, 16):
        failures[columns] = drift[columns] = 0
        for trial in range(3):
            seed = 1000 * columns + trial
            alg = MPCConnectivity(cfg(n, seed=seed), columns=columns)
            oracle = DynamicConnectivityOracle(n)
            drive(alg, churn(n, 25, 8, seed + 1, delete_fraction=0.45,
                             density=1.0), oracle)
            f = alg.stats["sketch_failures"]
            d = abs(alg.num_components() - oracle.num_components())
            assert f > 0 or d == 0, "drift without a recorded failure"
            failures[columns] += f
            drift[columns] += d
    assert failures[16] == 0 and drift[16] == 0
    assert failures[8] <= max(1, failures[1])
    return {"claim": "sketch-column ablation", "n": n,
            "quality": f"failures {list(failures.values())}",
            "class": f"drift {list(drift.values())} (t = 1..16)"}


CLAIMS = [theorem_1_1, memory_vs_m, theorem_6_7, theorem_1_2_i,
          theorem_1_2_ii, theorem_7_3, matching_rows, size_estimation_rows,
          batching_speedup, agm_static_queries, sketch_ablation]


@pytest.fixture(scope="module")
def table():
    rows = []
    yield rows
    print_table(rows, columns=COLUMNS,
                title=f"Claims table (phi={PHI}; memory == derived, "
                      "zero slack)")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda f: f.__name__)
def test_claim(claim, table):
    out = claim()
    table.extend(out if isinstance(out, list) else [out])
