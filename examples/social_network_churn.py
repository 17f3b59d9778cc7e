"""Scenario: friendship churn in a social network.

The paper's motivating workload (Section 1): a graph with heavy-tailed
degrees where millions of edges appear and disappear, processed in
batches.  We stream a power-law graph with churn through the paper's
connectivity algorithm and through the prior-work full-graph baseline,
and print the trade-off the paper proves: identical component tracking,
constant rounds for both, but ~O(n) vs Theta(n + m) total memory.

Run with::

    python examples/social_network_churn.py
"""

from repro.analysis import print_table
from repro.baselines import FullGraphConnectivity
from repro.core import MPCConnectivity
from repro.mpc import MPCConfig
from repro.streams import ChurnStream, as_batches, power_law_insertions


def main() -> None:
    n = 256
    config = MPCConfig(n=n, phi=0.5, seed=1)
    ours = MPCConnectivity(config)
    baseline = FullGraphConnectivity(MPCConfig(n=n, phi=0.5, seed=2))

    # Bootstrap: a power-law friendship graph (hubs + long tail).
    bootstrap = power_law_insertions(n, 4 * n, exponent=2.2, seed=3)
    for batch in as_batches(bootstrap, 16):
        ours.apply_batch(batch)
        baseline.apply_batch(batch)

    # Steady state: follow/unfollow churn, batched.
    churn = ChurnStream(n, seed=4, delete_fraction=0.45,
                        target_edges=4 * n)
    churn.live = set()
    # Seed the stream's view of live edges with the bootstrap graph.
    for up in bootstrap:
        churn.live.add(up.edge)

    rows = []
    for step, batch in enumerate(churn.batches(30, 12)):
        ours.apply_batch(batch)
        baseline.apply_batch(batch)
        if step % 10 == 9:
            rows.append({
                "phase": step + 1,
                "live edges": ours.num_edges,
                "components": ours.num_components(),
                "ours rounds": ours.phases[-1].rounds,
                "ours memory": ours.total_memory_words(),
                "full-graph memory": baseline.total_memory_words(),
            })
        assert ours.num_components() == baseline.num_components()

    print_table(rows, title="social churn: ours vs full-graph baseline")
    per_edge = (rows[-1]["full-graph memory"] - rows[0]["full-graph memory"]
                ) / max(1, rows[-1]["live edges"] - rows[0]["live edges"])
    print(
        "note: identical answers every phase.  Our footprint is flat in "
        "m (the polylog sketch overhead dominates at this small n), "
        f"while the baseline pays ~{per_edge:.1f} words per live edge "
        "-- at the paper's scale (trillions of edges) that linear term "
        "is the whole cost.  The claims table (pytest benchmarks -s) "
        "sweeps the density."
    )


if __name__ == "__main__":
    main()
