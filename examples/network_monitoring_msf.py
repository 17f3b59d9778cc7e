"""Scenario: backbone-network monitoring with spanning-forest weight.

A network operator watches link latencies evolve and wants the weight
of the minimum spanning forest -- the cost of the cheapest backbone --
continuously, without storing every link.  Insertion-only build-out
uses the exact MSF (Theorem 1.2(i)); live reweighting/decommissioning
is modelled as a dynamic stream fed to the (1+eps) approximation
(Theorem 1.2(ii)), cross-checked against the offline optimum.

Run with::

    python examples/network_monitoring_msf.py
"""

from repro.analysis import print_table
from repro.baselines import msf_weight
from repro.core import ApproxMSF, ExactMSFInsertOnly
from repro.mpc import MPCConfig
from repro.streams import ChurnStream, as_batches, weighted_insertions


def main() -> None:
    n = 96
    eps = 0.25

    # Build-out phase: links are only added; track the exact MSF.
    exact = ExactMSFInsertOnly(MPCConfig(n=n, phi=0.5, seed=1))
    build = weighted_insertions(n, 3 * n, max_weight=64, seed=2)
    for batch in as_batches(build, 12):
        exact.apply_batch(batch)
    offline = msf_weight(n, [(u.u, u.v, u.weight) for u in build])
    print(f"build-out: exact MSF weight {exact.msf_weight():.0f} "
          f"(offline optimum {offline:.0f}) -- exact, "
          f"{exact.stats['swaps']} swaps over "
          f"{len(exact.phases)} batches")
    assert exact.msf_weight() == offline, "exact MSF is not the optimum"

    # Live phase: links churn; track the (1+eps)-approximate weight.
    approx = ApproxMSF(MPCConfig(n=n, phi=0.5, seed=3), eps=eps,
                       max_weight=64)
    live = {}
    stream = ChurnStream(n, seed=4, delete_fraction=0.3,
                         target_edges=3 * n, weights=(1, 64))
    rows = []
    for step, batch in enumerate(stream.batches(24, 8)):
        approx.apply_batch(batch)
        for up in batch:
            if up.is_insert:
                live[up.edge] = up.weight
            else:
                live.pop(up.edge, None)
        if step % 6 == 5:
            true = msf_weight(n, [(u, v, w)
                                  for (u, v), w in live.items()])
            est = approx.weight_estimate()
            rows.append({
                "phase": step + 1,
                "links": len(live),
                "true MSF": round(true, 1),
                "estimate": round(est, 1),
                "ratio": est / true if true else 1.0,
                "rounds": approx.phases[-1].rounds,
            })
    print_table(rows, title=f"live monitoring ((1+{eps})-approx weight)")
    worst = max(row["ratio"] for row in rows)
    print(f"worst ratio {worst:.3f} <= 1+eps = {1 + eps} -- as proven.")
    assert worst <= 1 + eps, f"ratio {worst} exceeds 1+eps"
    forest = approx.query_forest()
    print(f"reported approximate backbone: {len(forest.edges)} links, "
          f"weight {forest.total_weight:.0f}")
    # A spanning forest has one edge fewer than vertices per component.
    assert len(forest.edges) == n - approx.num_components()


if __name__ == "__main__":
    main()
