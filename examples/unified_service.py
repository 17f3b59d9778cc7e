"""Unified serving: one update stream, three live query types.

Run with::

    python examples/unified_service.py

The scenario the session API exists for: a service ingests one stream
of edge churn (links appearing and disappearing) while three different
consumer teams query three different maintained solutions --

* *routing* asks connectivity questions (``connected``, spanning
  forest),
* *integrity monitoring* watches bipartiteness (an odd cycle means a
  conflict in the two-sided assignment),
* *capacity planning* reads an O(alpha)-approximate maximum matching.

Without the session each team would stand up its own cluster,
execution backend, and stream validator, and re-validate/re-route every
batch.  With it: one ``GraphSession``, one shared substrate, one
``ingest`` call per tick -- and a mid-stream ``checkpoint`` the service
can restore from after a restart, onto a fresh executor of the kind it
was written with.
"""

import os
import tempfile

from repro import GraphSession, dele, ins
from repro.analysis import print_table
from repro.streams import ChurnStream


def main() -> None:
    # Vertices 0..127 carry organic churn; 128..159 hold the curated
    # two-sided assignment the integrity monitor watches (the churn
    # generator owns its range, so the two streams never conflict).
    n, churn_n = 160, 128
    session = GraphSession(
        n,
        tasks=("connectivity", "bipartiteness", "matching"),
        seed=7,
        batch_size=16,
    )
    print(session.config.describe())
    print(f"tasks: {session.tasks}; "
          f"backend: {session.cluster.backend.describe()}\n")

    # Curated structure: links only between even and odd vertices, so
    # this part of the graph starts bipartite.
    session.ingest([(128 + 2 * i, 129 + 2 * i) for i in range(12)])
    session.ingest([(128 + 2 * i, 131 + 2 * i) for i in range(10)])
    print(f"tick 1: {session.num_edges} edges, "
          f"{session.num_components()} components, "
          f"bipartite={session.is_bipartite()}, "
          f"matching size={session.matching().size}")

    # An odd triangle among spare vertices flips the monitor; deleting
    # one triangle edge repairs it.
    session.ingest([ins(152, 153), ins(153, 154), ins(152, 154)])
    print(f"after odd triangle: bipartite={session.is_bipartite()}")
    session.ingest([dele(152, 154)])
    print(f"after repair:       bipartite={session.is_bipartite()}\n")
    assert session.is_bipartite()

    # Live churn from a generator -- ingest consumes it lazily.  As
    # organic links accumulate, the monitor eventually reports the
    # inevitable odd cycle while routing and capacity stay live.
    churn = ChurnStream(churn_n, seed=11, delete_fraction=0.35,
                        target_edges=2 * churn_n)
    for tick in range(2, 5):
        for batch in churn.batches(3, 12):
            session.ingest(batch)
        print(f"tick {tick}: {session.num_edges} edges, "
              f"{session.num_components()} components, "
              f"bipartite={session.is_bipartite()}, "
              f"matching size={session.matching().size}")

    # Operational snapshot: checkpoint, simulate a restart, restore,
    # and verify the maintained answers carried over exactly.
    path = os.path.join(tempfile.mkdtemp(prefix="repro-session-"),
                        "service.ckpt")
    session.checkpoint(path)
    restored = GraphSession.restore(path)
    assert restored.spanning_forest().edges == session.spanning_forest().edges
    assert restored.is_bipartite() == session.is_bipartite()
    assert restored.matching().size == session.matching().size
    print(f"\ncheckpoint -> restore OK ({os.path.getsize(path)} bytes, "
          f"answers identical)")

    # The merged resource view the experiment harness consumes.
    print_table(session.summary(),
                title="per-task summary (shared cluster and validator)")

    # Fleet health: empty on the sequential backend, all zeros on the
    # shared_memory thread backend (threads are never respawned).
    health = session.fleet_health()
    print(f"fleet health: {health or 'no parallel backend'}")

    session.close()
    restored.close()
    print(f"closed: {session!r}")


if __name__ == "__main__":
    main()
